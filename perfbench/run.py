"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload report --seed 1 --seconds 45 --trace 0

``--trace 0`` times ops with nothing wrapped and reports the end-to-end
metrics. ``--trace 1`` alternates untraced and traced ops, pairwise on
the same seed, and reports the per-layer metrics (see ``layers.py``).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A run record (environment,
every op sample) and, for traced runs, the spans as JSONL go to
``perfbench/out/``.

Ops take seeds ``seed, seed+1, ...``; the first (cold) op also warms the
library's caches and is excluded from the op statistics. The benchmark
sets no BLAS or OpenMP thread variable; it records the ones it finds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from typing import Dict, List, Optional, Tuple

import layers
import ops
from spans import Tracer, write_jsonl

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

#: Fresh interpreters started per run to time set-up; ``setup_s`` is
#: their median.
SETUP_PROBES = 5

#: Thread-count variables recorded as found (the benchmark sets none).
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS")

#: End-to-end metrics and their units.
END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
    "shape_pass_frac": "ratio",
    "op_ok_frac": "ratio",
}


def import_repro() -> None:
    """Put the checkout's ``src`` first on the path and import from it."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no repro package under {SRC}")
    sys.path.insert(0, SRC)
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: repro imported from {repro.__file__}, "
                         f"not from {SRC}")


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------
def git_revision() -> Optional[str]:
    """HEAD of the checkout, read from ``.git`` (None outside a clone)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as head:
            ref = head.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[len("ref: "):]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as loose:
                return loose.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as packed:
            for line in packed:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def blas_library() -> str:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def environment(workload, seed: int) -> Dict[str, object]:
    import numpy
    return {
        "workload": workload.name,
        "seed": seed,
        "jobs": workload.jobs,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "blas": blas_library(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def tail(samples: List[float]) -> Tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``. With ten samples or fewer no
    percentile has ten beyond it, and the minimum is returned.
    """
    ordered = sorted(samples)
    rank = len(ordered) - 10 if len(ordered) > 10 else 1
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def setup_seconds(workload_name: str) -> List[float]:
    """Time fresh interpreters from start to first op ready."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 workload_name, "--setup-probe"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True) as probe:
            line = probe.stdout.readline()
            times.append(time.perf_counter() - start)
            probe.stdout.read()
        if probe.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed ({probe.returncode})")
    return times


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
class Run:
    """Ops of one benchmark run, with their timings and verdicts."""

    def __init__(self, workload, tracer=None) -> None:
        self.workload = workload
        self.tracer = tracer
        self.samples: List[dict] = []
        self.problems: List[str] = []
        self.shape_passed = 0
        self.shape_total = 0
        self.rss_mb = 0.0
        self.tail: Dict[str, float] = {}

    def op(self, seed: int, traced: bool = False, keep: bool = False):
        """Run, time and check one op; returns its output if ``keep``."""
        patches = []
        if traced:
            self.tracer.op = len(self.samples)
            patches = layers.install(self.tracer)
        start = time.perf_counter()
        try:
            output = self.workload.op(seed)
        except Exception:  # an op that raises counts as failed
            output = None
            problems = ["op raised: " + traceback.format_exc()]
        seconds = time.perf_counter() - start
        layers.uninstall(patches)
        if output is not None:
            try:
                problems = self.workload.check(seed, output)
                passed, total = self.workload.shape_checks(output)
            except Exception:  # malformed output fails the op, not the run
                problems = ["check raised: " + traceback.format_exc()]
                passed, total = 0, 0
            self.shape_passed += passed
            self.shape_total += total
        self.samples.append({"seed": seed, "seconds": seconds,
                             "traced": traced, "ok": not problems})
        self._record(seed, problems)
        if output is not None and not keep:
            self.workload.release(output)
        return output

    def _record(self, seed: int, problems: List[str]) -> None:
        for problem in problems:
            self.problems.append(f"seed {seed}: {problem}")
            print(f"perfbench: seed {seed}: {problem}", file=sys.stderr)

    def final_check(self, seed: int, output) -> None:
        """Re-derive the first op's output and compare; fails that op."""
        if output is None:
            return
        try:
            problems = self.workload.final_check(seed, output)
        except Exception:  # as in op(): the first op fails, the run goes on
            problems = ["final check raised: " + traceback.format_exc()]
        if problems:
            self.samples[0]["ok"] = False
        self._record(seed, problems)
        self.workload.release(output)

    def seconds(self, traced: bool) -> List[float]:
        return [s["seconds"] for s in self.samples[1:] if s["traced"] == traced]

    @property
    def failed(self) -> int:
        return sum(not s["ok"] for s in self.samples)


def run_untraced(run: Run, seed: int, seconds: float) -> None:
    first = run.op(seed, keep=True)
    deadline = time.perf_counter() + seconds
    index = 1
    while index == 1 or time.perf_counter() < deadline:
        run.op(seed + index)
        index += 1
    run.final_check(seed, first)


def run_traced(run: Run, seed: int, seconds: float) -> List[float]:
    """Pairs of (untraced, traced) ops on one seed, alternating order.

    Returns the traced/untraced time ratio of each pair.
    """
    first = run.op(seed, keep=True)
    deadline = time.perf_counter() + seconds
    ratios = []
    index = 1
    while index == 1 or time.perf_counter() < deadline:
        order = (False, True) if index % 2 else (True, False)
        for traced in order:
            run.op(seed + index, traced=traced)
        pair = {s["traced"]: s["seconds"] for s in run.samples[-2:]}
        ratios.append(pair[True] / pair[False])
        index += 1
    run.final_check(seed, first)
    return ratios


def end_to_end_metrics(run: Run, setup: List[float]) -> Dict[str, float]:
    durations = run.seconds(traced=False)
    tail_value, tail_pct = tail(durations)
    run.tail = {"percentile": tail_pct, "ops": len(durations)}
    print(f"op_tail_s is p{tail_pct:.1f} of {len(durations)} timed ops",
          flush=True)
    return {
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.median(durations),
        "op_tail_s": tail_value,
        "peak_rss_mb": run.rss_mb,
        "shape_pass_frac": run.shape_passed / max(1, run.shape_total),
        "op_ok_frac": 1.0 - run.failed / len(run.samples),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=ops.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_repro()

    scratch = os.path.join(OUT_DIR, f"scratch-{os.getpid()}")
    workload = ops.make_workload(args.workload, scratch)
    try:
        workload.prepare()
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        return measure(args, workload)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, workload) -> int:
    """The benchmark run proper; prints the result line last."""
    os.makedirs(OUT_DIR, exist_ok=True)
    env = environment(workload, args.seed)
    print("env " + json.dumps(env), flush=True)
    tracer = Tracer() if args.trace else None
    run = Run(workload, tracer)
    origin = time.perf_counter()
    if args.trace:
        ratios = run_traced(run, args.seed, args.seconds)
    else:
        run_untraced(run, args.seed, args.seconds)
    run.rss_mb = peak_rss_mb()
    setup = setup_seconds(args.workload)

    if args.trace:
        values = layers.layer_metrics(tracer, len(run.seconds(traced=True)))
        values["bench.first_op_s"] = run.samples[0]["seconds"]
        values["bench.trace_overhead_frac"] = statistics.median(ratios) - 1.0
        units = layers.per_layer_units()
    else:
        values = end_to_end_metrics(run, setup)
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}

    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                        f"-trace{args.trace}")
    record = {"env": env, "seconds": args.seconds, "setup_s": setup,
              "tail": run.tail, "samples": run.samples,
              "problems": run.problems, "metrics": metrics}
    with open(stem + ".json", "w", encoding="utf-8") as out:
        json.dump(record, out, indent=1)
    if args.trace:
        write_jsonl(stem + ".spans.jsonl", env, tracer.spans, origin)

    print(json.dumps({"correct": not run.problems,
                      "attempted": len(run.samples),
                      "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
