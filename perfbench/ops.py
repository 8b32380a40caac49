"""The benchmark's workloads: one op each, plus the checks on its output.

A workload runs its op once per seed in one long-lived process. Each op
returns its raw result objects; ``check`` inspects them right after the
op (outside the timed region) and returns a list of problems, empty when
the output is right. ``final_check`` runs once per benchmark run, after
the timed loop, and re-derives the first op's output a second way
(re-running the same seed, or the same call at jobs 1) to compare.

``shape_checks`` scores the paper-shape verdict of each section the op
ran. On ``report`` these are the report's own verdicts; on the other
workloads they mirror ``repro.analysis.reporting.build_report(fast=False)``
for the sections the op shares with it, so a seed scores the same on
every workload that runs its section.

The library is reached through module attributes at call time (never
``from ... import``), so the traced run sees the wrappers that
:mod:`layers` installs on those attributes.
"""

from __future__ import annotations

import os
import re
import shutil
import tempfile
from typing import Dict, List, Tuple

#: The report's sections, in render order (``build_report``).
REPORT_SECTIONS = ("Figure 4", "Figure 5", "Figure 6", "Figure 7", "Table I",
                   "Figure 8a", "Figure 8b", "Figure 9", "Stencil scheduling")

#: Full budgets, as ``python -m repro report`` (``fast=False``) uses them.
REPETITIONS = 10
GENERATIONS = 25
POPULATION = 32
SAMPLE_DEVICES = 72

_TIMING = re.compile(r" \((?:\d+ experiments, )?\d+(?:\.\d+)?s\)$", re.M)


def strip_timings(rendered: str) -> str:
    """Drop the wall-clock figures a rendered report carries.

    They sit in each section header (``[PASS] Figure 4 (1.3s)``) and in
    the closing line (``(9 experiments, 3s)``); nothing else in the
    report depends on host time.
    """
    return _TIMING.sub("", rendered)


# ----------------------------------------------------------------------
# Paper-shape checks, mirroring build_report(fast=False)
# ----------------------------------------------------------------------
def _fig4_shape(result) -> bool:
    lo, hi = result.measured_range_mv("TTT")
    return (855 <= lo <= 865) and (880 <= hi <= 890) \
        and result.ordering_consistent_across_chips()


def _fig6_shape(result) -> bool:
    return result.virus_is_highest


def _fig7_shape(result) -> bool:
    return result.ordering_matches_paper and result.tss_margin_negligible


def _table1_shape(result) -> bool:
    return result.all_errors_corrected \
        and 12.0 < result.temperature_amplification() < 24.0


def _fig8b_shape(result) -> bool:
    name_max, val_max = result.max_savings
    name_min, val_min = result.min_savings
    return name_max == "nw" and name_min == "kmeans" \
        and abs(val_max - 27.3) < 1.0 and abs(val_min - 9.4) < 1.0


def _rows_problem(label: str, result) -> List[str]:
    return [] if result.rows() else [f"{label}: no rows"]


def _quarantine_problems(label: str, result) -> List[str]:
    """A quarantine must be typed and listed in the rendered result."""
    from repro.thermal.monitor import ZoneQuarantine

    untyped = [record for record in result.thermal_quarantine
               if not isinstance(record, ZoneQuarantine)]
    if untyped:
        return [f"{label}: untyped quarantine {record!r}" for record in untyped]
    rendered = result.format()
    return [f"{label}: quarantine not listed: {record.describe()}"
            for record in result.thermal_quarantine
            if record.describe() not in rendered]


class Workload:
    """One benchmark workload. Subclasses set ``name`` and ``jobs``."""

    name = ""
    jobs = 1

    def prepare(self) -> None:
        """Import what the op needs; counted in ``setup_s``."""

    def op(self, seed: int):
        raise NotImplementedError

    def check(self, seed: int, output) -> List[str]:
        raise NotImplementedError

    def shape_checks(self, output) -> Tuple[int, int]:
        """``(sections whose shape check passed, sections run)``."""
        raise NotImplementedError

    def final_check(self, seed: int, output) -> List[str]:
        raise NotImplementedError

    def release(self, output) -> None:
        """Free what an op's output holds on disk."""


class ReportWorkload(Workload):
    """``build_report(seed, fast=False)``, as ``python -m repro report``."""

    name = "report"

    def prepare(self) -> None:
        import repro.analysis.reporting  # noqa: F401
        import repro.experiments  # noqa: F401

    def op(self, seed: int):
        import repro.analysis.reporting as reporting
        return reporting.build_report(seed=seed, fast=False)

    def check(self, seed: int, output) -> List[str]:
        names = tuple(section.name for section in output.sections)
        if names != REPORT_SECTIONS:
            return [f"report sections {names}"]
        return [f"{section.name}: empty body or verdict"
                for section in output.sections
                if not section.body.strip() or not section.verdict.strip()]

    def shape_checks(self, output) -> Tuple[int, int]:
        return (sum(section.passed for section in output.sections),
                len(output.sections))

    def final_check(self, seed: int, output) -> List[str]:
        again = self.op(seed)
        if strip_timings(again.render()) != strip_timings(output.render()):
            return [f"report for seed {seed} differs between two builds"]
        return []


class RetentionWorkload(Workload):
    """Table I clean and under thermal faults, then Fig. 8a and 8b."""

    name = "retention"

    def prepare(self) -> None:
        import repro.experiments  # noqa: F401

    def op(self, seed: int) -> Dict[str, object]:
        import repro.experiments as ex
        return {
            "table1": ex.run_table1(seed=seed, regulate=True,
                                    sample_devices=SAMPLE_DEVICES),
            "table1_faulted": ex.run_table1(seed=seed, regulate=True,
                                            sample_devices=SAMPLE_DEVICES,
                                            thermal_faults=seed),
            "fig8a_faulted": ex.run_figure8a(seed=seed, thermal_faults=seed),
            "fig8b": ex.run_figure8b(seed=seed),
        }

    def check(self, seed: int, output) -> List[str]:
        import repro.experiments as ex

        clean, faulted = output["table1"], output["table1_faulted"]
        problems = _rows_problem("table1", clean)
        if clean.thermal_quarantine or not clean.regulation_ok:
            problems.append("table1: clean regulation did not converge")
        if faulted.thermal_quarantine:
            problems += _quarantine_problems("table1 faulted", faulted)
            if not faulted.excluded_devices:
                problems.append("table1 faulted: quarantine excluded "
                                "no device")
        elif faulted.rows() != clean.rows():
            problems.append("table1: faulted rows differ from clean rows "
                            "with no zone quarantined")
        fig8a = output["fig8a_faulted"]
        if fig8a.valid:
            if fig8a.rows() != ex.run_figure8a(seed=seed).rows():
                problems.append("fig8a: faulted rows differ from clean rows")
        elif not fig8a.thermal_quarantine or fig8a.rows():
            problems.append("fig8a: invalid result without a quarantine, "
                            "or with rows")
        else:
            problems += _quarantine_problems("fig8a faulted", fig8a)
        return problems + _rows_problem("fig8b", output["fig8b"])

    def shape_checks(self, output) -> Tuple[int, int]:
        return (int(_table1_shape(output["table1"]))
                + int(_fig8b_shape(output["fig8b"])), 2)

    def final_check(self, seed: int, output) -> List[str]:
        again = self.op(seed)
        return [f"{key}: rows differ between two runs of seed {seed}"
                for key, result in output.items()
                if result.rows() != again[key].rows()]


class ShardedWorkload(Workload):
    """fig4, fig6, fig7 and table1 at jobs 2, then the result pipeline.

    The only workload on which ``core.parallel`` and ``core.supervisor``
    fork worker pools. Pipeline checkpoints go to a fresh directory under
    ``scratch_dir`` per op.
    """

    name = "sharded"
    jobs = 2

    def __init__(self, scratch_dir: str) -> None:
        self.scratch_dir = scratch_dir

    def prepare(self) -> None:
        import repro.experiments  # noqa: F401
        import repro.experiments.pipeline  # noqa: F401
        os.makedirs(self.scratch_dir, exist_ok=True)

    def _run(self, seed: int, jobs: int) -> Dict[str, object]:
        import repro.experiments as ex
        import repro.experiments.pipeline as pipeline

        ga = dict(repetitions=REPETITIONS, generations=GENERATIONS,
                  population=POPULATION, jobs=jobs)
        out = {
            "fig4": ex.run_figure4(seed=seed, repetitions=REPETITIONS,
                                   jobs=jobs),
            "fig6": ex.run_figure6(seed=seed, **ga),
            "fig7": ex.run_figure7(seed=seed, **ga),
            "table1": ex.run_table1(seed=seed, regulate=True,
                                    sample_devices=SAMPLE_DEVICES, jobs=jobs),
        }
        out["resume_dir"] = tempfile.mkdtemp(prefix="resume-",
                                              dir=self.scratch_dir)
        out["pipeline"] = pipeline.run_pipeline(
            seed=seed, jobs=jobs, faults=seed, resume_dir=out["resume_dir"])
        return out

    def op(self, seed: int) -> Dict[str, object]:
        return self._run(seed, self.jobs)

    def check(self, seed: int, output) -> List[str]:
        problems = []
        for key in ("fig4", "fig6", "fig7", "table1"):
            problems += _rows_problem(key, output[key])
        result = output["pipeline"]
        if not result.exactly_once:
            problems.append("pipeline: exactly-once contract violated")
        if result.failures or result.shards_quarantined:
            problems.append("pipeline: shards quarantined")
        return problems

    def shape_checks(self, output) -> Tuple[int, int]:
        return (int(_fig4_shape(output["fig4"]))
                + int(_fig6_shape(output["fig6"]))
                + int(_fig7_shape(output["fig7"]))
                + int(_table1_shape(output["table1"])), 4)

    def final_check(self, seed: int, output) -> List[str]:
        serial = self._run(seed, jobs=1)
        try:
            problems = [f"{key}: jobs-{self.jobs} rows differ from jobs-1 rows"
                        for key in ("fig4", "fig6", "fig7", "table1")
                        if output[key].rows() != serial[key].rows()]
            if sorted(output["pipeline"].store.rows()) \
                    != sorted(serial["pipeline"].store.rows()):
                problems.append(f"pipeline: jobs-{self.jobs} cloud rows "
                                "differ from jobs-1 cloud rows")
        finally:
            self.release(serial)
        return problems

    def release(self, output) -> None:
        shutil.rmtree(output["resume_dir"], ignore_errors=True)


def make_workload(name: str, scratch_dir: str) -> Workload:
    """The workload called ``name``; ``scratch_dir`` takes its files."""
    if name == "report":
        return ReportWorkload()
    if name == "retention":
        return RetentionWorkload()
    if name == "sharded":
        return ShardedWorkload(scratch_dir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("report", "retention", "sharded")
