"""Wrap each layer's entry points from outside and turn spans into metrics.

Nothing under ``src/`` knows about tracing: :func:`install` replaces the
entry points below with timing wrappers (class methods on the class,
functions on every ``repro`` module that imported them), and
:func:`uninstall` puts the originals back. The traced run installs them
around its traced ops only, so untraced ops run the unmodified code.

Each wrapper opens a span and adds to counters at the same boundary.
Counters are per op in the metrics (total over traced ops / traced ops).

Two boundaries are not public entry points, for a stated reason:

- ``ThermalTestbed._tick`` is the rig's control loop. It runs as an
  event callback inside ``Simulator.run_until``, so without its own span
  every thermal second would show up as ``simkit`` self time.
- ``DramDevicePopulation.device_unique_locations`` is where a bank's
  weak-cell population is lazily sampled; ``dram.bank_map_s`` covers it
  along with ``bank_map``, so it is the population side of the DRAM
  layer and ``dram.scrub_s`` the scrub side.
"""

from __future__ import annotations

import functools
import importlib
import sys
from typing import Callable, Dict, List, Optional, Tuple

from spans import Tracer, self_times, totals_by_name

#: Experiment drivers timed as ``experiments.<id>`` (inclusive seconds).
DRIVERS = {
    "fig4": ("repro.experiments.fig4_spec_vmin", "run_figure4"),
    "fig5": ("repro.experiments.fig5_tradeoff", "run_figure5"),
    "fig6": ("repro.experiments.fig6_virus_vs_nas", "run_figure6"),
    "fig7": ("repro.experiments.fig7_interchip", "run_figure7"),
    "table1": ("repro.experiments.table1_weak_cells", "run_table1"),
    "fig8a": ("repro.experiments.fig8a_ber", "run_figure8a"),
    "fig8b": ("repro.experiments.fig8b_refresh_power", "run_figure8b"),
    "fig9": ("repro.experiments.fig9_jammer", "run_figure9"),
    "stencil": ("repro.experiments.stencil_scheduling", "run_stencil_study"),
    "pipeline": ("repro.experiments.pipeline", "run_pipeline"),
}

#: Self-time metric -> the spans whose self time it sums.
SELF_TIME = {
    "cpu.waveform_s": ("cpu.waveform_block",),
    "pdn.clean_block_s": ("pdn.clean_block",),
    "pdn.em_read_s": ("pdn.read_amplitude",),
    "rand.substream_s": ("rand.substream",),
    "viruses.fitness_s": ("viruses.fitness_batch",),
    "viruses.ga_s": ("viruses.ga_run",),
    "soc.observe_s": ("soc.observe_run_block",),
    "vmin.search_s": ("vmin.search",),
    "executor.run_s": ("executor.execute_run",),
    "thermal.run_s": ("thermal.regulate", "thermal.run", "thermal.tick"),
    "dram.bank_map_s": ("dram.bank_map", "dram.device_unique_locations"),
    "dram.scrub_s": ("dram.scrub_bank",),
    "simkit.run_s": ("simkit.run_until",),
    "parallel.map_s": ("parallel.map", "supervisor.map"),
    "transport.upload_s": ("transport.upload",),
    "checkpoint.save_s": ("checkpoint.save",),
}

#: Counters reported per op, as recorded by the wrappers.
COUNTS = (
    "cpu.waveform_loops", "pdn.clean_block_calls", "pdn.em_reads",
    "rand.substream_calls", "viruses.fitness_loops",
    "viruses.ga_generations", "soc.observe_rows", "vmin.search_calls",
    "executor.runs", "thermal.regulation_rounds", "thermal.quarantined_zones",
    "dram.bank_maps", "dram.scrub_banks", "simkit.events",
    "parallel.map_calls", "parallel.units", "parallel.pooled_calls",
    "supervisor.retries", "supervisor.rebuilds", "supervisor.quarantined",
    "transport.rows", "transport.attempts", "checkpoint.saves",
)


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {name: "s/op" for name in SELF_TIME}
    units.update({name: "count/op" for name in COUNTS})
    units.update({f"experiments.{key}_s": "s/op" for key in DRIVERS})
    units.update({
        "viruses.fitness_unique_frac": "ratio",
        "thermal.sim_s": "sim-s/op",
        "thermal.sim_per_host": "ratio",
        "transport.retry_rate": "ratio",
        "bench.first_op_s": "s",
        "bench.trace_overhead_frac": "ratio",
    })
    return units


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _traced(tracer: Tracer, span: str, fn: Callable,
            before: Optional[Callable] = None,
            after: Optional[Callable] = None) -> Callable:
    """``fn`` inside a span named ``span``, then ``after`` adds counts."""
    open_span, close_span = tracer.open, tracer.close

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.recording:
            return fn(*args, **kwargs)
        state = before(args, kwargs) if before is not None else None
        record = open_span(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            close_span(record)
        if after is not None:
            after(tracer, args, kwargs, result, state)
        return result

    return wrapper


def _counter(name: str, amount: Callable = lambda a, k, r: 1) -> Callable:
    def after(tracer, args, kwargs, result, state):
        tracer.counts[name] += amount(args, kwargs, result)
    return after


def _after_waveform(tracer, args, kwargs, result, state):
    loops = len(_arg(args, kwargs, 1, "loops"))
    tracer.counts["cpu.waveform_loops"] += loops
    if tracer.current() == "viruses.fitness_batch":
        tracer.counts["viruses.fitness_clean"] += loops


def _after_supervised_map(tracer, args, kwargs, result, state):
    pool, items = args[0], _arg(args, kwargs, 2, "items")
    stats = result.stats
    tracer.counts["supervisor.retries"] += stats.retries
    tracer.counts["supervisor.rebuilds"] += stats.rebuilds
    tracer.counts["supervisor.quarantined"] += stats.quarantined
    if pool.jobs > 1 and len(items) > 1:
        tracer.counts["parallel.pooled_calls"] += 1


def _link_stats(args, kwargs):
    stats = args[0].link.stats
    return stats.attempts, stats.delivered


def _after_upload(tracer, args, kwargs, result, state):
    stats = args[0].link.stats
    ok, failed = result
    tracer.counts["transport.rows"] += ok + failed
    tracer.counts["transport.attempts"] += stats.attempts - state[0]
    tracer.counts["transport.delivered"] += stats.delivered - state[1]


def _quarantines(args, kwargs):
    return len(args[0].zone_quarantines())


def _after_regulate(tracer, args, kwargs, result, state):
    tracer.counts["thermal.regulation_rounds"] += result
    tracer.counts["thermal.quarantined_zones"] += \
        len(args[0].zone_quarantines()) - state


def _after_parallel_map(tracer, args, kwargs, result, state):
    tracer.counts["parallel.map_calls"] += 1
    tracer.counts["parallel.units"] += len(_arg(args, kwargs, 1, "items"))


#: (module, class, method, span, before, after)
METHODS = (
    ("repro.cpu.execution", "ExecutionModel", "waveform_block",
     "cpu.waveform_block", None, _after_waveform),
    ("repro.pdn.em", "EmSensor", "clean_block", "pdn.clean_block", None,
     _counter("pdn.clean_block_calls")),
    ("repro.pdn.em", "EmSensor", "read_amplitude", "pdn.read_amplitude", None,
     _counter("pdn.em_reads", lambda a, k, r: _arg(a, k, 2, "repeats", 1))),
    ("repro.viruses.didt", "EmFitness", "batch", "viruses.fitness_batch",
     None, _counter("viruses.fitness_loops", lambda a, k, r: len(r))),
    ("repro.viruses.genetic", "GeneticAlgorithm", "run", "viruses.ga_run",
     None, _counter("viruses.ga_generations",
                    lambda a, k, r: len(r.history) - 1)),
    ("repro.soc.chip", "Chip", "observe_run_block", "soc.observe_run_block",
     None, _counter("soc.observe_rows", lambda a, k, r: r.shape[0])),
    ("repro.core.vmin", "VminSearch", "search", "vmin.search", None,
     _counter("vmin.search_calls")),
    ("repro.core.executor", "CampaignExecutor", "execute_run",
     "executor.execute_run", None, _counter("executor.runs")),
    ("repro.thermal.testbed", "ThermalTestbed", "run", "thermal.run", None,
     _counter("thermal.sim_s", lambda a, k, r: _arg(a, k, 1, "duration_s"))),
    ("repro.thermal.testbed", "ThermalTestbed", "_tick", "thermal.tick",
     None, None),
    ("repro.dram.cells", "DramDevicePopulation", "bank_map", "dram.bank_map",
     None, _counter("dram.bank_maps")),
    ("repro.dram.cells", "DramDevicePopulation", "device_unique_locations",
     "dram.device_unique_locations", None, None),
    ("repro.dram.controller", "MemoryControlUnit", "scrub_bank",
     "dram.scrub_bank", None, _counter("dram.scrub_banks")),
    ("repro.simkit.events", "Simulator", "run_until", "simkit.run_until",
     None, _counter("simkit.events", lambda a, k, r: r)),
    ("repro.core.supervisor", "SupervisedPool", "map", "supervisor.map",
     None, _after_supervised_map),
    ("repro.core.transport", "ResultUploader", "upload", "transport.upload",
     _link_stats, _after_upload),
    ("repro.core.checkpoint", "CampaignCheckpoint", "save", "checkpoint.save",
     None, _counter("checkpoint.saves")),
)

#: (module, function, span, before, after) -- patched at every importer.
FUNCTIONS = (
    ("repro.rand", "substream", "rand.substream", None,
     _counter("rand.substream_calls")),
    ("repro.core.parallel", "parallel_map", "parallel.map", None,
     _after_parallel_map),
    ("repro.experiments.common", "regulate_to_setpoint", "thermal.regulate",
     _quarantines, _after_regulate),
) + tuple((module, function, f"experiments.{key}", None, None)
          for key, (module, function) in DRIVERS.items())

Patch = Tuple[object, str, object]


def install(tracer: Tracer) -> List[Patch]:
    """Wrap every boundary; returns what :func:`uninstall` restores."""
    patches: List[Patch] = []
    for module, cls_name, method, span, before, after in METHODS:
        cls = getattr(importlib.import_module(module), cls_name)
        original = cls.__dict__[method]
        setattr(cls, method, _traced(tracer, span, original, before, after))
        patches.append((cls, method, original))
    functions = [(getattr(importlib.import_module(module), function), rest)
                 for module, function, *rest in FUNCTIONS]
    repro_modules = [mod for name, mod in list(sys.modules.items())
                     if mod is not None
                     and (name == "repro" or name.startswith("repro."))]
    for original, (span, before, after) in functions:
        wrapper = _traced(tracer, span, original, before, after)
        for mod in repro_modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    patches.append((mod, attr, original))
    return patches


def uninstall(patches: List[Patch]) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, traced_ops: int) -> Dict[str, float]:
    """Per-op layer metrics from the spans and counters of the traced ops."""
    totals = totals_by_name(tracer.spans, self_times(tracer.spans))
    counts = tracer.counts
    per_op = max(1, traced_ops)
    out = {metric: sum(totals[name][0] for name in names) / per_op
           for metric, names in SELF_TIME.items()}
    out.update({name: counts[name] / per_op for name in COUNTS})
    out.update({f"experiments.{key}_s": totals[f"experiments.{key}"][1] / per_op
                for key in DRIVERS})
    delivered = counts["transport.delivered"]
    out.update({
        "viruses.fitness_unique_frac": _ratio(counts["viruses.fitness_clean"],
                                              counts["viruses.fitness_loops"]),
        "thermal.sim_s": counts["thermal.sim_s"] / per_op,
        "thermal.sim_per_host": _ratio(counts["thermal.sim_s"],
                                       totals["thermal.run"][1]),
        "transport.retry_rate": _ratio(counts["transport.attempts"] - delivered,
                                       delivered),
    })
    return out
