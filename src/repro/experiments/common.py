"""Shared plumbing for the experiment drivers.

Besides the serial helpers, this module hosts the module-level (and
therefore picklable) work units the process-parallel experiment drivers
fan out: each unit rebuilds its reference chip from the integer seed,
runs one Vmin ladder on a fresh executor, and returns the result. The
reference parts carry zero manufacturing jitter and every run draws from
a named ``(seed, chip, run)`` substream, so a unit computes the same
answer in any process, at any worker count, in any order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.executor import CampaignExecutor
from repro.core.faults import FaultInjector, FaultPlan
from repro.core.vmin import VminResult, VminSearch
from repro.rand import SeedLike
from repro.soc.corners import ProcessCorner
from repro.soc.xgene2 import build_reference_chips
from repro.workloads.base import Workload

#: One parallel work unit: (seed, corner, workload, ladder repetitions).
VminTask = Tuple[int, ProcessCorner, Workload, int]


def fault_injector_for(faults: Optional[int],
                       units: int) -> Optional[FaultInjector]:
    """The sharded drivers' ``--faults`` hook.

    ``faults`` seeds :meth:`FaultPlan.random` over ``units`` work units
    (or is ``None``): worker processes really crash and hang, and the
    supervised engine rebuilds the pool and re-issues the units. Results
    stay identical to the clean run, which is the point: the flag
    demonstrates (and tests) harness robustness, not a different
    experiment.
    """
    return None if faults is None \
        else FaultInjector(FaultPlan.random(faults, units))


def thermal_plan_for(thermal_faults: Optional[int],
                     plan: Optional[FaultPlan] = None,
                     zones: int = 8,
                     horizon_s: float = 900.0) -> Optional[FaultPlan]:
    """The DRAM drivers' ``--thermal-faults`` hook.

    An explicit ``plan`` wins; otherwise ``thermal_faults`` (a seed, or
    ``None``) draws a deterministic rig-fault schedule via
    :meth:`FaultPlan.random_thermal`. The returned plan feeds a
    :class:`~repro.thermal.testbed.ThermalTestbed`; recoverable
    schedules leave the campaign's rows bit-identical to the clean run,
    which is the point of the flag.
    """
    if plan is not None:
        return plan
    if thermal_faults is None:
        return None
    return FaultPlan.random_thermal(thermal_faults, zones=zones,
                                    horizon_s=horizon_s)


def regulate_to_setpoint(testbed, setpoint_c: float, rounds: int = 3,
                         regulation_s: float = 900.0) -> int:
    """Drive every testbed zone to ``setpoint_c`` until trustworthy.

    Runs up to ``rounds`` regulation windows of ``regulation_s`` virtual
    seconds; a round whose belief was not steady-in-band (an out-of-band
    window from a recoverable rig fault) is deterministically followed
    by another -- re-regulation, the measurement-validity gate's
    recovery path. A zone still untrustworthy when the budget runs out
    is force-quarantined as ``regulation-timeout`` (its heater is cut);
    zones the monitor already quarantined stay quarantined. Returns the
    number of rounds used.
    """
    from repro.thermal.monitor import REGULATION_TIMEOUT

    zones = range(len(testbed.configs))
    for zone in zones:
        testbed.set_setpoint(zone, setpoint_c)
    used = 0
    while used < rounds:
        testbed.run(regulation_s)
        used += 1
        pending = [zone for zone in zones
                   if testbed.monitors[zone].quarantine is None
                   and not testbed.zone_measurement_valid(zone)]
        if not pending:
            break
    for zone in zones:
        if testbed.monitors[zone].quarantine is None \
                and not testbed.zone_measurement_valid(zone):
            testbed.quarantine_zone(
                zone, REGULATION_TIMEOUT,
                f"not steady in band after {used} x {regulation_s:.0f}s "
                f"rounds at {setpoint_c:.0f} degC")
    return used


def format_quarantine_lines(failures) -> List[str]:
    """Render typed quarantine records (unit or zone) for summaries."""
    return [f"quarantined: {failure.describe()}" for failure in failures]


def reference_executors(seed: SeedLike = None) -> Dict[ProcessCorner, CampaignExecutor]:
    """Campaign executors over the three reference sigma parts."""
    chips = build_reference_chips(seed=seed)
    return {corner: CampaignExecutor(chip, seed=seed)
            for corner, chip in chips.items()}


def vmin_search_unit(task: VminTask) -> VminResult:
    """Worker body: one (corner, workload) Vmin ladder, self-contained.

    Rebuilds the reference chip for ``task``'s corner from the seed and
    walks the descending ladder on the strongest core with a fresh
    executor -- exactly what the serial drivers do, minus any state
    shared across workloads. Returns the :class:`VminResult`.
    """
    seed, corner, workload, repetitions = task
    chip = build_reference_chips(seed=seed)[corner]
    search = VminSearch(CampaignExecutor(chip, seed=seed),
                        repetitions=repetitions)
    return search.search(workload, cores=(chip.strongest_core(),))


def vmin_searches(seed: SeedLike = None, repetitions: int = 10,
                  step_mv: float = 5.0) -> Dict[ProcessCorner, VminSearch]:
    """Vmin search harnesses over the three reference parts."""
    return {
        corner: VminSearch(executor, step_mv=step_mv, repetitions=repetitions)
        for corner, executor in reference_executors(seed).items()
    }


def format_table(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Fixed-width text table for bench output."""
    table: List[List[str]] = [[str(h) for h in header]]
    for row in rows:
        table.append([f"{v:.3f}" if isinstance(v, float) else str(v) for v in row])
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    lines = []
    for index, row in enumerate(table):
        lines.append("  ".join(cell.rjust(width) for cell, width in zip(row, widths)))
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)
