"""Figure 6: Vmin of the EM-guided dI/dt virus vs NAS workloads.

The paper validates the EM-amplitude fitness indirectly: the evolved
virus must show the highest Vmin of any workload. This driver evolves
the virus (GA + local polish), measures its Vmin on the TTT part next to
the NAS suite, and reports the gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.parallel import parallel_map, resolve_seed
from repro.core.supervisor import DEFAULT_MAX_RETRIES
from repro.core.vmin import VminResult
from repro.experiments.common import (
    VminTask,
    fault_injector_for,
    format_table,
    vmin_search_unit,
)
from repro.rand import SeedLike, derive_seed
from repro.soc.corners import ProcessCorner
from repro.viruses.didt import DidtVirus, GaSearchTask, didt_search_unit
from repro.workloads.base import CpuWorkload, Workload
from repro.workloads.nas import nas_suite


def virus_as_workload(virus: DidtVirus) -> Workload:
    """Wrap an evolved virus as a runnable workload signature."""
    counters = None
    from repro.pdn.droop import analyze_loop
    profile = analyze_loop(virus.loop).profile
    counters = profile.counters
    return Workload(CpuWorkload(
        name=virus.name, suite="virus",
        resonant_swing=virus.resonant_swing,
        ipc=max(0.1, counters.ipc),
        fp_ratio=counters.fp_ratio,
        mem_ratio=counters.mem_ratio,
        branch_ratio=counters.branch_ratio,
        l2_miss_ratio=counters.l2_miss_ratio,
        sdc_bias=0.5,
    ))


@dataclass(frozen=True)
class Figure6Result:
    """Virus-vs-NAS Vmin comparison on one chip."""

    corner: str
    virus: DidtVirus
    virus_vmin_mv: float
    nas_vmin_mv: Dict[str, float]

    def rows(self) -> List[Tuple[str, float]]:
        rows = sorted(self.nas_vmin_mv.items(), key=lambda kv: kv[1])
        rows.append(("em-virus", self.virus_vmin_mv))
        return rows

    @property
    def virus_is_highest(self) -> bool:
        """The paper's claim: the virus tops every conventional workload."""
        return self.virus_vmin_mv > max(self.nas_vmin_mv.values())

    @property
    def gap_mv(self) -> float:
        """Virus Vmin minus the worst NAS Vmin."""
        return self.virus_vmin_mv - max(self.nas_vmin_mv.values())

    def format(self) -> str:
        lines = [f"Figure 6: Vmin of EM virus vs NAS benchmarks ({self.corner})"]
        lines.append(format_table(
            ("workload", "Vmin mV"),
            [(name, f"{v:.0f}") for name, v in self.rows()],
        ))
        lines.append(
            f"virus swing {self.virus.resonant_swing:.3f}, "
            f"gap over worst NAS {self.gap_mv:.0f} mV "
            f"({'virus highest' if self.virus_is_highest else 'VIRUS NOT HIGHEST'})"
        )
        return "\n".join(lines)


def run_figure6(seed: SeedLike = None, repetitions: int = 10,
                generations: int = 25, population: int = 32,
                jobs: int = 1, faults: Optional[int] = None,
                unit_timeout: Optional[float] = None,
                max_retries: int = DEFAULT_MAX_RETRIES) -> Figure6Result:
    """Evolve the virus and compare against NAS on the TTT part.

    The GA search ships as a self-contained work unit through the same
    supervised process-parallel engine as the Vmin ladders, keyed by an
    integer seed derived from the campaign seed -- so the evolved virus
    is bit-identical at any ``jobs`` count (and survives injected worker
    crashes and hangs). The virus-plus-NAS Vmin ladders then fan out as
    independent units when ``jobs > 1``, with results identical to the
    serial pass. ``faults`` seeds an injected crash/hang schedule (lost
    units re-execute; results are unchanged); ``unit_timeout`` /
    ``max_retries`` set the supervisor's deadline and retry budget.
    """
    base = resolve_seed(seed)
    ga_tasks: List[GaSearchTask] = [
        (derive_seed(base, "fig6-ga"), generations, population, 3)]
    virus, _ = parallel_map(
        didt_search_unit, ga_tasks, jobs=jobs,
        fault_injector=fault_injector_for(faults, len(ga_tasks)),
        unit_timeout=unit_timeout, max_retries=max_retries)[0]
    workloads = [virus_as_workload(virus)] + list(nas_suite())
    tasks: List[VminTask] = [(base, ProcessCorner.TTT, workload, repetitions)
                             for workload in workloads]
    results: List[VminResult] = parallel_map(
        vmin_search_unit, tasks, jobs=jobs,
        fault_injector=fault_injector_for(faults, len(tasks)),
        unit_timeout=unit_timeout, max_retries=max_retries)
    return Figure6Result(
        corner=ProcessCorner.TTT.value,
        virus=virus,
        virus_vmin_mv=results[0].safe_vmin_mv,
        nas_vmin_mv={r.workload: r.safe_vmin_mv for r in results[1:]},
    )


#: Uniform entry point: every experiment module exposes ``run(seed=...)``.
run = run_figure6
