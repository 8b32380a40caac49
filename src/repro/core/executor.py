"""Campaign execution: runs benchmarks on the simulated chip.

The executor is the bridge between the declarative campaign plan and the
hardware model: for every characterization run it programs the voltage,
executes the benchmark's repetitions against the chip's sampled
behaviour, lets the watchdog account recovery time for crashes/hangs,
and parses each repetition into a result row.

All repetitions of a run are sampled in one vectorized pass
(:meth:`repro.soc.chip.Chip.observe_run_block`), and every run draws
from its own named substream derived from ``(seed, chip serial, run
signature)`` -- so the outcome of a run depends only on *what* is
executed, never on execution order. That property is what lets
:class:`repro.core.parallel.ParallelCampaignExecutor` shard campaigns
across worker processes and still produce bit-identical results.

Multi-core setups take the mix-level resonant swing (phase-decorrelated
mean, see :mod:`repro.workloads.mixes`); single-core setups use the
workload's own swing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.campaign import Campaign, CharacterizationRun
from repro.core.classify import OutcomeCounts
from repro.core.results import ResultRow, ResultStore
from repro.core.watchdog import Watchdog, WatchdogVerdict
from repro.cpu.outcomes import RunOutcome
from repro.rand import DEFAULT_SEED, SeedLike, substream
from repro.soc.chip import CODE_FROM_OUTCOME, OUTCOME_FROM_CODE, Chip

#: Modelled benchmark runtime used for wall-time accounting (seconds).
NOMINAL_RUNTIME_S = 300.0

_CODE_CORRECT = CODE_FROM_OUTCOME[RunOutcome.CORRECT]
_CODE_CE = CODE_FROM_OUTCOME[RunOutcome.CORRECTED_ERROR]
_CODE_UE = CODE_FROM_OUTCOME[RunOutcome.UNCORRECTED_ERROR]
_CODE_SDC = CODE_FROM_OUTCOME[RunOutcome.SDC]
_CODE_CRASH = CODE_FROM_OUTCOME[RunOutcome.CRASH]
_CODE_HANG = CODE_FROM_OUTCOME[RunOutcome.HANG]


@dataclass(frozen=True)
class RunRecord:
    """Execution summary of one characterization run (all repetitions)."""

    run: CharacterizationRun
    counts: OutcomeCounts
    wall_time_s: float

    @property
    def all_safe(self) -> bool:
        return self.counts.all_safe


def classify_codes(worst_code: int, ce_count: int, ue_count: int) -> RunOutcome:
    """Fold one repetition's per-core outcome codes into its effect class.

    Equivalent to building the :class:`~repro.core.classify.RunLog` the
    harness would store for the repetition and passing it through
    :func:`~repro.core.classify.classify_run_log` -- including the
    precedence quirk that a detected UE on any core outranks silent
    corruption observed on another.
    """
    if worst_code == _CODE_HANG:
        return RunOutcome.HANG
    if worst_code == _CODE_CRASH:
        return RunOutcome.CRASH
    if ue_count > 0:
        return RunOutcome.UNCORRECTED_ERROR
    if worst_code == _CODE_SDC:
        return RunOutcome.SDC
    if ce_count > 0:
        return RunOutcome.CORRECTED_ERROR
    return RunOutcome.CORRECT


class CampaignExecutor:
    """Executes campaigns against one chip.

    Parameters
    ----------
    chip:
        The device under test.
    watchdog:
        Recovery-ladder model; a fresh default is built when omitted.
    seed:
        Base seed for outcome sampling. Every characterization run
        derives an independent substream from ``(seed, chip serial, run
        signature)``, so identical runs reproduce identical outcomes
        regardless of execution order or interleaving -- the invariant
        the process-parallel engine relies on.
    """

    def __init__(self, chip: Chip, watchdog: Optional[Watchdog] = None,
                 seed: SeedLike = None) -> None:
        self.chip = chip
        self.watchdog = watchdog or Watchdog()
        if isinstance(seed, np.random.Generator):
            # Legacy escape hatch: collapse a generator parent into one
            # base draw (the same draw substream() would have made).
            self._stream_base: int = int(seed.integers(0, 2**31 - 1))
        elif seed is None:
            self._stream_base = DEFAULT_SEED
        else:
            self._stream_base = int(seed)
        self.store = ResultStore()

    def run_rng(self, run: CharacterizationRun) -> np.random.Generator:
        """The named substream feeding one characterization run."""
        return substream(
            self._stream_base,
            f"executor-{self.chip.serial}/{run.stream_key()}",
        )

    # ------------------------------------------------------------------
    # Execution phase
    # ------------------------------------------------------------------
    def execute_run(self, run: CharacterizationRun) -> RunRecord:
        """Execute all repetitions of one characterization run.

        All ``repetitions x cores`` outcomes are sampled in a single
        batched pass; only repetitions that crashed or hung take the
        (stateful) watchdog recovery path individually.
        """
        setup = run.setup
        workload = run.workload
        codes = self.chip.observe_run_block(
            setup.cores, workload.resonant_swing, setup.voltage_mv,
            freq_ghz=setup.freq_ghz, repetitions=setup.repetitions,
            sdc_bias=workload.cpu.sdc_bias, rng=self.run_rng(run),
        )
        worst = codes.max(axis=1).tolist()
        ce_counts = (codes == _CODE_CE).sum(axis=1).tolist()
        ue_counts = (codes == _CODE_UE).sum(axis=1).tolist()

        # Hot loop: one iteration per repetition, full studies push this
        # past 10^5 iterations. Everything constant across repetitions is
        # hoisted; the classification (a pure function of the few distinct
        # (worst, ce, ue) triples a run produces) is memoized per run.
        run_id = run.run_id
        run_key = run.global_key(self.chip.serial)
        benchmark = workload.name
        suite = workload.cpu.suite
        voltage_mv = setup.voltage_mv
        freq_ghz = setup.freq_ghz
        cores_label = ";".join(str(c.linear) for c in setup.cores)
        completed_value = WatchdogVerdict.COMPLETED.value
        description: Optional[str] = None
        classify_memo: dict = {}
        outcome_counts: dict = {}
        rows: List[ResultRow] = []
        total_wall = 0.0
        for repetition in range(setup.repetitions):
            ce_count = ce_counts[repetition]
            ue_count = ue_counts[repetition]
            key = (worst[repetition], ce_count, ue_count)
            entry = classify_memo.get(key)
            if entry is None:
                classified = classify_codes(*key)
                entry = (classified, classified.value, classified.needs_reset)
                classify_memo[key] = entry
            classified, outcome_value, needs_reset = entry
            if needs_reset:
                if description is None:
                    description = run.describe()
                supervised = self.watchdog.supervise(
                    classified, NOMINAL_RUNTIME_S, description=description)
                verdict_value = supervised.verdict.value
                wall_time = supervised.wall_time_s
            else:
                verdict_value = completed_value
                wall_time = NOMINAL_RUNTIME_S
            total_wall += wall_time
            outcome_counts[classified] = outcome_counts.get(classified, 0) + 1
            rows.append(ResultRow(
                run_id, benchmark, suite, voltage_mv, freq_ghz, cores_label,
                repetition, outcome_value, verdict_value, ce_count, ue_count,
                wall_time, run_key,
            ))
        self.store.extend(rows)
        return RunRecord(run=run, counts=OutcomeCounts(counts=outcome_counts),
                         wall_time_s=total_wall)

    def execute_campaign(self, campaign: Campaign,
                         stop_on_unsafe: bool = False) -> List[RunRecord]:
        """Execute a whole campaign (optionally aborting once unsafe).

        ``stop_on_unsafe`` implements the practical optimization real
        undervolting campaigns use on descending sweeps: once a voltage
        fails there is no point probing lower ones.
        """
        records = []
        for run in campaign.runs:
            record = self.execute_run(run)
            records.append(record)
            if stop_on_unsafe and not record.all_safe:
                break
        return records


_SEVERITY = {outcome: code for code, outcome in enumerate(OUTCOME_FROM_CODE)}


def _worse(a: RunOutcome, b: RunOutcome) -> RunOutcome:
    """The more severe of two outcomes."""
    return a if _SEVERITY[a] >= _SEVERITY[b] else b
