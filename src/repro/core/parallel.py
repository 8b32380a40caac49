"""Process-parallel campaign engine with fault tolerance and resume.

The paper's characterization methodology is embarrassingly parallel at
the campaign level: every (benchmark, chip) pair walks its own voltage
ladder, and the system-level framework of Papadimitriou et al.
(arXiv:2106.09975) exploits exactly that shape across cores. This module
adds the same fan-out to our reproduction without giving up bit-exact
determinism:

- every characterization run already draws from a named substream
  derived from ``(seed, chip serial, run signature)`` (see
  :class:`repro.core.executor.CampaignExecutor`), so a run's sampled
  outcomes do not depend on which process executes it or in what order;
- each campaign shard gets a fresh executor (and therefore a fresh
  watchdog recovery ladder), so harness-side recovery accounting is
  campaign-local and also order-independent;
- shard results come back through the supervised pool keyed by unit
  index and merge into one :class:`ResultStore` in campaign order.

Consequently ``jobs=1`` (inline, no pool) and any ``jobs=N`` produce
identical records and identical result rows -- the property
``tests/test_parallel.py`` locks down.

On top of that, the engine is the robustness layer of the result
pipeline (the reason the paper's framework exists at all). Execution is
*supervised* (:class:`repro.core.supervisor.SupervisedPool`): a worker
that really dies (``os._exit``, segfault, OOM kill), really hangs past
its ``unit_timeout`` deadline, or raises is handled by pool rebuild +
deterministic re-issue, with bounded retries and a typed
:class:`~repro.core.supervisor.UnitFailure` quarantine instead of a raw
``BrokenProcessPool`` escaping to the caller. Injected crashes, hangs
and poison units (:class:`~repro.core.faults.FaultInjector`) really
happen in the workers and ride the same machinery. A
:class:`~repro.core.checkpoint.CampaignCheckpoint` persists every
completed shard (and every quarantined one, as a typed manifest), so a
rerun skips shards the checkpoint already holds and reproduces the same
rows. Checkpoints are written only once the pool has returned, so a
study killed mid-pool persists no shards.

Seeds must be integers (or ``None``) for cross-process reproducibility:
a live generator object cannot be re-derived identically on workers.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

from repro.core.campaign import Campaign
from repro.core.checkpoint import CampaignCheckpoint
from repro.core.classify import OutcomeCounts
from repro.core.executor import CampaignExecutor, RunRecord
from repro.core.faults import FaultInjector
from repro.core.results import ResultRow, ResultStore
from repro.core.supervisor import (
    DEFAULT_HANG_SECONDS,
    DEFAULT_MAX_RETRIES,
    SupervisedPool,
    SupervisorStats,
    UnitFailure,
)
from repro.cpu.outcomes import RunOutcome
from repro.errors import CampaignError, CampaignInterrupted, SupervisionError
from repro.rand import DEFAULT_SEED
from repro.soc.chip import Chip

_T = TypeVar("_T")
_R = TypeVar("_R")


def default_jobs() -> int:
    """A sensible worker count: the machine's CPU count."""
    return max(1, os.cpu_count() or 1)


def resolve_seed(seed) -> int:
    """Coerce a seed to the integer base the parallel engine requires.

    Integers pass through and ``None`` becomes :data:`DEFAULT_SEED`;
    generator objects are rejected because their state cannot be
    re-derived identically in worker processes.
    """
    if seed is None:
        return DEFAULT_SEED
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise CampaignError(
            "parallel execution needs an integer seed (or None); "
            f"got {type(seed).__name__}"
        )
    return int(seed)


def _injector_hooks(fault_injector: Optional[FaultInjector]
                    ) -> Tuple[Optional[Callable[[int, int], Optional[str]]],
                               float]:
    """The supervised-map hooks of an (optional) fault injector."""
    if fault_injector is None:
        return None, DEFAULT_HANG_SECONDS
    return fault_injector.unit_fault, fault_injector.plan.hang_seconds


def parallel_map(fn: Callable[[_T], _R], items: Sequence[_T],
                 jobs: int = 1,
                 fault_injector: Optional[FaultInjector] = None,
                 unit_timeout: Optional[float] = None,
                 max_retries: int = DEFAULT_MAX_RETRIES) -> List[_R]:
    """Order-preserving supervised map, optionally fanned out.

    ``jobs <= 1`` (or a single item) runs inline with no pool -- the
    deterministic reference path. ``fn`` and every item must be
    picklable when ``jobs > 1``; results return in item order, so a
    worker count never reorders downstream aggregation.

    Execution is supervised: a worker that really crashes, hangs past
    ``unit_timeout``, or raises is recovered by pool rebuild and
    deterministic re-issue (see :mod:`repro.core.supervisor`), and
    injected crashes / hangs / poison raises from a ``fault_injector``
    ride the same machinery. Since work units are deterministic, the
    returned results are identical to an injector-free serial run. A
    unit that exhausts ``max_retries`` raises a typed
    :class:`~repro.errors.SupervisionError` carrying the quarantined
    :class:`~repro.core.supervisor.UnitFailure` records -- never a raw
    ``BrokenProcessPool`` or a worker traceback. That contract holds at
    every worker count: the inline ``jobs=1`` path supervises too, so a
    raising unit surfaces the same typed failure it would in a pool.
    """
    items = list(items)
    inject, hang_seconds = _injector_hooks(fault_injector)
    with SupervisedPool(jobs=min(jobs, max(1, len(items))),
                        unit_timeout=unit_timeout,
                        max_retries=max_retries) as pool:
        outcome = pool.map(fn, items, inject=inject,
                           hang_seconds=hang_seconds)
    if outcome.failures:
        raise SupervisionError(outcome.failures)
    return list(outcome.values)


def _campaign_shard(task: Tuple[Chip, int, Campaign, bool]
                    ) -> Tuple[List[RunRecord], List[ResultRow]]:
    """Worker body: execute one campaign shard on a fresh executor."""
    chip, seed, campaign, stop_on_unsafe = task
    executor = CampaignExecutor(chip, seed=seed)
    records = executor.execute_campaign(campaign, stop_on_unsafe=stop_on_unsafe)
    return records, executor.store.rows()


def _records_from_rows(campaign: Campaign,
                       rows: Sequence[ResultRow]) -> List[RunRecord]:
    """Rebuild a shard's :class:`RunRecord` list from persisted rows.

    The rows carry everything but the run objects, which the campaign
    supplies; wall time re-accumulates in repetition order, matching the
    executor's summation exactly. Runs absent from the rows (a
    ``stop_on_unsafe`` abort) end the record list, as in live execution.
    """
    by_run: Dict[int, List[ResultRow]] = {}
    for row in rows:
        by_run.setdefault(row.run_id, []).append(row)
    records: List[RunRecord] = []
    for run in campaign.runs:
        run_rows = by_run.get(run.run_id)
        if run_rows is None:
            break
        counts: Dict[RunOutcome, int] = {}
        wall_time = 0.0
        for row in run_rows:
            outcome = RunOutcome(row.outcome)
            counts[outcome] = counts.get(outcome, 0) + 1
            wall_time += row.wall_time_s
        records.append(RunRecord(run=run, counts=OutcomeCounts(counts=counts),
                                 wall_time_s=wall_time))
    return records


class ParallelCampaignExecutor:
    """Shards campaigns across a supervised pool, bit-identical to serial.

    Parameters
    ----------
    chip:
        The device under test (pickled to workers).
    seed:
        Integer base seed (or ``None`` for the library default). Each
        run's outcome stream derives from ``(seed, chip serial, run
        signature)``, exactly as in the serial executor.
    jobs:
        Worker-process count. ``1`` executes inline with no pool;
        results are identical at every value.
    fault_injector:
        Optional :class:`~repro.core.faults.FaultInjector`; shard
        attempts it dooms -- worker crashes, hangs and poison raises --
        are recovered by the supervisor, and its plan may inject a
        study-level interruption
        (:class:`~repro.errors.CampaignInterrupted`).
    checkpoint:
        Optional :class:`~repro.core.checkpoint.CampaignCheckpoint`;
        completed shards persist as CSV + manifest, quarantined shards
        as a typed manifest, and a later call with the same checkpoint
        re-executes only undecided shards.
    unit_timeout:
        Per-shard deadline in seconds (``None`` disables hang
        detection); a shard still running at its deadline is charged a
        hang and deterministically re-issued.
    max_retries:
        Attributed-failure budget per shard; a shard whose attempts
        crash/hang/poison ``max_retries + 1`` times is quarantined as a
        typed :class:`~repro.core.supervisor.UnitFailure` in
        :attr:`failures` (its record list comes back empty and its rows
        are omitted from :attr:`store`) instead of killing the study.

    One supervised pool serves the whole :meth:`execute_campaigns`
    call -- every retry round included -- and :attr:`supervision`
    reports what it did (attempts, retries, rebuilds, quarantines).
    The watchdog recovery ladder is campaign-local: every campaign shard
    gets a fresh :class:`~repro.core.watchdog.Watchdog`, matching a
    serial loop that builds one executor per campaign.
    """

    def __init__(self, chip: Chip, seed=None, jobs: int = 1,
                 fault_injector: Optional[FaultInjector] = None,
                 checkpoint: Optional[CampaignCheckpoint] = None,
                 unit_timeout: Optional[float] = None,
                 max_retries: int = DEFAULT_MAX_RETRIES) -> None:
        if jobs < 1:
            raise CampaignError(f"jobs must be >= 1, got {jobs}")
        self.chip = chip
        self.jobs = jobs
        self._seed = resolve_seed(seed)
        self.fault_injector = fault_injector
        self.checkpoint = checkpoint
        self.unit_timeout = unit_timeout
        self.max_retries = max_retries
        self.store = ResultStore()
        #: Shards loaded from the checkpoint / executed / quarantined,
        #: last call; plus the supervisor's own accounting.
        self.shards_resumed = 0
        self.shards_executed = 0
        self.shards_quarantined = 0
        self.failures: Tuple[UnitFailure, ...] = ()
        self.supervision = SupervisorStats()

    def execute_campaigns(self, campaigns: Iterable[Campaign],
                          stop_on_unsafe: bool = False) -> List[List[RunRecord]]:
        """Execute campaigns (one shard each), merging stores in order.

        Returns the per-campaign record lists in campaign order; the
        merged rows land in :attr:`store`, ordered exactly as a serial
        per-campaign loop would have appended them. Checkpointed shards
        are reloaded instead of re-executed (quarantined ones are
        skipped, their typed failures resurfaced); faulted attempts are
        recovered by the supervisor until the shard survives or
        exhausts its retry budget and lands in :attr:`failures` with an
        empty record list.
        """
        campaigns = list(campaigns)
        shards: List[Optional[Tuple[List[RunRecord], List[ResultRow]]]] = \
            [None] * len(campaigns)
        tokens: List[Optional[str]] = [None] * len(campaigns)
        failures_by_index: Dict[int, UnitFailure] = {}
        self.shards_resumed = 0
        self.shards_executed = 0
        self.supervision = SupervisorStats()
        if self.checkpoint is not None:
            for index, campaign in enumerate(campaigns):
                token = self.checkpoint.shard_token(self.chip.serial, campaign)
                tokens[index] = token
                if self.checkpoint.has(token):
                    rows = self.checkpoint.load_rows(token)
                    shards[index] = (_records_from_rows(campaign, rows), rows)
                    self.shards_resumed += 1
                    continue
                quarantined = self.checkpoint.quarantined_failure(token)
                if quarantined is not None:
                    # The shard was decided (quarantined) by the
                    # interrupted run: resume continues past it.
                    failures_by_index[index] = replace(
                        quarantined, index=index,
                        label=quarantined.label or campaign.name)

        injector = self.fault_injector
        pending = [index for index in range(len(campaigns))
                   if shards[index] is None
                   and index not in failures_by_index]
        interrupted = False
        if pending:
            inject, hang_seconds = _injector_hooks(injector)
            if inject is not None:
                # Injected schedules are keyed by *campaign* index, not
                # by position in this call's pending list, so a resumed
                # study consults the same schedule as the original.
                pending_inject = \
                    lambda pos, attempt: inject(pending[pos], attempt)  # noqa: E731
            else:
                pending_inject = None
            tasks = [(self.chip, self._seed, campaigns[index], stop_on_unsafe)
                     for index in pending]
            with SupervisedPool(jobs=min(self.jobs, len(tasks)),
                                unit_timeout=self.unit_timeout,
                                max_retries=self.max_retries) as pool:
                outcome = pool.map(_campaign_shard, tasks,
                                   inject=pending_inject,
                                   hang_seconds=hang_seconds)
            self.supervision = outcome.stats
            pool_failures = {f.index: f for f in outcome.failures}

            # Deterministic completion walk in campaign order: persist
            # checkpoints and honor the injected interruption point
            # exactly as a serial loop would -- work past the
            # interruption is discarded and re-executed on resume.
            completed = 0
            for position, index in enumerate(pending):
                if interrupted:
                    shards[index] = None
                    continue
                failure = pool_failures.get(position)
                if failure is not None:
                    failure = replace(failure, index=index,
                                      label=campaigns[index].name)
                    failures_by_index[index] = failure
                    if self.checkpoint is not None:
                        self.checkpoint.mark_quarantined(
                            tokens[index], self.chip.serial,
                            campaigns[index], failure)
                    continue
                shard = outcome.values[position]
                assert shard is not None
                shards[index] = shard
                self.shards_executed += 1
                if self.checkpoint is not None:
                    self.checkpoint.save(tokens[index], self.chip.serial,
                                         campaigns[index], shard[1])
                completed += 1
                if injector is not None and injector.interrupt_due(completed):
                    interrupted = True

        self.failures = tuple(failures_by_index[index]
                              for index in sorted(failures_by_index))
        self.shards_quarantined = len(self.failures)
        if interrupted:
            raise CampaignInterrupted(
                f"study interrupted after {self.shards_executed} completed "
                "shard(s); resume from the checkpoint to finish")

        all_records: List[List[RunRecord]] = []
        for index, shard in enumerate(shards):
            if shard is None:
                # Quarantined shard: typed failure in self.failures, no
                # records, no rows -- the study itself keeps going.
                assert index in failures_by_index
                all_records.append([])
                continue
            records, rows = shard
            all_records.append(records)
            self.store.extend(rows)
        return all_records
