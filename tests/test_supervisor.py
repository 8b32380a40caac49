"""Supervised execution: real worker-crash/hang/poison tolerance.

The acceptance property: a supervised run under any seeded real-fault
plan -- worker ``os._exit``, deadline-exceeding hangs, poison
exceptions -- converges to results bit-identical to the clean serial
run, with quarantined units enumerated deterministically as typed
:class:`UnitFailure` records at any worker count, and no raw
``BrokenProcessPool`` or worker traceback escaping to the caller.
"""

import os
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.campaign import CampaignPlan
from repro.core.checkpoint import CampaignCheckpoint
from repro.core.faults import FaultInjector, FaultPlan
from repro.core.parallel import ParallelCampaignExecutor, parallel_map
from repro.core.supervisor import (
    CRASH,
    HANG,
    POISON,
    POOL_BROKEN,
    SupervisedPool,
    UnitFailure,
    supervised_map,
)
from repro.errors import CampaignInterrupted, SupervisionError
from repro.soc.chip import Chip
from repro.soc.corners import ProcessCorner
from repro.workloads.spec import spec_suite

SEED = 11

#: The CI supervisor-stress job runs this suite at --jobs 4 (default).
STRESS_JOBS = int(os.environ.get("REPRO_SUPERVISOR_JOBS", "4"))


def _square(x):
    return x * x


def _legacy_sentinel(x):
    # The exact tuple the old engine used as its kill sentinel.
    return ("repro.core.parallel:unit-killed",)


def _raise_on_three(x):
    if x == 3:
        raise ValueError("unit is poisonous")
    return x * x


def _chip():
    return Chip(ProcessCorner.TTT, seed=7)


def _campaigns(benchmarks=3):
    plan = CampaignPlan()
    plan.add_workloads(spec_suite()[:benchmarks])
    plan.add_voltage_sweep(980.0, 920.0, 20.0, repetitions=2)
    return plan.build()


def _real_plan():
    """Exit + hang + poison: the acceptance-criteria fault trio."""
    return FaultPlan(unit_exits=((0, 1),), unit_hangs=((1, 1),),
                     poison_units=(2,), hang_seconds=0.2)


class _UnbuildablePool(SupervisedPool):
    def _pool_factory(self):
        raise OSError("no worker processes available")


# ----------------------------------------------------------------------
# Satellite: the _UnitResult envelope kills the sentinel aliasing
# ----------------------------------------------------------------------
@pytest.mark.parametrize("jobs", [1, 2])
def test_unit_legitimately_returning_old_sentinel_value(jobs):
    """Regression: the old engine compared results by value against
    UNIT_KILLED, so a unit returning an equal tuple retried forever."""
    injector = FaultInjector(FaultPlan(unit_exits=((0, 1),)))
    out = parallel_map(_legacy_sentinel, [0, 1, 2], jobs=jobs,
                       fault_injector=injector)
    assert out == [("repro.core.parallel:unit-killed",)] * 3
    assert injector.stats.unit_exits == 1


# ----------------------------------------------------------------------
# Real-fault convergence, jobs-invariance
# ----------------------------------------------------------------------
@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_real_fault_plan_converges_bit_identical(jobs):
    plan = _real_plan()
    outcome = supervised_map(_square, list(range(6)), jobs=jobs,
                             inject=FaultInjector(plan).unit_fault,
                             hang_seconds=plan.hang_seconds)
    assert outcome.values == (0, 1, None, 9, 16, 25)
    assert [(f.index, f.kind) for f in outcome.failures] == [(2, POISON)]
    assert outcome.failures[0].attempts == 4   # 1 + default max_retries
    assert outcome.stats.crashes == 1
    assert outcome.stats.hangs == 1


def test_quarantine_list_is_jobs_invariant():
    plan = FaultPlan(unit_exits=((1, 1),), poison_units=(0, 4),
                     hang_seconds=0.2)
    signatures = []
    for jobs in (1, 2, 4):
        outcome = supervised_map(_square, list(range(6)), jobs=jobs,
                                 inject=FaultInjector(plan).unit_fault,
                                 hang_seconds=plan.hang_seconds)
        signatures.append((outcome.values,
                           tuple((f.index, f.kind, f.attempts)
                                 for f in outcome.failures)))
    assert signatures[0] == signatures[1] == signatures[2]
    assert signatures[0][1] == ((0, POISON, 4), (4, POISON, 4))


def test_broken_pool_triggers_exactly_one_rebuild():
    """A single injected worker exit breaks the pool exactly once: the
    supervisor attributes it (doomed attempts run solo), rebuilds once,
    and every unit still completes."""
    plan = FaultPlan(unit_exits=((1, 1),))
    outcome = supervised_map(_square, list(range(6)), jobs=4,
                             inject=FaultInjector(plan).unit_fault)
    assert outcome.values == (0, 1, 4, 9, 16, 25)
    assert outcome.failures == ()
    assert outcome.stats.rebuilds == 1
    assert outcome.stats.crashes == 1


# ----------------------------------------------------------------------
# Typed failure reporting (no raw tracebacks / BrokenProcessPool)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("jobs", [1, 2])
def test_parallel_map_raises_typed_supervision_error(jobs):
    with pytest.raises(SupervisionError) as excinfo:
        parallel_map(_raise_on_three, [1, 2, 3, 4], jobs=jobs)
    failures = excinfo.value.failures
    assert [(f.index, f.kind) for f in failures] == [(2, POISON)]
    assert "ValueError" in failures[0].detail
    message = str(excinfo.value)
    assert "BrokenProcessPool" not in message
    assert "Traceback" not in message


def test_max_retries_bounds_the_budget():
    plan = FaultPlan(unit_exits=((0, 1),))
    outcome = supervised_map(_square, [0, 1, 2], jobs=2, max_retries=0,
                             inject=FaultInjector(plan).unit_fault)
    assert outcome.values == (None, 1, 4)
    assert [(f.index, f.kind, f.attempts)
            for f in outcome.failures] == [(0, CRASH, 1)]


def test_attempt_ledger_records_charged_failures():
    plan = _real_plan()
    outcome = supervised_map(_square, list(range(4)), jobs=2,
                             inject=FaultInjector(plan).unit_fault,
                             hang_seconds=plan.hang_seconds)
    charged = [(r.index, r.outcome) for r in outcome.ledger if r.charged]
    assert (0, CRASH) in charged
    assert (1, HANG) in charged
    assert sum(1 for index, kind in charged
               if index == 2 and kind == POISON) == 4
    completed = {r.index for r in outcome.ledger if r.outcome == "ok"}
    assert completed == {0, 1, 3}


# ----------------------------------------------------------------------
# Hang detection: the deadline really terminates a wedged worker
# ----------------------------------------------------------------------
def test_deadline_terminates_a_really_hung_worker():
    plan = FaultPlan(unit_hangs=((1, 1),), hang_seconds=30.0)
    start = time.monotonic()
    outcome = supervised_map(_square, [0, 1, 2], jobs=2, unit_timeout=0.5,
                             inject=FaultInjector(plan).unit_fault,
                             hang_seconds=plan.hang_seconds)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0     # nowhere near the 30 s sleep
    assert outcome.values == (0, 1, 4)
    assert outcome.failures == ()
    assert outcome.stats.hangs == 1
    assert outcome.stats.rebuilds >= 1


# ----------------------------------------------------------------------
# Graceful degradation when the pool cannot be (re)built
# ----------------------------------------------------------------------
def test_degrades_to_inline_serial_when_pool_unbuildable():
    with _UnbuildablePool(jobs=4) as pool:
        outcome = pool.map(_square, [1, 2, 3])
    assert outcome.values == (1, 4, 9)
    assert outcome.failures == ()
    assert outcome.stats.degraded


def test_no_serial_fallback_quarantines_as_pool_broken():
    with _UnbuildablePool(jobs=4, serial_fallback=False) as pool:
        outcome = pool.map(_square, [1, 2, 3])
    assert outcome.values == (None, None, None)
    assert [f.kind for f in outcome.failures] == [POOL_BROKEN] * 3
    assert outcome.stats.degraded


def test_degraded_inline_still_honors_the_injected_plan():
    plan = _real_plan()
    with _UnbuildablePool(jobs=4) as pool:
        outcome = pool.map(_square, list(range(6)),
                           inject=FaultInjector(plan).unit_fault,
                           hang_seconds=plan.hang_seconds)
    assert outcome.values == (0, 1, None, 9, 16, 25)
    assert [(f.index, f.kind) for f in outcome.failures] == [(2, POISON)]


# ----------------------------------------------------------------------
# Property: any seeded real-fault plan converges (inline reference)
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), units=st.integers(1, 8),
       poison_rate=st.sampled_from([0.0, 0.3, 0.7]))
def test_any_seeded_real_plan_converges_inline(seed, units, poison_rate):
    plan = FaultPlan.random(seed, units, poison_rate=poison_rate)
    outcome = supervised_map(_square, list(range(units)), jobs=1,
                             inject=FaultInjector(plan).unit_fault,
                             hang_seconds=plan.hang_seconds)
    poisoned = set(plan.poison_units)
    for index in range(units):
        if index in poisoned:
            assert outcome.values[index] is None
        else:
            assert outcome.values[index] == index * index
    assert tuple(f.index for f in outcome.failures) == tuple(sorted(poisoned))
    assert all(f.kind == POISON for f in outcome.failures)
    # Deterministic: the same plan replays to the same outcome.
    again = supervised_map(_square, list(range(units)), jobs=1,
                           inject=FaultInjector(plan).unit_fault,
                           hang_seconds=plan.hang_seconds)
    assert again.values == outcome.values
    assert again.failures == outcome.failures


# ----------------------------------------------------------------------
# Campaign engine: the ISSUE's acceptance criterion end to end
# ----------------------------------------------------------------------
def test_campaign_study_under_faults_matches_clean_serial():
    """--jobs 4 study under exit+hang+poison: surviving shards
    bit-identical to the clean serial run, poisoned shard quarantined as
    a typed UnitFailure, nothing raw escaping."""
    campaigns = _campaigns()
    clean = ParallelCampaignExecutor(_chip(), seed=SEED, jobs=1)
    clean.execute_campaigns([c for i, c in enumerate(campaigns) if i != 2])
    engine = ParallelCampaignExecutor(
        _chip(), seed=SEED, jobs=4,
        fault_injector=FaultInjector(_real_plan()))
    records = engine.execute_campaigns(campaigns)
    assert engine.store.rows() == clean.store.rows()
    assert records[2] == []
    assert engine.shards_quarantined == 1
    failure = engine.failures[0]
    assert isinstance(failure, UnitFailure)
    assert (failure.index, failure.kind) == (2, POISON)
    assert failure.label == campaigns[2].name
    assert engine.supervision.rebuilds >= 1
    assert engine.supervision.crashes >= 1
    assert engine.supervision.quarantined == 1


@pytest.mark.parametrize("jobs", [1, 2])
def test_campaign_quarantine_is_jobs_invariant(jobs):
    campaigns = _campaigns()
    engine = ParallelCampaignExecutor(
        _chip(), seed=SEED, jobs=jobs,
        fault_injector=FaultInjector(_real_plan()))
    engine.execute_campaigns(campaigns)
    reference = ParallelCampaignExecutor(
        _chip(), seed=SEED, jobs=4,
        fault_injector=FaultInjector(_real_plan()))
    reference.execute_campaigns(campaigns)
    assert engine.store.rows() == reference.store.rows()
    assert [(f.index, f.kind, f.attempts, f.label) for f in engine.failures] \
        == [(f.index, f.kind, f.attempts, f.label)
            for f in reference.failures]


# ----------------------------------------------------------------------
# Checkpoint/resume past quarantined shards
# ----------------------------------------------------------------------
def test_resume_skips_quarantined_shards(tmp_path):
    campaigns = _campaigns()
    checkpoint = CampaignCheckpoint(str(tmp_path))
    plan = FaultPlan(poison_units=(1,))
    first = ParallelCampaignExecutor(_chip(), seed=SEED, jobs=2,
                                     fault_injector=FaultInjector(plan),
                                     checkpoint=checkpoint)
    first.execute_campaigns(campaigns)
    assert first.shards_quarantined == 1
    assert len(checkpoint.completed_shards()) == 2
    assert len(checkpoint.quarantined_shards()) == 1

    resumed = ParallelCampaignExecutor(_chip(), seed=SEED, jobs=2,
                                       checkpoint=checkpoint)
    resumed.execute_campaigns(campaigns)
    assert resumed.shards_resumed == 2
    assert resumed.shards_executed == 0      # nothing re-executed
    assert resumed.shards_quarantined == 1   # the quarantine resurfaces
    assert resumed.failures[0].kind == POISON
    assert resumed.failures[0].label == campaigns[1].name
    assert resumed.store.rows() == first.store.rows()


def test_interrupted_study_resumes_past_quarantined_shard(tmp_path):
    campaigns = _campaigns()
    checkpoint = CampaignCheckpoint(str(tmp_path))
    plan = FaultPlan(poison_units=(0,), interrupt_after_shards=1)
    engine = ParallelCampaignExecutor(_chip(), seed=SEED, jobs=2,
                                      fault_injector=FaultInjector(plan),
                                      checkpoint=checkpoint)
    with pytest.raises(CampaignInterrupted):
        engine.execute_campaigns(campaigns)
    assert len(checkpoint.quarantined_shards()) == 1
    assert len(checkpoint.completed_shards()) == 1

    finished = ParallelCampaignExecutor(_chip(), seed=SEED, jobs=2,
                                        checkpoint=checkpoint)
    finished.execute_campaigns(campaigns)
    clean = ParallelCampaignExecutor(_chip(), seed=SEED, jobs=1)
    clean.execute_campaigns(campaigns[1:])
    assert finished.store.rows() == clean.store.rows()
    assert finished.shards_quarantined == 1
    assert finished.failures[0].index == 0


def test_checkpoint_quarantine_manifest_roundtrip(tmp_path):
    campaigns = _campaigns(benchmarks=1)
    checkpoint = CampaignCheckpoint(str(tmp_path))
    chip = _chip()
    token = checkpoint.shard_token(chip.serial, campaigns[0])
    failure = UnitFailure(index=0, kind=POISON, attempts=4,
                          detail="PoisonError('injected')")
    checkpoint.mark_quarantined(token, chip.serial, campaigns[0], failure)
    assert not checkpoint.has(token)         # quarantined != completed
    loaded = checkpoint.quarantined_failure(token)
    assert (loaded.kind, loaded.attempts) == (POISON, 4)
    assert loaded.label == campaigns[0].name
    assert checkpoint.completed_shards() == []

    # A later successful save promotes the shard to completed...
    checkpoint.save(token, chip.serial, campaigns[0], [])
    assert checkpoint.has(token)
    assert checkpoint.quarantined_failure(token) is None
    # ...and a quarantine mark never demotes a completed shard.
    checkpoint.mark_quarantined(token, chip.serial, campaigns[0], failure)
    assert checkpoint.has(token)


# ----------------------------------------------------------------------
# Stress: the real-fault equivalence suite the CI job runs at --jobs 4
# ----------------------------------------------------------------------
@pytest.mark.slow
@pytest.mark.parametrize("fault_seed", [1, 2, 3])
def test_real_fault_equivalence_stress(fault_seed):
    units = 10
    plan = FaultPlan.random(fault_seed, units, poison_rate=0.2)
    reference = supervised_map(_square, list(range(units)), jobs=1,
                               inject=FaultInjector(plan).unit_fault,
                               hang_seconds=plan.hang_seconds)
    outcome = supervised_map(_square, list(range(units)), jobs=STRESS_JOBS,
                             unit_timeout=30.0,
                             inject=FaultInjector(plan).unit_fault,
                             hang_seconds=plan.hang_seconds)
    assert outcome.values == reference.values
    assert tuple((f.index, f.kind, f.attempts) for f in outcome.failures) \
        == tuple((f.index, f.kind, f.attempts) for f in reference.failures)
    assert plan.unit_exits or plan.unit_hangs or plan.poison_units


@pytest.mark.slow
def test_campaign_stress_faults_at_jobs_4():
    campaigns = _campaigns()
    plan = FaultPlan.random(9, units=len(campaigns), poison_rate=0.0)
    clean = ParallelCampaignExecutor(_chip(), seed=SEED, jobs=1)
    clean.execute_campaigns(campaigns)
    engine = ParallelCampaignExecutor(_chip(), seed=SEED, jobs=STRESS_JOBS,
                                      unit_timeout=60.0,
                                      fault_injector=FaultInjector(plan))
    engine.execute_campaigns(campaigns)
    assert engine.store.rows() == clean.store.rows()
    assert engine.failures == ()
    assert plan.unit_exits or plan.unit_hangs
