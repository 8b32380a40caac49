"""The deterministic fault-injection harness (repro.core.faults)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.faults import FaultBurst, FaultInjector, FaultPlan
from repro.core.parallel import parallel_map
from repro.core.supervisor import CRASH, HANG, POISON, supervised_map
from repro.errors import CampaignError


def _square(x):
    return x * x


# ----------------------------------------------------------------------
# FaultBurst
# ----------------------------------------------------------------------
def test_burst_hits_window_and_depth():
    burst = FaultBurst(first_row=3, rows=2, depth=2)
    assert burst.hits(3, 0) and burst.hits(4, 1)
    assert not burst.hits(2, 0)        # before the window
    assert not burst.hits(5, 0)        # past the window
    assert not burst.hits(3, 2)        # past the doomed depth


def test_burst_validation():
    with pytest.raises(CampaignError):
        FaultBurst(first_row=-1, rows=1, depth=1)
    with pytest.raises(CampaignError):
        FaultBurst(first_row=0, rows=0, depth=1)
    with pytest.raises(CampaignError):
        FaultBurst(first_row=0, rows=1, depth=0)


# ----------------------------------------------------------------------
# FaultPlan
# ----------------------------------------------------------------------
def test_plan_validation():
    with pytest.raises(CampaignError):
        FaultPlan(unit_exits=((-1, 1),))
    with pytest.raises(CampaignError):
        FaultPlan(unit_hangs=((0, 0),))
    with pytest.raises(CampaignError):
        FaultPlan(interrupt_after_shards=0)


def test_plan_max_transport_depth():
    assert FaultPlan().max_transport_depth == 0
    plan = FaultPlan(corruption_bursts=(FaultBurst(0, 1, 2),),
                     loss_bursts=(FaultBurst(5, 2, 4),))
    assert plan.max_transport_depth == 4


def test_random_plan_is_reproducible():
    a = FaultPlan.random(99, units=6, rows=120)
    b = FaultPlan.random(99, units=6, rows=120)
    assert a == b
    assert a != FaultPlan.random(100, units=6, rows=120)


def test_random_plan_places_bursts_inside_row_range():
    plan = FaultPlan.random(3, units=4, rows=50)
    for burst in plan.corruption_bursts + plan.loss_bursts:
        assert 0 <= burst.first_row < 50
        assert 1 <= burst.depth <= 3
    assert plan.corruption_bursts and plan.loss_bursts


def test_random_plan_without_rows_has_no_bursts():
    plan = FaultPlan.random(3, units=4, rows=0)
    assert plan.corruption_bursts == () and plan.loss_bursts == ()


def test_random_plan_needs_shards():
    with pytest.raises(CampaignError):
        FaultPlan.random(1, units=0)


# ----------------------------------------------------------------------
# FaultInjector
# ----------------------------------------------------------------------
def test_unit_fault_order_crashes_then_hangs_then_poison():
    injector = FaultInjector(FaultPlan(unit_exits=((0, 2),),
                                       unit_hangs=((0, 1),),
                                       poison_units=(1,)))
    assert injector.unit_fault(0, 0) == CRASH
    assert injector.unit_fault(0, 1) == CRASH
    assert injector.unit_fault(0, 2) == HANG
    assert injector.unit_fault(0, 3) is None
    assert injector.unit_fault(1, 5) == POISON     # poison never relents
    assert injector.unit_fault(2, 0) is None       # unlisted unit survives
    assert injector.unit_fault(0, 0) == CRASH      # replays are not recounted
    assert injector.stats.unit_exits == 2
    assert injector.stats.unit_hangs == 1
    assert injector.stats.poison_raises == 1


def test_transport_decisions_are_pure_of_index_and_attempt():
    plan = FaultPlan(corruption_bursts=(FaultBurst(2, 3, 2),),
                     loss_bursts=(FaultBurst(0, 1, 1),))
    injector = FaultInjector(plan)
    for _ in range(3):  # same (row, attempt) -> same answer, every time
        assert injector.corrupt_frame(2, 0) is True
        assert injector.corrupt_frame(2, 2) is False
        assert injector.drop_packet(0, 0) is True
        assert injector.drop_packet(1, 0) is False
    assert injector.stats.corrupted_frames == 3
    assert injector.stats.dropped_packets == 3
    assert injector.stats.total == 6


def test_interrupt_due_threshold():
    injector = FaultInjector(FaultPlan(interrupt_after_shards=2))
    assert not injector.interrupt_due(1)
    assert injector.interrupt_due(2) and injector.interrupt_due(3)
    assert not FaultInjector(FaultPlan()).interrupt_due(10)


# ----------------------------------------------------------------------
# parallel_map / supervised_map under injected crashes and hangs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("jobs", [1, 2])
def test_parallel_map_reexecutes_killed_units(jobs):
    plan = FaultPlan(unit_exits=((0, 2), (3, 1)), unit_hangs=((1, 1),),
                     hang_seconds=0.2)
    injector = FaultInjector(plan)
    items = list(range(5))
    assert parallel_map(_square, items, jobs=jobs,
                        fault_injector=injector) == [0, 1, 4, 9, 16]
    assert injector.stats.unit_exits == 3
    assert injector.stats.unit_hangs == 1


@pytest.mark.slow
@pytest.mark.parametrize("jobs", [1, 2])
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), units=st.integers(1, 6))
def test_random_plan_without_poison_never_quarantines(jobs, seed, units):
    """At most one crash and one hang per unit stays inside the default
    retry budget, so a poison-free plan always converges to clean
    results -- with real crashes and hangs in a pool as well as inline."""
    plan = FaultPlan.random(seed, units, poison_rate=0.0)
    outcome = supervised_map(_square, list(range(units)), jobs=jobs,
                             inject=FaultInjector(plan).unit_fault,
                             hang_seconds=plan.hang_seconds)
    assert outcome.failures == ()
    assert outcome.values == tuple(x * x for x in range(units))
    assert outcome.stats.crashes == sum(n for _, n in plan.unit_exits)
    assert outcome.stats.hangs == sum(n for _, n in plan.unit_hangs)
