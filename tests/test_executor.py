"""Campaign executor against the simulated chip."""

import pytest

from repro.core.campaign import CharacterizationRun, CharacterizationSetup
from repro.core.executor import CampaignExecutor, NOMINAL_RUNTIME_S
from repro.core.campaign import CampaignPlan
from repro.cpu.outcomes import RunOutcome
from repro.soc.topology import CoreId
from repro.workloads.spec import spec_workload


def make_run(voltage_mv: float, cores=(CoreId(0, 0),), reps=5,
             workload="milc", run_id=1) -> CharacterizationRun:
    return CharacterizationRun(
        workload=spec_workload(workload),
        setup=CharacterizationSetup(voltage_mv=voltage_mv, cores=tuple(cores),
                                    repetitions=reps),
        run_id=run_id,
    )


def test_safe_voltage_all_correct(ttt_executor):
    record = ttt_executor.execute_run(make_run(980.0))
    assert record.all_safe
    assert record.counts.total == 5
    assert record.counts.of(RunOutcome.CORRECT) == 5


def test_below_vmin_fails(ttt_executor):
    # milc on core0 (weak core) has Vmin ~ 925; run well below it.
    record = ttt_executor.execute_run(make_run(900.0))
    assert not record.all_safe


def test_rows_recorded_per_repetition(ttt_executor):
    ttt_executor.execute_run(make_run(980.0, reps=7))
    assert len(ttt_executor.store) == 7


def test_multicore_run_binds_to_weakest(ttt_executor):
    all_cores = tuple(CoreId.from_linear(i) for i in range(8))
    # 930 mV: safe on the strongest core for milc but not chip-wide
    # (weakest-core Vmin ~ 925 -> borderline); use 910 to be clearly
    # below the weakest core's milc Vmin.
    record = ttt_executor.execute_run(make_run(910.0, cores=all_cores))
    assert not record.all_safe
    single = ttt_executor.execute_run(
        make_run(910.0, cores=(CoreId(3, 1),), run_id=2))
    assert single.all_safe  # strongest core alone is fine at 910


def test_wall_time_accounts_recovery(ttt_executor):
    safe = ttt_executor.execute_run(make_run(980.0, reps=3))
    assert safe.wall_time_s == pytest.approx(3 * NOMINAL_RUNTIME_S)
    deep = ttt_executor.execute_run(make_run(850.0, reps=3, run_id=3))
    assert deep.wall_time_s != pytest.approx(3 * NOMINAL_RUNTIME_S)


def test_campaign_stop_on_unsafe(ttt_executor):
    plan = CampaignPlan().add_workload(spec_workload("milc"))
    plan.add_voltage_sweep(980.0, 850.0, 10.0, repetitions=3)
    campaign = plan.build()[0]
    records = ttt_executor.execute_campaign(campaign, stop_on_unsafe=True)
    assert not records[-1].all_safe
    assert all(r.all_safe for r in records[:-1])
    assert len(records) < len(campaign.runs)


def test_executor_deterministic(ttt_chip):
    a = CampaignExecutor(ttt_chip, seed=5).execute_run(make_run(922.0, reps=10))
    b = CampaignExecutor(ttt_chip, seed=5).execute_run(make_run(922.0, reps=10))
    assert a.counts.counts == b.counts.counts
