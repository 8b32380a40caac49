"""The hardened result pipeline: global identity, fault equivalence,
checkpoint/resume.

The acceptance property of the fault harness: a pipeline run under *any*
seeded :class:`FaultPlan` -- worker crashes and hangs, transport
corruption/loss bursts, a study interruption -- converges to a cloud
store bit-identical to the clean ``jobs=1`` run.
"""

import pytest

from repro.core.campaign import CampaignPlan
from repro.core.checkpoint import CampaignCheckpoint
from repro.core.executor import CampaignExecutor
from repro.core.faults import FaultInjector, FaultPlan
from repro.core.parallel import ParallelCampaignExecutor
from repro.core.transport import CloudStore, NetworkLink, ResultUploader, SerialLink
from repro.errors import CampaignInterrupted
from repro.experiments.pipeline import run_pipeline
from repro.experiments.table1_weak_cells import run_table1
from repro.soc.chip import Chip
from repro.soc.corners import ProcessCorner
from repro.workloads.spec import spec_suite

SEED = 11


def _chip():
    return Chip(ProcessCorner.TTT, seed=7)


def _campaigns(benchmarks=3):
    plan = CampaignPlan()
    plan.add_workloads(spec_suite()[:benchmarks])
    plan.add_voltage_sweep(980.0, 920.0, 20.0, repetitions=2)
    return plan.build()


def _clean_rows(campaigns):
    engine = ParallelCampaignExecutor(_chip(), seed=SEED, jobs=1)
    engine.execute_campaigns(campaigns)
    return engine.store.rows()


# ----------------------------------------------------------------------
# Global run identity
# ----------------------------------------------------------------------
def test_executor_stamps_global_run_key():
    chip = _chip()
    campaign = _campaigns(benchmarks=1)[0]
    executor = CampaignExecutor(chip, seed=SEED)
    executor.execute_campaign(campaign)
    for row in executor.store.rows():
        assert row.run_key.startswith(f"{chip.serial}/{campaign.name}/")
    # One key per run, shared by its repetitions.
    keys = {row.run_id: row.run_key for row in executor.store.rows()}
    assert len(set(keys.values())) == len(campaign.runs)


def test_colliding_run_ids_from_two_campaigns_both_reach_cloud():
    """Regression for the pipeline-wide bug: every campaign restarts its
    run_id counter, so cloud dedup on (run_id, repetition) dropped all
    but the first campaign."""
    campaigns = _campaigns(benchmarks=2)
    engine = ParallelCampaignExecutor(_chip(), seed=SEED, jobs=1)
    engine.execute_campaigns(campaigns)
    run_ids = [row.run_id for row in engine.store.rows()]
    assert len(set(run_ids)) < len(engine.store)   # ids do collide...
    cloud = CloudStore()
    link = NetworkLink(cloud, loss_rate=0.0, ack_loss_rate=0.0, seed=SEED)
    ok, failed = ResultUploader(link).upload(engine.store)
    assert failed == 0
    assert len(cloud) == len(engine.store)         # ...yet nothing is lost
    assert cloud.duplicates == 0


# ----------------------------------------------------------------------
# Fault equivalence: engine layer
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fault_seed", [1, 2, 3])
def test_faulted_engine_rows_bit_identical_to_clean_run(fault_seed):
    campaigns = _campaigns()
    clean = _clean_rows(campaigns)
    plan = FaultPlan.random(fault_seed, len(campaigns))
    injector = FaultInjector(plan)
    engine = ParallelCampaignExecutor(_chip(), seed=SEED, jobs=2,
                                      fault_injector=injector)
    engine.execute_campaigns(campaigns)
    assert engine.store.rows() == clean
    # The plan actually did something, or the test proves nothing.
    assert plan.unit_exits or plan.unit_hangs


# ----------------------------------------------------------------------
# Fault equivalence: full pipeline through both transports
# ----------------------------------------------------------------------
@pytest.mark.parametrize("transport", ["serial", "network"])
def test_faulted_transport_converges_to_clean_contents(transport):
    campaigns = _campaigns()
    clean = _clean_rows(campaigns)
    plan = FaultPlan.random(5, len(campaigns), rows=len(clean))
    injector = FaultInjector(plan)
    engine = ParallelCampaignExecutor(_chip(), seed=SEED, jobs=2,
                                      fault_injector=injector)
    engine.execute_campaigns(campaigns)
    cloud = CloudStore()
    if transport == "serial":
        link = SerialLink(cloud, bit_error_rate=0.0, max_retries=4,
                          seed=SEED, fault_injector=injector)
    else:
        link = NetworkLink(cloud, loss_rate=0.0, ack_loss_rate=0.0,
                           max_retries=4, seed=SEED, fault_injector=injector)
    ok, failed = ResultUploader(link).upload(engine.store)
    assert failed == 0
    assert plan.max_transport_depth >= 1     # bursts were actually placed
    assert sorted(cloud.to_store().rows()) == sorted(clean)


def test_run_pipeline_driver_fault_equivalence():
    clean = run_pipeline(seed=9, benchmarks=2, repetitions=2, jobs=1)
    faulted = run_pipeline(seed=9, benchmarks=2, repetitions=2, jobs=3,
                           faults=77, transport="serial")
    assert clean.exactly_once and faulted.exactly_once
    assert faulted.store.rows() == clean.store.rows()
    assert faulted.store.to_csv_text() == clean.store.to_csv_text()
    assert faulted.fault_stats is not None and faulted.fault_stats.total > 0


# ----------------------------------------------------------------------
# Checkpoint/resume through the engine
# ----------------------------------------------------------------------
def test_interrupted_study_resumes_without_reexecution(tmp_path):
    campaigns = _campaigns()
    clean = _clean_rows(campaigns)
    checkpoint = CampaignCheckpoint(str(tmp_path))
    injector = FaultInjector(FaultPlan(interrupt_after_shards=1))
    engine = ParallelCampaignExecutor(_chip(), seed=SEED, jobs=1,
                                      fault_injector=injector,
                                      checkpoint=checkpoint)
    with pytest.raises(CampaignInterrupted):
        engine.execute_campaigns(campaigns)
    assert len(checkpoint.completed_shards()) == 1

    resumed = ParallelCampaignExecutor(_chip(), seed=SEED, jobs=2,
                                       checkpoint=checkpoint)
    records = resumed.execute_campaigns(campaigns)
    assert resumed.shards_resumed == 1
    assert resumed.shards_executed == len(campaigns) - 1
    assert resumed.store.rows() == clean          # bit-identical finish
    assert len(records) == len(campaigns)
    # Resumed records carry the same outcome counts as a live run.
    reference = ParallelCampaignExecutor(_chip(), seed=SEED, jobs=1)
    live = reference.execute_campaigns(campaigns)
    for ours, theirs in zip(records, live):
        assert [r.counts for r in ours] == [r.counts for r in theirs]
        assert [r.wall_time_s for r in ours] == \
            pytest.approx([r.wall_time_s for r in theirs])


def test_fully_checkpointed_study_executes_nothing(tmp_path):
    campaigns = _campaigns(benchmarks=2)
    checkpoint = CampaignCheckpoint(str(tmp_path))
    first = ParallelCampaignExecutor(_chip(), seed=SEED, jobs=2,
                                     checkpoint=checkpoint)
    first.execute_campaigns(campaigns)
    assert first.shards_executed == len(campaigns)

    second = ParallelCampaignExecutor(_chip(), seed=SEED, jobs=2,
                                      checkpoint=checkpoint)
    second.execute_campaigns(campaigns)
    assert second.shards_executed == 0
    assert second.shards_resumed == len(campaigns)
    assert second.store.rows() == first.store.rows()


def test_run_pipeline_interrupt_and_resume(tmp_path):
    """An interrupted faulted study, finished through the driver's
    --resume path, lands the clean run's exact CSV."""
    clean = run_pipeline(seed=9, benchmarks=2, repetitions=2, jobs=1)

    # A plan that crashes shard 0 once and interrupts after 1 completion.
    # (run_pipeline derives plans from a seed; drive the engine directly
    # for the interrupt, then finish with the driver's --resume path.)
    checkpoint_dir = str(tmp_path)
    from repro.experiments.pipeline import _declare_campaigns
    from repro.soc.xgene2 import build_reference_chips

    chip = build_reference_chips(seed=9)[ProcessCorner.TTT]
    campaigns = _declare_campaigns(2, 2, 980.0, 880.0, 20.0)
    injector = FaultInjector(FaultPlan(unit_exits=((0, 1),),
                                       interrupt_after_shards=1))
    engine = ParallelCampaignExecutor(chip, seed=9, jobs=2,
                                      fault_injector=injector,
                                      checkpoint=CampaignCheckpoint(
                                          checkpoint_dir))
    with pytest.raises(CampaignInterrupted):
        engine.execute_campaigns(campaigns)

    finished = run_pipeline(seed=9, benchmarks=2, repetitions=2, jobs=2,
                            resume_dir=checkpoint_dir)
    assert finished.shards_resumed >= 1
    assert finished.exactly_once
    assert finished.store.to_csv_text() == clean.store.to_csv_text()


# ----------------------------------------------------------------------
# Sharded experiment drivers under injected faults
# ----------------------------------------------------------------------
def test_table1_faults_invariant():
    clean = run_table1(seed=5, sample_devices=6, regulate=False, jobs=1)
    faulted = run_table1(seed=5, sample_devices=6, regulate=False, jobs=3,
                         faults=21)
    assert clean.counts == faulted.counts
    assert clean.per_chip_totals == faulted.per_chip_totals
    assert clean.scrubs == faulted.scrubs
