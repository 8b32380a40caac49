"""End-to-end integration: Vmin search -> CSV -> reload -> lossy upload.

These tests drive the engine Figure 4's work units run -- a
:class:`VminSearch` over a :class:`CampaignExecutor` on the TTT
reference part's most robust core -- and cross-check the derived Vmin
table against the persisted CSV and against what survives a lossy
upload.
"""

import pytest

from repro.core.executor import CampaignExecutor
from repro.core.results import ResultStore
from repro.core.vmin import VminSearch
from repro.cpu.outcomes import RunOutcome
from repro.soc.corners import ProcessCorner
from repro.soc.xgene2 import build_reference_chips
from repro.workloads.spec import spec_suite


@pytest.fixture(scope="module")
def study():
    """(workload -> safe Vmin, raw result store) on the TTT part."""
    chip = build_reference_chips(seed=1)[ProcessCorner.TTT]
    executor = CampaignExecutor(chip, seed=1)
    results = VminSearch(executor, repetitions=5).search_suite(
        spec_suite(), cores=(chip.strongest_core(),))
    return {r.workload: r.safe_vmin_mv for r in results}, executor.store


def test_csv_roundtrip_preserves_study(study, tmp_path):
    """Persist the part's store to disk and reload it losslessly."""
    _, store = study
    path = tmp_path / "ttt.csv"
    count = store.write_csv(str(path))
    reloaded = ResultStore.from_csv_text(path.read_text())
    assert len(reloaded) == count == len(store)
    assert reloaded.benchmarks() == store.benchmarks()
    for benchmark in store.benchmarks():
        assert reloaded.voltages(benchmark) == store.voltages(benchmark)


def test_csv_outcomes_explain_vmin(study):
    """For each benchmark, every repetition at the reported safe Vmin is
    safe and the voltage below it holds the first failure."""
    table, store = study
    for benchmark, safe_vmin in table.items():
        safe_outcomes = store.outcomes(benchmark, safe_vmin)
        assert safe_outcomes, benchmark
        assert all(o.is_safe for o in safe_outcomes), benchmark
        below = [v for v in store.voltages(benchmark) if v < safe_vmin]
        if below:
            failing = store.outcomes(benchmark, max(below))
            assert any(not o.is_safe for o in failing), benchmark


def test_results_survive_lossy_upload(study):
    """Figure 2's right-hand box: ship the study's raw rows to the cloud
    over a lossy network and re-derive the Vmin table from what arrived.
    At-least-once delivery + idempotent store = identical conclusions."""
    from repro.core.transport import CloudStore, NetworkLink, ResultUploader

    table, source = study
    cloud = CloudStore()
    link = NetworkLink(cloud, loss_rate=0.25, ack_loss_rate=0.1,
                       max_retries=32, seed=9)
    ok, failed = ResultUploader(link).upload(source)
    assert failed == 0
    received = cloud.to_store()
    assert len(received) == len(source)

    # Re-derive each benchmark's safe Vmin from the uploaded rows alone.
    for benchmark, expected_vmin in table.items():
        safe = [v for v in received.voltages(benchmark)
                if all(RunOutcome(r.outcome).is_safe
                       for r in received.rows(benchmark=benchmark,
                                              voltage_mv=v))]
        assert min(safe) == expected_vmin, benchmark


def test_wall_time_reflects_recovery_cost(study):
    """Campaigns that descend into crashes accumulate recovery time:
    mean wall time of unsafe repetitions differs from clean ones."""
    _, store = study
    clean = [r.wall_time_s for r in store.rows()
             if r.outcome == RunOutcome.CORRECT.value]
    dirty = [r.wall_time_s for r in store.rows()
             if r.outcome in (RunOutcome.CRASH.value, RunOutcome.HANG.value)]
    assert clean and dirty
    assert set(dirty) != set(clean)
