"""Bench: batched + process-parallel engine vs the scalar seed path.

Two head-to-head timings, both against faithful reimplementations of the
pre-batching execution style:

- Figure 4 ladder: a per-repetition scalar ``observe_run`` loop with
  row-at-a-time result appends (how the executor sampled before the
  batched ``observe_run_block`` path) vs ``run_figure4(jobs=4)``;
- Table I profiling: the per-element inverse-CDF population sampler plus
  the cell-at-a-time ECC scrub (materialized ``WeakCell`` objects, one
  full SECDED encode/decode per corrupted word) vs ``run_table1(jobs=4)``
  with the vectorized scrub.

Each test asserts the engine is at least 2x faster than the scalar
reference, the PR's headline acceptance criterion.
"""

import time
from collections import defaultdict

import numpy as np

from conftest import emit

from repro.core.classify import RunLog, classify_run_log
from repro.core.executor import NOMINAL_RUNTIME_S
from repro.core.results import ResultRow, ResultStore
from repro.core.watchdog import Watchdog
from repro.cpu.outcomes import RunOutcome
from repro.dram.controller import WORD_DATA_BITS, ScrubResult
from repro.dram.ecc import DecodeStatus, SecdedCode
from repro.dram.errors_model import PatternKind
from repro.dram.retention import (
    _cached_acceleration,
    _cached_fail_probability,
    _normal_icdf,
)
from repro.experiments.fig4_spec_vmin import run_figure4
from repro.experiments.table1_weak_cells import run_table1
from repro.rand import substream
from repro.soc.chip import Chip
from repro.soc.xgene2 import build_reference_chips
from repro.workloads.spec import spec_suite

LADDER_REPETITIONS = 300
JOBS = 4
#: The experiment's two setpoints plus hotter ones (still inside the
#: 70 degC profiling condition), so the fixed pool fork/IPC overhead
#: amortizes over enough per-worker profiling work.
TABLE1_TEMPS_C = (50.0, 55.0, 60.0, 65.0)


def _scalar_vmin_ladder(chip: Chip, workload, core, seed: int,
                        repetitions: int, store: ResultStore) -> float:
    """Seed-style descending ladder: one scalar draw per repetition.

    A faithful transcription of the pre-batching executor loop: one
    ``observe_run`` draw per repetition, a ``RunLog`` parsed through
    ``classify_run_log``, an unconditional watchdog pass, and a
    row-at-a-time store append.
    """
    watchdog = Watchdog()
    voltage = 980.0
    safe_vmin = voltage
    while voltage >= 700.0 - 1e-9:
        rng = substream(seed, f"ref-{chip.serial}/{workload.name}@{voltage!r}")
        all_safe = True
        for repetition in range(repetitions):
            worst = chip.observe_run(
                core, workload.resonant_swing, voltage, 2.4,
                sdc_bias=workload.cpu.sdc_bias, rng=rng)
            ce_count = int(worst is RunOutcome.CORRECTED_ERROR)
            ue_count = int(worst is RunOutcome.UNCORRECTED_ERROR)
            log = RunLog(
                exited_cleanly=worst not in (RunOutcome.CRASH, RunOutcome.HANG),
                responded_to_watchdog=worst is not RunOutcome.HANG,
                corrected_errors=ce_count,
                uncorrected_errors=ue_count,
                output_matches_golden=None
                if worst in (RunOutcome.CRASH, RunOutcome.HANG)
                else worst is not RunOutcome.SDC,
            )
            classified = classify_run_log(log)
            supervised = watchdog.supervise(
                classified, NOMINAL_RUNTIME_S,
                description=f"{workload.name}@{voltage:.0f}mV[{core.linear}]")
            all_safe = all_safe and classified.is_safe
            store.append(ResultRow(
                run_id=0, benchmark=workload.name, suite=workload.cpu.suite,
                voltage_mv=voltage, freq_ghz=2.4, cores=str(core.linear),
                repetition=repetition, outcome=classified.value,
                verdict=supervised.verdict.value, corrected_errors=ce_count,
                uncorrected_errors=ue_count,
                wall_time_s=supervised.wall_time_s,
            ))
        if all_safe:
            safe_vmin = voltage
        else:
            break
        voltage -= 5.0
    return safe_vmin


def _scalar_figure4(seed: int, repetitions: int) -> dict:
    """The whole Figure 4 grid through the scalar reference path."""
    vmin = {}
    store = ResultStore()
    for corner, chip in build_reference_chips(seed=seed).items():
        core = chip.strongest_core()
        vmin[corner.value] = {
            workload.name: _scalar_vmin_ladder(
                chip, workload, core, seed, repetitions, store)
            for workload in spec_suite()
        }
    return vmin


def test_bench_figure4_engine_speedup(bench_seed):
    start = time.perf_counter()
    reference_vmin = _scalar_figure4(bench_seed, LADDER_REPETITIONS)
    reference_s = time.perf_counter() - start

    start = time.perf_counter()
    result = run_figure4(seed=bench_seed, repetitions=LADDER_REPETITIONS,
                         jobs=JOBS)
    engine_s = time.perf_counter() - start

    speedup = reference_s / engine_s
    emit("Parallel-engine bench: Figure 4 ladder",
         f"scalar reference: {reference_s:.2f}s\n"
         f"batched engine (jobs={JOBS}): {engine_s:.2f}s\n"
         f"speedup: {speedup:.1f}x (required >= 2x)")
    # Same physics: the scalar ladder lands on the same safe Vmin table.
    assert result.vmin_mv == reference_vmin
    assert speedup >= 2.0


def _loop_icdf_array(p):
    """The seed's per-element inverse-CDF (pre-vectorization)."""
    flat = np.atleast_1d(np.asarray(p, dtype=np.float64))
    return np.array([_normal_icdf(float(value)) for value in flat])


def _scalar_scrub_bank(self, weak_map, temp_c, pattern=PatternKind.RANDOM,
                       now_s=0.0):
    """The seed's cell-at-a-time scrub (pre-vectorization).

    Materializes one ``WeakCell`` per failing bit, groups words by
    (bank, row, word) in a Python dict, so a map spanning a device's
    banks never merges two banks' words, and runs the full SECDED
    encode + decode on every corrupted word -- including the
    ~all-singles common case the vectorized path settles from the truth
    table.
    """
    retention = weak_map.retention.params
    if pattern is PatternKind.ALL_ZEROS:
        stress_ones, coupling = False, 1.0
    elif pattern is PatternKind.ALL_ONES:
        stress_ones, coupling = True, 1.0
    elif pattern is PatternKind.CHECKERBOARD:
        stress_ones, coupling = None, retention.coupling_checker
    else:
        stress_ones, coupling = None, retention.coupling_random
    failing = weak_map.failing_cells(
        self.trefp_s, temp_c, stored_ones=stress_ones, coupling=coupling)
    if pattern in (PatternKind.CHECKERBOARD, PatternKind.RANDOM):
        failing = [c for c in failing
                   if (c.col + (0 if pattern is PatternKind.CHECKERBOARD
                                else c.row)) % 2 == (0 if c.is_true_cell else 1)]
    by_word = defaultdict(list)
    for cell in failing:
        by_word[(cell.bank, cell.row, cell.col // WORD_DATA_BITS)].append(
            cell.col % WORD_DATA_BITS)
    code = SecdedCode()
    corrected = uncorrectable = miscorrected = 0
    for _word, bits in sorted(by_word.items()):
        corrupted = code.flip_bits(code.encode(0), sorted(set(bits)))
        result = code.decode_with_truth(corrupted, 0)
        if result.status is DecodeStatus.CORRECTED:
            corrected += 1
        elif result.status is DecodeStatus.DETECTED_UNCORRECTABLE:
            uncorrectable += 1
        elif result.status is DecodeStatus.MISCORRECTED:
            miscorrected += 1
    return ScrubResult(
        raw_bit_errors=len(failing), corrected_words=corrected,
        uncorrectable_words=uncorrectable, miscorrected_words=miscorrected,
        words_scanned=len(by_word))


def test_bench_table1_sampling_speedup(bench_seed, monkeypatch):
    import gc

    import repro.dram.cells as cells
    import repro.dram.controller as controller

    # Drop garbage left by earlier benches: the engine timing forks a
    # worker pool, and copy-on-write faults against a bloated parent
    # heap would bill the pool for another test's allocations.
    gc.collect()

    # Reference: per-element tail sampling, cell-at-a-time scrub, cold
    # analytic caches.
    monkeypatch.setattr(cells, "_normal_icdf_array", _loop_icdf_array)
    monkeypatch.setattr(controller.MemoryControlUnit, "scrub_bank",
                        _scalar_scrub_bank)
    _cached_acceleration.cache_clear()
    _cached_fail_probability.cache_clear()
    start = time.perf_counter()
    reference = run_table1(seed=bench_seed, temps_c=TABLE1_TEMPS_C,
                           regulate=False, jobs=1)
    reference_s = time.perf_counter() - start
    monkeypatch.undo()

    start = time.perf_counter()
    result = run_table1(seed=bench_seed, temps_c=TABLE1_TEMPS_C,
                        regulate=False, jobs=JOBS)
    engine_s = time.perf_counter() - start

    speedup = reference_s / engine_s
    emit("Parallel-engine bench: Table I weak-cell profiling",
         f"scalar reference: {reference_s:.2f}s\n"
         f"vectorized engine (jobs={JOBS}): {engine_s:.2f}s\n"
         f"speedup: {speedup:.1f}x (required >= 2x)")
    # Same populations up to <=1 ulp inverse-CDF differences (a borderline
    # cell may flip either side of the failure threshold).
    for temp in result.counts:
        for ours, ref in zip(result.counts[temp], reference.counts[temp]):
            assert abs(ours - ref) <= max(2.0, 0.01 * ref)
    assert speedup >= 2.0
