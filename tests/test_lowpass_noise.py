"""The closed-form waveform filter and the counter-based EM read noise.

The execution model filters a loop's tiled waveform in closed form (one
pass plus a geometric transient); these tests hold it to a plain
sample-by-sample recurrence. The EM sensor's receiver noise is a pure
function of ``(seed, evaluation, read)``; these tests hold blocks of
reads to serial reads and the noise to its stated distribution.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu.execution import SMOOTHING_CYCLES, ExecutionModel
from repro.cpu.isa import GA_ALPHABET, InstrClass, spec_of
from repro.cpu.kernels import MAX_LOOP_LEN, MIN_LOOP_LEN, InstructionLoop
from repro.pdn.em import EmSensor
from repro.rand import counter_normals

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def sequential_lowpass(signal: np.ndarray, tau_cycles: float) -> np.ndarray:
    """``y[t] = beta * y[t-1] + alpha * x[t]`` with ``y[-1] = x[0]``."""
    alpha = 1.0 / (1.0 + tau_cycles)
    out = np.empty_like(signal)
    state = signal[0]
    for t, sample in enumerate(signal):
        state = (1.0 - alpha) * state + alpha * sample
        out[t] = state
    return out


def assert_matches_recurrence(model: ExecutionModel, loops) -> None:
    block = model.waveform_block(loops)
    for row, loop in zip(block, loops):
        reference = sequential_lowpass(model.raw_waveform(loop), SMOOTHING_CYCLES)
        assert np.max(np.abs(row - reference)) <= 1e-12


def _period(loop: InstructionLoop) -> int:
    """Cycles in one pass of the loop's raw waveform."""
    return sum(max(1, round(spec_of(k).cycles)) for k in loop)


# ----------------------------------------------------------------------
# Filter
# ----------------------------------------------------------------------
def test_period_longer_than_window():
    loop = InstructionLoop.of([InstrClass.LOAD_DRAM, InstrClass.SIMD] * 40)
    model = ExecutionModel(window_cycles=1024)
    assert _period(loop) > model.window_cycles
    assert_matches_recurrence(model, [loop])


def test_period_not_dividing_window():
    loop = InstructionLoop.of([InstrClass.SIMD] * 3 + [InstrClass.NOP] * 2)
    model = ExecutionModel(window_cycles=4096)
    assert model.window_cycles % _period(loop) != 0
    assert_matches_recurrence(model, [loop])


def test_single_class_loop_is_constant():
    loop = InstructionLoop.of([InstrClass.FP_FMA] * 8)
    model = ExecutionModel(window_cycles=1024)
    assert_matches_recurrence(model, [loop])
    waveform = model.profile(loop).waveform
    assert np.ptp(waveform) <= 1e-12


def test_max_length_loop():
    rng = np.random.default_rng(5)
    loop = InstructionLoop.of(
        [GA_ALPHABET[int(g)] for g in rng.integers(len(GA_ALPHABET), size=MAX_LOOP_LEN)])
    assert_matches_recurrence(ExecutionModel(window_cycles=4096), [loop])


def test_mixed_cohort_matches_recurrence_row_by_row():
    """Short, long, constant and window-exceeding loops in one block."""
    rng = np.random.default_rng(9)
    loops = [
        InstructionLoop.of([GA_ALPHABET[int(g)] for g in
                            rng.integers(len(GA_ALPHABET), size=size)])
        for size in (MIN_LOOP_LEN, 17, 96, MAX_LOOP_LEN)
    ]
    loops.append(InstructionLoop.of([InstrClass.NOP] * 4))
    loops.append(InstructionLoop.of([InstrClass.LOAD_DRAM] * 64))
    assert_matches_recurrence(ExecutionModel(window_cycles=2048), loops)


@given(seed=seeds, window=st.sampled_from([64, 100, 1024, 4096]))
@settings(max_examples=40, deadline=None)
def test_random_loops_match_recurrence(seed, window):
    rng = np.random.default_rng(seed)
    loops = [
        InstructionLoop.of([GA_ALPHABET[int(g)] for g in rng.integers(
            len(GA_ALPHABET), size=int(rng.integers(MIN_LOOP_LEN, 97)))])
        for _ in range(3)
    ]
    assert_matches_recurrence(ExecutionModel(window_cycles=window), loops)


# ----------------------------------------------------------------------
# Noise
# ----------------------------------------------------------------------
@given(seed=seeds, clean=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
       repeats=st.integers(1, 4), data=st.data())
@settings(max_examples=60, deadline=None)
def test_read_block_equals_serial_reads_for_any_split(seed, clean, repeats, data):
    serial_sensor = EmSensor(seed=seed)
    serial = [serial_sensor.read_amplitude(c, repeats=repeats) for c in clean]
    cuts = sorted(data.draw(st.lists(st.integers(0, len(clean)), max_size=4)))
    block_sensor = EmSensor(seed=seed)
    blocked = []
    for lo, hi in zip([0] + cuts, cuts + [len(clean)]):
        blocked.extend(block_sensor.read_block(np.array(clean[lo:hi]), repeats).tolist())
    assert blocked == serial


def test_noise_is_centred_with_the_stated_floor():
    sensor = EmSensor(noise_floor=0.01, seed=17)
    noise = sensor.read_block(np.full(10_000, 0.5)) - 0.5
    assert abs(noise.mean()) < 4 * 0.01 / np.sqrt(noise.size)
    assert noise.std() == pytest.approx(0.01, rel=0.03)


def test_counter_normals_are_standard_and_counter_addressed():
    key = np.array([3, 11], dtype=np.uint64)
    values = counter_normals(key, 0, 10_000)
    assert abs(values.mean()) < 0.04
    assert values.std() == pytest.approx(1.0, rel=0.03)
    assert np.array_equal(values[100:110], counter_normals(key, 100, 10))
    assert not np.array_equal(values[:10], counter_normals(key, 0, 10, lane=1))
