"""Execution model: instruction loops -> current waveforms + counters.

This is the bridge between code (an :class:`InstructionLoop` or a named
workload's activity signature) and the electrical quantities the PDN and
EM models consume. It produces:

- a per-cycle relative supply-current waveform for a window of steady-
  state execution (the input to droop/EM analysis), and
- performance counters (IPC, FP ratio, memory intensity, ...) that feed
  the Vmin predictor of Section IV.D.

The model is deliberately behavioural: each instruction class occupies
the pipeline for its ``cycles`` and contributes its ``current`` during
that occupancy, with a one-pole low-pass smoothing that stands in for
pipeline overlap and the package's local decoupling.

A loop's raw waveform is one traversal (its *pass*, ``P`` cycles) tiled
across the window, so the filtered waveform has a closed form: the
periodic steady state ``S`` of one pass plus a decaying start-up
transient, ``y[i] = S[i mod P] + beta**(i+1) * (x[0] - S[P-1])``. The
filter therefore touches one pass per loop, never the whole window, and
needs no matrix product (see :func:`_periodic_lowpass`).
:meth:`ExecutionModel.waveform_block` evaluates this for a whole cohort
of loops at once -- the GA's batched fitness path -- and :meth:`profile`
runs the same kernel on a cohort of one, so every row of a block is
bit-identical to the serial waveform.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.cpu.isa import (
    INSTRUCTION_SPECS,
    MAX_CLASS_CURRENT,
    MIN_CLASS_CURRENT,
    spec_of,
)
from repro.cpu.kernels import InstructionLoop
from repro.errors import ConfigurationError

#: Static (clock tree + leakage) floor of the relative current waveform.
STATIC_CURRENT = 0.05

#: Smoothing constant (cycles) standing in for pipeline overlap and
#: on-die decoupling; chosen well below the PDN resonance period so the
#: resonant component of the waveform survives.
SMOOTHING_CYCLES = 4.0

#: Per-class synthesis signatures, indexed by class code: pipeline
#: occupancy in whole cycles and the waveform level held during it.
_CLASS_OCCUPANCY = np.array(
    [max(1, round(spec.cycles)) for spec in INSTRUCTION_SPECS.values()],
    dtype=np.intp)
_CLASS_LEVEL = np.array(
    [STATIC_CURRENT + (1.0 - STATIC_CURRENT) * spec.current
     for spec in INSTRUCTION_SPECS.values()])

#: Weight below which the filter's start-up transient is dropped: past
#: it, the transient moves no sample by more than 2**-64.
_NEGLIGIBLE = 2.0 ** -64


@dataclass(frozen=True)
class PerfCounters:
    """Performance-counter summary of a window of execution.

    These are the features of the workload-dependent Vmin predictor
    (paper Section IV.D / reference [11]).
    """

    ipc: float
    fp_ratio: float
    mem_ratio: float
    branch_ratio: float
    l2_miss_ratio: float
    mean_current: float
    current_swing: float

    def as_features(self) -> np.ndarray:
        """Feature vector (with intercept) for the linear predictor."""
        return np.array([
            1.0, self.ipc, self.fp_ratio, self.mem_ratio,
            self.branch_ratio, self.l2_miss_ratio,
            self.mean_current, self.current_swing,
        ])


@dataclass(frozen=True)
class ExecutionProfile:
    """Result of simulating a window of loop execution."""

    waveform: np.ndarray  # per-cycle relative current, values in [0, 1]
    counters: PerfCounters
    cycles_per_iteration: float

    @property
    def peak_to_trough(self) -> float:
        """Raw current swing of the waveform (max - min)."""
        return float(self.waveform.max() - self.waveform.min())


class ExecutionModel:
    """Simulates steady-state execution of an instruction loop.

    Parameters
    ----------
    freq_ghz:
        Core clock; only used to translate cycles to wall time for
        spectral analysis (done by the PDN layer).
    window_cycles:
        Length of the simulated steady-state window. Must cover several
        PDN resonance periods for the spectral estimate to be stable;
        the default covers ~20 periods of a 50 MHz resonance at 2.4 GHz.
    """

    def __init__(self, freq_ghz: float = 2.4, window_cycles: int = 1024) -> None:
        if freq_ghz <= 0:
            raise ConfigurationError("freq_ghz must be positive")
        if window_cycles < 64:
            raise ConfigurationError("window_cycles must be at least 64")
        self.freq_ghz = freq_ghz
        self.window_cycles = window_cycles

    def raw_waveform(self, loop: InstructionLoop) -> np.ndarray:
        """Unsmoothed per-cycle current over one window (values [0,1])."""
        one_pass = np.repeat(_CLASS_LEVEL[loop.codes], _CLASS_OCCUPANCY[loop.codes])
        repeats = -(-self.window_cycles // len(one_pass))  # ceil division
        return np.tile(one_pass, repeats)[: self.window_cycles]

    def smoothed_waveform(self, loop: InstructionLoop) -> np.ndarray:
        """The filtered per-cycle waveform (the :meth:`profile` waveform
        without the counter computation)."""
        return self.waveform_block([loop])[0]

    def waveform_block(self, loops: Sequence[InstructionLoop]) -> np.ndarray:
        """Stacked smoothed waveforms of ``loops``, shape ``(N, window)``.

        The cohort's cached class codes are concatenated into one flat
        array of (level, occupancy) steps and filtered in closed form by
        :func:`_periodic_lowpass`, with no per-loop kernel call. That
        kernel never mixes rows, so row ``i`` is bit-identical to
        ``profile(loops[i]).waveform`` at any cohort size or order (the
        property ``tests/test_em_batch.py`` asserts).
        """
        n_loops, window = len(loops), self.window_cycles
        if not n_loops:
            return np.empty((0, window))
        lengths = np.fromiter(map(len, loops), dtype=np.intp, count=n_loops)
        codes = np.concatenate([loop.codes for loop in loops])
        levels = _CLASS_LEVEL[codes]
        out = _periodic_lowpass(levels, _CLASS_OCCUPANCY[codes], lengths, window,
                                SMOOTHING_CYCLES)
        # The output is a convex combination of input levels; clamp the
        # ~1-ulp excursions rounding can introduce.
        starts = np.cumsum(lengths) - lengths
        low = np.minimum.reduceat(levels, starts)[:, None]
        high = np.maximum.reduceat(levels, starts)[:, None]
        return np.clip(out, low, high, out=out)

    def profile(self, loop: InstructionLoop) -> ExecutionProfile:
        """Simulate ``loop`` and return waveform + counters."""
        waveform = self.smoothed_waveform(loop)

        total_instr = len(loop)
        total_cycles = loop.total_cycles
        fp = sum(1 for k in loop if spec_of(k).uses_fp)
        mem = sum(1 for k in loop if spec_of(k).touches_memory)
        branch = sum(1 for k in loop if k.value == "branch")
        l2_miss = sum(1 for k in loop if k.value in ("load_l2", "load_dram"))
        # Effective IPC: harmonic blend of per-class throughputs.
        inv_ipc = sum(1.0 / spec_of(k).ipc_weight for k in loop) / total_instr
        counters = PerfCounters(
            ipc=min(4.0, 1.0 / inv_ipc),
            fp_ratio=fp / total_instr,
            mem_ratio=mem / total_instr,
            branch_ratio=branch / total_instr,
            l2_miss_ratio=l2_miss / total_instr,
            mean_current=float(waveform.mean()),
            current_swing=self.normalized_swing(waveform),
        )
        return ExecutionProfile(
            waveform=waveform,
            counters=counters,
            cycles_per_iteration=total_cycles,
        )

    @staticmethod
    def normalized_swing(waveform: np.ndarray) -> float:
        """Peak-to-trough current swing normalized to the ISA's headroom.

        1.0 means the waveform spans the full range between the
        lowest-power and highest-power instruction classes -- the
        theoretical maximum any loop can achieve.
        """
        headroom = (MAX_CLASS_CURRENT - MIN_CLASS_CURRENT) * (1.0 - STATIC_CURRENT)
        swing = float(waveform.max() - waveform.min())
        return min(1.0, swing / headroom)


@lru_cache(maxsize=8)
def _decay(beta: float, window: int) -> np.ndarray:
    """``beta**(t+1)`` for ``t < window`` (read-only, shared)."""
    decay = beta ** np.arange(1.0, window + 1.0)
    decay.setflags(write=False)
    return decay


def _periodic_lowpass(levels: np.ndarray, occupancy: np.ndarray,
                      lengths: np.ndarray, window: int,
                      tau_cycles: float) -> np.ndarray:
    """First-order IIR low-pass of looped step signals, in closed form.

    Row ``i`` of the input signal is a loop of ``lengths[i]`` steps, step
    ``k`` holding ``levels[k]`` for ``occupancy[k]`` samples (the arrays
    concatenate all rows' steps); one pass is ``P`` samples and is tiled
    to ``window`` samples. The filter is ``y[t] = beta * y[t-1] + alpha *
    x[t]``, primed with ``y[-1] = x[0]``, and its output is the periodic
    steady state ``S`` plus a geometric start-up transient::

        y[t] = S[t mod P] + beta**(t+1) * (x[0] - S[P-1])

    Over a step of level ``v`` held for ``c`` samples the filter state
    maps affinely, ``s -> beta**c * s + (1 - beta**c) * v``. One doubling
    scan of these maps over each loop's steps (``log2`` of the longest
    loop rounds, masked at loop starts) gives the zero-state response
    ``L`` at every step's exit and ``beta`` to the cycles elapsed so far.
    The steady state closes the period, ``S[P-1] = L[P-1] / (1 -
    beta**P)``, and inside a step it relaxes from its entry state ``e``
    towards ``v`` as ``v + (e - v) * beta**(j+1)``. ``S`` is then tiled
    into the window by doubling copies. Every operation reads only its
    own row, so a row's output never depends on the other rows.
    """
    alpha = 1.0 / (1.0 + tau_cycles)
    beta = 1.0 - alpha
    ends = np.cumsum(lengths)
    starts = ends - lengths
    position = np.arange(levels.size) - np.repeat(starts, lengths)
    gain = beta ** occupancy
    state = (1.0 - gain) * levels
    lag = 1
    while lag < lengths.max():
        inside = position[lag:] >= lag
        state[lag:] += np.where(inside, gain[lag:] * state[:-lag], 0.0)
        gain[lag:] *= np.where(inside, gain[:-lag], 1.0)
        lag *= 2
    steady_end = state[ends - 1] / (1.0 - gain[ends - 1])
    exit_state = state + gain * np.repeat(steady_end, lengths)
    entry = np.empty_like(exit_state)
    entry[1:] = exit_state[:-1]
    entry[starts] = steady_end
    decay = _decay(beta, max(window, int(occupancy.max())))
    step_start = np.cumsum(occupancy) - occupancy
    cycle = np.arange(int(occupancy.sum())) - np.repeat(step_start, occupancy)
    steady = np.repeat(levels, occupancy) \
        + np.repeat(entry - levels, occupancy) * decay[cycle]
    periods = np.add.reduceat(occupancy, starts)
    out = np.empty((len(lengths), window))
    for row, start, length in zip(out, (np.cumsum(periods) - periods).tolist(),
                                  np.minimum(periods, window).tolist()):
        row[:length] = steady[start:start + length]
        while length < window:
            step = min(length, window - length)
            row[length:length + step] = row[:step]
            length += step
    settle = int(np.count_nonzero(decay[:window] > _NEGLIGIBLE))
    out[:, :settle] += decay[:settle] * (levels[starts] - steady_end)[:, None]
    return out
