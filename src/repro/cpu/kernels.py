"""Instruction loops: the unit of stress-test code.

An :class:`InstructionLoop` is a finite sequence of instruction classes
executed repeatedly -- exactly what the paper's GA evolves ("a loop of
instructions that maximizes radiated EM amplitude") and what the
component micro-viruses hand-craft.

A loop caches its body as an array of integer class codes (see
:data:`repro.cpu.isa.CLASSES`) and as the bytes of that array: the
execution model synthesizes waveforms from the codes, the GA's operators
work on them, and the EM fitness memoizes on the bytes -- none of them
hashes an enum member per instruction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, List, Tuple

import numpy as np

from repro.cpu.isa import CLASS_CODE, CLASSES, InstrClass, spec_of
from repro.errors import ConfigurationError

#: Loop-body length bounds accepted by the execution model and the GA.
MIN_LOOP_LEN = 2
MAX_LOOP_LEN = 256


@dataclass(frozen=True)
class InstructionLoop:
    """An immutable loop body of instruction classes.

    The loop is the genome representation of the GA: fixed alphabet,
    variable length within bounds, compared by value.
    """

    body: Tuple[InstrClass, ...]

    def __post_init__(self) -> None:
        if not MIN_LOOP_LEN <= len(self.body) <= MAX_LOOP_LEN:
            raise ConfigurationError(
                f"loop body length {len(self.body)} outside "
                f"{MIN_LOOP_LEN}..{MAX_LOOP_LEN}"
            )

    @classmethod
    def of(cls, classes: Iterable[InstrClass]) -> "InstructionLoop":
        """Build a loop from any iterable of instruction classes."""
        return cls(tuple(classes))

    @classmethod
    def from_codes(cls, codes: np.ndarray) -> "InstructionLoop":
        """Build a loop from an array of class codes, caching the array."""
        codes = np.array(codes, dtype=np.uint8)
        loop = cls(tuple(map(CLASSES.__getitem__, codes.tolist())))
        codes.setflags(write=False)
        loop.__dict__["codes"] = codes
        return loop

    @cached_property
    def codes(self) -> np.ndarray:
        """The body as a read-only ``uint8`` array of class codes."""
        codes = np.fromiter(map(CLASS_CODE.__getitem__, self.body),
                            dtype=np.uint8, count=len(self.body))
        codes.setflags(write=False)
        return codes

    @cached_property
    def key(self) -> bytes:
        """Compact value key of the body (equal loops, equal keys)."""
        return self.codes.tobytes()

    def __len__(self) -> int:
        return len(self.body)

    def __iter__(self):
        return iter(self.body)

    @property
    def total_cycles(self) -> float:
        """Core cycles consumed by one traversal of the loop body."""
        return sum(spec_of(k).cycles for k in self.body)

    @property
    def mean_current(self) -> float:
        """Cycle-weighted mean relative current of the loop."""
        cycles = self.total_cycles
        weighted = sum(spec_of(k).current * spec_of(k).cycles for k in self.body)
        return weighted / cycles

    def histogram(self) -> dict:
        """Instruction-class counts, for reporting evolved viruses."""
        counts: dict = {}
        for klass in self.body:
            counts[klass] = counts.get(klass, 0) + 1
        return counts

    def describe(self) -> str:
        """Short human-readable summary, e.g. ``simd*12 nop*12 ...``."""
        items = sorted(self.histogram().items(), key=lambda kv: -kv[1])
        return " ".join(f"{k.value}*{n}" for k, n in items)


def square_wave_loop(high: InstrClass, low: InstrClass,
                     half_period_cycles: int) -> InstructionLoop:
    """Hand-craft the canonical dI/dt pattern.

    Alternates a burst of ``high``-current instructions with a burst of
    ``low``-current ones so each phase lasts roughly
    ``half_period_cycles`` core cycles. Driving the half period to match
    half the PDN resonance period is the textbook worst case the GA is
    expected to rediscover.
    """
    if half_period_cycles <= 0:
        raise ConfigurationError("half_period_cycles must be positive")
    high_count = max(1, round(half_period_cycles / spec_of(high).cycles))
    low_count = max(1, round(half_period_cycles / spec_of(low).cycles))
    body: List[InstrClass] = [high] * high_count + [low] * low_count
    if len(body) > MAX_LOOP_LEN:
        raise ConfigurationError(
            f"square wave of {len(body)} instructions exceeds loop limit"
        )
    return InstructionLoop.of(body)
