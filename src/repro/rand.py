"""Deterministic random-stream management.

Every stochastic component in the library draws from an explicit
:class:`numpy.random.Generator`. Components never call the global numpy
RNG, so a fixed experiment seed reproduces the same results bit-for-bit
run-to-run -- the property the test suite asserts.

Two kinds of stream are provided:

- *Named sub-streams* (:func:`substream`): a parent seed plus a string
  label (and optional integer indices) yields an independent child
  generator, so adding a new consumer of randomness does not perturb the
  draws seen by existing ones. Each one costs a ``SeedSequence`` build.
- *Counter-based draws* (:func:`counter_normals`): value ``i`` of lane
  ``lane`` is a pure function of a 128-bit key and the counter ``(first
  + i, lane)``, computed by numpy's keyed ``Philox`` bit generator. A
  whole block of counters costs one generator build, and any split of
  the block into smaller calls yields the same values -- the basis of
  the EM sensor's batched == serial noise protocol.
"""

from __future__ import annotations

import zlib
from typing import Optional, Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]

#: Default seed used by experiment entry points when the caller passes none.
DEFAULT_SEED = 20180625  # DSN 2018 conference week.


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Accepts an existing generator (returned unchanged), an integer seed,
    or ``None`` (which uses :data:`DEFAULT_SEED` so library behaviour is
    deterministic unless the caller opts into entropy explicitly).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        seed = DEFAULT_SEED
    return np.random.default_rng(seed)


def substream(seed: SeedLike, label: str, *indices: int,
              index: Optional[int] = None) -> np.random.Generator:
    """Derive an independent generator for the component named ``label``.

    The derivation hashes the label (and any number of integer indices)
    into the seed sequence, so streams for different labels are
    decorrelated and stable across library versions. Consumers that
    need one value per counter (many cheap draws) should key a
    :func:`counter_normals` stream from one substream instead of
    building a substream per value.
    """
    base = seed if isinstance(seed, int) else DEFAULT_SEED if seed is None else None
    if base is None:
        # Parent is a Generator: spawn a child keyed by the label hash so
        # repeated calls with the same parent+label agree only when the
        # parent state agrees. Draw the base from the parent.
        assert isinstance(seed, np.random.Generator)
        base = int(seed.integers(0, 2**31 - 1))
    key = zlib.crc32(label.encode("utf-8")) & 0xFFFFFFFF
    parts = [base, key]
    parts.extend(int(i) for i in indices)
    if index is not None:
        parts.append(int(index))
    return np.random.default_rng(np.random.SeedSequence(parts))


def derive_seed(seed: SeedLike, label: str, *indices: int) -> int:
    """Collapse ``(seed, label, indices)`` into one stable integer seed.

    The parallel engine ships integer seeds to worker processes (a live
    generator cannot be re-derived identically on a worker), so shard
    arms -- per-chip GA searches, ablation arms -- each get one of these:
    decorrelated from every other arm and independent of which process
    executes the arm or in what order.
    """
    return int(substream(seed, label, *indices).integers(0, 2**63 - 1))


def counter_normals(key: np.ndarray, first: int, count: int,
                    lane: int = 0) -> np.ndarray:
    """Standard normals at counters ``first .. first + count - 1``.

    Value ``i`` comes from the Philox4x64 block at counter ``(first + i
    + 1, lane, 0, 0)`` under the 128-bit ``key`` (two ``uint64`` words):
    its first two words go through the Box-Muller transform. Each value
    depends only on ``(key, first + i, lane)``, so one call of ``count``
    values equals any sequence of calls covering the same counters.
    """
    bits = np.random.Philox(key=key, counter=[first, lane, 0, 0]) \
        .random_raw(4 * count).reshape(count, 4)
    radius = np.sqrt(-2.0 * np.log(((bits[:, 0] >> 11) + 1) * 2.0 ** -53))
    return radius * np.cos((bits[:, 1] >> 11) * (2.0 ** -53 * 2.0 * np.pi))
