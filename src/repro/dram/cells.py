"""Lazily-sampled weak-cell maps.

Simulating 3.9e10 individual cells is intractable; only the weak tail
matters. A :class:`WeakCellMap` samples the concrete population of cells
weak enough to fail at a *profiling condition* (the most aggressive
interval/temperature the map supports) and assigns each a
reference-temperature retention time from the conditional tail law plus
an orientation (true/anti cell). Any milder query condition then filters
that fixed population -- so cell sets nest correctly across conditions,
which is what makes "unique error locations" well-defined, and the same
map answers 50 degC and 60 degC queries about the *same* silicon.

This is the SoftMC-style retention-profiling trick in simulation form.
The unit of sampling is a device: :func:`sample_banks` draws each bank
from its own ``weakcells-d{device}-b{bank}`` substream, then runs the
inverse-CDF tail law once over all the banks' draws. A
:class:`DramDevicePopulation` samples all 8 banks of a device on first
touch, and its per-bank maps are slices of the device's arrays; a
standalone :class:`WeakCellMap` is the same kernel over one bank, so the
two agree cell for cell. The population is held in numpy arrays;
:class:`WeakCell` objects are materialized only for the (small) failing
subsets callers ask for.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dram.geometry import BankAddress, DEFAULT_GEOMETRY, DramGeometry
from repro.dram.retention import (
    DEFAULT_RETENTION,
    RetentionModel,
    _normal_icdf_array,
)
from repro.errors import ConfigurationError
from repro.rand import SeedLike, substream

#: Fraction of weak cells exhibiting variable retention time (VRT): they
#: flip between a weak and a strong state and fail only intermittently.
VRT_FRACTION = 0.10

#: Default profiling condition: comfortably beyond the paper's most
#: aggressive study point (2.283 s at 60 degC) while keeping the sampled
#: population around a few tens of thousands of cells per bank.
DEFAULT_PROFILE_INTERVAL_S = 4.0
DEFAULT_PROFILE_TEMP_C = 62.0


@dataclass(frozen=True)
class WeakCell:
    """One weak cell inside a bank."""

    row: int
    col: int
    retention_ref_s: float   # retention time at the reference temperature
    is_true_cell: bool       # charged when storing '1'
    is_vrt: bool             # variable-retention-time cell
    bank: int = 0            # bank index within the device

    def charged_by(self, stored_one: bool) -> bool:
        """Whether storing this value puts charge (= stress) on the cell."""
        return stored_one == self.is_true_cell


def sample_weak_cell_count(rng: np.random.Generator, bits: int, probability: float,
                           variability: float = 1.0) -> int:
    """Draw a weak-cell count: Poisson around ``bits * p * variability``."""
    if probability < 0 or probability > 1:
        raise ConfigurationError(f"probability {probability} outside [0, 1]")
    mean = bits * probability * variability
    return int(rng.poisson(mean))


def sample_banks(banks: Sequence[BankAddress], variabilities: Sequence[float],
                 geometry: DramGeometry, retention: RetentionModel,
                 tail_probability: float, seed: SeedLike
                 ) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
    """Sample the weak-cell populations of ``banks`` in one pass.

    Each bank draws, in order, from its own substream: the Poisson
    count, the tail uniforms, rows, columns, orientation and VRT flags.
    The draws fill one array per field, bank after bank, and the
    inverse-CDF tail law and the ``exp`` run once over the whole array.
    Returns those arrays (``"bank"`` holds each cell's bank index) and
    the ``len(banks) + 1`` offsets that delimit each bank's cells. Rows
    and columns are stored as ``uint32`` to keep a board's population
    small.
    """
    params = retention.params
    rngs = [substream(seed, f"weakcells-d{address.device}-b{address.bank}")
            for address in banks]
    counts = [sample_weak_cell_count(rng, geometry.bits_per_bank,
                                     tail_probability, variability)
              for rng, variability in zip(rngs, variabilities)]
    offsets = np.cumsum([0] + counts)
    uniforms, orientation, vrt = (np.empty(offsets[-1]) for _ in range(3))
    rows, cols = (np.empty(offsets[-1], dtype=np.uint32) for _ in range(2))
    for rng, lo, hi in zip(rngs, offsets[:-1].tolist(), offsets[1:].tolist()):
        rng.random(out=uniforms[lo:hi])
        rows[lo:hi] = rng.integers(geometry.rows_per_bank, size=hi - lo)
        cols[lo:hi] = rng.integers(geometry.bits_per_row, size=hi - lo)
        rng.random(out=orientation[lo:hi])
        rng.random(out=vrt[lo:hi])
    # Conditional tail law, vectorized inverse CDF.
    np.clip(uniforms, 1e-12, 1.0, out=uniforms)
    uniforms *= tail_probability
    retention_ref = _normal_icdf_array(uniforms)
    retention_ref *= params.ln_sigma
    retention_ref += params.ln_median_s
    return {
        "bank": np.repeat(np.array([address.bank for address in banks],
                                   dtype=np.uint16), counts),
        "rows": rows,
        "cols": cols,
        "retention_ref_s": np.exp(retention_ref, out=retention_ref),
        "is_true": orientation < params.true_cell_fraction,
        "is_vrt": vrt < VRT_FRACTION,
    }, offsets


class WeakCellMap:
    """The weak-cell population of one DRAM bank (or all of a device's).

    Parameters
    ----------
    bank:
        Which bank this map profiles.
    geometry / retention:
        Shape of the bank and the retention statistics.
    chip_factor / bank_factor:
        Multiplicative process-variation factors for this device and
        bank (drawn by :class:`DramDevicePopulation`).
    profile_interval_s / profile_temp_c:
        The profiling condition bounding the sampled population. Queries
        beyond it raise :class:`ConfigurationError`.
    seed:
        Deterministic seed for this bank's population.

    :meth:`DramDevicePopulation.device_map` builds the same map over all
    banks of a device; every array then carries cells of several banks,
    told apart by the ``bank`` field of :meth:`failing_arrays` and
    :class:`WeakCell`.
    """

    def __init__(self, bank: BankAddress,
                 geometry: DramGeometry = DEFAULT_GEOMETRY,
                 retention: Optional[RetentionModel] = None,
                 chip_factor: float = 1.0, bank_factor: float = 1.0,
                 profile_interval_s: float = DEFAULT_PROFILE_INTERVAL_S,
                 profile_temp_c: float = DEFAULT_PROFILE_TEMP_C,
                 seed: SeedLike = None) -> None:
        bank.validate(geometry)
        self.banks: Tuple[BankAddress, ...] = (bank,)
        self.geometry = geometry
        self.retention = retention or RetentionModel(DEFAULT_RETENTION)
        self.profile_interval_s = profile_interval_s
        self.profile_temp_c = profile_temp_c
        self._variabilities: Tuple[float, ...] = (chip_factor * bank_factor,)
        self._seed = seed
        self._population: Optional[Dict[str, np.ndarray]] = None
        self._offsets: Optional[np.ndarray] = None

    @property
    def bank(self) -> BankAddress:
        """The bank of a single-bank map."""
        if len(self.banks) != 1:
            raise ConfigurationError(
                f"this map spans {len(self.banks)} banks, not one")
        return self.banks[0]

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------
    @property
    def profile_tail_probability(self) -> float:
        """Tail mass at the profiling condition (worst coupling)."""
        return self.retention.fail_probability(
            self.profile_interval_s, self.profile_temp_c,
            coupling=self.retention.params.coupling_random,
        )

    def population_size(self) -> int:
        """Number of weak cells sampled at the profiling condition."""
        return len(self._arrays()["rows"])

    def _arrays(self) -> Dict[str, np.ndarray]:
        if self._population is None:
            self._population, self._offsets = sample_banks(
                self.banks, self._variabilities, self.geometry,
                self.retention, self.profile_tail_probability, self._seed)
        return self._population

    def _respan(self, banks: Sequence[BankAddress],
                variabilities: Sequence[float],
                population: Optional[Dict[str, np.ndarray]] = None,
                offsets: Optional[np.ndarray] = None) -> "WeakCellMap":
        """This map's settings over other banks of the same device."""
        other = copy.copy(self)
        other.banks, other._variabilities = tuple(banks), tuple(variabilities)
        other._population, other._offsets = population, offsets
        return other

    def _bank_slice(self, index: int) -> "WeakCellMap":
        """A single-bank map viewing bank ``index``'s cells of this map."""
        arrays = self._arrays()
        lo, hi = int(self._offsets[index]), int(self._offsets[index + 1])
        return self._respan(
            self.banks[index:index + 1], self._variabilities[index:index + 1],
            {key: value[lo:hi] for key, value in arrays.items()},
            np.array([0, hi - lo], dtype=np.int64))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _check_condition(self, interval_s: float, temp_c: float,
                         coupling: float) -> float:
        threshold = self.retention.effective_threshold_s(interval_s, temp_c, coupling)
        profile_threshold = self.retention.effective_threshold_s(
            self.profile_interval_s, self.profile_temp_c,
            self.retention.params.coupling_random,
        )
        if threshold > profile_threshold:
            raise ConfigurationError(
                f"query condition ({interval_s}s, {temp_c}C, c={coupling}) exceeds "
                f"the profiling condition of this map"
            )
        return threshold

    def _failing_mask(self, interval_s: float, temp_c: float,
                      stored_ones: Optional[bool], coupling: float) -> np.ndarray:
        threshold = self._check_condition(interval_s, temp_c, coupling)
        arrays = self._arrays()
        mask = arrays["retention_ref_s"] < threshold
        if stored_ones is not None:
            charged = arrays["is_true"] if stored_ones else ~arrays["is_true"]
            mask = mask & charged
        return mask

    def failing_count(self, interval_s: float, temp_c: float,
                      stored_ones: Optional[bool] = None,
                      coupling: float = 1.0) -> int:
        """Count of failing cells at a condition.

        ``stored_ones`` selects the data polarity (True = all ones,
        False = all zeros, None = every cell counted regardless of
        orientation -- the union over pattern polarities).
        """
        return int(self._failing_mask(interval_s, temp_c, stored_ones,
                                      coupling).sum())

    def failing_cells(self, interval_s: float, temp_c: float,
                      stored_ones: Optional[bool] = None,
                      coupling: float = 1.0) -> List[WeakCell]:
        """Concrete failing cells at a condition (materialized objects)."""
        mask = self._failing_mask(interval_s, temp_c, stored_ones, coupling)
        arrays = self._arrays()
        indices = np.nonzero(mask)[0]
        return [
            WeakCell(
                row=int(arrays["rows"][i]),
                col=int(arrays["cols"][i]),
                retention_ref_s=float(arrays["retention_ref_s"][i]),
                is_true_cell=bool(arrays["is_true"][i]),
                is_vrt=bool(arrays["is_vrt"][i]),
                bank=int(arrays["bank"][i]),
            )
            for i in indices
        ]

    def failing_arrays(self, interval_s: float, temp_c: float,
                       stored_ones: Optional[bool] = None,
                       coupling: float = 1.0
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Failing cells at a condition, as parallel numpy arrays.

        Returns ``(banks, rows, cols, is_true)`` for the same cells
        :meth:`failing_cells` would materialize, in the same order --
        the vectorized view hot paths (the MCU scrub) use to avoid
        constructing one :class:`WeakCell` object per failing bit.
        """
        mask = self._failing_mask(interval_s, temp_c, stored_ones, coupling)
        arrays = self._arrays()
        return (arrays["bank"][mask], arrays["rows"][mask],
                arrays["cols"][mask], arrays["is_true"][mask])

    def unique_locations(self, interval_s: float, temp_c: float) -> int:
        """Unique error locations across the full DPBench suite.

        The union over all four pattern benchmarks: every orientation is
        stressed by some pattern, and the random pattern contributes the
        worst-case coupling -- so the union is the whole population under
        the random coupling factor. This is the Table I quantity.
        """
        return self.failing_count(
            interval_s, temp_c, stored_ones=None,
            coupling=self.retention.params.coupling_random,
        )


class DramDevicePopulation:
    """All banks of all devices on the board, with process variation.

    Chip-to-chip factors are lognormal with sigma ``chip_sigma`` (the
    paper: "large variation of the number of weak cells across the DRAM
    chips"). Bank factors have two components: a *shared* per-bank-index
    factor (sigma ``bank_sigma``) modelling systematic die-layout effects
    common to all devices of the same part number -- the component that
    survives aggregation across the 72 chips and produces Table I's
    bank-to-bank variation -- plus small per-chip-bank noise.

    A device is sampled whole, all banks at once, the first time any of
    its banks is queried; :meth:`bank_map` then slices that sample.
    """

    def __init__(self, geometry: DramGeometry = DEFAULT_GEOMETRY,
                 retention: Optional[RetentionModel] = None,
                 chip_sigma: float = 0.30, bank_sigma: float = 0.05,
                 chip_bank_sigma: float = 0.02,
                 profile_interval_s: float = DEFAULT_PROFILE_INTERVAL_S,
                 profile_temp_c: float = DEFAULT_PROFILE_TEMP_C,
                 seed: SeedLike = None) -> None:
        self.geometry = geometry
        self.retention = retention or RetentionModel(DEFAULT_RETENTION)
        self._seed = seed
        self.profile_interval_s = profile_interval_s
        self.profile_temp_c = profile_temp_c
        factor_rng = substream(seed, "dram-population-factors")
        self.chip_factors = np.exp(
            factor_rng.normal(0.0, chip_sigma, size=geometry.num_devices))
        shared = np.exp(
            factor_rng.normal(0.0, bank_sigma, size=geometry.banks_per_device))
        noise = np.exp(
            factor_rng.normal(0.0, chip_bank_sigma,
                              size=(geometry.num_devices, geometry.banks_per_device)))
        self.bank_factors = shared[np.newaxis, :] * noise
        self._devices: Dict[int, WeakCellMap] = {}
        self._maps: Dict[Tuple[int, int], WeakCellMap] = {}

    def device_map(self, device: int) -> WeakCellMap:
        """The (cached) weak-cell map spanning every bank of one device."""
        if device not in self._devices:
            weak_map = WeakCellMap(
                BankAddress(device, 0), geometry=self.geometry,
                retention=self.retention,
                profile_interval_s=self.profile_interval_s,
                profile_temp_c=self.profile_temp_c, seed=self._seed)
            self._devices[device] = weak_map._respan(
                [BankAddress(device, bank)
                 for bank in range(self.geometry.banks_per_device)],
                (self.chip_factors[device] * self.bank_factors[device]).tolist())
        return self._devices[device]

    def bank_map(self, device: int, bank: int) -> WeakCellMap:
        """The (cached) weak-cell map of one bank: a slice of its device's."""
        key = (device, bank)
        if key not in self._maps:
            BankAddress(device, bank).validate(self.geometry)
            self._maps[key] = self.device_map(device)._bank_slice(bank)
        return self._maps[key]

    def device_unique_locations(self, device: int, interval_s: float,
                                temp_c: float) -> List[int]:
        """Per-bank unique error locations for one device (a Table I row)."""
        weak_map = self.device_map(device)
        mask = weak_map._failing_mask(
            interval_s, temp_c, stored_ones=None,
            coupling=self.retention.params.coupling_random)
        return np.bincount(weak_map._arrays()["bank"][mask],
                           minlength=self.geometry.banks_per_device).tolist()

    def expected_unique_locations(self, interval_s: float, temp_c: float) -> float:
        """Analytic per-bank expectation at nominal variation factors."""
        p = self.retention.fail_probability(
            interval_s, temp_c, self.retention.params.coupling_random)
        return self.geometry.bits_per_bank * p
