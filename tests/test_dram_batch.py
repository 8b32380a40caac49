"""Device-at-a-time DRAM sampling and scrub equal the per-bank results.

A :class:`DramDevicePopulation` samples all banks of a device in one
kernel call and scrubs them in one :meth:`MemoryControlUnit.scrub_bank`
pass. Every count, scrub total and SLIMpro event must equal what
standalone single-bank :class:`WeakCellMap`s give, bank by bank.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dram.cells import DramDevicePopulation, WeakCellMap
from repro.dram.controller import WORD_DATA_BITS, MemoryControlUnit, ScrubResult
from repro.dram.errors_model import PatternKind
from repro.dram.geometry import DEFAULT_GEOMETRY, BankAddress, DramGeometry
from repro.errors import ConfigurationError
from repro.soc.slimpro import SLIMpro
from repro.thermal.binding import ZoneBinding
from repro.units import RELAXED_REFRESH_S

#: A tiny board whose banks are mostly weak cells: at an 800 s refresh
#: period many 64-bit words hold three or more failing bits, which the
#: paper's Table I conditions never produce.
DENSE_GEOMETRY = DramGeometry(num_dimms=1, ranks_per_dimm=1,
                              devices_per_rank=2, banks_per_device=4,
                              rows_per_bank=4, bits_per_row=128)
DENSE_PROFILE_INTERVAL_S = 1.0e4
DENSE_TREFP_S = 800.0


def _standalone(population, device, bank):
    """The bank's map built on its own, outside the population."""
    return WeakCellMap(
        BankAddress(device, bank), geometry=population.geometry,
        retention=population.retention,
        chip_factor=float(population.chip_factors[device]),
        bank_factor=float(population.bank_factors[device, bank]),
        profile_interval_s=population.profile_interval_s,
        profile_temp_c=population.profile_temp_c,
        seed=population._seed)


def _total(results):
    return ScrubResult(*(sum(getattr(r, field) for r in results)
                         for field in ScrubResult.__dataclass_fields__))


def _events(slimpro):
    return [(e.time_s, e.source, e.correctable, e.address)
            for e in slimpro.ecc_events()]


def _booted():
    slimpro = SLIMpro()
    slimpro.boot()
    return slimpro


def _assert_device_matches_banks(population, device, temp_c, trefp_s):
    banks = range(population.geometry.banks_per_device)
    singles = [_standalone(population, device, bank) for bank in banks]
    assert population.device_unique_locations(device, trefp_s, temp_c) == [
        single.unique_locations(trefp_s, temp_c) for single in singles]
    for pattern in PatternKind:
        batch_sp, bank_sp = _booted(), _booted()
        batch = MemoryControlUnit(0, batch_sp, geometry=population.geometry,
                                  trefp_s=trefp_s)
        per_bank = MemoryControlUnit(0, bank_sp, geometry=population.geometry,
                                     trefp_s=trefp_s)
        merged = batch.scrub_bank(population.device_map(device), temp_c,
                                  pattern, now_s=2.0)
        assert merged == _total([per_bank.scrub_bank(single, temp_c, pattern,
                                                     now_s=2.0)
                                 for single in singles]), pattern
        assert _events(batch_sp) == _events(bank_sp), pattern


@pytest.mark.slow
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31 - 1),
       temp_c=st.floats(30.0, 60.0),
       bad_zones=st.sets(st.integers(0, 7), min_size=1, max_size=2))
def test_device_counts_and_scrubs_equal_bank_sums(seed, temp_c, bad_zones):
    """Any seed, any temperature up to 60 degC, a quarantine-excluded list."""
    population = DramDevicePopulation(seed=seed)
    zones = ZoneBinding.paper_default(DEFAULT_GEOMETRY)
    excluded = [d for d in range(DEFAULT_GEOMETRY.num_devices)
                if zones.zone_of_device(d) in bad_zones]
    for device in excluded:
        _assert_device_matches_banks(population, device, temp_c,
                                     RELAXED_REFRESH_S)


def test_bank_maps_slice_the_device_sample():
    """bank_map views the device's arrays and never resamples."""
    population = DramDevicePopulation(seed=3)
    device = population.device_map(5)
    for bank in range(DEFAULT_GEOMETRY.banks_per_device):
        view = population.bank_map(5, bank)
        single = _standalone(population, 5, bank)
        assert view.bank == BankAddress(5, bank)
        for key, values in view._arrays().items():
            assert np.shares_memory(values, device._arrays()[key]) \
                or values.size == 0
            np.testing.assert_array_equal(values, single._arrays()[key])
    assert population.device_map(5) is device


def test_dense_words_take_the_decoder_branch():
    """Words with >= 3 failing bits decode the same, batched or per bank."""
    population = DramDevicePopulation(
        geometry=DENSE_GEOMETRY, profile_interval_s=DENSE_PROFILE_INTERVAL_S,
        seed=11)
    weak_map = population.device_map(1)
    banks, rows, cols, _ = weak_map.failing_arrays(DENSE_TREFP_S, 55.0)
    cells = set(zip(banks.tolist(), rows.tolist(), cols.tolist()))
    per_word = {}
    for bank, row, col in cells:
        word = (bank, row, col // WORD_DATA_BITS)
        per_word[word] = per_word.get(word, 0) + 1
    assert max(per_word.values()) >= 3
    mcu = MemoryControlUnit(0, geometry=DENSE_GEOMETRY, trefp_s=DENSE_TREFP_S)
    for pattern in PatternKind:
        scrub = mcu.scrub_bank(weak_map, 55.0, pattern)
        if pattern is PatternKind.ALL_ZEROS:
            assert scrub.uncorrectable_words > 0 and scrub.miscorrected_words > 0
    for device in range(DENSE_GEOMETRY.num_devices):
        _assert_device_matches_banks(population, device, 55.0, DENSE_TREFP_S)


def test_device_slimpro_events_follow_bank_order():
    """Events come out bank by bank, each bank in address order."""
    population = DramDevicePopulation(seed=21)
    _assert_device_matches_banks(population, 0, 60.0, RELAXED_REFRESH_S)
    slimpro = _booted()
    MemoryControlUnit(0, slimpro, trefp_s=RELAXED_REFRESH_S).scrub_bank(
        population.device_map(0), 60.0)
    addresses = [address for *_, address in _events(slimpro)]
    assert addresses and addresses != sorted(addresses)  # banks restart


def test_query_beyond_profile_still_raises():
    population = DramDevicePopulation(seed=4)
    with pytest.raises(ConfigurationError):
        population.device_unique_locations(0, 60.0, 70.0)
    mcu = MemoryControlUnit(0, trefp_s=60.0)
    with pytest.raises(ConfigurationError):
        mcu.scrub_bank(population.device_map(0), 70.0)
    with pytest.raises(ConfigurationError):
        population.bank_map(0, 0).failing_count(60.0, 70.0)


def test_device_map_has_no_single_bank():
    population = DramDevicePopulation(seed=4)
    with pytest.raises(ConfigurationError):
        population.device_map(0).bank


def test_scrub_rejects_geometry_beyond_its_key():
    wide = DramGeometry(bits_per_row=1 << 23)
    weak_map = WeakCellMap(BankAddress(0, 0), geometry=wide, seed=1)
    with pytest.raises(ConfigurationError):
        MemoryControlUnit(0, geometry=wide).scrub_bank(weak_map, 50.0)
