"""The 8-zone testbed: the paper's <1 degC regulation property."""

import pytest

from repro.errors import ConfigurationError
from repro.thermal.testbed import ThermalTestbed, ZoneConfig


def test_single_zone_settles_within_one_degree():
    testbed = ThermalTestbed([ZoneConfig(setpoint_c=50.0)], seed=1)
    reports = testbed.run(1200.0)
    assert reports[0].within_one_degree
    assert reports[0].final_c == pytest.approx(50.0, abs=1.0)


def test_both_paper_setpoints_regulate():
    for setpoint in (50.0, 60.0):
        testbed = ThermalTestbed([ZoneConfig(setpoint_c=setpoint)], seed=1)
        report = testbed.run(1200.0)[0]
        assert report.within_one_degree, f"setpoint {setpoint}"


def test_eight_zones_independent_setpoints():
    configs = [ZoneConfig(setpoint_c=50.0 + zone) for zone in range(8)]
    testbed = ThermalTestbed(configs, seed=1)
    reports = testbed.run(1500.0)
    assert len(reports) == 8
    for zone, report in enumerate(reports):
        assert report.within_one_degree, f"zone {zone}"
        assert report.final_c == pytest.approx(50.0 + zone, abs=1.0)


def test_setpoint_step_retargets():
    testbed = ThermalTestbed([ZoneConfig(setpoint_c=50.0)], seed=1)
    testbed.run(1000.0)
    testbed.set_setpoint(0, 60.0)
    report = testbed.run(1000.0)[0]
    assert report.setpoint_c == 60.0
    assert report.final_c == pytest.approx(60.0, abs=1.0)


def test_settle_time_reported():
    testbed = ThermalTestbed([ZoneConfig(setpoint_c=50.0)], seed=1)
    report = testbed.run(1500.0)[0]
    assert report.settle_time_s is not None
    assert 0.0 < report.settle_time_s < 1000.0


def test_zone_count_bounds():
    with pytest.raises(ConfigurationError):
        ThermalTestbed([])
    with pytest.raises(ConfigurationError):
        ThermalTestbed([ZoneConfig(setpoint_c=50.0)] * 9)


def test_setpoint_range_enforced():
    with pytest.raises(ConfigurationError):
        ZoneConfig(setpoint_c=150.0)


def test_invalid_zone_index():
    testbed = ThermalTestbed([ZoneConfig(setpoint_c=50.0)], seed=1)
    with pytest.raises(ConfigurationError):
        testbed.set_setpoint(3, 60.0)


def test_regulation_deterministic():
    a = ThermalTestbed([ZoneConfig(setpoint_c=55.0)], seed=9).run(800.0)[0]
    b = ThermalTestbed([ZoneConfig(setpoint_c=55.0)], seed=9).run(800.0)[0]
    assert a.final_c == b.final_c
    assert a.samples == b.samples


def test_zone_thermocouples_draw_independent_noise():
    """Identical zones must not share one thermocouple noise stream."""
    testbed = ThermalTestbed([ZoneConfig(setpoint_c=50.0) for _ in range(8)],
                             seed=5)
    reads = [tuple(tc.read_c() for _ in range(20))
             for tc in testbed.thermocouples]
    assert len(set(reads)) == len(reads)
    testbed.run(300.0)
    finals = {report.final_c for report in testbed.run(1.0)}
    assert len(finals) > 1
