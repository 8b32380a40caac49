"""The reproduction-report builder."""

from types import SimpleNamespace

import pytest

import repro.experiments as experiments
from repro.analysis.reporting import ReproductionReport, SectionResult, build_report

#: Heavy module: deselected from the smoke tier (``pytest -m "not slow"``).
pytestmark = pytest.mark.slow



@pytest.fixture(scope="module")
def report():
    return build_report(seed=1, fast=True)


def test_report_covers_all_experiments(report):
    names = [section.name for section in report.sections]
    assert names == ["Figure 4", "Figure 5", "Figure 6", "Figure 7",
                     "Table I", "Figure 8a", "Figure 8b", "Figure 9",
                     "Stencil scheduling"]


def test_all_shape_checks_pass(report):
    failing = [s.name for s in report.sections if not s.passed]
    assert not failing, f"deviating sections: {failing}"
    assert report.all_passed


def test_sections_carry_bodies_and_verdicts(report):
    for section in report.sections:
        assert section.body.strip()
        assert section.verdict.strip()
        assert section.elapsed_s >= 0.0


def test_render_is_complete(report):
    text = report.render()
    assert "REPRODUCTION REPORT" in text
    assert "ALL SHAPE CHECKS PASS" in text
    for section in report.sections:
        assert section.name in text


def test_render_marks_deviations():
    report = ReproductionReport(sections=[
        SectionResult("X", "body", "nope", passed=False, elapsed_s=0.1),
    ])
    text = report.render()
    assert "[DEVIATION] X" in text
    assert "SOME SHAPE CHECKS DEVIATE" in text
    assert not report.all_passed


def test_verdicts_are_computed_from_failing_results(monkeypatch):
    """Stubbed experiments return failing results; each verdict must say so
    instead of repeating the paper's claim."""
    failing = {
        "run_figure7": SimpleNamespace(
            ordering_matches_paper=False, tss_margin_negligible=False,
            margin_mv={"TTT": 20.0, "TFF": 30.0, "TSS": 25.0}.__getitem__),
        "run_table1": SimpleNamespace(
            all_errors_corrected=False, temperature_amplification=lambda: 17.0),
        "run_figure9": SimpleNamespace(
            qos_met=False, power=SimpleNamespace(total_savings_pct=20.2)),
        "run_stencil_study": SimpleNamespace(
            blocked_coverage=0.5, natural_coverage=0.4),
    }
    for name, result in failing.items():
        result.format = lambda: "stub rows"
        monkeypatch.setattr(experiments, name,
                            lambda *args, _result=result, **kwargs: _result)
    sections = {s.name: s for s in build_report(seed=1, fast=True).sections}
    expected = {
        "Figure 7": ("NOT TTT > TFF > TSS", "TSS NOT ~ 0", "20/30/25 mV"),
        "Table I": ("RESIDUAL ECC ERRORS",),
        "Figure 9": ("QoS VIOLATED",),
        "Stencil scheduling": ("does NOT self-refresh",),
    }
    for name, phrases in expected.items():
        section = sections[name]
        assert not section.passed
        for phrase in phrases:
            assert phrase in section.verdict, (name, section.verdict)
    assert "all ECC-corrected" not in sections["Table I"].verdict
    assert "QoS met" not in sections["Figure 9"].verdict


def test_verdicts_of_passing_results_state_the_claim(report):
    verdicts = {s.name: s.verdict for s in report.sections}
    assert "TTT > TFF > TSS, TSS ~ 0" in verdicts["Figure 7"]
    assert verdicts["Table I"].startswith("all ECC-corrected")
    assert verdicts["Figure 9"].endswith("QoS met")
    assert "self-refreshes" in verdicts["Stencil scheduling"]
