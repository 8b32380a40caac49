"""Run-log classification (the parsing phase) and the outcome taxonomy."""

import pytest

from repro.core.classify import OutcomeCounts, RunLog, classify_run_log, summarize
from repro.cpu.outcomes import RunOutcome
from repro.errors import CampaignError


def log(exited=True, responded=True, ce=0, ue=0, golden=True) -> RunLog:
    return RunLog(exited_cleanly=exited, responded_to_watchdog=responded,
                  corrected_errors=ce, uncorrected_errors=ue,
                  output_matches_golden=golden)


def test_clean_run_is_correct():
    assert classify_run_log(log()) is RunOutcome.CORRECT


def test_hang_outranks_everything():
    assert classify_run_log(log(exited=False, responded=False, ue=3,
                                golden=False)) is RunOutcome.HANG


def test_dirty_exit_is_crash():
    assert classify_run_log(log(exited=False)) is RunOutcome.CRASH


def test_ue_outranks_sdc():
    assert classify_run_log(log(ue=1, golden=False)) is \
        RunOutcome.UNCORRECTED_ERROR


def test_sdc_requires_escaped_corruption():
    assert classify_run_log(log(golden=False)) is RunOutcome.SDC


def test_ce_with_matching_output():
    assert classify_run_log(log(ce=2)) is RunOutcome.CORRECTED_ERROR


def test_no_output_check_counts_as_correct_when_clean():
    assert classify_run_log(log(golden=None)) is RunOutcome.CORRECT


def test_negative_counts_rejected():
    with pytest.raises(CampaignError):
        RunLog(True, True, -1, 0, True)


def test_summarize_histogram():
    counts = summarize([RunOutcome.CORRECT, RunOutcome.CORRECT,
                        RunOutcome.SDC, RunOutcome.CRASH])
    assert counts.total == 4
    assert counts.of(RunOutcome.CORRECT) == 2
    assert counts.of(RunOutcome.SDC) == 1
    assert counts.failure_rate == pytest.approx(0.5)


def test_all_safe_property():
    safe = summarize([RunOutcome.CORRECT, RunOutcome.CORRECTED_ERROR])
    assert safe.all_safe
    unsafe = summarize([RunOutcome.CORRECT, RunOutcome.SDC])
    assert not unsafe.all_safe


def test_empty_counts():
    counts = OutcomeCounts()
    assert counts.total == 0
    assert counts.failure_rate == 0.0
    assert counts.all_safe


def test_as_row_covers_all_outcomes():
    counts = summarize([RunOutcome.HANG])
    row = counts.as_row()
    assert set(row) == {o.value for o in RunOutcome}
    assert row["hang"] == 1
    assert row["correct"] == 0


def test_outcome_safety_partition():
    safe = {o for o in RunOutcome if o.is_safe}
    assert safe == {RunOutcome.CORRECT, RunOutcome.CORRECTED_ERROR}


def test_outcome_failure_flag():
    assert not RunOutcome.CORRECT.is_failure
    for o in RunOutcome:
        if o is not RunOutcome.CORRECT:
            assert o.is_failure


def test_outcome_reset_requirement():
    assert RunOutcome.CRASH.needs_reset
    assert RunOutcome.HANG.needs_reset
    assert not RunOutcome.SDC.needs_reset
