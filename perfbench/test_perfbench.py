"""Self-tests of the benchmark: its output checks, span maths and metrics.

Run from the repository root with ``python -m pytest -q perfbench``.
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

import run

run.import_repro()

import layers  # noqa: E402
import ops  # noqa: E402
from spans import Tracer, self_times  # noqa: E402


class Tampered:
    """A result whose ``rows()`` lie; every other attribute is the real one."""

    def __init__(self, result, rows):
        self._result, self._rows = result, rows

    def rows(self):
        return self._rows

    def __getattr__(self, name):
        return getattr(self._result, name)


def _bump_last(rows):
    """The rows with the last cell of the last row changed."""
    *head, last = [tuple(row) for row in rows]
    return head + [last[:-1] + ("tampered",)]


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def test_self_time_of_a_nested_span_tree():
    spans = [
        ["op", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["a.child", 2.0, 3.0, 1, 0],
        ["b", 5.0, 7.0, 0, 0],
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_self_time_counts_overlapping_children_once():
    spans = [
        ["parent", 0.0, 10.0, -1, 0],
        ["x", 1.0, 4.0, 0, 0],
        ["y", 3.0, 6.0, 0, 0],
        ["z", 9.0, 12.0, 0, 0],  # clipped at the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_tracer_records_parent_and_op():
    tracer = Tracer()
    tracer.op = 3
    outer = tracer.open("outer")
    assert tracer.current() == "outer"
    tracer.close(tracer.open("inner"))
    tracer.close(outer)
    (name0, _, _, parent0, op0), (name1, _, _, parent1, op1) = tracer.spans
    assert (name0, parent0, op0) == ("outer", -1, 3)
    assert (name1, parent1, op1) == ("inner", 0, 3)
    assert tracer.current() is None


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def test_install_wraps_importers_and_uninstall_restores():
    import repro.pdn.em as em
    import repro.rand as rand
    from repro.cpu.execution import ExecutionModel

    original_method = ExecutionModel.__dict__["waveform_block"]
    original_function = rand.substream
    tracer = Tracer()
    patches = layers.install(tracer)
    try:
        assert em.substream is rand.substream is not original_function
        em.substream(1, "label")
    finally:
        layers.uninstall(patches)
    assert ExecutionModel.__dict__["waveform_block"] is original_method
    assert em.substream is rand.substream is original_function
    assert [span[0] for span in tracer.spans] == ["rand.substream"]
    assert tracer.counts["rand.substream_calls"] == 1


def test_traced_op_counts_layers_and_keeps_rows():
    workload = ops.make_workload("retention", "unused")
    plain = workload.op(5)
    tracer = Tracer()
    patches = layers.install(tracer)
    try:
        traced = workload.op(5)
    finally:
        layers.uninstall(patches)
    assert all(plain[key].rows() == traced[key].rows() for key in plain)
    metrics = layers.layer_metrics(tracer, traced_ops=1)
    assert metrics["dram.scrub_banks"] > 0
    assert metrics["thermal.sim_s"] > 0 and metrics["thermal.run_s"] > 0
    assert metrics["cpu.waveform_loops"] == 0  # no GA work on retention
    assert metrics["experiments.table1_s"] > 0


# ----------------------------------------------------------------------
# Output checks reject tampered results
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def report():
    return ops.ReportWorkload().op(3)


def test_report_check_accepts_and_final_check_reproduces(report):
    workload = ops.ReportWorkload()
    assert workload.check(3, report) == []
    assert workload.final_check(3, report) == []


def test_report_final_check_rejects_a_tampered_body(report):
    section = report.sections[0]
    tampered = dataclasses.replace(
        report, sections=[dataclasses.replace(section, body=section.body + "!")]
        + report.sections[1:])
    assert ops.ReportWorkload().final_check(3, tampered)


def test_report_check_rejects_a_missing_section(report):
    short = dataclasses.replace(report, sections=report.sections[:-1])
    assert ops.ReportWorkload().check(3, short)


def test_strip_timings_ignores_only_wall_clock_figures():
    text = ("[PASS] Figure 4 (1.3s)\nbody 860 (mV)\n"
            "ALL SHAPE CHECKS PASS (9 experiments, 3s)")
    other = text.replace("1.3s", "12.0s").replace(", 3s", ", 21s")
    assert ops.strip_timings(text) == ops.strip_timings(other)
    assert "(mV)" in ops.strip_timings(text)


def test_retention_check_rejects_tampered_faulted_rows():
    workload = ops.RetentionWorkload()
    output = workload.op(2)
    assert not output["table1_faulted"].thermal_quarantine
    assert workload.check(2, output) == []
    faulted = output["table1_faulted"]
    output["table1_faulted"] = Tampered(faulted, _bump_last(faulted.rows()))
    assert workload.check(2, output)


def test_retention_check_rejects_an_untyped_quarantine():
    workload = ops.RetentionWorkload()
    output = workload.op(2)
    output["table1_faulted"] = dataclasses.replace(
        output["table1_faulted"], thermal_quarantine=("zone 0 tripped",),
        excluded_devices=(0,))
    assert any("untyped" in p for p in workload.check(2, output))


def test_sharded_final_check_rejects_tampered_jobs2_rows(tmp_path, monkeypatch):
    monkeypatch.setattr(ops, "REPETITIONS", 2)
    monkeypatch.setattr(ops, "GENERATIONS", 2)
    monkeypatch.setattr(ops, "POPULATION", 6)
    monkeypatch.setattr(ops, "SAMPLE_DEVICES", 8)
    workload = ops.ShardedWorkload(str(tmp_path))
    workload.prepare()
    output = workload.op(4)
    assert workload.check(4, output) == []
    assert workload.final_check(4, output) == []
    output["fig4"] = Tampered(output["fig4"], _bump_last(output["fig4"].rows()))
    assert workload.final_check(4, output) == \
        ["fig4: jobs-2 rows differ from jobs-1 rows"]
    workload.release(output)


# ----------------------------------------------------------------------
# Statistics and BENCHMARK.json
# ----------------------------------------------------------------------
def test_tail_leaves_ten_samples_beyond_it():
    samples = [float(i) for i in range(1, 26)]
    value, percentile = run.tail(samples)
    assert sum(s > value for s in samples) == 10
    assert percentile == pytest.approx(60.0)
    assert run.tail([3.0, 1.0, 2.0]) == (1.0, pytest.approx(100.0 / 3))


def test_benchmark_json_names_what_the_runner_reports():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == layers.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} <= set(ops.WORKLOADS)
