"""Tests of the benchmark harness: span arithmetic, metric names, output checks."""

import dataclasses
import json
import math
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import latescore.nuisance  # noqa: E402
import latescore.simulation  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_self_time_subtracts_the_union_of_child_spans():
    spans_ = [
        [0, None, "root", 0.0, 10.0],
        [1, 0, "a", 1.0, 4.0],
        [2, 0, "b", 3.0, 6.0],  # overlaps a: the union [1, 6] is covered once
        [3, 1, "leaf", 2.0, 3.0],
        [4, None, "a", 20.0, 21.0],  # a second, childless call of a
    ]
    assert spans.self_times(spans_) == pytest.approx({"root": 5.0, "a": 2.0 + 1.0, "b": 3.0, "leaf": 1.0})


def test_tracer_nests_spans_and_counts_calls():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1)

    def outer_fn(x):
        return inner(inner(x))

    outer = tracer.wrap("outer", outer_fn, hook=lambda c, args, kw, result: c.update(total=result))
    assert outer(1) == 3
    # outer [0, 5], inner [1, 2] and [3, 4]
    assert [s[1] for s in tracer.spans] == [None, 0, 0]
    assert spans.self_times(tracer.spans) == {"outer": 3.0, "inner": 2.0}
    assert tracer.calls() == {"outer": 1, "inner": 2}
    assert tracer.counters["total"] == 3


def test_patching_reaches_rebound_names_inside_run_study_and_restores_them():
    original = latescore.nuisance.cross_fit
    spec = latescore.simulation.StudySpec(setting="strong", n_grid=(200, 300), reps=2)
    tracer = spans.Tracer()
    with spans.patched(tracer, workloads.TRACE_TARGETS):
        assert latescore.simulation.cross_fit is not original
        cells = latescore.simulation.run_study(spec)
    assert latescore.simulation.cross_fit is original
    assert latescore.nuisance.cross_fit is original
    reps = sum(len(cell.results) for cell in cells)
    calls = tracer.calls()
    assert reps == 4
    assert calls["simulation.run_study"] == 1
    assert calls["simulation.run_replication"] == calls["nuisance.cross_fit"] == reps
    assert calls["nuisance.fit_cell_mean"] == 2 * spec.learner.K * reps
    assert sum(v for k, v in tracer.counters.items() if k.startswith("inference.set_shape.")) == reps


@pytest.mark.parametrize(
    "name, top",
    [("analyze_large", "cli.analyze"), ("simulate_grid", "cli.simulate"), ("scan_grid", "cli.scan"),
     ("weakiv_limit", "cli.weakiv-limit"), ("weakiv_calibrate", "weakiv.estimate_weakiv_config")],
)
def test_every_traced_operation_sits_under_its_entry_point(name, top, tmp_path):
    workload = workloads.WORKLOADS[name](str(tmp_path), 3, **workloads.SMALL[name])
    workload.prepare()
    op = run.attempt(workload, spans.Tracer(), workloads.TRACE_TARGETS)
    assert op.outcome.problems == []
    assert {span[2] for span in op.tracer.spans if span[1] is None} == {top}


def test_metric_names_and_units_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    per_layer = run.per_layer_units(workloads.TRACE_TARGETS, workloads.SET_TAGS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == dict(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == per_layer
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
    for name, unit in [*run.END_TO_END, *per_layer.items()]:
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit


def small(name, tmp_path, seed=3):
    workload = workloads.WORKLOADS[name](str(tmp_path), seed, **workloads.SMALL[name])
    workload.prepare()
    result = workload.run()
    outcome = workload.check(result)
    assert outcome.problems == []
    return workload, result, outcome


def rewrite(path, edit):
    with open(path) as handle:
        lines = handle.read().splitlines(keepends=True)
    with open(path, "w") as handle:
        handle.writelines(edit(lines))


def test_analyze_check_rejects_a_shifted_endpoint(tmp_path):
    workload, result, outcome = small("analyze_large", tmp_path)
    assert outcome.counters["set_shape.finite_interval"] == 1

    def shift(lines):
        header, row = lines[0].rstrip("\n").split(","), lines[1].rstrip("\n").split(",")
        i = header.index("set_e1")
        row[i] = repr(float(row[i]) - 1e-3 * abs(float(row[i])))
        return [lines[0], ",".join(row) + "\n"]

    rewrite(workload.out_path, shift)
    assert any("S_n(set_e1)" in p for p in workload.check(result).problems)


def test_simulate_check_rejects_a_dropped_replication_row(tmp_path):
    workload, result, outcome = small("simulate_grid", tmp_path)
    assert outcome.inner_attempted == workload.items and outcome.inner_failed == 0
    rewrite(workload.path("strong/replications.csv"), lambda lines: lines[:-1])
    assert any("rows, expected" in p for p in workload.check(result).problems)


def test_scan_check_rejects_a_dropped_grid_row_and_reported_mismatches(tmp_path):
    workload, result, _ = small("scan_grid", tmp_path)
    bad_stdout = dataclasses.replace(
        result, stdout=result.stdout.replace("boundary band: 0", "boundary band: 2")
    )
    assert workload.check(bad_stdout).problems
    rewrite(workload.out_path, lambda lines: lines[:-1])
    assert any("rows, expected" in p for p in workload.check(result).problems)


def test_weakiv_limit_check_rejects_a_non_finite_draw(tmp_path):
    workload, result, _ = small("weakiv_limit", tmp_path)
    rewrite(workload.out_path, lambda lines: lines[:-1] + ["nan\n"])
    assert workload.check(result).problems


def test_calibration_check_rejects_a_wrong_or_non_finite_result(tmp_path):
    workload, cal, _ = small("weakiv_calibrate", tmp_path)
    assert workload.check(dataclasses.replace(cal, c_a=cal.c_a + 10 * cal.ca_se + 1e-9)).problems
    nan_sigma = cal.sigma_ab.copy()
    nan_sigma[0, 1] = math.nan
    assert workload.check(dataclasses.replace(cal, sigma_ab=nan_sigma)).problems


def test_exact_counters_repeat_and_drift_is_a_failure(tmp_path):
    workload, _, first = small("scan_grid", tmp_path)
    second = workload.check(workload.run())
    assert (second.counters, second.digest) == (first.counters, first.digest)
    ops = [run.Op(1.0, first), run.Op(1.0, second)]
    run.find_drift(ops)
    assert ops[1].outcome.problems == []
    third = dataclasses.replace(second, counters=dict(second.counters, bytes_out=0), problems=[])
    ops.append(run.Op(1.0, third))
    run.find_drift(ops)
    assert ops[2].outcome.problems and "bytes_out" in ops[2].outcome.problems[0]
