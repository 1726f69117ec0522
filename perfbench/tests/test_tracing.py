"""The tracer counts every call, restores every original, and its LU
count inside accepted corrections matches the trajectory's own count."""

import copy
import json
import os

import pytest

import tracing
import workloads
from conftest import ROOT


@pytest.fixture(scope="module")
def traced_fold():
    tracer = tracing.Tracer()
    built = workloads.build_fold_suite()
    tracer.instrument_model(built.model)
    tracer.install()
    try:
        results = workloads.run(built)
    finally:
        tracer.uninstall()
    return tracer.spans, results


def test_uninstall_restores_originals():
    before = [owner.__dict__[attr] for owner, attr, *_ in tracing.TARGETS]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = [owner.__dict__[attr] for owner, attr, *_ in tracing.TARGETS]
        assert all(a is not b for a, b in zip(before, patched))
    finally:
        tracer.uninstall()
    after = [owner.__dict__[attr] for owner, attr, *_ in tracing.TARGETS]
    assert all(a is b for a, b in zip(before, after))


def test_self_time_subtracts_children():
    spans = [["a", 0.0, 10.0, -1, None, True],
             ["b", 1.0, 4.0, 0, None, True],
             ["c", 2.0, 3.0, 1, None, True],
             ["b", 5.0, 6.0, 0, None, True]]
    assert dict(tracing.self_times(spans)) == {"a": 6.0, "b": 3.0, "c": 1.0}


def test_traced_fold_counts(traced_fold):
    spans, results = traced_fold
    m = tracing.layer_metrics(spans, results)
    trajs = [r.trajectory for r in results]
    assert m["tracker.track.calls"] == 3
    assert m["tracker.accepted_steps"] == sum(len(t) - 1 for t in trajs)
    assert m["tracker.rejected_attempts"] > 0
    assert m["linalg.lu_factor.calls"] >= m["tracker.newton_iters"] > 0
    assert m["linalg.lu_factor.fill_nnz"] >= m["linalg.lu_factor.nnz_in"] > 0
    # every correction and prediction assembles the bordered system
    assert m["tracker.assemble_system.calls"] > m["tracker.correct_newton.calls"]
    assert m["tracker.reinitialize.calls"] > 0
    assert m["models.f_g.calls"] > 0  # equilibrium residuals of the companion
    assert m["dae.assemble_pencil.calls"] == 0  # the suite runs the reduced form
    assert set(m) | {"trace.overhead_s"} == {n for n, _ in tracing.metric_names()}


def test_newton_lu_count_matches_records(traced_fold):
    spans, results = traced_fold
    assert tracing.newton_lu_problems(spans, results) == []


def test_newton_lu_check_catches_a_wrong_count(traced_fold):
    spans, results = traced_fold
    results = copy.deepcopy(results)
    pt = next(pt for pt in results[0].trajectory[1:] if pt.corrector_iters)
    pt.corrector_iters += 1
    problems = tracing.newton_lu_problems(spans, results)
    assert len(problems) == 1 and "traced LUs" in problems[0]


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    assert declared == tracing.metric_names()
