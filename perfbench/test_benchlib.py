"""Tests of the benchmark's own helpers: python3 -m pytest perfbench"""

import math

import pytest

import benchlib
import tracer


def test_nearest_rank_counts_samples_beyond():
    values = list(range(1, 101))            # 1..100
    assert benchlib.nearest_rank(values, 0.5) == (50.0, 50)
    assert benchlib.nearest_rank(values, 0.9) == (90.0, 10)
    assert benchlib.nearest_rank([3.0], 0.9) == (3.0, 0)


def test_tail_percentile_counts_only_with_ten_beyond():
    assert benchlib.tail_percentile(list(range(100)), 0.9) == (89.0, True)
    assert benchlib.tail_percentile(list(range(99)), 0.9) == (89.0, False)
    value, counted = benchlib.tail_percentile([5.0, 1.0, 3.0], 0.9)
    assert (value, counted) == (5.0, False)


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        benchlib.nearest_rank([], 0.5)
    with pytest.raises(ValueError):
        benchlib.nearest_rank([1.0], 0.0)


def test_self_time_subtracts_direct_children_only():
    spans = [
        (0.0, 10.0, None),   # root
        (1.0, 4.0, 0),       # child of root
        (2.0, 3.0, 1),       # grandchild
        (5.0, 9.0, 0),       # second child of root
    ]
    assert benchlib.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(benchlib.self_times(spans)) == 10.0


def test_fingerprint_comparison():
    ref = {"phi_norm": 2.0, "r": 50.0, "r_err": 1e-15}
    assert benchlib.fingerprint_mismatches(dict(ref), ref) == []
    near = {"phi_norm": 2.0 * (1 + 5e-7), "r": 50.0, "r_err": 3e-15}
    assert benchlib.fingerprint_mismatches(near, ref) == []
    far = {"phi_norm": 2.0 * (1 + 2e-6), "r": math.nan}
    assert benchlib.fingerprint_mismatches(far, ref) == ["phi_norm", "r", "r_err"]


def _span(name, start, end, parent, step, sim=1):
    return [name, start, end, parent, sim, step]


def test_layer_metrics_attribute_spans_to_layers():
    ms = 1e-3
    spans = [
        _span("experiments.build_operators", 0.0, 2.0, None, 0),
        _span("assembly.assemble_forms", 0.5, 1.5, 0, 0),
        _span("experiments.step", 10.0, 10.0 + 100 * ms, None, 1),
        _span("assembly.fprime_load", 10.0, 10.0 + 5 * ms, 2, 1),
        _span("scheme.ch_split_solve", 10.01, 10.01 + 60 * ms, 2, 1),
        _span("scheme.solve_general", 10.01, 10.01 + 60 * ms, 4, 1),
        _span("linsolve._gmres_fallback", 10.03, 10.03 + 40 * ms, 5, 1),
        _span("experiments.ErrorAccumulator.update", 10.2, 10.2 + 7 * ms, None, 1),
    ]
    out = tracer.layer_metrics(spans)
    assert out["scheme.build_operators_s"] == pytest.approx(1.0)
    assert out["assembly.forms_s"] == pytest.approx(1.0)
    assert out["assembly.explicit_ms"] == pytest.approx(5.0)
    assert out["scheme.ch_solve_ms"] == pytest.approx(60.0)
    assert out["linsolve.wasted_ms"] == pytest.approx(20.0)
    assert out["scheme.step_self_ms"] == pytest.approx(35.0)
    assert out["experiments.error_norms_ms"] == pytest.approx(7.0)
    assert out["mms.forcing_ms"] == 0.0
    assert (out["linsolve.fallbacks"], out["linsolve.general_calls"]) == (1, 1)
    assert out["linsolve.fallback_ratio"] == 1.0
    assert out["_step_self_s"] == [pytest.approx(0.107)]
