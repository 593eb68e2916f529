from __future__ import annotations

import math

import numpy as np
import pytest
from conftest import metric_from_counts
from hypothesis import given, settings
from hypothesis import strategies as st

from cspace import (
    CountConfusion,
    DegenerateClassError,
    GridSpec,
    InvalidRatioError,
    RelativePerformance,
    UnknownMetricError,
    build_surface,
    evaluate,
    fbeta,
    get_metric,
    list_metrics,
    relatively_identical,
    to_relative,
)

CORE_IDS = ["accuracy", "precision", "recall", "f1", "tss", "hss", "youden_j"]
ALL_IDS = CORE_IDS + ["gilbert", "doolittle"]


# ---------------------------------------------------------------------------
# Relative form
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "counts, expected",
    [
        ((0, 1, 49, 0), (0.0, 1.0, 49.0)),
        ((5, 0, 5, 0), (1.0, 1.0, 1.0)),
        ((3, 3, 7, 7), (0.5, 0.5, 7 / 3)),
    ],
)
def test_to_relative_examples(counts, expected):
    tp, fn, tn, fp = counts
    rp = to_relative(CountConfusion(tp=tp, fn=fn, tn=tn, fp=fp))
    assert (rp.tpr, rp.tnr, rp.ratio) == expected


@pytest.mark.parametrize("counts", [(0, 0, 3, 4), (1, 2, 0, 0), (0, 0, 0, 0)])
def test_to_relative_rejects_degenerate_classes(counts):
    tp, fn, tn, fp = counts
    with pytest.raises(DegenerateClassError):
        to_relative(CountConfusion(tp=tp, fn=fn, tn=tn, fp=fp))


def test_count_confusion_rejects_negative_counts():
    with pytest.raises(ValueError):
        CountConfusion(tp=-1, fn=0, tn=1, fp=1)


def test_relative_form_expansion():
    rp = RelativePerformance(tpr=0.25, tnr=0.75, ratio=4.0)
    assert rp.relative_form == (0.25, 0.75, 3.0, 1.0)


def test_relative_performance_validation():
    with pytest.raises(ValueError):
        RelativePerformance(tpr=1.5, tnr=0.5, ratio=1.0)
    with pytest.raises(InvalidRatioError):
        RelativePerformance(tpr=0.5, tnr=0.5, ratio=0.0)
    with pytest.raises(InvalidRatioError):
        RelativePerformance(tpr=0.5, tnr=0.5, ratio=float("nan"))


def test_relatively_identical_under_scaling():
    a = CountConfusion(tp=3, fn=3, tn=7, fp=7)
    b = CountConfusion(tp=9, fn=9, tn=21, fp=21)
    c = CountConfusion(tp=3, fn=3, tn=7, fp=8)
    assert relatively_identical(a, b)
    assert not relatively_identical(a, c)


# ---------------------------------------------------------------------------
# Evaluation examples
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "metric_id, point, expected",
    [
        ("accuracy", (0.0, 1.0, 49.0), 0.98),
        ("f1", (1.0, 1.0, 7.0), 1.0),
        ("f1", (1.0, 1.0, 49.0), 1.0),
        ("tss", (0.5, 0.5, 3.0), 0.0),
        ("precision", (0.5, 0.5, 1.0), 0.5),
        ("hss", (1.0, 1.0, 1.0), 1.0),
        ("recall", (0.25, 0.9, 12.0), 0.25),
    ],
)
def test_evaluate_examples(metric_id, point, expected):
    value = evaluate(get_metric(metric_id), RelativePerformance(*point))
    assert value == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("ratio", [0.5, 1.0, 49.0])
def test_precision_undefined_corner_uses_policy(ratio):
    metric = get_metric("precision")
    assert evaluate(metric, RelativePerformance(tpr=0.0, tnr=1.0, ratio=ratio)) == 0.0


@pytest.mark.parametrize("point", [(0.0, 1.0, 3.0), (1.0, 0.0, 3.0)])
def test_doolittle_undefined_corners_use_policy(point):
    metric = get_metric("doolittle")
    assert evaluate(metric, RelativePerformance(*point)) == 0.0


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------


def test_catalog_order_and_ids():
    assert [m.id for m in list_metrics()] == ALL_IDS
    assert list_metrics()[0].id == "accuracy"


def test_catalog_ranges_are_proper_intervals():
    for m in list_metrics():
        lo, hi = m.theoretical_range
        assert lo < hi


def test_extension_flags():
    flagged = {m.id for m in list_metrics() if m.extension}
    assert flagged == {"gilbert", "doolittle"}


@pytest.mark.parametrize("metric", list_metrics(), ids=lambda m: m.id)
def test_ratio_free_declaration_matches_evaluation(metric):
    # A ratio-free metric is never evaluated per ratio, so the declaration
    # must hold: its surfaces agree bit for bit, every other metric's differ.
    a = build_surface(metric, 0.3, GridSpec(16)).values
    b = build_surface(metric, 7.0, GridSpec(16)).values
    assert np.array_equal(a, b) == metric.ratio_free
    assert {m.id for m in list_metrics() if m.ratio_free} == {"recall", "tss", "youden_j"}


def test_get_metric_unknown():
    with pytest.raises(UnknownMetricError, match="nosuch"):
        get_metric("nosuch")


def test_fbeta_validation():
    with pytest.raises(ValueError):
        fbeta(0.0)
    with pytest.raises(ValueError):
        fbeta(float("inf"))


def test_fbeta_one_matches_f1_bitwise():
    fb = fbeta(1.0)
    f1 = get_metric("f1")
    for tpr, tnr, r in [(0.3, 0.8, 5.0), (0.9, 0.1, 0.25), (0.5, 0.5, 1.0)]:
        x = RelativePerformance(tpr, tnr, r)
        assert evaluate(fb, x) == evaluate(f1, x)


def test_fbeta_two_against_counts():
    # tp=1, fn=1, tn=1, fp=1: F2 = 5*tp / (5*tp + fp + 4*fn) = 0.5
    value = evaluate(fbeta(2.0), RelativePerformance(0.5, 0.5, 1.0))
    assert value == pytest.approx(0.5, abs=1e-15)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

counts_strategy = st.tuples(
    st.integers(0, 2000), st.integers(0, 2000), st.integers(0, 2000), st.integers(0, 2000)
).filter(lambda c: c[0] + c[1] >= 1 and c[2] + c[3] >= 1)

points_strategy = st.tuples(
    st.floats(0.0, 1.0, allow_nan=False),
    st.floats(0.0, 1.0, allow_nan=False),
    st.floats(1e-3, 1e6, allow_nan=False),
)


@given(counts=counts_strategy, k=st.integers(1, 50))
def test_relative_identity_under_count_scaling(counts, k):
    tp, fn, tn, fp = counts
    x = to_relative(CountConfusion(tp=tp, fn=fn, tn=tn, fp=fp))
    xk = to_relative(CountConfusion(tp=k * tp, fn=k * fn, tn=k * tn, fp=k * fp))
    for m in list_metrics():
        assert evaluate(m, x) == evaluate(m, xk)


@given(counts=counts_strategy)
def test_count_oracle_equivalence(counts):
    tp, fn, tn, fp = counts
    x = to_relative(CountConfusion(tp=tp, fn=fn, tn=tn, fp=fp))
    for m in list_metrics():
        expected = metric_from_counts(m.id, tp, fn, tn, fp)
        assert evaluate(m, x) == pytest.approx(expected, abs=1e-12)


@given(point=points_strategy)
def test_recall_independent_of_tnr_and_ratio(point):
    tpr, tnr, r = point
    recall = get_metric("recall")
    base = evaluate(recall, RelativePerformance(tpr, 0.123, 1.0))
    assert evaluate(recall, RelativePerformance(tpr, tnr, r)) == base == tpr


@given(point=points_strategy)
def test_raw_values_stay_in_theoretical_range(point):
    x = RelativePerformance(*point)
    for m in list_metrics():
        lo, hi = m.theoretical_range
        v = evaluate(m, x)
        assert lo - 1e-12 <= v <= hi + 1e-12


@given(point=points_strategy)
def test_tss_equals_youden_bitwise(point):
    x = RelativePerformance(*point)
    assert evaluate(get_metric("tss"), x) == evaluate(get_metric("youden_j"), x)


@settings(max_examples=30)
@given(point=points_strategy)
def test_scalar_evaluation_matches_vectorised_path(point):
    # evaluate() and grid evaluation must agree bit-for-bit at shared points
    tpr, tnr, r = point
    for m in list_metrics():
        grid_value = float(
            m.fn(np.float64(tpr), np.float64(tnr), float(r), m.undefined_policy)
        )
        assert evaluate(m, RelativePerformance(tpr, tnr, r)) == grid_value


@settings(max_examples=200, deadline=None)
@given(log_r=st.floats(-308.0, math.log10(1.7e308), allow_nan=False))
def test_surfaces_stay_finite_for_every_float_ratio(log_r):
    r = 10.0**log_r
    with np.errstate(over="raise", invalid="raise"):
        for m in list_metrics():
            values = build_surface(m, r, GridSpec(16)).values
            assert np.all(np.isfinite(values))
            assert np.all((values >= 0.0) & (values <= 1.0))


@given(
    point=st.tuples(
        st.floats(0.0, 1.0, allow_nan=False),
        st.floats(0.0, 1.0, allow_nan=False),
        st.floats(1e100, 1e102, allow_nan=False),
    )
)
def test_large_ratio_forms_match_count_oracle(point):
    # Just above the switch to the forms divided through by r, the count
    # formulas do not overflow yet, so they still check them.  Both values
    # are small there; the counts' tp*tn - fn*fp cancels when tpr + tnr is
    # near 1, so elsewhere they must agree relatively.
    tpr, tnr, r = point
    x = RelativePerformance(tpr, tnr, r)
    cancels = abs(tpr + tnr - 1.0) < 1e-3
    for metric_id in ("hss", "doolittle"):
        expected = metric_from_counts(metric_id, tpr, 1.0 - tpr, r * tnr, r * (1.0 - tnr))
        close = pytest.approx(expected, rel=1e-9, abs=1e-12 if cancels else 0.0)
        assert evaluate(get_metric(metric_id), x) == close
