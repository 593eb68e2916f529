from __future__ import annotations

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from conftest import metric_from_counts
from hypothesis import given, settings
from hypothesis import strategies as st

from cspace import (
    CspaceError,
    GridSpec,
    MetricDescriptor,
    build_surface,
    fbeta,
    get_metric,
    list_metrics,
)
from cspace import metrics

CORE_IDS = ["accuracy", "precision", "recall", "f1", "tss", "hss", "youden_j"]
ALL_IDS = CORE_IDS + ["gilbert", "doolittle"]


def at(metric, tpr, tnr, r) -> float:
    """``metric.fn`` at one point of the base contingency space, evaluated on
    1 x 1 arrays as grid blocks are."""
    return float(np.broadcast_to(metric.fn(np.array([[tpr]]), np.array([[tnr]]), r), (1, 1))[0, 0])


def relative(tp, fn, tn, fp) -> tuple[float, float, float]:
    """The point (tpr, tnr, r) of a count matrix: positives scaled to 1, negatives to r = n/p."""
    return tp / (tp + fn), tn / (tn + fp), (tn + fp) / (tp + fn)


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
    value = at(get_metric(metric_id), *point)
    assert value == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("ratio", [0.5, 1.0, 49.0])
def test_precision_undefined_corner_uses_policy(ratio):
    assert at(get_metric("precision"), 0.0, 1.0, ratio) == 0.0


@pytest.mark.parametrize("point", [(0.0, 1.0, 3.0), (1.0, 0.0, 3.0)])
def test_doolittle_undefined_corners_use_policy(point):
    assert at(get_metric("doolittle"), *point) == 0.0


@pytest.mark.parametrize(
    "metric_id, corners", [("precision", [(0, 2)]), ("doolittle", [(0, 2), (2, 0)])]
)
@pytest.mark.parametrize("ratio", [0.5, 1.0, 3.0, 49.0, 1e120])
def test_policy_lands_on_zero_denominator_cells(metric_id, corners, ratio, monkeypatch):
    # The plain quotient, with no mapping of zero denominators, is NaN exactly
    # at the 0/0 corners; the metric gives 0.0 there and the quotient elsewhere.
    metric = get_metric(metric_id)
    axis = np.array([0.0, 0.25, 1.0])
    values = np.array(metric.fn(axis[:, None], axis[None, :], ratio))
    with monkeypatch.context() as patched, np.errstate(divide="ignore", invalid="ignore"):
        patched.setattr(metrics, "_where_defined", np.divide)
        plain = np.array(metric.fn(axis[:, None], axis[None, :], ratio))
    undefined = np.isnan(plain)
    assert [(int(i), int(j)) for i, j in zip(*np.nonzero(undefined))] == corners
    assert np.all(values[undefined] == 0.0)
    assert np.array_equal(values[~undefined], plain[~undefined])


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


@pytest.mark.parametrize(
    "bounds",
    [
        (1.0, 1.0),
        (1.0, 0.0),
        (0.0, math.inf),
        (math.nan, 1.0),
        (-math.inf, 0.0),
        (0.0,),
        ("a", "b"),
        None,
        (False, True),
        (np.False_, 1.0),
    ],
)
def test_metric_descriptor_rejects_improper_ranges(bounds):
    with pytest.raises(ValueError, match="lo < hi"):
        MetricDescriptor("bad", bounds, get_metric("f1").fn)


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
    with pytest.raises(CspaceError, match="nosuch"):
        get_metric("nosuch")


def test_fbeta_validation():
    with pytest.raises(ValueError):
        fbeta(0.0)
    with pytest.raises(ValueError):
        fbeta(float("inf"))
    for beta in ("2", True, None):
        with pytest.raises(CspaceError, match="beta must be a number"):
            fbeta(beta)


def test_fbeta_refuses_a_beta_whose_square_overflows():
    with pytest.raises(ValueError, match=r"beta must be at most 1\.341e\+154"):
        fbeta(1e160)


@pytest.mark.parametrize("beta", [1e150, math.sqrt(sys.float_info.max)])
@pytest.mark.parametrize("ratio", [1e-300, 2.0, 1e300, 1.7e308])
def test_fbeta_with_a_huge_beta_matches_exact_arithmetic(beta, ratio):
    t = 8
    with np.errstate(over="raise", invalid="raise"):
        values = build_surface(fbeta(beta), ratio, GridSpec(t)).values
    assert np.all((values >= 0.0) & (values <= 1.0))
    c = (np.arange(t) + 0.5) / t
    b2, r = Fraction(beta) ** 2, Fraction(ratio)
    for i in range(t):
        for j in range(t):
            tpr, tnr = Fraction(c[i]), Fraction(c[j])
            exact = (1 + b2) * tpr / ((1 + b2) * tpr + r * (1 - tnr) + b2 * (1 - tpr))
            assert values[i, j] == pytest.approx(float(exact), rel=1e-14, abs=1e-300)


def test_fbeta_one_matches_f1_bitwise():
    fb = fbeta(1.0)
    f1 = get_metric("f1")
    axis = np.linspace(0.0, 1.0, 11)
    for r in (0.25, 1.0, 5.0, 1e120):
        assert np.array_equal(fb.fn(axis[:, None], axis[None, :], r), f1.fn(axis[:, None], axis[None, :], r))


def test_fbeta_two_against_counts():
    # tp=1, fn=1, tn=1, fp=1: F2 = 5*tp / (5*tp + fp + 4*fn) = 0.5
    value = at(fbeta(2.0), 0.5, 0.5, 1.0)
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
    # Counts scaled by k are relatively identical to the originals: the same
    # relative form, so every metric gives the same value.
    x = relative(*counts)
    xk = relative(*(k * c for c in counts))
    for m in list_metrics():
        assert at(m, *x) == at(m, *xk)


@given(counts=counts_strategy)
def test_count_oracle_equivalence(counts):
    x = relative(*counts)
    for m in list_metrics():
        expected = metric_from_counts(m.id, *counts)
        assert at(m, *x) == pytest.approx(expected, abs=1e-12)


@given(point=points_strategy)
def test_recall_independent_of_tnr_and_ratio(point):
    tpr, tnr, r = point
    recall = get_metric("recall")
    base = at(recall, tpr, 0.123, 1.0)
    assert at(recall, tpr, tnr, r) == base == tpr


@given(point=points_strategy)
def test_raw_values_stay_in_theoretical_range(point):
    for m in list_metrics():
        lo, hi = m.theoretical_range
        v = at(m, *point)
        assert lo - 1e-12 <= v <= hi + 1e-12


@given(point=points_strategy)
def test_tss_equals_youden_bitwise(point):
    assert at(get_metric("tss"), *point) == at(get_metric("youden_j"), *point)


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
    cancels = abs(tpr + tnr - 1.0) < 1e-3
    for metric_id in ("hss", "doolittle"):
        expected = metric_from_counts(metric_id, tpr, 1.0 - tpr, r * tnr, r * (1.0 - tnr))
        close = pytest.approx(expected, rel=1e-9, abs=1e-12 if cancels else 0.0)
        assert at(get_metric(metric_id), tpr, tnr, r) == close
