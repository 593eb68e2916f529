from __future__ import annotations

import gc
import importlib
import math
import os
import tracemalloc

import dataclasses

import numpy as np
import pytest
from conftest import continuum_sensitivity, curve_from_surfaces, run_fresh, whole_grid_curve, whole_grid_values
from hypothesis import given, settings
from hypothesis import strategies as st

from cspace import (
    CspaceError,
    GridSpec,
    MetricDescriptor,
    RatioSchedule,
    SensitivityCurve,
    build_surface,
    fbeta,
    get_metric,
    is_agnostic,
    list_metrics,
    log_growth_check,
    sensitivity,
    sensitivity_curve,
)

# The package re-exports the function sensitivity under the module's name.
sensitivity_module = importlib.import_module("cspace.sensitivity")

# Frozen output of the independent 1024^2 midpoint oracle (see
# test_frozen_goldens_match_fresh_oracle, which recomputes them from scratch).
GOLDEN_S_PRECISION_49 = 0.4550561562551131
GOLDEN_S_F1_49 = 0.4068494200275664


def oracle_sensitivity(metric_id: str, ratio: float, t: int) -> float:
    """Brute-force midpoint-rule sensitivity from raw relative counts.

    Re-derives every metric from <tpr, 1-tpr, r*tnr, r*(1-tnr)> with its
    definitional count formula, its own rescale and its own mean; it shares
    no code with the production evaluation or surface modules.  Cell-center
    samples keep every denominator strictly positive.
    """
    centers = (np.arange(t) + 0.5) / t
    tpr, tnr = np.meshgrid(centers, centers, indexing="ij")
    lo, hi = {m.id: m.theoretical_range for m in list_metrics()}[metric_id]

    def grid(r: float) -> np.ndarray:
        tp, fn, tn, fp = tpr, 1.0 - tpr, r * tnr, r * (1.0 - tnr)
        p, n = 1.0, r
        if metric_id == "accuracy":
            raw = (tp + tn) / (p + n)
        elif metric_id == "precision":
            raw = tp / (tp + fp)
        elif metric_id == "recall":
            raw = tp / p
        elif metric_id == "f1":
            pre = tp / (tp + fp)
            rec = tp / p
            raw = 2.0 * (pre * rec) / (pre + rec)
        elif metric_id == "tss":
            raw = tp / p - fp / n
        elif metric_id == "hss":
            raw = 2.0 * (tp * tn - fn * fp) / (p * (fn + tn) + n * (tp + fp))
        elif metric_id == "youden_j":
            raw = (tp * tn - fn * fp) / ((tp + fn) * (fp + tn))
        elif metric_id == "gilbert":
            raw = tp / (tp + fp + fn)
        elif metric_id == "doolittle":
            raw = (tp * tn - fn * fp) ** 2 / (p * n * (tp + fp) * (fn + tn))
        else:
            raise KeyError(metric_id)
        return np.clip((raw - lo) / (hi - lo), 0.0, 1.0)

    return float(np.mean(np.abs(grid(1.0) - grid(float(ratio)))))


# ---------------------------------------------------------------------------
# Ratio schedules
# ---------------------------------------------------------------------------


def test_schedule_requires_strictly_increasing_positive_ratios():
    with pytest.raises(CspaceError):
        RatioSchedule(())
    with pytest.raises(CspaceError):
        RatioSchedule((1.0, 1.0))
    with pytest.raises(CspaceError):
        RatioSchedule((2.0, 1.0))
    with pytest.raises(CspaceError):
        RatioSchedule((0.0, 1.0))
    with pytest.raises(CspaceError, match="must be a number, got True"):
        RatioSchedule((True, "5"))
    with pytest.raises(CspaceError, match="must be a number, got '5'"):
        RatioSchedule((1.0, "5"))


@pytest.mark.parametrize(
    "args, expected",
    [
        ((1, 1000, 10), (1.0, 10.0, 100.0, 1000.0)),
        ((1, 64, 2), (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)),
        ((5, 5, 2), (5.0,)),
        ((1, 100, 10), (1.0, 10.0, 100.0)),
    ],
)
def test_geometric_schedules(args, expected):
    assert RatioSchedule.geometric(*args).ratios == expected


def test_geometric_schedule_validation():
    with pytest.raises(CspaceError):
        RatioSchedule.geometric(5, 1, 2)
    with pytest.raises(CspaceError):
        RatioSchedule.geometric(1, 10, 1.0)
    with pytest.raises(CspaceError):
        RatioSchedule.geometric(0, 10, 2)
    with pytest.raises(CspaceError, match="geometric factor must be a number"):
        RatioSchedule.geometric(1, 10, "2")


def test_geometric_schedule_length_is_counted_before_generating():
    # 1:2:1.0000001 holds 6931473 ratios; the count alone refuses it.
    with pytest.raises(CspaceError, match="6931473 ratios"):
        RatioSchedule.geometric(1, 2, 1.0000001)
    # 2.0**1024 overflows just past 1e308, which ends the schedule there.
    schedule = RatioSchedule.geometric(1, 1e308, 2)
    assert len(schedule) == 1024 and schedule.ratios[-1] == 2.0**1023
    assert len(RatioSchedule.geometric(1, 1e4, 1.05)) == 189


def test_geometric_schedule_reaches_past_an_overflowing_power():
    # 10.0**309 overflows although 1e-10 * 10**309 = 1e299 does not.
    ratios = RatioSchedule.geometric(1e-10, 1e300, 10).ratios
    assert len(ratios) == 311
    # Terms whose power is finite keep the plain product, bit for bit.
    assert ratios[:309] == tuple(1e-10 * 10.0**k for k in range(309))
    assert ratios[309:] == pytest.approx((1e299, 1e300), rel=1e-15)
    # A stop at the top of the float range ends at the last finite ratio.
    assert RatioSchedule.geometric(1e300, 1.7976931348623157e308, 1e5).ratios == (1e300, 1e300 * 1e5)


def test_geometric_schedule_cap_holds_at_its_edge(monkeypatch):
    monkeypatch.setattr(sensitivity_module, "MAX_SCHEDULE_LENGTH", 11)
    assert len(RatioSchedule.geometric(1, 1024, 2)) == 11
    with pytest.raises(CspaceError, match="12 ratios"):
        RatioSchedule.geometric(1, 2048, 2)


# ---------------------------------------------------------------------------
# Sensitivity values
# ---------------------------------------------------------------------------


def test_sensitivity_is_zero_at_balance():
    for metric in list_metrics():
        assert sensitivity(metric, 1.0, GridSpec(32)) == 0.0


def test_recall_sensitivity_is_zero():
    assert sensitivity(get_metric("recall"), 49.0, GridSpec(256)) <= 1e-15


def test_tss_sensitivity_is_zero_at_extreme_ratio():
    assert sensitivity(get_metric("tss"), 1000.0, GridSpec(256)) <= 1e-15


def test_precision_sensitivity_matches_frozen_golden():
    s = sensitivity(get_metric("precision"), 49.0, GridSpec(256))
    assert s == pytest.approx(GOLDEN_S_PRECISION_49, abs=1e-3)


# Exact reprs of the production midpoint values at the default t=256; a change
# in how |C1 - Cr| is reduced shows here, below any tolerance.
@pytest.mark.parametrize(
    "metric_id, ratio, expected",
    [
        ("precision", 49.0, "0.45513951530284574"),
        ("f1", 49.0, "0.40686102735050694"),
        ("accuracy", 2.0, "0.05555470784505208"),
        ("precision", 1.0, "0.0"),
    ],
)
def test_sensitivity_keeps_golden_repr_at_t256(metric_id, ratio, expected):
    assert repr(sensitivity(get_metric(metric_id), ratio, GridSpec(256))) == expected


def test_frozen_goldens_match_fresh_oracle():
    assert oracle_sensitivity("precision", 49.0, 1024) == pytest.approx(
        GOLDEN_S_PRECISION_49, abs=1e-12
    )
    assert oracle_sensitivity("f1", 49.0, 1024) == pytest.approx(GOLDEN_S_F1_49, abs=1e-12)


def test_production_path_matches_low_resolution_oracle():
    for metric_id, ratio in [("accuracy", 7.0), ("hss", 3.0), ("gilbert", 12.0)]:
        expected = oracle_sensitivity(metric_id, ratio, 64)
        assert sensitivity(get_metric(metric_id), ratio, GridSpec(64)) == pytest.approx(
            expected, abs=1e-12
        )


def test_sensitivity_rejects_invalid_ratio():
    with pytest.raises(CspaceError):
        sensitivity(get_metric("f1"), -1.0, GridSpec(8))
    with pytest.raises(CspaceError, match="must be a number, got ' 49 '"):
        sensitivity(get_metric("f1"), " 49 ", GridSpec(8))


def test_sensitivity_well_defined_below_ratio_one():
    s = sensitivity(get_metric("precision"), 0.1, GridSpec(64))
    assert 0.0 < s < 1.0


# ---------------------------------------------------------------------------
# Curves
# ---------------------------------------------------------------------------


def test_curve_has_one_sample_per_schedule_entry():
    schedule = RatioSchedule((1.0, 2.0, 5.0))
    curve = sensitivity_curve(get_metric("accuracy"), schedule, GridSpec(32))
    assert curve.ratios == schedule.ratios
    assert curve.values[0] == 0.0


def test_recall_curve_is_identically_zero():
    schedule = RatioSchedule(tuple(float(r) for r in range(1, 101)))
    curve = sensitivity_curve(get_metric("recall"), schedule, GridSpec(16))
    assert all(s == 0.0 for s in curve.values)


def test_precision_curve_is_strictly_increasing():
    curve = sensitivity_curve(get_metric("precision"), RatioSchedule((1.0, 10.0, 100.0)), GridSpec(64))
    values = curve.values
    assert values[0] < values[1] < values[2]


def test_single_entry_curve():
    curve = sensitivity_curve(get_metric("hss"), RatioSchedule((1.0,)), GridSpec(16))
    assert curve.samples == ((1.0, 0.0),)


def test_curve_type_invariants():
    with pytest.raises(ValueError):
        SensitivityCurve("x", ((2.0, 0.5), (1.5, 0.1)))  # not ascending
    with pytest.raises(CspaceError):
        SensitivityCurve("x", ())  # empty
    with pytest.raises(CspaceError):
        SensitivityCurve("x", ((2.0, 0.1), (2.0, 0.2)))  # two values at one ratio
    with pytest.raises(ValueError):
        SensitivityCurve("x", ((2.0, 1.5),))  # s out of [0, 1]
    with pytest.raises(ValueError):
        SensitivityCurve("x", ((1.0, 0.5),))  # nonzero at balance
    with pytest.raises(CspaceError, match="curve ratio must be a number"):
        SensitivityCurve("x", (("2", 0.5),))
    with pytest.raises(CspaceError, match="sensitivity must be a number"):
        SensitivityCurve("x", ((2.0, None),))


def test_a_surface_that_turns_from_0_to_1_has_sensitivity_exactly_1():
    # Rescaled values lie in [0, 1], so s reaches 1 when every cell does.
    step = MetricDescriptor("step", (0.0, 1.0), lambda tpr, tnr, r: np.full_like(tpr * tnr, r - 1.0))
    assert sensitivity(step, 2.0, GridSpec(8)) == 1.0
    assert SensitivityCurve("step", ((2.0, 1.0),)).values == (1.0,)


# ---------------------------------------------------------------------------
# Agnostic classification
# ---------------------------------------------------------------------------

AGNOSTIC_SCHEDULE = RatioSchedule((2.0, 5.0, 10.0, 49.0, 100.0, 1000.0))


@pytest.mark.parametrize("metric_id", ["recall", "tss", "youden_j"])
def test_agnostic_metrics(metric_id):
    assert is_agnostic(get_metric(metric_id), AGNOSTIC_SCHEDULE, GridSpec(128))


@pytest.mark.parametrize("metric_id", ["accuracy", "precision", "f1", "hss"])
def test_sensitive_metrics_are_not_agnostic(metric_id):
    assert not is_agnostic(get_metric(metric_id), AGNOSTIC_SCHEDULE, GridSpec(64))


def test_is_agnostic_rejects_bad_tolerance(monkeypatch):
    # The tolerance is checked before the curve is evaluated.
    monkeypatch.setattr(sensitivity_module, "sensitivity_curve", lambda *args: pytest.fail("evaluated"))
    with pytest.raises(CspaceError):
        is_agnostic(get_metric("precision"), AGNOSTIC_SCHEDULE, GridSpec(16), tol=0.0)


@pytest.mark.parametrize("tol", [float("nan"), 0.0, -0.0, -1.0, float("-inf"), "1e-3", True, None])
def test_curve_is_agnostic_rejects_non_positive_tolerance(tol):
    # recall's curve is exactly 0, so only the tolerance check can refuse it.
    with pytest.raises(CspaceError):
        is_agnostic(get_metric("recall"), AGNOSTIC_SCHEDULE, GridSpec(8), tol=tol)


def test_is_agnostic_default_schedule():
    assert is_agnostic(get_metric("youden_j"), grid=GridSpec(32))
    assert not is_agnostic(get_metric("f1"), grid=GridSpec(32))


# ---------------------------------------------------------------------------
# Growth diagnostics
# ---------------------------------------------------------------------------


def test_precision_growth_is_logarithmic_like():
    curve = sensitivity_curve(
        get_metric("precision"), RatioSchedule.geometric(1, 1024, 2), GridSpec(128)
    )
    report = log_growth_check(curve)
    assert report.monotone
    assert report.concave
    assert report.logarithmic_like


# s(r) saturates: as r grows each surface tends to a limit C_inf, so
# s(inf) = mean|C1 - C_inf|.  precision, f1, gilbert and doolittle tend to 0,
# hss to 1/2 (a raw 0 on [-1, 1]) and accuracy to tnr.  The values at t=256
# are the ones README.md states.
SATURATION_T256 = {
    "precision": 0.5,
    "f1": 0.4768,
    "gilbert": 0.3466,
    "hss": 0.1667,
    "doolittle": 0.1817,
    "accuracy": 0.1667,
}


@pytest.mark.parametrize("metric_id", sorted(SATURATION_T256))
def test_sensitivity_saturates_at_the_limit_surface(metric_id):
    t = 256
    metric = get_metric(metric_id)
    tnr = (np.arange(t) + 0.5) / t
    limit = {"hss": 0.5, "accuracy": np.broadcast_to(tnr, (t, t))}.get(metric_id, 0.0)
    s_inf = float(np.mean(np.abs(whole_grid_values(metric, 1.0, t) - limit)))
    assert round(s_inf, 4) == SATURATION_T256[metric_id]
    assert sensitivity(metric, 1e16, GridSpec(t)) == pytest.approx(s_inf, abs=1e-12)
    assert sensitivity(metric, 1e4, GridSpec(t)) / s_inf >= 0.997


def test_constant_zero_curve_is_trivially_logarithmic_like():
    curve = sensitivity_curve(get_metric("recall"), RatioSchedule.geometric(1, 64, 2), GridSpec(16))
    report = log_growth_check(curve)
    assert report.monotone and report.concave


def test_growth_check_needs_three_distinct_ratios():
    # A curve's ratios are distinct, so a repeated ratio is refused when the
    # curve is built, before any growth check.
    with pytest.raises(CspaceError):
        SensitivityCurve("x", ((4.0, 0.125), (4.0, 0.125), (4.0, 0.125)))
    short = sensitivity_curve(get_metric("f1"), RatioSchedule((1.0, 2.0)), GridSpec(8))
    with pytest.raises(CspaceError):
        log_growth_check(short)


def test_growth_check_ignores_samples_below_balance():
    curve = SensitivityCurve("x", ((0.5, 0.3), (1.0, 0.0), (2.0, 0.1), (4.0, 0.15), (8.0, 0.18)))
    report = log_growth_check(curve)
    assert report.monotone  # the r=0.5 sample does not break monotonicity


# ---------------------------------------------------------------------------
# Bounds property
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    metric_idx=st.integers(0, len(list_metrics()) - 1),
    log_r=st.floats(-3.0, 6.0, allow_nan=False),
)
def test_sensitivity_bounded_in_unit_interval(metric_idx, log_r):
    metric = list_metrics()[metric_idx]
    s = sensitivity(metric, 10.0**log_r, GridSpec(24))
    assert 0.0 <= s < 1.0


@settings(max_examples=60, deadline=None)
@given(t=st.integers(2, 300), log_r=st.floats(-4.0, 8.0, allow_nan=False))
def test_accuracy_sensitivity_matches_closed_form(t, log_r):
    # accuracy(r) - accuracy(1) = (r-1)(tnr-tpr) / (2(1+r)), and the mean of
    # |tnr - tpr| over the t x t cell centres is (t^2 - 1) / (3t^2) exactly.
    r = 10.0**log_r
    expected = abs(r - 1.0) / (2.0 * (1.0 + r)) * (t * t - 1) / (3.0 * t * t)
    assert abs(sensitivity(get_metric("accuracy"), r, GridSpec(t)) - expected) <= 1e-15


# ---------------------------------------------------------------------------
# Convergence to the continuum s(r)
# ---------------------------------------------------------------------------

# The least factor by which the error against the closed form shrinks from
# t=128 to t=256: about 4 (the midpoint rule's t^-2) for the smooth
# surfaces, less for precision, which jumps at the corner tpr = 0, tnr = 1.
_CONTINUUM_ORDER = {"precision": 2.0, "f1": 3.0, "fbeta": 3.0, "gilbert": 3.0}

off_balance = dict(
    metric_id=st.sampled_from(sorted(_CONTINUUM_ORDER)),
    log_r=st.floats(0.1, math.log(100.0)),
    below=st.booleans(),
    beta=st.floats(0.5, 2.0),
)


def _continuum_case(metric_id, log_r, below, beta):
    metric = fbeta(beta) if metric_id == "fbeta" else get_metric(metric_id)
    return metric, math.exp(-log_r if below else log_r)


@settings(max_examples=60, deadline=None)
@given(**off_balance)
def test_grid_s_converges_to_the_continuum_s(metric_id, log_r, below, beta):
    metric, r = _continuum_case(metric_id, log_r, below, beta)
    exact = continuum_sensitivity(metric_id, r, beta)
    coarse = abs(sensitivity(metric, r, GridSpec(128)) - exact)
    fine = abs(sensitivity(metric, r, GridSpec(256)) - exact)
    assert coarse >= _CONTINUUM_ORDER[metric_id] * fine, (coarse, fine)


@settings(max_examples=60, deadline=None)
@given(t=st.integers(2, 256), **off_balance)
def test_grid_s_is_the_difference_of_surface_means(t, metric_id, log_r, below, beta):
    # Each surface is non-increasing in r at every sample, so C1 - Cr keeps
    # one sign and its mean absolute value is the difference of the means.
    metric, r = _continuum_case(metric_id, log_r, below, beta)
    grid = GridSpec(t)
    means = [float(np.mean(build_surface(metric, ratio, grid).values)) for ratio in (1.0, r)]
    assert abs(sensitivity(metric, r, grid) - abs(means[0] - means[1])) <= 1e-14


# Class swap: C_{1/r} is C_r transposed (accuracy, hss, doolittle) or
# reflected and complemented (precision), and C_1 maps onto itself, so each
# cell's |C_1 - C_{1/r}| is one of the |C_1 - C_r| up to rounding, and
# s(1/r) = s(r).  The surface identities are checked in test_surface.py; the
# largest gap seen here over t <= 1024 and r up to 1e8 is 1.7e-16.


@settings(max_examples=40, deadline=None)
@given(
    metric_id=st.sampled_from(["accuracy", "hss", "doolittle", "precision"]),
    t=st.integers(2, 1024),
    log_r=st.floats(0.01, 8.0, allow_nan=False),
)
def test_sensitivity_below_balance_equals_sensitivity_above_it(metric_id, t, log_r):
    r = 10.0**log_r
    below, above = sensitivity_curve(get_metric(metric_id), RatioSchedule((1.0 / r, r)), GridSpec(t)).values
    assert abs(below - above) <= 1e-15


@pytest.mark.parametrize(
    "metric_id, below, above", [("f1", 0.0571, 0.0782), ("gilbert", 0.0589, 0.0719)]
)
def test_f1_and_gilbert_have_no_class_swap_identity(metric_id, below, above):
    # Neither is symmetric in the two classes: at t=256, s(1/2) and s(2)
    # differ by 0.013 or more.
    s_half, s_two = sensitivity_curve(get_metric(metric_id), RatioSchedule((0.5, 2.0)), GridSpec(256)).values
    assert (s_half, s_two) == (pytest.approx(below, abs=5e-5), pytest.approx(above, abs=5e-5))


# ---------------------------------------------------------------------------
# The per-ratio loop against the surface-by-surface definition
# ---------------------------------------------------------------------------

_CURVE_METRICS = list(list_metrics())


@settings(max_examples=150, deadline=None)
@given(
    metric=st.one_of(
        st.sampled_from(_CURVE_METRICS),
        st.floats(0.05, 20.0, allow_nan=False).map(fbeta),
    ),
    t=st.integers(2, 64),
    log_ratios=st.lists(st.floats(-300.0, 300.0, allow_nan=False), min_size=1, max_size=6),
    with_balance=st.booleans(),
)
def test_curve_equals_per_ratio_surface_oracle(metric, t, log_ratios, with_balance):
    ratios = {10.0**x for x in log_ratios} | ({1.0} if with_balance else set())
    schedule = RatioSchedule(tuple(sorted(ratios)))
    grid = GridSpec(t)
    assert sensitivity_curve(metric, schedule, grid).values == curve_from_surfaces(metric, schedule, grid)


@pytest.mark.parametrize("metric_id", ["precision", "hss", "doolittle"])
def test_curve_equals_oracle_at_t256_on_a_long_schedule(metric_id):
    metric = get_metric(metric_id)
    schedule = RatioSchedule.geometric(1e-3, 1e4, 1.6)
    assert sensitivity_curve(metric, schedule).values == curve_from_surfaces(metric, schedule, GridSpec(256))


def _counting(metric):
    calls = []

    def fn(tpr, tnr, r):
        calls.append(r)
        return metric.fn(tpr, tnr, r)

    return dataclasses.replace(metric, fn=fn), calls


def test_ratio_free_curves_evaluate_nothing():
    schedule = RatioSchedule((0.5, 1.0, 3.0, 1e300))
    for metric in list_metrics():
        counted, calls = _counting(metric)
        curve = sensitivity_curve(counted, schedule, GridSpec(8))
        if metric.ratio_free:
            assert curve.samples == tuple((r, 0.0) for r in schedule)
            assert calls == []
        else:
            # The balanced surface once, then every ratio other than 1.
            assert calls == [1.0, 0.5, 3.0, 1e300]


@pytest.mark.parametrize("t", [6, 300])  # one block, then three
def test_curve_rescales_results_the_metric_does_not_own(t):
    # A scalar, a broadcast view and a read-only row are read, not written.
    kept = np.full(t, 0.25)
    kept.flags.writeable = False
    shapes = {
        "scalar": lambda tpr, tnr, r: np.float64(0.5) / r,
        "view": lambda tpr, tnr, r: np.broadcast_to(tpr / r, np.broadcast_shapes(tpr.shape, tnr.shape)),
        "read-only": lambda tpr, tnr, r: kept if r == 1.0 else kept * 0.0,
    }
    for name, fn in shapes.items():
        metric = dataclasses.replace(get_metric("tss"), id=name, fn=fn, ratio_free=False)
        schedule = RatioSchedule((1.0, 2.0, 4.0))
        grid = GridSpec(t)
        values = sensitivity_curve(metric, schedule, grid).values
        assert values == curve_from_surfaces(metric, schedule, grid) == whole_grid_curve(metric, schedule, t)
    assert np.all(kept == 0.25)


# ---------------------------------------------------------------------------
# Row-blocked evaluation against one whole-grid metric call
# ---------------------------------------------------------------------------

# A surface evaluates t <= 181 as one block; 182 and 255 as two, the second a
# short one; 256 as two full ones; 257 and 300 as three, the last a short one;
# 1024 as 32.  A curve sums leaves of numpy's pairwise tree: whole rows at 256
# and 1024, partial rows carried from leaf to leaf at 255, 257, 1000 and 1001.
_BLOCK_TS = [2, 181, 182, 255, 256, 257, 300, 1000, 1001, 1024]
_BLOCK_METRICS = [*list_metrics(), fbeta(0.5), fbeta(3.0)]


@pytest.mark.parametrize("t", _BLOCK_TS)
@pytest.mark.parametrize("metric", _BLOCK_METRICS, ids=lambda m: m.id)
def test_blocked_curve_equals_the_whole_grid_oracle(metric, t):
    # 1e120 takes the divided-through forms of hss and doolittle.
    schedule = RatioSchedule((0.01, 1.0, 3.0, 49.0, 1e120))
    assert sensitivity_curve(metric, schedule, GridSpec(t)).values == whole_grid_curve(metric, schedule, t)


@pytest.mark.parametrize("t", [255, 257, 1000, 1001])
def test_curves_evaluate_each_cell_once_where_leaves_end_mid_row(t):
    # The balanced surface, then every ratio other than 1, each t^2 cells: a
    # leaf's partial last row is carried into the next leaf, not evaluated again.
    # The surface makes one call per block of whole rows, the curve one per
    # leaf of numpy's pairwise tree, which halves t^2 until a leaf holds at
    # most 2**15 cells.
    metric = get_metric("f1")
    leaves = {255: 2, 257: 4, 1000: 32, 1001: 32}[t]
    cells = []

    def fn(tpr, tnr, r):
        cells.append(np.broadcast_shapes(tpr.shape, tnr.shape))
        return metric.fn(tpr, tnr, r)

    schedule = RatioSchedule((0.5, 1.0, 3.0))
    sensitivity_curve(dataclasses.replace(metric, fn=fn), schedule, GridSpec(t))
    assert all(cols == t for _, cols in cells)
    assert sum(rows * cols for rows, cols in cells) == 3 * t * t
    assert len(cells) == math.ceil(t / max(1, 2**15 // t)) + 2 * leaves


@settings(max_examples=40, deadline=None)
@given(
    metric=st.one_of(
        st.sampled_from(_CURVE_METRICS),
        st.floats(0.05, 20.0, allow_nan=False).map(fbeta),
    ),
    t=st.integers(2, 600),
    log_ratios=st.lists(st.floats(-300.0, 300.0, allow_nan=False), min_size=1, max_size=3),
)
def test_blocked_curve_equals_the_whole_grid_oracle_at_any_resolution(metric, t, log_ratios):
    schedule = RatioSchedule(tuple(sorted({10.0**x for x in log_ratios})))
    assert sensitivity_curve(metric, schedule, GridSpec(t)).values == whole_grid_curve(metric, schedule, t)


def _traced_peak(fn) -> int:
    """Bytes allocated at the peak of ``fn()`` beyond what was allocated before."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_curves_and_surfaces_free_their_arrays_without_the_cycle_collector():
    # A reference cycle once kept a curve's arrays alive until the cyclic
    # collector ran; with it off, traced memory must come back at once, up to
    # numpy's and the interpreter's small caches (about 2 KiB here), far
    # below one 703 KiB grid array.
    metric, grid = get_metric("f1"), GridSpec(300)
    slack = 64 * 1024
    schedule = RatioSchedule((0.5, 2.0, 49.0))
    gc.disable()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        sensitivity_curve(metric, schedule, grid)
        after_curve = tracemalloc.get_traced_memory()[0]
        build_surface(metric, 49.0, grid)
        after_surface = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert after_curve - start < slack and after_surface - start < slack, (start, after_curve, after_surface)


@pytest.mark.parametrize("metric_id", [m.id for m in list_metrics() if not m.ratio_free])
def test_curve_holds_one_grid_array_and_a_surface_one(metric_id):
    # At t=700 grid arrays are on the heap, where tracemalloc sees them; from
    # t=725 they are memory maps it does not trace.  A curve holds the
    # balanced array and a few blocks of at most 2**15 cells: its leaf
    # buffer, the metric's last result and its next one with temporaries
    # (doolittle's peak is about 5.4 blocks with numpy 2.4's iterator buffers).
    metric, grid = get_metric(metric_id), GridSpec(700)
    array, block = 700 * 700 * 8, 2**15 * 8
    schedule = RatioSchedule((0.5, 2.0, 49.0))
    assert _traced_peak(lambda: sensitivity_curve(metric, schedule, grid)) <= array + 6 * block
    assert _traced_peak(lambda: build_surface(metric, 49.0, grid)) <= 1.25 * array


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not _glibc(), reason="the page faults measured come from glibc's heap trimming")
@pytest.mark.parametrize("t, factor, hss, doolittle", [(256, 1.2, 2000, 2000), (1024, 1.5, 8000, 8000)])
def test_curves_do_not_fault_their_heap_pages_in_again_on_every_ratio(t, factor, hss, doolittle):
    # A block's temporaries freed at the top of the heap were once returned
    # to the OS and faulted in again on the next ratio: at t=256, hss and
    # doolittle took 9,000 to 14,000 minor faults each here, against about
    # 400 since the blocks were halved.  At t=1024, where grid arrays are
    # maps of their own and glibc's mmap threshold never rises, they took
    # 55,000 and 92,000.  A curve that holds the metric's last result until
    # the next exists brought them to 3,300 and 31,000, and a doolittle
    # kernel with one block temporary fewer brought doolittle to 5,400.  A
    # fresh interpreter starts from a known heap.
    faults = run_fresh(
        "import json, resource\n"
        "import cspace\n"
        f"schedule, grid, out = cspace.RatioSchedule.geometric(1, 1024, {factor}), cspace.GridSpec({t}), {{}}\n"
        "for m in cspace.list_metrics():\n"
        "    if not m.ratio_free:\n"
        "        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "        cspace.sensitivity_curve(m, schedule, grid)\n"
        "        out[m.id] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before\n"
        "print(json.dumps(out))\n"
    )
    assert faults["hss"] < hss and faults["doolittle"] < doolittle, faults
