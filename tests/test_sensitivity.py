from __future__ import annotations

import gc
import importlib
import math
import tracemalloc

import dataclasses

import numpy as np
import pytest
from conftest import continuum_sensitivity, curve_from_surfaces, whole_grid_curve
from hypothesis import given, settings
from hypothesis import strategies as st

from cspace import (
    GridSpec,
    InsufficientSamplesError,
    InvalidRatioError,
    RatioSchedule,
    InvalidToleranceError,
    SensitivityCurve,
    build_surface,
    curve_is_agnostic,
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
    with pytest.raises(InvalidRatioError):
        RatioSchedule(())
    with pytest.raises(InvalidRatioError):
        RatioSchedule((1.0, 1.0))
    with pytest.raises(InvalidRatioError):
        RatioSchedule((2.0, 1.0))
    with pytest.raises(InvalidRatioError):
        RatioSchedule((0.0, 1.0))


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
    with pytest.raises(InvalidRatioError):
        RatioSchedule.geometric(5, 1, 2)
    with pytest.raises(InvalidRatioError):
        RatioSchedule.geometric(1, 10, 1.0)
    with pytest.raises(InvalidRatioError):
        RatioSchedule.geometric(0, 10, 2)


def test_geometric_schedule_length_is_counted_before_generating():
    # 1:2:1.0000001 holds 6931473 ratios; the count alone refuses it.
    with pytest.raises(InvalidRatioError, match="6931473 ratios"):
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
    with pytest.raises(InvalidRatioError, match="12 ratios"):
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
    with pytest.raises(InvalidRatioError):
        sensitivity(get_metric("f1"), -1.0, GridSpec(8))


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
    grid = GridSpec(8)
    with pytest.raises(ValueError):
        SensitivityCurve("x", ((2.0, 0.5), (1.5, 0.1)), grid)  # not ascending
    with pytest.raises(ValueError):
        SensitivityCurve("x", ((2.0, 1.0),), grid)  # s out of [0, 1)
    with pytest.raises(ValueError):
        SensitivityCurve("x", ((1.0, 0.5),), grid)  # nonzero at balance


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


def test_is_agnostic_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        is_agnostic(get_metric("recall"), AGNOSTIC_SCHEDULE, GridSpec(16), tol=0.0)


@pytest.mark.parametrize("tol", [float("nan"), 0.0, -0.0, -1.0, float("-inf")])
def test_curve_is_agnostic_rejects_non_positive_tolerance(tol):
    curve = sensitivity_curve(get_metric("recall"), RatioSchedule((1.0, 2.0)), GridSpec(8))
    with pytest.raises(InvalidToleranceError):
        curve_is_agnostic(curve, tol)
    with pytest.raises(InvalidToleranceError):
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


def test_constant_zero_curve_is_trivially_logarithmic_like():
    curve = sensitivity_curve(get_metric("recall"), RatioSchedule.geometric(1, 64, 2), GridSpec(16))
    report = log_growth_check(curve)
    assert report.monotone and report.concave


def test_growth_check_needs_three_distinct_ratios():
    grid = GridSpec(8)
    repeated = SensitivityCurve("x", ((4.0, 0.125), (4.0, 0.125), (4.0, 0.125)), grid)
    with pytest.raises(InsufficientSamplesError):
        log_growth_check(repeated)
    short = sensitivity_curve(get_metric("f1"), RatioSchedule((1.0, 2.0)), grid)
    with pytest.raises(InsufficientSamplesError):
        log_growth_check(short)


def test_growth_check_ignores_samples_below_balance():
    curve = SensitivityCurve(
        "x", ((0.5, 0.3), (1.0, 0.0), (2.0, 0.1), (4.0, 0.15), (8.0, 0.18)), GridSpec(8)
    )
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


@pytest.mark.parametrize("t", [6, 300])  # one block, then two
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

# t <= 256 is one block; 257 and 300 are two, the second a short one; 1024 is 16.
_BLOCK_TS = [2, 255, 256, 257, 300, 1024]
_BLOCK_METRICS = [*list_metrics(), fbeta(0.5), fbeta(3.0)]


@pytest.mark.parametrize("t", _BLOCK_TS)
@pytest.mark.parametrize("metric", _BLOCK_METRICS, ids=lambda m: m.id)
def test_blocked_curve_equals_the_whole_grid_oracle(metric, t):
    # 1e120 takes the divided-through forms of hss and doolittle.
    schedule = RatioSchedule((0.01, 1.0, 3.0, 49.0, 1e120))
    assert sensitivity_curve(metric, schedule, GridSpec(t)).values == whole_grid_curve(metric, schedule, t)


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
def test_curve_holds_two_grid_arrays_and_a_surface_one(metric_id):
    # At t=1024 a block is 1/16 of the grid: the balanced array and the
    # Cr array, or the surface's own, plus a few blocks at a time.
    metric, grid = get_metric(metric_id), GridSpec(1024)
    array = 1024 * 1024 * 8
    schedule = RatioSchedule((0.5, 2.0, 49.0))
    assert _traced_peak(lambda: sensitivity_curve(metric, schedule, grid)) <= 2.25 * array
    assert _traced_peak(lambda: build_surface(metric, 49.0, grid)) <= 1.25 * array
