from __future__ import annotations

import numpy as np
import pytest
from conftest import whole_grid_values

from cspace import (
    GridMismatchError,
    GridSpec,
    InvalidGridError,
    InvalidRatioError,
    MetricDescriptor,
    MetricMismatchError,
    MetricSurface,
    build_surface,
    fbeta,
    get_metric,
    list_metrics,
    surface_delta,
)


@pytest.mark.parametrize("t", [0, 1, -3])
def test_grid_spec_rejects_small_resolutions(t):
    with pytest.raises(InvalidGridError):
        GridSpec(t)


def test_grid_spec_rejects_non_integer_resolution():
    with pytest.raises(InvalidGridError):
        GridSpec(2.0)  # type: ignore[arg-type]


def test_grid_centers_lie_strictly_inside_unit_interval():
    centers = GridSpec(5).centers()
    assert np.array_equal(centers, np.array([0.1, 0.3, 0.5, 0.7, 0.9]))
    assert 0.0 < centers[0] and centers[-1] < 1.0


def test_recall_surface_rows_are_constant():
    surf = build_surface(get_metric("recall"), 49.0, GridSpec(4))
    expected = (np.arange(4) + 0.5) / 4
    for i in range(4):
        assert np.all(surf.values[i] == expected[i])


def test_tss_surface_rescaling_at_t2():
    surf = build_surface(get_metric("tss"), 1.0, GridSpec(2))
    # raw tss(0.75, 0.75) = 0.5, rescaled from [-1, 1]: (0.5 + 1) / 2
    assert surf.values[1, 1] == 0.75


def test_accuracy_surface_symmetric_at_balance():
    surf = build_surface(get_metric("accuracy"), 1.0, GridSpec(16))
    assert np.array_equal(surf.values, surf.values.T)


@pytest.mark.parametrize("ratio", [0.0, -2.0, float("nan"), float("inf"), "abc", None])
def test_build_surface_rejects_invalid_ratios(ratio):
    with pytest.raises(InvalidRatioError):
        build_surface(get_metric("f1"), ratio, GridSpec(4))


@pytest.mark.parametrize("metric", list_metrics(), ids=lambda m: m.id)
@pytest.mark.parametrize("ratio", [0.2, 1.0, 49.0])
def test_surface_values_stay_in_unit_interval(metric, ratio):
    surf = build_surface(metric, ratio, GridSpec(32))
    assert np.all(surf.values >= 0.0)
    assert np.all(surf.values <= 1.0)


def test_surface_values_are_read_only():
    built = build_surface(get_metric("f1"), 2.0, GridSpec(4))
    given = MetricSurface("given", 1.0, GridSpec(4), np.full((4, 4), 0.25), (0.0, 1.0))
    for surf in (built, given):
        with pytest.raises(ValueError):
            surf.values[0, 0] = 0.5


def test_surface_copies_values_it_is_given():
    values = np.full((4, 4), 0.25)
    surf = MetricSurface("given", 1.0, GridSpec(4), values, (0.0, 1.0))
    values[0, 0] = 0.75
    assert np.all(surf.values == 0.25)
    assert not np.shares_memory(surf.values, values)


@pytest.mark.parametrize("bad", [np.nan, -0.5, 1.5])
def test_surface_rejects_values_outside_unit_interval(bad):
    values = np.full((4, 4), 0.25)
    values[2, 1] = bad
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        MetricSurface("given", 1.0, GridSpec(4), values, (0.0, 1.0))


@pytest.mark.parametrize("shape", [(4, 3), (3, 3), (16,), (4, 4, 1)])
def test_surface_rejects_values_of_the_wrong_shape(shape):
    with pytest.raises(InvalidGridError, match=r"shape \(4, 4\)"):
        MetricSurface("given", 1.0, GridSpec(4), np.full(shape, 0.25), (0.0, 1.0))


def test_build_surface_rejects_a_metric_that_returns_nan():
    # Clipping keeps NaN, so only the range check stands between it and a surface.
    def nan_fn(tpr, tnr, r):
        return np.full(np.broadcast_shapes(np.shape(tpr), np.shape(tnr)), np.nan)

    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        build_surface(MetricDescriptor("nan", (0.0, 1.0), nan_fn), 2.0, GridSpec(4))


def test_build_surface_is_bit_deterministic():
    a = build_surface(get_metric("hss"), 49.0, GridSpec(64))
    b = build_surface(get_metric("hss"), 49.0, GridSpec(64))
    assert a.values.tobytes() == b.values.tobytes()


@pytest.mark.parametrize("t", [2, 255, 256, 257, 300, 1024])
@pytest.mark.parametrize("metric", [*list_metrics(), fbeta(0.5), fbeta(3.0)], ids=lambda m: m.id)
def test_blocked_surface_equals_the_whole_grid_oracle(metric, t):
    # t <= 256 is one block; 257 and 300 are two, the second a short one; 1024 is 16.
    for ratio in (0.01, 1.0, 49.0, 1e120):
        assert np.array_equal(build_surface(metric, ratio, GridSpec(t)).values, whole_grid_values(metric, ratio, t))


def test_rescale_maps_recall_identically():
    # raw recall spans [(0.5)/t, (t-0.5)/t] on the grid and rescaling from
    # [0, 1] is the identity, so values equal raw samples exactly
    t = 8
    surf = build_surface(get_metric("recall"), 3.0, GridSpec(t))
    assert surf.values.min() == 0.5 / t
    assert surf.values.max() == (t - 0.5) / t


def test_surface_delta_of_identical_surfaces_is_zero():
    surf = build_surface(get_metric("f1"), 5.0, GridSpec(16))
    delta = surface_delta(surf, surf)
    assert np.all(delta == 0.0)


def test_surface_delta_recall_is_ratio_invariant():
    a = build_surface(get_metric("recall"), 1.0, GridSpec(64))
    b = build_surface(get_metric("recall"), 49.0, GridSpec(64))
    assert np.all(surface_delta(a, b) == 0.0)


def test_surface_delta_precision_is_ratio_sensitive():
    a = build_surface(get_metric("precision"), 1.0, GridSpec(64))
    b = build_surface(get_metric("precision"), 49.0, GridSpec(64))
    assert surface_delta(a, b).max() > 0.0


def test_surface_delta_rejects_mismatched_metrics():
    a = build_surface(get_metric("precision"), 1.0, GridSpec(8))
    b = build_surface(get_metric("recall"), 1.0, GridSpec(8))
    with pytest.raises(MetricMismatchError):
        surface_delta(a, b)


def test_surface_delta_rejects_mismatched_grids():
    a = build_surface(get_metric("f1"), 1.0, GridSpec(8))
    b = build_surface(get_metric("f1"), 1.0, GridSpec(16))
    with pytest.raises(GridMismatchError):
        surface_delta(a, b)


@pytest.mark.parametrize("metric", list_metrics(), ids=lambda m: m.id)
@pytest.mark.parametrize("ratio", [1.0, 49.0])
def test_grid_refinement_stability(metric, ratio):
    coarse = build_surface(metric, ratio, GridSpec(128))
    fine = build_surface(metric, ratio, GridSpec(256))
    assert abs(float(coarse.values.mean()) - float(fine.values.mean())) < 0.01
