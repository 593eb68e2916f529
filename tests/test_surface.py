from __future__ import annotations

import dataclasses
import gc
import math
import mmap
import weakref

import numpy as np
import pytest
from conftest import whole_grid_values
from hypothesis import given, settings
from hypothesis import strategies as st

from cspace import (
    CspaceError,
    GridSpec,
    MetricDescriptor,
    MetricSurface,
    build_surface,
    fbeta,
    get_metric,
    list_metrics,
)
from cspace.surface import _matrix


@pytest.mark.parametrize("t", [0, 1, -3])
def test_grid_spec_rejects_small_resolutions(t):
    with pytest.raises(CspaceError):
        GridSpec(t)


def test_grid_spec_rejects_non_integer_resolution():
    with pytest.raises(CspaceError):
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


# Swapping the classes maps tpr <-> tnr and 1:r to 1:(1/r); both grid axes
# sample the same centres.  Accuracy, hss and doolittle are symmetric under the
# swap, so C_{1/r} = C_r^T, to a few ulps of evaluation rounding.  Precision
# obeys P(tpr, tnr, 1/r) = 1 - P(1 - tnr, 1 - tpr, r), so
# C_{1/r}[i][j] = 1 - C_r[t-1-j][t-1-i]; there 1 - c_k and c_{t-1-k} differ by
# up to an ulp, which precision's slope (at most t/2 at the grid's edge cells)
# amplifies, so its tolerance grows with t.
def _class_swap_error(metric_id: str, ratio: float, t: int) -> float:
    """The largest cell gap between C_{1/r} and the class-swapped C_r."""
    grid = GridSpec(t)
    inverse = build_surface(get_metric(metric_id), 1.0 / ratio, grid).values
    direct = build_surface(get_metric(metric_id), ratio, grid).values
    swapped = 1.0 - direct[::-1, ::-1].T if metric_id == "precision" else direct.T
    return float(np.max(np.abs(inverse - swapped)))


def _class_swap_tol(metric_id: str, t: int) -> float:
    return 1e-15 + 1e-16 * t if metric_id == "precision" else 2e-15


@pytest.mark.parametrize("metric_id", ["accuracy", "hss", "doolittle", "precision"])
@pytest.mark.parametrize("t", [7, 256, 1000])
@pytest.mark.parametrize("ratio", [2.0, 49.0, 1000.0, 3.7e5])
def test_surfaces_below_balance_are_the_class_swapped_surfaces_above_it(metric_id, t, ratio):
    assert _class_swap_error(metric_id, ratio, t) <= _class_swap_tol(metric_id, t)


@settings(max_examples=40, deadline=None)
@given(
    metric_id=st.sampled_from(["accuracy", "hss", "doolittle", "precision"]),
    t=st.integers(2, 1024),
    log_r=st.floats(-8.0, 8.0, allow_nan=False),
)
def test_class_swap_identities_hold_at_any_resolution_and_ratio(metric_id, t, log_r):
    assert _class_swap_error(metric_id, 10.0**log_r, t) <= _class_swap_tol(metric_id, t)


@pytest.mark.parametrize(
    "ratio", [0.0, -2.0, float("nan"), float("inf"), "abc", None, "49", " 49 ", b"49", True, np.True_]
)
def test_build_surface_rejects_invalid_ratios(ratio):
    with pytest.raises(CspaceError):
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


@pytest.mark.parametrize(
    "values",
    [np.full((4, 4), "0.25"), np.full((4, 4), True), np.full((4, 4), None), [[0.25] * 4] * 3 + [[0.25] * 3]],
    ids=["strings", "booleans", "objects", "ragged"],
)
def test_surface_rejects_values_that_are_not_one_array_of_numbers(values):
    with pytest.raises(CspaceError, match="surface values must be"):
        MetricSurface("given", 1.0, GridSpec(4), values, (0.0, 1.0))


def test_surface_takes_integer_values_as_floats():
    surf = MetricSurface("given", 1.0, GridSpec(2), [[0, 1], [1, 0]], (0.0, 1.0))
    assert surf.values.dtype == np.float64 and surf.values.tolist() == [[0.0, 1.0], [1.0, 0.0]]


@pytest.mark.parametrize("shape", [(4, 3), (3, 3), (16,), (4, 4, 1)])
def test_surface_rejects_values_of_the_wrong_shape(shape):
    with pytest.raises(CspaceError, match=r"shape \(4, 4\)"):
        MetricSurface("given", 1.0, GridSpec(4), np.full(shape, 0.25), (0.0, 1.0))


@pytest.mark.parametrize(
    "interval",
    [(1.0, 0.0), (0.5, 0.5), (0.0, np.inf), (np.nan, 1.0), (0.0,), ("a", "b"), None, (False, True), (0.0, np.True_)],
)
def test_surface_rejects_a_rescale_interval_that_is_not_two_finite_increasing_numbers(interval):
    with pytest.raises(ValueError, match="lo < hi"):
        MetricSurface("given", 1.0, GridSpec(4), np.full((4, 4), 0.25), interval)


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


@pytest.mark.parametrize("t", [2, 181, 182, 255, 256, 257, 300, 1024])
@pytest.mark.parametrize(
    "metric",
    [
        *list_metrics(),
        fbeta(0.5),
        fbeta(3.0),
        # Ranges whose width is not a power of two take the division step.
        MetricDescriptor("f1_over_0_3", (0.0, 3.0), get_metric("f1").fn),
        MetricDescriptor("hss_over_-1_2", (-1.0, 2.0), get_metric("hss").fn),
    ],
    ids=lambda m: m.id,
)
def test_blocked_surface_equals_the_whole_grid_oracle(metric, t):
    # t <= 181 is one block; 182 to 256 are two; 257 and 300 are three; 1024 is 32.
    for ratio in (0.01, 1.0, 49.0, 1e120):
        assert np.array_equal(build_surface(metric, ratio, GridSpec(t)).values, whole_grid_values(metric, ratio, t))


@pytest.mark.parametrize("t", [2, 181, 182, 255, 256, 300, 1000, 1024])
def test_a_surface_evaluates_whole_row_blocks_of_at_most_2_15_cells_once_each(t):
    metric = get_metric("f1")
    cells = []

    def fn(tpr, tnr, r):
        cells.append(np.broadcast_shapes(tpr.shape, tnr.shape))
        return metric.fn(tpr, tnr, r)

    build_surface(dataclasses.replace(metric, fn=fn), 3.0, GridSpec(t))
    assert len(cells) == math.ceil(t / max(1, 2**15 // t))
    assert all(cols == t for _, cols in cells)
    assert sum(rows * cols for rows, cols in cells) == t * t


@pytest.mark.skipif(not hasattr(mmap, "MADV_HUGEPAGE"), reason="matrices are mapped only where huge pages exist")
def test_a_large_matrix_is_its_own_map_and_is_unmapped_with_its_last_array():
    # 8 * 724**2 bytes is just under _MAPPED_BYTES (4 MiB), 8 * 725**2 just over.
    assert _matrix(724).base is None and _matrix(725).base is not None
    surf = build_surface(get_metric("f1"), 3.0, GridSpec(1024))
    base = surf.values
    while isinstance(base, np.ndarray):
        base = base.base
    mapped = weakref.ref(base.obj)
    assert isinstance(mapped(), mmap.mmap) and len(mapped()) == surf.values.nbytes
    assert surf.values.flags.c_contiguous and not surf.values.flags.writeable
    del surf, base
    gc.collect()
    assert mapped() is None


def test_rescale_maps_recall_identically():
    # raw recall spans [(0.5)/t, (t-0.5)/t] on the grid and rescaling from
    # [0, 1] is the identity, so values equal raw samples exactly
    t = 8
    surf = build_surface(get_metric("recall"), 3.0, GridSpec(t))
    assert surf.values.min() == 0.5 / t
    assert surf.values.max() == (t - 0.5) / t


def test_surface_delta_of_identical_surfaces_is_zero():
    surf = build_surface(get_metric("f1"), 5.0, GridSpec(16))
    delta = np.abs(surf.values - surf.values)
    assert np.all(delta == 0.0)


def test_surface_delta_recall_is_ratio_invariant():
    a = build_surface(get_metric("recall"), 1.0, GridSpec(64))
    b = build_surface(get_metric("recall"), 49.0, GridSpec(64))
    assert np.all(np.abs(a.values - b.values) == 0.0)


def test_surface_delta_precision_is_ratio_sensitive():
    a = build_surface(get_metric("precision"), 1.0, GridSpec(64))
    b = build_surface(get_metric("precision"), 49.0, GridSpec(64))
    assert np.abs(a.values - b.values).max() > 0.0


@pytest.mark.parametrize("metric", list_metrics(), ids=lambda m: m.id)
@pytest.mark.parametrize("ratio", [1.0, 49.0])
def test_grid_refinement_stability(metric, ratio):
    coarse = build_surface(metric, ratio, GridSpec(128))
    fine = build_surface(metric, ratio, GridSpec(256))
    assert abs(float(coarse.values.mean()) - float(fine.values.mean())) < 0.01
