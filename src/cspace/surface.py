"""Metric surfaces: a metric evaluated over a uniform grid of the base
contingency space at a fixed imbalance ratio, rescaled to [0, 1].

Grids use the cell-center rule: sample k of a resolution-t axis sits at
(k + 0.5)/t, so every sample lies strictly inside (0, 1) and no metric is
ever evaluated exactly at an indeterminate corner.  Evaluating a metric on
the t x t grid and rescaling its values by the metric's theoretical range
yields the surface matrix; the sum of absolute cell differences between two
such matrices is then a midpoint-rule approximation of the volume between
the corresponding continuous surfaces.

Axis convention (flipped ROC): x = tnr, y = tpr.  ``values[i][j]`` holds the
sample at tpr index i (row) and tnr index j (column); storage is row-major.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridMismatchError, InvalidGridError, MetricMismatchError
from .metrics import MetricDescriptor, check_ratio

__all__ = [
    "DEFAULT_GRID",
    "DEFAULT_RESOLUTION",
    "GridSpec",
    "MetricSurface",
    "build_surface",
    "surface_delta",
]

DEFAULT_RESOLUTION = 256


@dataclass(frozen=True)
class GridSpec:
    """A uniform t x t sampling grid with cell-center coordinates."""

    resolution: int

    def __post_init__(self) -> None:
        t = self.resolution
        if not isinstance(t, int) or isinstance(t, bool) or t < 2:
            raise InvalidGridError(f"grid resolution must be an integer >= 2, got {t!r}")

    def centers(self) -> np.ndarray:
        """Sample coordinates (k + 0.5)/t for k in 0..t-1."""
        t = self.resolution
        return (np.arange(t, dtype=np.float64) + 0.5) / t


DEFAULT_GRID = GridSpec(DEFAULT_RESOLUTION)


@dataclass(frozen=True)
class MetricSurface:
    """A t x t matrix of rescaled metric values at a fixed imbalance ratio.

    ``values[i][j] = clip((raw(tpr_i, tnr_j, ratio) - lo) / (hi - lo), 0, 1)``
    where ``[lo, hi]`` is ``rescale_interval``.  The matrix is read-only.
    """

    metric_id: str
    ratio: float
    grid: GridSpec
    values: np.ndarray
    rescale_interval: tuple[float, float]

    def __post_init__(self) -> None:
        t = self.grid.resolution
        arr = np.array(self.values, dtype=np.float64, copy=True)
        if arr.shape != (t, t):
            raise InvalidGridError(f"values must have shape ({t}, {t}), got {arr.shape}")
        if not np.all((arr >= 0.0) & (arr <= 1.0)):
            raise ValueError("surface values must lie in [0, 1]")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "ratio", check_ratio(self.ratio))

    @cached_property
    def tnr_coords(self) -> np.ndarray:
        """x coordinates (column index j -> tnr sample)."""
        return self.grid.centers()

    @cached_property
    def tpr_coords(self) -> np.ndarray:
        """y coordinates (row index i -> tpr sample)."""
        return self.grid.centers()


def build_surface(
    metric: MetricDescriptor, ratio: float, grid: GridSpec = DEFAULT_GRID
) -> MetricSurface:
    """Evaluate a metric over the grid at the given ratio and rescale.

    Deterministic: identical inputs produce bit-identical value matrices.
    Raises InvalidRatioError for a non-finite or non-positive ratio.
    """
    r = check_ratio(ratio)
    return MetricSurface(
        metric_id=metric.id,
        ratio=r,
        grid=grid,
        values=_rescaled(metric, r, grid),
        rescale_interval=metric.theoretical_range,
    )


def _rescaled(metric: MetricDescriptor, r: float, grid: GridSpec) -> np.ndarray:
    """``clip((raw - lo) / (hi - lo), 0, 1)`` over the grid at ratio ``r``,
    as a fresh writeable C-contiguous t x t array.

    The metric's result is rescaled in place when it is such an array of its
    own; otherwise the rescaling makes one.  Steps that are the identity for
    a ``[0, 1]`` range are skipped, which leaves every bit as it was.
    """
    t = grid.resolution
    c = grid.centers()
    raw = metric.fn(c[:, None], c[None, :], r, metric.undefined_policy)
    lo, hi = metric.theoretical_range
    if (
        isinstance(raw, np.ndarray)
        and raw.dtype == np.float64
        and raw.shape == (t, t)
        and raw.flags.c_contiguous
        and raw.flags.writeable
        and raw.flags.owndata
    ):
        out = raw
    else:
        out = np.array(np.broadcast_to(np.asarray(raw, dtype=np.float64), (t, t)))
    if lo != 0.0:
        np.subtract(out, lo, out=out)
    if hi - lo != 1.0:
        np.divide(out, hi - lo, out=out)
    return np.clip(out, 0.0, 1.0, out=out)


def _distance(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Element-wise ``|a - b|``, written into ``out`` when given."""
    diff = np.subtract(a, b, out=out)
    return np.abs(diff, out=diff)


def surface_delta(a: MetricSurface, b: MetricSurface) -> np.ndarray:
    """Element-wise absolute difference |a - b| of two surfaces.

    The surfaces must belong to the same metric (same id and rescale
    interval) and share a grid; their ratios may differ.
    """
    if a.metric_id != b.metric_id or a.rescale_interval != b.rescale_interval:
        raise MetricMismatchError(
            f"cannot diff surfaces of different metrics: {a.metric_id!r} vs {b.metric_id!r}"
        )
    if a.grid != b.grid:
        raise GridMismatchError(
            f"cannot diff surfaces on different grids: t={a.grid.resolution} vs t={b.grid.resolution}"
        )
    return _distance(a.values, b.values)
