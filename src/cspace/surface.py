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

from dataclasses import InitVar, dataclass
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
    # True only from build_surface, whose fresh float64 array no one else
    # holds; any other values are copied before they are checked and frozen.
    _owned: InitVar[bool] = False

    def __post_init__(self, _owned: bool) -> None:
        t = self.grid.resolution
        arr = self.values if _owned else np.array(self.values, dtype=np.float64, copy=True)
        if arr.shape != (t, t):
            raise InvalidGridError(f"values must have shape ({t}, {t}), got {arr.shape}")
        # NaN fails both comparisons.
        if not (arr.min() >= 0.0 and arr.max() <= 1.0):
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
        _owned=True,
    )


# Metrics are evaluated this many grid cells at a time (whole rows, at least
# one), so their temporaries stay a small fixed size at every resolution.
_BLOCK_CELLS = 2**16


def _rescaled(
    metric: MetricDescriptor, r: float, grid: GridSpec, out: np.ndarray | None = None
) -> np.ndarray:
    """``clip((raw - lo) / (hi - lo), 0, 1)`` of the metric at ratio ``r``
    over the grid, for the metric's range ``[lo, hi]``, written into ``out``
    (a fresh t x t array when None) one row block at a time.

    The first rescaling step reads the metric's result and writes into
    ``out``, so a scalar, a view or a read-only result is never written.
    Steps that are the identity for a ``[0, 1]`` range are skipped, which
    leaves every bit as it was.
    """
    t = grid.resolution
    c = grid.centers()
    lo, hi = metric.theoretical_range
    if out is None:
        out = np.empty((t, t))
    step = max(1, _BLOCK_CELLS // t)
    for start in range(0, t, step):
        rows = slice(start, start + step)
        x = np.asarray(metric.fn(c[rows, None], c[None, :], r), dtype=np.float64)
        if lo != 0.0:
            x = np.subtract(x, lo, out=out[rows])
        if hi - lo != 1.0:
            x = np.divide(x, hi - lo, out=out[rows])
        np.clip(x, 0.0, 1.0, out=out[rows])
        del x  # the metric's result is freed before the next block is evaluated
    return out


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
