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


def _one_block(grid: GridSpec) -> bool:
    """True when one block of ``_blocks`` covers the whole grid."""
    return grid.resolution**2 <= _BLOCK_CELLS


def _blocks(metric: MetricDescriptor, r: float, grid: GridSpec):
    """``(rows, values)`` for consecutive row slices that cover the grid:
    ``clip((raw - lo) / (hi - lo), 0, 1)`` at ratio ``r`` on those rows, as a
    fresh writeable C-contiguous array.

    The generator keeps no reference to a block it has yielded, so a caller
    that drops its own frees the block before the next one is evaluated.
    """
    t = grid.resolution
    c = grid.centers()
    step = max(1, _BLOCK_CELLS // t)
    for start in range(0, t, step):
        rows = slice(start, min(start + step, t))
        tpr = c[rows, None]
        shape = (len(tpr), t)
        yield rows, _rescale(metric.fn(tpr, c[None, :], r), shape, metric)


def _rescale(raw, shape: tuple[int, int], metric: MetricDescriptor) -> np.ndarray:
    """``clip((raw - lo) / (hi - lo), 0, 1)`` over ``shape`` for the metric's
    range ``[lo, hi]``.

    The metric's result is rescaled in place when it is a writeable
    C-contiguous float64 array of that shape and of its own; otherwise the
    rescaling makes one.  Steps that are the identity for a ``[0, 1]`` range
    are skipped, which leaves every bit as it was.
    """
    lo, hi = metric.theoretical_range
    if (
        isinstance(raw, np.ndarray)
        and raw.dtype == np.float64
        and raw.shape == shape
        and raw.flags.c_contiguous
        and raw.flags.writeable
        and raw.flags.owndata
    ):
        out = raw
    else:
        out = np.array(np.broadcast_to(np.asarray(raw, dtype=np.float64), shape))
    if lo != 0.0:
        np.subtract(out, lo, out=out)
    if hi - lo != 1.0:
        np.divide(out, hi - lo, out=out)
    return np.clip(out, 0.0, 1.0, out=out)


def _rescaled(metric: MetricDescriptor, r: float, grid: GridSpec) -> np.ndarray:
    """The blocks of ``_blocks`` as one fresh writeable t x t array: the
    block itself when one covers the grid."""
    if _one_block(grid):
        return next(_blocks(metric, r, grid))[1]
    t = grid.resolution
    out = np.empty((t, t))
    for rows, block in _blocks(metric, r, grid):
        out[rows] = block
        del block  # freed before the next block is evaluated
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
