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

import contextlib
import math
import mmap
from dataclasses import InitVar, dataclass

import numpy as np

from .errors import CspaceError
from .metrics import MetricDescriptor, check_interval, check_ratio

__all__ = [
    "DEFAULT_GRID",
    "DEFAULT_RESOLUTION",
    "GridSpec",
    "MetricSurface",
    "build_surface",
]

DEFAULT_RESOLUTION = 256


@dataclass(frozen=True)
class GridSpec:
    """A uniform t x t sampling grid with cell-center coordinates."""

    resolution: int

    def __post_init__(self) -> None:
        t = self.resolution
        if not isinstance(t, int) or isinstance(t, bool) or t < 2:
            raise CspaceError(f"grid resolution must be an integer >= 2, got {t!r}")

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
    ``values`` must be integers or floats as one array: text, booleans and
    objects are refused, but a list that mixes booleans with floats becomes
    a float array and is taken.
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
        arr = self.values
        if not _owned:
            try:
                arr = np.array(arr, copy=True)
            except ValueError as exc:  # a ragged nesting
                raise CspaceError(f"surface values must be one array of numbers ({exc})") from exc
            if arr.dtype.kind not in "iuf":
                raise CspaceError(f"surface values must be numbers, got an array of {arr.dtype}")
            arr = arr.astype(np.float64, copy=False)
        if arr.shape != (t, t):
            raise CspaceError(f"values must have shape ({t}, {t}), got {arr.shape}")
        # NaN fails both comparisons.
        if not (arr.min() >= 0.0 and arr.max() <= 1.0):
            raise CspaceError("surface values must lie in [0, 1]")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "ratio", check_ratio(self.ratio))
        check_interval("rescale_interval", self.rescale_interval)


def build_surface(
    metric: MetricDescriptor, ratio: float, grid: GridSpec = DEFAULT_GRID
) -> MetricSurface:
    """Evaluate a metric over the grid at the given ratio and rescale.

    Deterministic: identical inputs produce bit-identical value matrices.
    Raises CspaceError for a ratio that is not a finite positive real.
    """
    r = check_ratio(ratio)
    t, c = grid.resolution, grid.centers()
    values = _matrix(t)
    step = max(1, _BLOCK_CELLS // t)
    for start in range(0, t, step):
        rows = slice(start, start + step)
        # The metric's result is freed before the next block is evaluated.
        _rescale_rows(metric, r, c, rows, values[rows])
    return MetricSurface(
        metric_id=metric.id,
        ratio=r,
        grid=grid,
        values=values,
        rescale_interval=metric.theoretical_range,
        _owned=True,
    )


# A t x t matrix of at least this many bytes (t >= 725) gets a memory map of
# its own where huge pages can be asked for (Linux).
_MAPPED_BYTES = 1 << 22


def _matrix(t: int) -> np.ndarray:
    """A fresh t x t float64 matrix, as uninitialised as ``np.empty((t, t))``.

    From _MAPPED_BYTES up it gets a private anonymous map, marked for huge
    pages and unmapped with the last array on it.  glibc would cut it from
    the heap once its mmap threshold has risen past its size, and a small
    block still held above it would keep its pages there as a resident hole:
    the next allocation of that size would then fault no page or all of
    them, depending on where that small block fell.
    """
    if 8 * t * t < _MAPPED_BYTES or not hasattr(mmap, "MADV_HUGEPAGE"):
        return np.empty((t, t))
    buf = mmap.mmap(-1, 8 * t * t, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    with contextlib.suppress(OSError):  # a kernel built without huge pages refuses the advice
        buf.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(buf).reshape(t, t)


# Metrics are evaluated this many grid cells at a time (whole rows, at least
# one), so their temporaries stay a small fixed size at every resolution.
_BLOCK_CELLS = 2**15


def _rescale_rows(
    metric: MetricDescriptor, r: float, c: np.ndarray, rows: slice, out: np.ndarray
) -> np.ndarray:
    """Write the rescaled and clipped values of grid rows ``rows`` (at the
    cell centers ``c``) into ``out`` and return the metric's own result.

    The first rescaling step reads the metric's result and writes into
    ``out``, so a scalar, a view or a read-only result is never written.
    Steps that are the identity for a ``[0, 1]`` range are skipped, which
    leaves every bit as it was.  Where ``hi - lo`` is a power of two, the
    division is a multiplication by its exact reciprocal: both round the
    same real number, so the bits are the same.
    """
    lo, hi = metric.theoretical_range
    raw = np.asarray(metric.fn(c[rows, None], c[None, :], r), dtype=np.float64)
    x = raw
    if lo != 0.0:
        x = np.subtract(x, lo, out=out)
    if hi - lo != 1.0:
        if math.frexp(hi - lo)[0] == 0.5 and math.isfinite(1.0 / (hi - lo)):
            x = np.multiply(x, 1.0 / (hi - lo), out=out)
        else:
            x = np.divide(x, hi - lo, out=out)
    x.clip(0.0, 1.0, out=out)
    return raw
