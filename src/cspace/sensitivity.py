"""Class-imbalance sensitivity of metrics.

The sensitivity of a metric at ratio r is the normalised volume confined
between its balanced surface (ratio 1:1) and its surface at ratio 1:r,
approximated by the midpoint rule on the shared grid:

    s = (1/t^2) * sum_ij |C1[i][j] - Cr[i][j]|

The 1/t^2 cell-area factor keeps the measure independent of the grid
resolution and bounded by the unit volume of the rescaled value space, so
s always lies in [0, 1].  A metric is *imbalance agnostic* when s vanishes
for every positive ratio; recall, tss and youden_j are (their closed forms
do not mention r at all, and their descriptors declare it as ``ratio_free``,
so their curves are exactly 0 without any evaluation).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import CspaceError
from .metrics import MetricDescriptor, _real, check_ratio
from .surface import _BLOCK_CELLS, DEFAULT_GRID, GridSpec, _rescale_rows, build_surface

__all__ = [
    "DEFAULT_AGNOSTIC_SCHEDULE",
    "DEFAULT_AGNOSTIC_TOL",
    "GrowthReport",
    "MAX_SCHEDULE_LENGTH",
    "RatioSchedule",
    "SensitivityCurve",
    "is_agnostic",
    "log_growth_check",
    "sensitivity",
    "sensitivity_curve",
]

DEFAULT_AGNOSTIC_TOL = 1e-12

# The most ratios RatioSchedule.geometric generates; a factor close to 1 is
# refused from its computed length, before any ratio is made.
MAX_SCHEDULE_LENGTH = 10_000


def _scaled_power(x: float, f: float, k: int) -> float:
    """``x * f**k``, or ``inf`` when that is beyond the float range.

    Where ``f**k`` alone overflows, the power is applied in halves, so a
    small ``x`` still reaches the finite values above it.
    """
    try:
        return x * f**k
    except OverflowError:
        return _scaled_power(_scaled_power(x, f, k // 2), f, k - k // 2)


@dataclass(frozen=True)
class RatioSchedule:
    """A strictly increasing list of positive imbalance ratios."""

    ratios: tuple[float, ...]

    def __post_init__(self) -> None:
        rs = tuple(check_ratio(r) for r in self.ratios)
        if not rs:
            raise CspaceError("ratio schedule must not be empty")
        for a, b in zip(rs, rs[1:]):
            if b <= a:
                raise CspaceError(f"ratio schedule must be strictly increasing, got {a} then {b}")
        object.__setattr__(self, "ratios", rs)

    @classmethod
    def geometric(cls, start: float, stop: float, factor: float) -> "RatioSchedule":
        """Ratios start * factor**k while <= stop (stop included if hit exactly).

        Raises CspaceError when the schedule would hold more than
        MAX_SCHEDULE_LENGTH ratios.
        """
        lo = check_ratio(start)
        hi = check_ratio(stop)
        f = _real("geometric factor", factor)
        if not math.isfinite(f) or f <= 1.0:
            raise CspaceError(f"geometric factor must be > 1, got {factor!r}")
        if hi < lo:
            raise CspaceError(f"schedule stop {stop!r} must be >= start {start!r}")
        # Capped so that a ratio beyond the float range (inf) always ends the loop.
        bound = min(hi * (1.0 + 1e-12), sys.float_info.max)
        # log(bound / lo) / log(f) + 1 without forming bound / lo, which can
        # overflow.  Rounding can put it one off the loop's count when a
        # ratio lands within an ulp of the bound.
        length = math.floor((math.log(hi) - math.log(lo) + math.log1p(1e-12)) / math.log(f)) + 1
        if length > MAX_SCHEDULE_LENGTH:
            raise CspaceError(
                f"geometric schedule {start!r}:{stop!r}:{factor!r} has {length} ratios, "
                f"more than {MAX_SCHEDULE_LENGTH}"
            )
        out: list[float] = []
        k = 0
        while (v := _scaled_power(lo, f, k)) <= bound:
            out.append(v)
            k += 1
        return cls(tuple(out))

    def __iter__(self):
        return iter(self.ratios)

    def __len__(self) -> int:
        return len(self.ratios)


DEFAULT_AGNOSTIC_SCHEDULE = RatioSchedule((2.0, 5.0, 10.0, 49.0, 100.0, 1000.0))


@dataclass(frozen=True)
class SensitivityCurve:
    """Sampled (ratio, sensitivity) pairs for one metric; the ratios follow
    RatioSchedule's rule (at least one, strictly increasing)."""

    metric_id: str
    samples: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        samples = tuple((_real("curve ratio", r), _real("sensitivity", s)) for r, s in self.samples)
        RatioSchedule(tuple(r for r, _ in samples))
        for r, s in samples:
            if not (0.0 <= s <= 1.0):
                raise CspaceError(f"sensitivity must lie in [0, 1], got {s!r} at r={r!r}")
            if r == 1.0 and s != 0.0:
                raise CspaceError(f"sensitivity at r=1 must be exactly 0, got {s!r}")
        object.__setattr__(self, "samples", samples)

    @property
    def ratios(self) -> tuple[float, ...]:
        return tuple(r for r, _ in self.samples)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(s for _, s in self.samples)


def sensitivity(metric: MetricDescriptor, ratio: float, grid: GridSpec = DEFAULT_GRID) -> float:
    """Normalised volume between the balanced surface and the ratio-r surface."""
    return sensitivity_curve(metric, RatioSchedule((ratio,)), grid).values[0]


def sensitivity_curve(
    metric: MetricDescriptor, schedule: RatioSchedule, grid: GridSpec = DEFAULT_GRID
) -> SensitivityCurve:
    """One sensitivity sample per schedule entry.

    The balanced surface is built once and reused across the schedule; a
    ratio-free metric gives exactly 0 at every ratio without evaluation.
    """
    if metric.ratio_free:
        samples = tuple((r, 0.0) for r in schedule)
    else:
        leaves = _Leaves(metric, grid, build_surface(metric, 1.0, grid).values)
        samples = tuple((r, 0.0 if r == 1.0 else leaves.mean(r)) for r in schedule)
    return SensitivityCurve(metric_id=metric.id, samples=samples)


def _pairwise(n: int, leaf):
    """``leaf(m)`` of each leaf of numpy's pairwise sum over n values, in
    order, added up that sum's tree.

    numpy sums more than 128 contiguous float64 values by splitting them at
    ``n//2`` rounded down to a multiple of 8 and adding the two halves' sums.
    Leaves here hold at most _BLOCK_CELLS values, and leaf sums taken with
    ``np.add.reduce`` and added up the same tree have ``np.sum``'s bits; with
    ``leaf = lambda m: [m]`` the result lists the leaf sizes.  A module-level
    function: a closure calling itself would form a reference cycle and keep
    a curve's arrays alive until the cycle collector runs.
    """
    if n <= _BLOCK_CELLS:
        return leaf(n)
    half = n // 2 - n // 2 % 8
    return _pairwise(half, leaf) + _pairwise(n - half, leaf)


class _Leaves:
    """One curve's ``mean |C1 - Cr|`` per ratio, without a t x t ``Cr`` array.

    The flat grid is cut into the leaves of ``_pairwise``.  Each leaf's rows
    of ``Cr`` are evaluated into one reused buffer, after the cells carried
    over from the last leaf's partial row, so no cell is evaluated twice;
    ``|C1 - Cr|`` overwrites the leaf there and is summed.  Every view a leaf
    needs is made once per curve.
    """

    def __init__(self, metric: MetricDescriptor, grid: GridSpec, balanced: np.ndarray) -> None:
        t, n = grid.resolution, balanced.size
        self.metric, self.c, self.n = metric, grid.centers(), n
        buf, c1 = np.empty(_BLOCK_CELLS + t), balanced.reshape(-1)
        # Per leaf: the rows to evaluate (None when the carried cells cover
        # it) and their place in buf, the leaf's cells in buf and in C1, and
        # the cells to carry to the front of buf (None when none are left).
        self.plan = []
        done = have = 0  # cells summed; cells evaluated beyond them, at the front of buf
        for size in _pairwise(n, lambda m: [m]):
            rows = block = carry = None
            if have < size:
                first, count = (done + have) // t, (size - have + t - 1) // t
                rows, block = slice(first, first + count), buf[have : have + count * t].reshape(count, t)
                have += count * t
            have -= size
            if have:
                carry = (buf[:have], buf[size : size + have])
            self.plan.append((rows, block, buf[:size], c1[done : done + size], carry))
            done += size
        # The metric's last result is held until the next exists: freed
        # first, its pages can lie free at the top of the heap, where glibc
        # hands them back for the next block to fault in again.
        self.held = None

    def mean(self, r: float) -> float:
        sums = []
        for rows, block, cells, c1, carry in self.plan:
            if rows is not None:
                self.held = _rescale_rows(self.metric, r, self.c, rows, block)
            np.subtract(c1, cells, out=cells)
            sums.append(float(np.add.reduce(np.abs(cells, out=cells))))
            if carry is not None:
                np.copyto(*carry)
        leaves = iter(sums)
        return _pairwise(self.n, lambda m: next(leaves)) / self.n


def is_agnostic(
    metric: MetricDescriptor,
    schedule: RatioSchedule = DEFAULT_AGNOSTIC_SCHEDULE,
    grid: GridSpec = DEFAULT_GRID,
    tol: float = DEFAULT_AGNOSTIC_TOL,
) -> bool:
    """Sampled imbalance-agnosticism check.

    True agnosticism quantifies over *every* positive ratio; this check only
    samples the given schedule, so it is a finite approximation of that
    universally quantified property: a False result is conclusive, a True
    result certifies the schedule alone (up to ``tol``, inclusive).
    """
    check_tolerance(tol)  # before the curve is evaluated
    return max(sensitivity_curve(metric, schedule, grid).values) <= tol


def check_tolerance(tol: float) -> None:
    """Raise CspaceError unless an agnostic tolerance is positive (NaN included)."""
    if not (_real("agnostic tolerance", tol) > 0.0):
        raise CspaceError(f"agnostic tolerance must be positive, got {tol!r}")


@dataclass(frozen=True)
class GrowthReport:
    """Monotonicity/concavity diagnostic for a sensitivity curve.

    ``concave`` means the slopes of s against log r are non-increasing; on a
    geometric schedule that is exactly "increments per multiplicative step do
    not grow", the signature of log-like growth.
    """

    monotone: bool
    concave: bool
    log_slopes: tuple[float, ...]

    @property
    def logarithmic_like(self) -> bool:
        return self.monotone and self.concave


# Absorbs floating-point noise in log_growth_check's comparisons.
_GROWTH_SLACK = 1e-12


def log_growth_check(curve: SensitivityCurve) -> GrowthReport:
    """Diagnose whether a curve grows like log r.

    Uses the samples at r >= 1, whose ratios are distinct and ascending as
    in every curve; requires at least three of them (CspaceError otherwise).
    """
    samples = [(r, s) for r, s in curve.samples if r >= 1.0]
    if len(samples) < 3:
        raise CspaceError(
            f"log-growth diagnosis needs >= 3 distinct samples at r >= 1, got {len(samples)}"
        )
    ss = [s for _, s in samples]
    monotone = all(b >= a - _GROWTH_SLACK for a, b in zip(ss, ss[1:]))
    slopes = tuple(
        (sb - sa) / (math.log(rb) - math.log(ra)) for (ra, sa), (rb, sb) in zip(samples, samples[1:])
    )
    concave = all(b <= a + _GROWTH_SLACK for a, b in zip(slopes, slopes[1:]))
    return GrowthReport(monotone=monotone, concave=concave, log_slopes=slopes)
