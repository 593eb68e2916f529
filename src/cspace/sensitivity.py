"""Class-imbalance sensitivity of metrics.

The sensitivity of a metric at ratio r is the normalised volume confined
between its balanced surface (ratio 1:1) and its surface at ratio 1:r,
approximated by the midpoint rule on the shared grid:

    s = (1/t^2) * sum_ij |C1[i][j] - Cr[i][j]|

The 1/t^2 cell-area factor keeps the measure independent of the grid
resolution and bounded by the unit volume of the rescaled value space, so
s always lies in [0, 1).  A metric is *imbalance agnostic* when s vanishes
for every positive ratio; recall, tss and youden_j are (their closed forms
do not mention r at all, and their descriptors declare it as ``ratio_free``,
so their curves are exactly 0 without any evaluation).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientSamplesError, InvalidRatioError, InvalidToleranceError
from .metrics import MetricDescriptor, check_ratio
# build_surface is not called here; it stays a name of this module because
# perfbench/tracing.py wraps cspace.sensitivity.build_surface.
from .surface import DEFAULT_GRID, GridSpec, _distance, _rescaled, build_surface  # noqa: F401

__all__ = [
    "DEFAULT_AGNOSTIC_SCHEDULE",
    "DEFAULT_AGNOSTIC_TOL",
    "GrowthReport",
    "MAX_SCHEDULE_LENGTH",
    "RatioSchedule",
    "SensitivityCurve",
    "curve_is_agnostic",
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
            raise InvalidRatioError("ratio schedule must not be empty")
        for a, b in zip(rs, rs[1:]):
            if b <= a:
                raise InvalidRatioError(f"ratio schedule must be strictly increasing, got {a} then {b}")
        object.__setattr__(self, "ratios", rs)

    @classmethod
    def geometric(cls, start: float, stop: float, factor: float) -> "RatioSchedule":
        """Ratios start * factor**k while <= stop (stop included if hit exactly).

        Raises InvalidRatioError when the schedule would hold more than
        MAX_SCHEDULE_LENGTH ratios.
        """
        lo = check_ratio(start)
        hi = check_ratio(stop)
        f = float(factor)
        if not math.isfinite(f) or f <= 1.0:
            raise InvalidRatioError(f"geometric factor must be > 1, got {factor!r}")
        if hi < lo:
            raise InvalidRatioError(f"schedule stop {stop!r} must be >= start {start!r}")
        # Capped so that a ratio beyond the float range (inf) always ends the loop.
        bound = min(hi * (1.0 + 1e-12), sys.float_info.max)
        # log(bound / lo) / log(f) + 1 without forming bound / lo, which can
        # overflow.  Rounding can put it one off the loop's count when a
        # ratio lands within an ulp of the bound.
        length = math.floor((math.log(hi) - math.log(lo) + math.log1p(1e-12)) / math.log(f)) + 1
        if length > MAX_SCHEDULE_LENGTH:
            raise InvalidRatioError(
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
    """Sampled (ratio, sensitivity) pairs for one metric on one grid."""

    metric_id: str
    samples: tuple[tuple[float, float], ...]
    grid: GridSpec

    def __post_init__(self) -> None:
        samples = tuple((float(r), float(s)) for r, s in self.samples)
        for (ra, _), (rb, _) in zip(samples, samples[1:]):
            if rb < ra:
                raise ValueError(f"curve samples must be sorted ascending by ratio, got {ra} then {rb}")
        for r, s in samples:
            check_ratio(r)
            if not (0.0 <= s < 1.0):
                raise ValueError(f"sensitivity must lie in [0, 1), got {s!r} at r={r!r}")
            if r == 1.0 and s != 0.0:
                raise ValueError(f"sensitivity at r=1 must be exactly 0, got {s!r}")
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
    return _curve(metric, schedule, grid, None)


def _curve(
    metric: MetricDescriptor, schedule: RatioSchedule, grid: GridSpec, balanced: np.ndarray | None
) -> SensitivityCurve:
    """``sensitivity_curve``, against ``balanced`` as the metric's values at
    r = 1 on ``grid`` when the caller has them already."""
    if metric.ratio_free:
        samples = tuple((r, 0.0) for r in schedule)
    else:
        if balanced is None:
            balanced = _rescaled(metric, 1.0, grid)
        samples = tuple(
            (r, 0.0 if r == 1.0 else _mean_distance(balanced, metric, r, grid)) for r in schedule
        )
    return SensitivityCurve(metric_id=metric.id, samples=samples, grid=grid)


def _mean_distance(balanced: np.ndarray, metric: MetricDescriptor, r: float, grid: GridSpec) -> float:
    """mean |C1 - Cr|, reduced in the one t x t array that holds Cr.

    The array is freed on return, before the next ratio is evaluated.
    """
    values = _rescaled(metric, r, grid)
    return float(np.mean(_distance(balanced, values, out=values)))


def is_agnostic(
    metric: MetricDescriptor,
    schedule: RatioSchedule | None = None,
    grid: GridSpec = DEFAULT_GRID,
    tol: float = DEFAULT_AGNOSTIC_TOL,
) -> bool:
    """Sampled imbalance-agnosticism check.

    True agnosticism quantifies over *every* positive ratio; this check only
    samples the given schedule, so it is a finite approximation of that
    universally quantified property: a False result is conclusive, a True
    result certifies the schedule alone (up to ``tol``).
    """
    if schedule is None:
        schedule = DEFAULT_AGNOSTIC_SCHEDULE
    return curve_is_agnostic(sensitivity_curve(metric, schedule, grid), tol)


def curve_is_agnostic(curve: SensitivityCurve, tol: float = DEFAULT_AGNOSTIC_TOL) -> bool:
    """True when every sample of ``curve`` is at most ``tol``.

    Raises InvalidToleranceError unless ``tol`` is positive (NaN included).
    """
    if not (tol > 0.0):
        raise InvalidToleranceError(f"agnostic tolerance must be positive, got {tol!r}")
    return all(s <= tol for s in curve.values)


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


def log_growth_check(curve: SensitivityCurve, slack: float = 1e-12) -> GrowthReport:
    """Diagnose whether a curve grows like log r.

    Uses the samples at r >= 1; requires at least three distinct ratios there
    (InsufficientSamplesError otherwise).  ``slack`` absorbs floating-point
    noise in the comparisons.
    """
    seen: dict[float, float] = {}
    for r, s in curve.samples:
        if r >= 1.0 and r not in seen:
            seen[r] = s
    if len(seen) < 3:
        raise InsufficientSamplesError(
            f"log-growth diagnosis needs >= 3 distinct samples at r >= 1, got {len(seen)}"
        )
    rs = sorted(seen)
    ss = [seen[r] for r in rs]
    monotone = all(b >= a - slack for a, b in zip(ss, ss[1:]))
    slopes = tuple(
        (sb - sa) / (math.log(rb) - math.log(ra))
        for (ra, sa), (rb, sb) in zip(zip(rs, ss), zip(rs[1:], ss[1:]))
    )
    concave = all(b <= a + slack for a, b in zip(slopes, slopes[1:]))
    return GrowthReport(monotone=monotone, concave=concave, log_slopes=slopes)
