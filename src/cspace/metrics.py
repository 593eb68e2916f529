"""Binary-classification metrics on the relative confusion form.

A raw confusion matrix scales with sample size, but only relative frequencies
matter for evaluation.  Normalising the positive class to one unit and the
negative class to ``r`` units (imbalance 1:r) collapses every confusion matrix
to the relative form

    <tp, fn, tn, fp>  =  <tpr, 1 - tpr, r * tnr, r * (1 - tnr)>

so any deterministic metric becomes a function of ``(tpr, tnr, r)`` alone.
Two matrices with equal relative forms are *relatively identical*: they
describe the same performance on possibly different sample sizes.

This module defines that representation plus a closed catalog of metrics in
``(tpr, tnr, r)`` coordinates:

==========  =======================================================  ========
id          closed form (p = 1, n = r)                               range
==========  =======================================================  ========
accuracy    (tpr + r*tnr) / (1 + r)                                  [0, 1]
precision   tpr / (tpr + r*(1 - tnr))                                [0, 1]
recall      tpr                                                      [0, 1]
f1          2*tpr / (2*tpr + r*(1 - tnr) + (1 - tpr))                [0, 1]
tss         tpr + tnr - 1                                            [-1, 1]
hss         2*r*(tpr + tnr - 1) /
            ((1 - tpr) + r*tnr + r*tpr + r^2*(1 - tnr))              [-1, 1]
youden_j    tpr + tnr - 1   (binary case coincides with tss)         [-1, 1]
gilbert     tpr / (tpr + r*(1 - tnr) + (1 - tpr))                    [0, 1]
doolittle   (tp*tn - fn*fp)^2 / (p*n*(tp + fp)*(fn + tn))            [0, 1]
==========  =======================================================  ========

``gilbert`` (the classic success ratio tp/(tp+fp+fn)) and ``doolittle`` (the
squared association index) are flagged as extensions of the core seven.

Where a formula is indeterminate (0/0 at a corner of the unit square, e.g.
precision at tpr=0, tnr=1), evaluation substitutes the metric's
``undefined_policy`` value instead of failing, which keeps every metric a
total function over the closed domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DegenerateClassError, InvalidRatioError, UnknownMetricError

__all__ = [
    "CountConfusion",
    "MetricDescriptor",
    "MetricFn",
    "RelativePerformance",
    "evaluate",
    "fbeta",
    "get_metric",
    "list_metrics",
    "relatively_identical",
    "to_relative",
]

# Evaluation rule: (tpr, tnr, ratio, undefined_policy) -> raw metric value.
# tpr/tnr may be float64 scalars or broadcastable arrays; ratio is a scalar.
# A returned array that owns its data belongs to the caller, which may
# rescale it in place, so a rule must not keep a reference to its result.
MetricFn = Callable[[np.ndarray, np.ndarray, float, float], np.ndarray]

# Above this ratio hss and doolittle switch to forms divided through by
# powers of r, whose terms stay O(1); their plain forms overflow from about
# 1e103 (doolittle) and 9e307 (hss).  Below it the plain forms are exact to
# the bit and cost nothing extra.
_LARGE_RATIO = 1e100


def check_ratio(ratio: float) -> float:
    """Validate and return an imbalance ratio as a float.

    Raises InvalidRatioError unless the ratio is a finite positive real.
    """
    try:
        r = float(ratio)
    except (TypeError, ValueError) as exc:
        raise InvalidRatioError(f"imbalance ratio must be a number, got {ratio!r}") from exc
    if not math.isfinite(r) or r <= 0.0:
        raise InvalidRatioError(f"imbalance ratio must be a finite positive real, got {ratio!r}")
    return r


def _check_rate(value: float, name: str) -> float:
    v = float(value)
    if not math.isfinite(v) or v < 0.0 or v > 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return v


@dataclass(frozen=True)
class RelativePerformance:
    """A point (tpr, tnr) of the base contingency space at imbalance 1:ratio.

    The base contingency space is ROC space flipped horizontally: x = tnr
    instead of fpr, so the perfect model sits at (1, 1) and the origin (0, 0)
    is maximally far from it.
    """

    tpr: float
    tnr: float
    ratio: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "tpr", _check_rate(self.tpr, "tpr"))
        object.__setattr__(self, "tnr", _check_rate(self.tnr, "tnr"))
        object.__setattr__(self, "ratio", check_ratio(self.ratio))

    @property
    def relative_form(self) -> tuple[float, float, float, float]:
        """The implied relative counts (tp, fn, tn, fp) with p = 1, n = ratio."""
        return (
            self.tpr,
            1.0 - self.tpr,
            self.ratio * self.tnr,
            self.ratio * (1.0 - self.tnr),
        )


@dataclass(frozen=True)
class CountConfusion:
    """Raw integer confusion counts for a binary problem."""

    tp: int
    fn: int
    tn: int
    fp: int

    def __post_init__(self) -> None:
        for name in ("tp", "fn", "tn", "fp"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {v!r}")

    @property
    def p(self) -> int:
        """Number of positive instances."""
        return self.tp + self.fn

    @property
    def n(self) -> int:
        """Number of negative instances."""
        return self.tn + self.fp


def to_relative(c: CountConfusion) -> RelativePerformance:
    """Convert raw counts to the relative form (tpr, tnr, ratio = n/p).

    Raises DegenerateClassError when either class is empty; rates and the
    imbalance ratio are undefined then.
    """
    if c.p < 1 or c.n < 1:
        raise DegenerateClassError(
            f"conversion needs at least one instance per class, got p={c.p}, n={c.n}"
        )
    return RelativePerformance(tpr=c.tp / c.p, tnr=c.tn / c.n, ratio=c.n / c.p)


def relatively_identical(a: CountConfusion, b: CountConfusion) -> bool:
    """True iff the two matrices have component-wise equal relative forms."""
    ra, rb = to_relative(a), to_relative(b)
    return ra.relative_form == rb.relative_form


# ---------------------------------------------------------------------------
# Evaluation rules
# ---------------------------------------------------------------------------


def _where_defined(num: np.ndarray, den: np.ndarray, policy: float) -> np.ndarray:
    """num/den with zero denominators mapped to the undefined policy."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.divide(num, den)
    return np.where(den == 0.0, policy, out)


def _accuracy(tpr, tnr, r, policy):
    return (tpr + r * tnr) / (1.0 + r)


def _precision(tpr, tnr, r, policy):
    # 0/0 at the all-negative corner (tpr=0, tnr=1); the policy is the limit
    # of nearby values along tpr -> 0.
    return _where_defined(tpr, tpr + r * (1.0 - tnr), policy)


def _recall(tpr, tnr, r, policy):
    return tpr


def _make_fbeta(beta: float) -> MetricFn:
    b2 = beta * beta
    c = 1.0 + b2

    def fn(tpr, tnr, r, policy):
        num = c * tpr
        den = c * tpr + r * (1.0 - tnr) + b2 * (1.0 - tpr)
        return _where_defined(num, den, policy)

    return fn


def _tss(tpr, tnr, r, policy):
    return tpr + tnr - 1.0


# Youden's J, (tp*tn - fn*fp)/((tp+fn)*(fp+tn)), reduces to tpr + tnr - 1 for
# binary problems; sharing the function object makes the identity bitwise.
_youden_j = _tss


def _hss(tpr, tnr, r, policy):
    # Denominator is strictly positive on [0,1]^2 for every r > 0.
    if r > _LARGE_RATIO:
        # Numerator and denominator divided by r.
        return 2.0 * (tpr + tnr - 1.0) / ((1.0 - tpr) / r + tnr + tpr + r * (1.0 - tnr))
    num = 2.0 * r * (tpr + tnr - 1.0)
    den = (1.0 - tpr) + r * tnr + r * tpr + (r * r) * (1.0 - tnr)
    return num / den


def _gilbert(tpr, tnr, r, policy):
    # tp / (tp + fp + fn); denominator equals 1 + r*(1 - tnr) >= 1.
    return tpr / (tpr + r * (1.0 - tnr) + (1.0 - tpr))


def _doolittle(tpr, tnr, r, policy):
    # (tp*tn - fn*fp)^2 / (p*n*p'*n'); 0/0 at the all-negative and
    # all-positive corners.
    if r > _LARGE_RATIO:
        # tp*tn - fn*fp = r*(tpr + tnr - 1); numerator and denominator
        # divided by r^2.
        num = (tpr + tnr - 1.0) ** 2 / r
        den = (tpr / r + (1.0 - tnr)) * ((1.0 - tpr) / r + tnr)
        return _where_defined(num, den, policy)
    tp, fn, tn, fp = tpr, 1.0 - tpr, r * tnr, r * (1.0 - tnr)
    num = (tp * tn - fn * fp) ** 2
    den = r * (tp + fp) * (fn + tn)
    return _where_defined(num, den, policy)


@dataclass(frozen=True)
class MetricDescriptor:
    """A named metric: evaluation rule, theoretical range, undefined policy.

    ``theoretical_range`` is the closed interval of raw values the metric can
    attain over the open domain; surfaces rescale against it.  ``extension``
    marks entries beyond the core seven.  ``ratio_free`` declares that ``fn``
    never reads the ratio, so every surface of the metric is its balanced
    one and its sensitivity is exactly 0 without evaluating anything.
    """

    id: str
    theoretical_range: tuple[float, float]
    fn: MetricFn = field(repr=False, compare=False)
    undefined_policy: float = 0.0
    extension: bool = False
    ratio_free: bool = False

    def __post_init__(self) -> None:
        lo, hi = self.theoretical_range
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"theoretical_range must satisfy lo < hi, got {self.theoretical_range!r}")


_CATALOG: tuple[MetricDescriptor, ...] = (
    MetricDescriptor("accuracy", (0.0, 1.0), _accuracy),
    MetricDescriptor("precision", (0.0, 1.0), _precision),
    MetricDescriptor("recall", (0.0, 1.0), _recall, ratio_free=True),
    MetricDescriptor("f1", (0.0, 1.0), _make_fbeta(1.0)),
    MetricDescriptor("tss", (-1.0, 1.0), _tss, ratio_free=True),
    MetricDescriptor("hss", (-1.0, 1.0), _hss),
    MetricDescriptor("youden_j", (-1.0, 1.0), _youden_j, ratio_free=True),
    MetricDescriptor("gilbert", (0.0, 1.0), _gilbert, extension=True),
    MetricDescriptor("doolittle", (0.0, 1.0), _doolittle, extension=True),
)

_BY_ID = {m.id: m for m in _CATALOG}


def list_metrics() -> tuple[MetricDescriptor, ...]:
    """The full metric catalog in stable order (core seven, then extensions)."""
    return _CATALOG


def get_metric(metric_id: str) -> MetricDescriptor:
    """Look up a catalog metric by id; raises UnknownMetricError otherwise."""
    try:
        return _BY_ID[metric_id]
    except KeyError:
        known = ", ".join(m.id for m in _CATALOG)
        raise UnknownMetricError(f"unknown metric {metric_id!r} (known: {known})") from None


def fbeta(beta: float = 1.0) -> MetricDescriptor:
    """A parameterised F-beta descriptor; ``fbeta(1)`` coincides with ``f1``."""
    b = float(beta)
    if not math.isfinite(b) or b <= 0.0:
        raise ValueError(f"beta must be a finite positive real, got {beta!r}")
    return MetricDescriptor(f"fbeta({b:g})", (0.0, 1.0), _make_fbeta(b))


def evaluate(metric: MetricDescriptor, x: RelativePerformance) -> float:
    """Raw metric value at a point of the base contingency space.

    Indeterminate points resolve to ``metric.undefined_policy``; evaluation
    never fails on a valid RelativePerformance.
    """
    return float(metric.fn(np.float64(x.tpr), np.float64(x.tnr), x.ratio, metric.undefined_policy))
