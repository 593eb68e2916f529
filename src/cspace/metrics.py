"""Binary-classification metrics on the relative confusion form.

A raw confusion matrix scales with sample size, but only relative frequencies
matter for evaluation.  Normalising the positive class to one unit and the
negative class to ``r`` units (imbalance 1:r) collapses every confusion matrix
to the relative form

    <tp, fn, tn, fp>  =  <tpr, 1 - tpr, r * tnr, r * (1 - tnr)>

so any deterministic metric becomes a function of ``(tpr, tnr, r)`` alone.
Two matrices with equal relative forms are *relatively identical*: they
describe the same performance on possibly different sample sizes.

That is why every evaluation rule here takes ``(tpr, tnr, r)``.  The module
holds a closed catalog of metrics in those coordinates:

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
precision at tpr=0, tnr=1), evaluation gives 0.0 instead of failing, which
keeps every metric a total function over the closed domain.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import CspaceError

__all__ = [
    "MetricDescriptor",
    "MetricFn",
    "fbeta",
    "get_metric",
    "list_metrics",
]

# Evaluation rule: (tpr, tnr, ratio) -> raw metric value.
# tpr and tnr are float64 arrays that broadcast to the block shape; ratio is
# a float.
MetricFn = Callable[[np.ndarray, np.ndarray, float], np.ndarray]

# Above this ratio hss and doolittle switch to forms divided through by
# powers of r, whose terms stay O(1); their plain forms overflow from about
# 1e103 (doolittle) and 9e307 (hss).  F-beta does the same once 1 + beta^2
# exceeds it.  Below it the plain forms are exact to the bit and cost
# nothing extra.
_LARGE_RATIO = 1e100


# Text and booleans, which float() takes, are not numbers here.
_NOT_NUMBERS = (str, bytes, bytearray, bool, np.bool_)


def _real(name: str, x) -> float:
    """``float(x)``; CspaceError unless ``x`` is a number."""
    try:
        if not isinstance(x, _NOT_NUMBERS):
            return float(x)
    except (TypeError, ValueError):
        pass
    raise CspaceError(f"{name} must be a number, got {x!r}")


def _positive_real(name: str, x) -> float:
    """``float(x)``; CspaceError unless ``x`` is a finite positive real number."""
    v = _real(name, x)
    if not math.isfinite(v) or v <= 0.0:
        raise CspaceError(f"{name} must be a finite positive real, got {x!r}")
    return v


def check_ratio(ratio: float) -> float:
    """Validate and return an imbalance ratio as a float."""
    return _positive_real("imbalance ratio", ratio)


# ---------------------------------------------------------------------------
# Evaluation rules
# ---------------------------------------------------------------------------


def _where_defined(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num/den with zero denominators mapped to 0.0.

    ``den`` must be a temporary of the full broadcast shape: when no entry is
    0 the quotient is written into it and it is returned.
    """
    # The catalog's denominators are non-negative and, on cell-centred grids,
    # positive at ordinary ratios: one reduction then shows there is nothing
    # to map, and the division needs neither a mask nor an array of its own.
    # Any other input takes the masked path, the only one where a zero
    # denominator can raise a divide-by-zero or invalid warning.
    if den.min() > 0.0:
        return np.divide(num, den, out=den)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.divide(num, den)
    return np.where(den == 0.0, 0.0, out)


# The rules below build each result in the first array of the full broadcast
# shape that an expression makes, and apply every later step to it in place:
# the same operations in the same order as the plain expression, so the same
# bits, with one full-shape temporary where the expression makes several.


def _accuracy(tpr, tnr, r):
    acc = tpr + r * tnr
    acc /= 1.0 + r
    return acc


def _precision(tpr, tnr, r):
    # 0/0 at the all-negative corner (tpr=0, tnr=1); 0.0 there is the limit
    # of nearby values along tpr -> 0.
    return _where_defined(tpr, tpr + r * (1.0 - tnr))


def _recall(tpr, tnr, r):
    return tpr


def _make_fbeta(beta: float) -> MetricFn:
    b2 = beta * beta
    c = 1.0 + b2

    def fn(tpr, tnr, r):
        if c > _LARGE_RATIO:
            # Numerator and denominator divided by 1 + beta^2; the plain
            # denominator overflows once beta^2 + r nears the float limit.
            den = tpr + (r / c) * (1.0 - tnr) + (b2 / c) * (1.0 - tpr)
            return _where_defined(tpr, den)
        num = c * tpr
        den = num + r * (1.0 - tnr)
        den += b2 * (1.0 - tpr)
        return _where_defined(num, den)

    return fn


def _tss(tpr, tnr, r):
    return tpr + tnr - 1.0


# Youden's J, (tp*tn - fn*fp)/((tp+fn)*(fp+tn)), reduces to tpr + tnr - 1 for
# binary problems; sharing the function object makes the identity bitwise.
_youden_j = _tss


def _hss(tpr, tnr, r):
    # Denominator is strictly positive on [0,1]^2 for every r > 0.
    if r > _LARGE_RATIO:
        # Numerator and denominator divided by r.
        return 2.0 * (tpr + tnr - 1.0) / ((1.0 - tpr) / r + tnr + tpr + r * (1.0 - tnr))
    # 2.0 * r * (tpr + tnr - 1.0), and multiplication commutes bitwise.
    num = tpr + tnr
    num -= 1.0
    num *= 2.0 * r
    den = (1.0 - tpr) + r * tnr
    den += r * tpr
    den += (r * r) * (1.0 - tnr)
    return np.divide(num, den, out=den)


def _gilbert(tpr, tnr, r):
    # tp / (tp + fp + fn); denominator equals 1 + r*(1 - tnr) >= 1.
    den = tpr + r * (1.0 - tnr)
    den += 1.0 - tpr
    return np.divide(tpr, den, out=den)


def _doolittle(tpr, tnr, r):
    # (tp*tn - fn*fp)^2 / (p*n*p'*n'); 0/0 at the all-negative and
    # all-positive corners.
    if r > _LARGE_RATIO:
        # tp*tn - fn*fp = r*(tpr + tnr - 1); numerator and denominator
        # divided by r^2.
        num = (tpr + tnr - 1.0) ** 2 / r
        den = (tpr / r + (1.0 - tnr)) * ((1.0 - tpr) / r + tnr)
        return _where_defined(num, den)
    tp, fn, tn, fp = tpr, 1.0 - tpr, r * tnr, r * (1.0 - tnr)
    num = tp * tn
    tmp = fn * fp
    num -= tmp
    num **= 2
    # r * (tp + fp) * (fn + tn), and multiplication commutes bitwise; fn + tn
    # reuses the block that held fn * fp.
    den = tp + fp
    den *= r
    den *= np.add(fn, tn, out=tmp)
    return _where_defined(num, den)


@dataclass(frozen=True)
class MetricDescriptor:
    """A named metric: evaluation rule, theoretical range, catalog flags.

    ``theoretical_range`` is the closed interval of raw values the metric can
    attain over the open domain; surfaces rescale against it.  ``extension``
    marks entries beyond the core seven.  ``ratio_free`` declares that ``fn``
    never reads the ratio, so every surface of the metric is its balanced
    one and its sensitivity is exactly 0 without evaluating anything.
    """

    id: str
    theoretical_range: tuple[float, float]
    fn: MetricFn = field(repr=False, compare=False)
    extension: bool = False
    ratio_free: bool = False

    def __post_init__(self) -> None:
        check_interval("theoretical_range", self.theoretical_range)


def check_interval(name: str, interval) -> None:
    """Raise CspaceError unless ``interval`` is two finite numbers ``lo < hi``."""
    try:
        lo, hi = interval
        ok = all(not isinstance(v, _NOT_NUMBERS) and math.isfinite(v) for v in (lo, hi)) and lo < hi
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise CspaceError(f"{name} must be two finite numbers with lo < hi, got {interval!r}")


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
    """Look up a catalog metric by id; raises CspaceError otherwise."""
    try:
        return _BY_ID[metric_id]
    except KeyError:
        known = ", ".join(m.id for m in _CATALOG)
        raise CspaceError(f"unknown metric {metric_id!r} (known: {known})") from None


def fbeta(beta: float = 1.0) -> MetricDescriptor:
    """A parameterised F-beta descriptor; ``fbeta(1)`` coincides with ``f1``."""
    b = _positive_real("beta", beta)
    if not math.isfinite(b * b):
        limit = math.sqrt(sys.float_info.max)
        raise CspaceError(f"beta must be at most {limit:.4g}, where beta**2 stays finite, got {beta!r}")
    return MetricDescriptor(f"fbeta({b:g})", (0.0, 1.0), _make_fbeta(b))
