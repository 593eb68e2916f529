"""Shared test oracles, deliberately independent of the library internals."""

from __future__ import annotations

import re
from decimal import Decimal, localcontext

import numpy as np

from cspace import build_surface


def metric_from_counts(metric_id: str, tp: float, fn: float, tn: float, fp: float) -> float:
    """Raw-count metric formulas, written straight from their definitions.

    This is the reference oracle for the closed forms in cspace.metrics; it
    shares no code with them.  Indeterminate 0/0 points return 0.0, matching
    the library's undefined policy.
    """
    p = tp + fn
    n = tn + fp
    if metric_id == "accuracy":
        return (tp + tn) / (p + n)
    if metric_id == "precision":
        return tp / (tp + fp) if tp + fp != 0 else 0.0
    if metric_id == "recall":
        return tp / p
    if metric_id == "f1":
        if tp + fp == 0:
            pre = 0.0
        else:
            pre = tp / (tp + fp)
        rec = tp / p
        return 2.0 * (pre * rec) / (pre + rec) if pre + rec != 0 else 0.0
    if metric_id == "tss":
        return tp / p - fp / n
    if metric_id == "hss":
        return 2.0 * (tp * tn - fn * fp) / (p * (fn + tn) + n * (tp + fp))
    if metric_id == "youden_j":
        return (tp * tn - fn * fp) / ((tp + fn) * (fp + tn))
    if metric_id == "gilbert":
        return tp / (tp + fp + fn) if tp + fp + fn != 0 else 0.0
    if metric_id == "doolittle":
        den = p * n * (tp + fp) * (fn + tn)
        return (tp * tn - fn * fp) ** 2 / den if den != 0 else 0.0
    raise KeyError(metric_id)


def curve_from_surfaces(metric, ratios, grid) -> tuple[float, ...]:
    """Per-ratio sensitivity the long way: two full MetricSurfaces per ratio
    from build_surface, and ``np.mean(np.abs(C1 - Cr))`` of their values."""
    balanced = build_surface(metric, 1.0, grid).values
    return tuple(
        float(np.mean(np.abs(balanced - build_surface(metric, r, grid).values))) for r in ratios
    )


def _x_log_x_plus(a: Decimal) -> Decimal:
    """The integral of x * ln(x + a) over [0, 1], for a > 0.

    From the antiderivative w^2/2 ln w - w^2/4 - a (w ln w - w) of
    (w - a) ln w, at w = 1 + a and w = a.  Its terms grow like a^2 ln a and
    cancel to about ln(a) / 2, so it is evaluated in Decimal arithmetic.
    """

    def antiderivative(w: Decimal) -> Decimal:
        ln = w.ln()
        return w * w / 2 * ln - w * w / 4 - a * (w * ln - w)

    return antiderivative(1 + a) - antiderivative(a)


def continuum_integral(metric_id: str, r: float, beta: float = 1.0) -> Decimal:
    """I(r), the integral of a metric over the unit square at ratio r, exactly.

    With x = tpr and u = 1 - tnr the integral over u is elementary:
    precision x/(x + r u) gives (x/r) ln((x + r)/x), F-beta
    (1+b) x/(x + b + r u) with b = beta^2 gives ((1+b) x/r) ln((x + b + r)/(x + b)),
    and gilbert x/(1 + r u) gives x ln(1 + r)/r.  ``f1`` is F-beta at beta = 1.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        rd = Decimal(r)
        if metric_id == "precision":
            # The integral of x ln x over [0, 1] is -1/4.
            return (_x_log_x_plus(rd) + Decimal(1) / 4) / rd
        if metric_id in ("f1", "fbeta"):
            b = Decimal(1) if metric_id == "f1" else Decimal(beta) ** 2
            return (1 + b) / rd * (_x_log_x_plus(b + rd) - _x_log_x_plus(b))
        if metric_id == "gilbert":
            return (1 + rd).ln() / (2 * rd)
    raise KeyError(metric_id)


def continuum_sensitivity(metric_id: str, r: float, beta: float = 1.0) -> float:
    """The volume between the balanced and the ratio-r surface, s(r) = |I(1) - I(r)|.

    Each of these metrics is non-increasing in r at every point, so the
    difference of the two surfaces keeps one sign and the volume between them
    is the difference of their integrals.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        return float(abs(continuum_integral(metric_id, 1.0, beta) - continuum_integral(metric_id, r, beta)))


def bilinear(surface, x: float, y: float) -> float:
    """Bilinear interpolation of a surface's sample lattice at (x=tnr, y=tpr)."""
    xs = surface.tnr_coords
    ys = surface.tpr_coords
    values = surface.values
    t = len(xs)
    j = min(max(int((x - xs[0]) / (xs[1] - xs[0])), 0), t - 2)
    i = min(max(int((y - ys[0]) / (ys[1] - ys[0])), 0), t - 2)
    fx = (x - xs[j]) / (xs[j + 1] - xs[j])
    fy = (y - ys[i]) / (ys[i + 1] - ys[i])
    return float(
        values[i, j] * (1 - fx) * (1 - fy)
        + values[i, j + 1] * fx * (1 - fy)
        + values[i + 1, j] * (1 - fx) * fy
        + values[i + 1, j + 1] * fx * fy
    )


_PATH_TOKEN = re.compile(r"([MLZ])|(-?\d+(?:\.\d+)?(?:e-?\d+)?)")


def parse_path_d(d: str) -> list[list[tuple[float, float]]]:
    """Split an absolute M/L/Z path string into subpath point lists."""
    subpaths: list[list[tuple[float, float]]] = []
    current: list[tuple[float, float]] = []
    nums: list[float] = []
    for match in _PATH_TOKEN.finditer(d):
        cmd, num = match.groups()
        if num is not None:
            nums.append(float(num))
            if len(nums) == 2:
                current.append((nums[0], nums[1]))
                nums = []
            continue
        if cmd == "M" and current:
            subpaths.append(current)
            current = []
    if current:
        subpaths.append(current)
    return subpaths


def shoelace(points: list[tuple[float, float]]) -> float:
    """Signed polygon area (positive = counterclockwise in y-up coordinates)."""
    area = 0.0
    n = len(points)
    for k in range(n):
        x1, y1 = points[k]
        x2, y2 = points[(k + 1) % n]
        area += x1 * y2 - x2 * y1
    return area / 2.0


# Marching squares, one block at a time: the reference for cspace.render's
# contour extraction.  Keys of the corner mask: bit 0 = bottom-left (i, j),
# 1 = bottom-right (i, j+1), 2 = top-right (i+1, j+1), 3 = top-left (i+1, j);
# S/E/N/W name the crossed block edges, each segment keeps the region
# value >= level on its left.
_REF_CASES = {
    1: (("S", "W"),),
    2: (("E", "S"),),
    3: (("E", "W"),),
    4: (("N", "E"),),
    6: (("N", "S"),),
    7: (("N", "W"),),
    8: (("W", "N"),),
    9: (("S", "N"),),
    11: (("E", "N"),),
    12: (("W", "E"),),
    13: (("S", "E"),),
    14: (("W", "S"),),
}
# Saddles split by whether the block mean is at or above the level.
_REF_SADDLES = {
    5: {True: (("S", "E"), ("N", "W")), False: (("S", "W"), ("N", "E"))},
    10: {True: (("W", "S"), ("E", "N")), False: (("E", "S"), ("W", "N"))},
}


def _reference_level(values, xs, ys, level):
    """Polylines of one level: open chains, then closed loops, by sorted key.

    Edge keys are ("h", i, j) for the lattice edge (i, j)-(i, j+1) and
    ("v", i, j) for (i, j)-(i+1, j); node (i, j) sits at (xs[j], ys[i]).
    """
    t = len(xs)
    point = {}
    nxt = {}
    for i in range(t - 1):
        for j in range(t - 1):
            corners = (values[i][j], values[i][j + 1], values[i + 1][j + 1], values[i + 1][j])
            mask = sum(1 << bit for bit, v in enumerate(corners) if v >= level)
            if mask in (0, 15):
                continue
            if mask in _REF_SADDLES:
                mean = (values[i][j] + values[i][j + 1] + values[i + 1][j] + values[i + 1][j + 1]) / 4.0
                pairs = _REF_SADDLES[mask][bool(mean >= level)]
            else:
                pairs = _REF_CASES[mask]
            keys = {"S": ("h", i, j), "E": ("v", i, j + 1), "N": ("h", i + 1, j), "W": ("v", i, j)}
            for start, end in pairs:
                for kind, a, b in (keys[start], keys[end]):
                    v0 = values[a][b]
                    if kind == "h":
                        f = (level - v0) / (values[a][b + 1] - v0)
                        point[kind, a, b] = (float(xs[b] + f * (xs[b + 1] - xs[b])), float(ys[a]))
                    else:
                        f = (level - v0) / (values[a + 1][b] - v0)
                        point[kind, a, b] = (float(xs[b]), float(ys[a] + f * (ys[a + 1] - ys[a])))
                nxt[keys[start]] = keys[end]
    lines = []
    ends = set(nxt.values())
    for k in sorted(k for k in nxt if k not in ends):
        line = [k]
        while line[-1] in nxt:
            line.append(nxt.pop(line[-1]))
        lines.append(tuple(point[key] for key in line))
    for k in sorted(nxt):
        if k not in nxt:
            continue
        line = [k]
        while line[-1] != k or len(line) == 1:
            line.append(nxt.pop(line[-1]))
        lines.append(tuple(point[key] for key in line))
    return tuple(lines)


def reference_contours(values, xs, ys, levels):
    """Per-level polylines in the order of ``levels``, one lattice block at a time."""
    return tuple(_reference_level(values, xs, ys, float(level)) for level in levels)
