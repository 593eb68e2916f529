"""Contour extraction and deterministic SVG rendering.

Surfaces are drawn as filled contour bands (regions between successive
iso-levels) overlaid with iso-level polylines; sensitivity curves as a
multi-series line plot.  All geometry is derived with marching squares on
the sample lattice:

* one pass over the grid gives each sample its band, the number of levels
  at or below it, so a sample lies at or above level k exactly when its
  band exceeds k; only blocks whose four corners span more than one band
  (the candidate blocks) can be crossed by any level, and all per-level
  work runs on those alone;
* each candidate 2x2 block of grid samples is classified by which corners
  lie at or above the level;
* crossing points are placed by linear interpolation along lattice edges;
* ambiguous (saddle) blocks are resolved by comparing the block's mean
  value to the level;
* segments are emitted directed so the region ``value >= level`` lies on
  the left, which lets open chains be closed along the lattice hull into
  fillable polygons with the standard nonzero rule.

Because grid samples sit at cell centers, the sampled lattice spans
[0.5/t, 1 - 0.5/t]^2; open contour polylines terminate on that hull, half a
cell inside the unit square.

Every emitted document is self-contained SVG 1.1 (no external assets) and
byte-deterministic for fixed inputs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import EmptyLevelsError, ScheduleMismatchError
from .sensitivity import SensitivityCurve
from .surface import MetricSurface

__all__ = [
    "CONTOUR_LEVELS",
    "ContourSet",
    "Point",
    "Polyline",
    "default_color_map",
    "extract_contours",
    "render_curves_svg",
    "render_surface_pair_svg",
    "render_surface_svg",
]

Point = tuple[float, float]
Polyline = tuple[Point, ...]

# The iso-levels of every surface plot, as in the paper's figures.
CONTOUR_LEVELS = tuple(k / 10 for k in range(11))

_COLOR_STOPS: tuple[tuple[float, tuple[int, int, int]], ...] = (
    (0.0, (247, 251, 255)),
    (0.5, (107, 174, 214)),
    (1.0, (8, 48, 107)),
)


def default_color_map(value: float) -> tuple[int, int, int]:
    """Monotone light-to-dark ramp from [0, 1] to an RGB triple."""
    v = min(1.0, max(0.0, float(value)))
    for (a, ca), (b, cb) in zip(_COLOR_STOPS, _COLOR_STOPS[1:]):
        if v <= b:
            f = 0.0 if b == a else (v - a) / (b - a)
            return (
                int(round(ca[0] + f * (cb[0] - ca[0]))),
                int(round(ca[1] + f * (cb[1] - ca[1]))),
                int(round(ca[2] + f * (cb[2] - ca[2]))),
            )
    return _COLOR_STOPS[-1][1]


@dataclass(frozen=True)
class ContourSet:
    """Iso-level polylines in surface coordinates (x = tnr, y = tpr).

    ``polylines[k]`` belongs to ``levels[k]``.  A polyline whose first and
    last points coincide is a closed loop; any other polyline starts and
    ends on the boundary of the sampled lattice.
    """

    levels: tuple[float, ...]
    polylines: tuple[tuple[Polyline, ...], ...]

    def __post_init__(self) -> None:
        if len(self.levels) != len(self.polylines):
            raise ValueError("levels and polylines must be parallel")
        for lines in self.polylines:
            for line in lines:
                for x, y in line:
                    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
                        raise ValueError(f"contour vertex ({x}, {y}) outside the unit square")


# ---------------------------------------------------------------------------
# Marching squares
# ---------------------------------------------------------------------------

# Directed segments per block case; the key is a bitmask of corners at or
# above the level (bit 0 = bottom-left, 1 = bottom-right, 2 = top-right,
# 3 = top-left) and S/E/N/W name the crossed block edges.  Direction keeps
# the above-region on the left.
_CASES: dict[int, tuple[tuple[str, str], ...]] = {
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

# Saddle cases keyed by "block mean at or above level".
_SADDLES: dict[int, dict[bool, tuple[tuple[str, str], ...]]] = {
    5: {True: (("S", "E"), ("N", "W")), False: (("S", "W"), ("N", "E"))},
    10: {True: (("W", "S"), ("E", "N")), False: (("E", "S"), ("W", "N"))},
}


def _segment_table() -> np.ndarray:
    """_CASES and _SADDLES as one array for lookup by block.

    Row ``2 * case + (block mean >= level)`` holds up to two (start, end)
    pairs of edge codes S=0, E=1, N=2, W=3; -1 marks no second segment.
    Non-saddle cases fill both rows alike.
    """
    codes = {"S": 0, "E": 1, "N": 2, "W": 3}
    table = np.full((32, 2, 2), -1, dtype=np.int8)
    for case in range(1, 15):
        for mean_above in (False, True):
            pairs = _SADDLES[case][mean_above] if case in _SADDLES else _CASES[case]
            for k, (start, end) in enumerate(pairs):
                table[2 * case + mean_above, k] = (codes[start], codes[end])
    return table


_SEGMENTS = _segment_table()


class _Lines(NamedTuple):
    """The directed chains of one iso-level.

    Lattice edges carry integer ids on a ``t x t`` lattice: the edge from
    node (i, j) to (i, j+1) is ``i*(t-1) + j``, the edge from (i, j) to
    (i+1, j) is ``t*(t-1) + i*t + j``, node (i, j) sitting at (xs[j], ys[i]).
    ``ids`` holds the crossed edges of every chain back to back, open chains
    (hull to hull) first and then closed loops, each group in order of its
    first id; a loop ends with its first edge again.  ``x`` and ``y`` are the
    crossing points on those edges, and chain c spans
    ``bounds[c]:bounds[c + 1]``.
    """

    ids: np.ndarray
    x: np.ndarray
    y: np.ndarray
    bounds: list[int]
    n_open: int


def _level_topology(
    values: np.ndarray, xs: np.ndarray, ys: np.ndarray, levels: Sequence[float]
) -> list[_Lines]:
    """Directed chains for each of the strictly increasing ``levels``.

    One pass over the grid counts, per sample, the levels at or below it
    (its band), so ``value >= levels[k]`` exactly when ``band > k``.  Only a
    block whose corners span more than one band is crossed by any level; the
    level-by-level work touches those candidate blocks alone.
    """
    t = values.shape[0]
    n_h = t * (t - 1)  # the number of horizontal edges, and the first vertical id
    flat = values.ravel()
    band = np.zeros(flat.shape, dtype=np.min_scalar_type(len(levels)))
    for level in levels:
        band += flat >= level
    grid = band.reshape(t, t)
    bl, br, tl, tr = grid[:-1, :-1], grid[:-1, 1:], grid[1:, :-1], grid[1:, 1:]
    lo = np.minimum(np.minimum(bl, br), np.minimum(tl, tr))
    hi = np.maximum(np.maximum(bl, br), np.maximum(tl, tr))
    # A block's flat index in the (t-1) x (t-1) block grid is its S edge id.
    cells = np.flatnonzero(lo != hi)
    lo, hi = lo.ravel()[cells], hi.ravel()[cells]
    node = cells + cells // (t - 1)  # bottom-left sample of each block
    corners = node[:, None] + np.array([0, 1, t + 1, t])  # bit order of _CASES
    corner_bands = band[corners]
    mean = (flat[node] + flat[node + 1] + flat[node + t] + flat[node + t + 1]) / 4.0
    west = n_h + node
    edges = np.stack((cells, west + 1, cells + (t - 1), west), axis=1)  # S, E, N, W

    out = []
    for k, level in enumerate(levels):
        sel = np.flatnonzero((lo <= k) & (k < hi))
        case = np.packbits(corner_bands[sel] > k, axis=1, bitorder="little")[:, 0]
        pairs = _SEGMENTS[2 * case.astype(np.intp) + (mean[sel] >= level)]
        cell_edges = edges[sel]
        two = pairs[:, 1, 0] >= 0  # saddles: a second segment
        segments = np.concatenate(
            (
                np.take_along_axis(cell_edges, pairs[:, 0], axis=1),
                np.take_along_axis(cell_edges[two], pairs[two, 1], axis=1),
            )
        )
        starts, ends = segments[:, 0], segments[:, 1]

        # Every edge starts at most one segment and ends at most one, so the
        # chains are unique; walk them in order of their first edge id.
        ends_list = ends.tolist()
        nxt = dict(zip(starts.tolist(), ends_list))
        path: list[int] = []
        bounds = [0]
        for k0 in sorted(nxt.keys() - set(ends_list)):
            e = k0
            path.append(e)
            while e in nxt:
                e = nxt.pop(e)
                path.append(e)
            bounds.append(len(path))
        n_open = len(bounds) - 1
        for k0 in sorted(nxt):
            if k0 not in nxt:
                continue
            path.append(k0)
            e = nxt.pop(k0)
            while e != k0:
                path.append(e)
                e = nxt.pop(e)
            path.append(k0)
            bounds.append(len(path))

        ids = np.array(path, dtype=np.intp)
        x = np.empty(len(ids))
        y = np.empty(len(ids))
        h = ids < n_h
        row, col = np.divmod(ids[h], t - 1)
        v0 = values[row, col]
        f = (level - v0) / (values[row, col + 1] - v0)
        x[h] = xs[col] + f * (xs[col + 1] - xs[col])
        y[h] = ys[row]
        row, col = np.divmod(ids[~h] - n_h, t)
        v0 = values[row, col]
        f = (level - v0) / (values[row + 1, col] - v0)
        x[~h] = xs[col]
        y[~h] = ys[row] + f * (ys[row + 1] - ys[row])
        out.append(_Lines(ids, x, y, bounds, n_open))
    return out


def extract_contours(surface: MetricSurface, levels: Sequence[float]) -> ContourSet:
    """Iso-level polylines of a surface at the given levels.

    Vertices interpolate linearly along lattice edges, so bilinear
    interpolation of the surface at any vertex reproduces its level.
    Levels may come in any order and repeat.  Raises EmptyLevelsError for
    an empty level list.
    """
    lv = tuple(float(v) for v in levels)
    if not lv:
        raise EmptyLevelsError("contour extraction needs at least one level")
    for v in lv:
        if not (math.isfinite(v) and 0.0 <= v <= 1.0):
            raise ValueError(f"contour levels must lie in [0, 1], got {v!r}")
    distinct = sorted(set(lv))
    topologies = _level_topology(surface.values, surface.tnr_coords, surface.tpr_coords, distinct)
    polylines = {}
    for v, lines in zip(distinct, topologies):
        xl, yl = lines.x.tolist(), lines.y.tolist()
        spans = zip(lines.bounds, lines.bounds[1:])
        polylines[v] = tuple(tuple(zip(xl[a:b], yl[a:b])) for a, b in spans)
    return ContourSet(levels=lv, polylines=tuple(polylines[v] for v in lv))


def _region_polygons(
    values: np.ndarray, xs: np.ndarray, ys: np.ndarray, level: float, lines: _Lines
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Oriented polygons bounding the region { value >= level }.

    Returned like the chains of ``lines``: the points of every polygon back
    to back, polygon c spanning ``bounds[c]:bounds[c + 1]``.  Closed chains
    are kept as-is (counterclockwise around the region, clockwise around
    holes).  Open chains are completed counterclockwise along the lattice
    hull, inserting hull corners as they are passed, so the full set of
    polygons fills correctly under the nonzero rule.
    """
    t = values.shape[0]
    x0, x1 = float(xs[0]), float(xs[-1])
    y0, y1 = float(ys[0]), float(ys[-1])
    # Point n + c is hull corner c, counterclockwise from the bottom-left.
    n = lines.bounds[-1]
    px = np.concatenate((lines.x, (x0, x1, x1, x0)))
    py = np.concatenate((lines.y, (y0, y0, y1, y1)))
    spans = list(zip(lines.bounds, lines.bounds[1:]))
    closed_polys = [range(a, b - 1) for a, b in spans[lines.n_open :]]
    polys: list[Sequence[int]]

    if not lines.n_open:
        # Interior loops only (or none); the hull rectangle itself bounds the
        # outermost region when the lattice corner lies inside it.
        polys = [range(n, n + 4)] + closed_polys if bool(values[0, 0] >= level) else closed_polys
    else:
        w = x1 - x0
        h = y1 - y0
        perim = 2.0 * (w + h)
        n_h = t * (t - 1)

        def hull_param(c: int) -> float:
            # Perimeter coordinate of point c, counterclockwise from the
            # bottom-left corner.
            e = int(lines.ids[c])
            x, y = float(px[c]), float(py[c])
            if e < t - 1:
                return x - x0
            if e >= n_h and (e - n_h) % t == t - 1:
                return w + (y - y0)
            if n_h - (t - 1) <= e < n_h:
                return w + h + (x1 - x)
            if e >= n_h and (e - n_h) % t == 0:
                return 2.0 * w + h + (y1 - y)
            raise AssertionError(f"open chain endpoint on edge {e} is not on the lattice hull")

        corners = ((0.0, n), (w, n + 1), (w + h, n + 2), (2.0 * w + h, n + 3))
        open_spans = spans[: lines.n_open]
        starts = [(hull_param(a), idx) for idx, (a, _) in enumerate(open_spans)]
        used = [False] * len(open_spans)
        polys = []

        for seed in range(len(open_spans)):
            if used[seed]:
                continue
            poly: list[int] = []
            cur = seed
            while True:
                a, b = open_spans[cur]
                used[cur] = True
                poly.extend(range(a, b))
                ep = hull_param(b - 1)
                # Next region entry counterclockwise along the hull.
                best_dist = best_idx = None
                for sp, idx in starts:
                    if used[idx] and idx != seed:
                        continue
                    dist = (sp - ep) % perim
                    if best_dist is None or dist < best_dist or (dist == best_dist and idx < best_idx):
                        best_dist, best_idx = dist, idx
                assert best_idx is not None
                passed = sorted(
                    ((cp - ep) % perim, c) for cp, c in corners if 0.0 < (cp - ep) % perim < best_dist
                )
                poly.extend(c for _, c in passed)
                if best_idx == seed:
                    break
                cur = best_idx
            polys.append(poly)
        polys += closed_polys

    idx = np.fromiter(itertools.chain.from_iterable(polys), dtype=np.intp)
    return px[idx], py[idx], list(itertools.accumulate(map(len, polys), initial=0))


# ---------------------------------------------------------------------------
# SVG emission
# ---------------------------------------------------------------------------

_XML_PROLOG = '<?xml version="1.0" encoding="UTF-8"?>'
_FONT = 'font-family="sans-serif"'
_AXIS_TICKS = (0.0, 0.25, 0.5, 0.75, 1.0)
_SERIES_COLORS = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)

# Every plot is one 480 x 420 canvas (a pair of surfaces is two side by
# side) with its plot frame at (_PX0, _PY0), _PW wide and _PH high.
_WIDTH = 480
_HEIGHT = 420
_PX0, _PY0, _PW, _PH = 56.0, 34.0, 408.0, 340.0


def _px(x):
    """Pixel x of the unit frame coordinate ``x`` (a float or an array)."""
    return _PX0 + x * _PW


def _py(y):
    """Pixel y of the unit frame coordinate ``y``, which runs upwards."""
    return _PY0 + (1.0 - y) * _PH


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _escape(text: str) -> str:
    """``text`` with ``&``, ``<`` and ``>`` escaped as XML character data.

    Written here because ``xml.sax.saxutils`` imports ``urllib.request``,
    which loads the stdlib networking stack into every process.  ``&`` goes
    first so the other entities are not escaped twice.
    """
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _hex(rgb: tuple[int, int, int]) -> str:
    return f"#{rgb[0]:02x}{rgb[1]:02x}{rgb[2]:02x}"


def _path_d(x: np.ndarray, y: np.ndarray, bounds: Sequence[int], close: bool) -> str:
    """Path data for the polylines ``x[a:b], y[a:b]`` between successive bounds.

    Points are in unit coordinates of the plot frame.  Every polyline has at
    least two points.  One whose first and last points coincide is closed
    with its last point dropped; ``close`` closes every one.
    """
    b = np.asarray(bounds)
    first, last = b[:-1], b[1:] - 1
    same = (x[first] == x[last]) & (y[first] == y[last])
    keep = np.ones(len(x), dtype=bool)
    keep[last[same]] = False
    coords = np.column_stack((_px(x[keep]), _py(y[keep])))
    template = " ".join(
        "M %.3f %.3f" + " L %.3f %.3f" * (m - 1) + (" Z" if z else "")
        for m, z in zip((last - first + 1 - same).tolist(), (same | close).tolist())
    )
    return template % tuple(coords.ravel().tolist())


def _axes(ticks: Sequence[tuple[str, float, str]], x_label: str, y_label: str) -> list[str]:
    """Plot frame, ticks and axis titles.

    ``ticks`` holds ``("x" | "y", pixel, label)`` entries in emission order.
    """
    bottom = _PY0 + _PH
    parts = [f'<g id="axes" {_FONT} font-size="11" fill="#000000">']
    parts.append(
        f'<rect x="{_fmt(_PX0)}" y="{_fmt(_PY0)}" width="{_fmt(_PW)}" height="{_fmt(_PH)}" '
        f'fill="none" stroke="#000000" stroke-width="1"/>'
    )
    for axis, pos, label in ticks:
        if axis == "x":
            parts.append(
                f'<line x1="{_fmt(pos)}" y1="{_fmt(bottom)}" x2="{_fmt(pos)}" y2="{_fmt(bottom + 4)}" '
                f'stroke="#000000" stroke-width="1"/>'
            )
            parts.append(f'<text x="{_fmt(pos)}" y="{_fmt(bottom + 16)}" text-anchor="middle">{label}</text>')
        else:
            parts.append(
                f'<line x1="{_fmt(_PX0 - 4)}" y1="{_fmt(pos)}" x2="{_fmt(_PX0)}" y2="{_fmt(pos)}" '
                f'stroke="#000000" stroke-width="1"/>'
            )
            parts.append(f'<text x="{_fmt(_PX0 - 7)}" y="{_fmt(pos + 3.5)}" text-anchor="end">{label}</text>')
    parts.append(
        f'<text x="{_fmt(_PX0 + _PW / 2)}" y="{_fmt(bottom + 34)}" text-anchor="middle" '
        f'font-size="12">{_escape(x_label)}</text>'
    )
    parts.append(
        f'<text x="14" y="{_fmt(_PY0 + _PH / 2)}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 14 {_fmt(_PY0 + _PH / 2)})">{_escape(y_label)}</text>'
    )
    parts.append("</g>")
    return parts


def _title(text: str) -> str:
    return (
        f'<text x="{_fmt(_WIDTH / 2)}" y="20" text-anchor="middle" {_FONT} '
        f'font-size="13">{_escape(text)}</text>'
    )


def _surface_group(surface: MetricSurface) -> str:
    values = surface.values
    xs = surface.tnr_coords
    ys = surface.tpr_coords
    levels = CONTOUR_LEVELS
    topologies = _level_topology(values, xs, ys, levels)

    parts = ["<g>", '<g id="bands" stroke="none">']
    for k, (v, lines) in enumerate(zip(levels, topologies)):
        x, y, bounds = _region_polygons(values, xs, ys, v, lines)
        if len(bounds) == 1:
            continue
        band_value = (v + levels[k + 1]) / 2.0 if k + 1 < len(levels) else v
        fill = _hex(default_color_map(band_value))
        parts.append(
            f'<path id="band-{k}" fill="{fill}" fill-rule="nonzero" '
            f'd="{_path_d(x, y, bounds, close=True)}"/>'
        )
    parts.append("</g>")

    parts.append('<g id="contours" fill="none" stroke="#333333" stroke-width="0.8">')
    for k, lines in enumerate(topologies):
        if len(lines.bounds) == 1:
            continue
        parts.append(f'<path id="contour-{k}" d="{_path_d(lines.x, lines.y, lines.bounds, close=False)}"/>')
    parts.append("</g>")

    ticks = [(axis, pos, f"{f:g}") for f in _AXIS_TICKS for axis, pos in (("x", _px(f)), ("y", _py(f)))]
    parts.extend(_axes(ticks, "tnr", "tpr"))
    parts.append(_title(f"{surface.metric_id} (imbalance 1:{surface.ratio:g})"))
    parts.append("</g>")
    return "\n".join(parts)


def _document(width: int, body: list[str]) -> str:
    parts = [
        _XML_PROLOG,
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width}" '
        f'height="{_HEIGHT}" viewBox="0 0 {width} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{width}" height="{_HEIGHT}" fill="#ffffff"/>',
        *body,
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


def render_surface_svg(surface: MetricSurface) -> str:
    """A self-contained SVG contour plot of one metric surface at CONTOUR_LEVELS."""
    return _document(_WIDTH, [_surface_group(surface)])


def render_surface_pair_svg(left: MetricSurface, right: MetricSurface) -> str:
    """Two surface panels side by side in a single SVG document."""
    body = [_surface_group(left), f'<g transform="translate({_WIDTH} 0)">', _surface_group(right), "</g>"]
    return _document(2 * _WIDTH, body)


def render_curves_svg(curves: Sequence[SensitivityCurve], log_x: bool = False) -> str:
    """A multi-series sensitivity plot; all curves must share one schedule.

    ``log_x`` puts the ratio axis on a log scale.
    """
    if not curves:
        raise ScheduleMismatchError("curve plot needs at least one curve")
    schedule = curves[0].ratios
    for c in curves[1:]:
        if c.ratios != schedule:
            raise ScheduleMismatchError(
                f"curves must share a ratio schedule: {c.metric_id!r} differs from {curves[0].metric_id!r}"
            )

    def u(r: float) -> float:
        return math.log10(r) if log_x else r

    umin, umax = u(schedule[0]), u(schedule[-1])
    span = umax - umin

    def sx(r: float) -> float:
        return _px(0.5) if span == 0.0 else _px((u(r) - umin) / span)

    # x ticks: schedule endpoints plus decades (log) or quarters (linear)
    if log_x:
        tick_values = {schedule[0], schedule[-1]}
        for k in range(math.ceil(umin), math.floor(umax) + 1):
            tick_values.add(float(10.0**k))
        xticks = sorted(tick_values)
    elif span == 0.0:
        xticks = [schedule[0]]
    else:
        xticks = [schedule[0] + f * (schedule[-1] - schedule[0]) for f in _AXIS_TICKS]

    ticks = [("x", sx(r), f"{r:g}") for r in xticks] + [("y", _py(f), f"{f:g}") for f in _AXIS_TICKS]
    parts = _axes(ticks, "imbalance ratio r", "sensitivity")

    parts.append('<g id="series" fill="none">')
    for idx, curve in enumerate(curves):
        color = _SERIES_COLORS[idx % len(_SERIES_COLORS)]
        pts = [(sx(r), _py(s)) for r, s in curve.samples]
        if len(pts) > 1:
            attr = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
            parts.append(
                f'<polyline id="series-{_escape(curve.metric_id)}" points="{attr}" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
        for x, y in pts:
            parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="2.5" fill="{color}"/>')
    parts.append("</g>")

    parts.append(f'<g id="legend" {_FONT} font-size="11">')
    lx = _PX0 + _PW - 110
    for idx, curve in enumerate(curves):
        color = _SERIES_COLORS[idx % len(_SERIES_COLORS)]
        ly = _PY0 + 10 + 16 * idx
        parts.append(f'<rect x="{_fmt(lx)}" y="{_fmt(ly - 9)}" width="10" height="10" fill="{color}"/>')
        parts.append(f'<text x="{_fmt(lx + 15)}" y="{_fmt(ly)}">{_escape(curve.metric_id)}</text>')
    parts.append("</g>")

    parts.append(_title("class-imbalance sensitivity"))
    return _document(_WIDTH, parts)
