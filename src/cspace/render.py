"""Contour extraction and deterministic SVG rendering.

Surfaces are drawn as filled contour bands (regions between successive
iso-levels) overlaid with iso-level polylines; sensitivity curves as a
multi-series line plot.  All geometry is derived with marching squares on
the sample lattice:

* each 2x2 block of grid samples is classified by which corners lie at or
  above the level;
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

import math
from dataclasses import dataclass
from typing import Sequence
from xml.sax.saxutils import escape

import numpy as np

from .errors import EmptyLevelsError, ScheduleMismatchError
from .sensitivity import SensitivityCurve
from .surface import MetricSurface

__all__ = [
    "ContourSet",
    "Point",
    "Polyline",
    "RenderSpec",
    "default_color_map",
    "extract_contours",
    "render_curves_svg",
    "render_surface_pair_svg",
    "render_surface_svg",
]

Point = tuple[float, float]
Polyline = tuple[Point, ...]

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
class RenderSpec:
    """Contour levels, canvas size and ratio-axis scale for SVG emission."""

    contour_levels: tuple[float, ...] = tuple(k / 10 for k in range(11))
    width: int = 480
    height: int = 420
    log_x: bool = False

    def __post_init__(self) -> None:
        levels = tuple(float(v) for v in self.contour_levels)
        if not levels:
            raise EmptyLevelsError("render spec needs at least one contour level")
        for v in levels:
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"contour levels must lie in [0, 1], got {v!r}")
        for a, b in zip(levels, levels[1:]):
            if b <= a:
                raise ValueError("contour levels must be strictly increasing")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("canvas dimensions must be positive")
        object.__setattr__(self, "contour_levels", levels)


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

EdgeKey = tuple[str, int, int]


def _chain_segments(
    segments: list[tuple[EdgeKey, EdgeKey]],
) -> list[tuple[list[EdgeKey], bool]]:
    """Join directed segments into maximal chains.

    Every lattice edge hosts at most one crossing, so each edge key starts at
    most one segment and ends at most one; chains are therefore unique.  Open
    chains (hull to hull) come first, then closed loops, both in sorted-key
    order for determinism.
    """
    nxt: dict[EdgeKey, EdgeKey] = {}
    for skey, ekey in segments:
        nxt[skey] = ekey
    is_end = set(nxt.values())
    chains: list[tuple[list[EdgeKey], bool]] = []
    consumed: set[EdgeKey] = set()
    for k0 in sorted(k for k in nxt if k not in is_end):
        path = [k0]
        k = k0
        while k in nxt:
            consumed.add(k)
            k = nxt[k]
            path.append(k)
        chains.append((path, False))
    for k0 in sorted(nxt):
        if k0 in consumed:
            continue
        path = [k0]
        consumed.add(k0)
        k = nxt[k0]
        while k != k0:
            consumed.add(k)
            path.append(k)
            k = nxt[k]
        path.append(k0)
        chains.append((path, True))
    return chains


def _level_topology(
    values: np.ndarray, xs: np.ndarray, ys: np.ndarray, level: float
) -> tuple[dict[EdgeKey, Point], list[tuple[list[EdgeKey], bool]]]:
    """Crossing points and directed chains for one iso-level.

    Edge keys: ("h", i, j) is the lattice edge from node (i, j) to (i, j+1),
    ("v", i, j) the edge from (i, j) to (i+1, j), with node (i, j) placed at
    (xs[j], ys[i]).
    """
    above = values >= level
    a = above[:-1, :-1] * 1
    b = above[:-1, 1:] * 2
    c = above[1:, 1:] * 4
    d = above[1:, :-1] * 8
    case = a + b + c + d
    hot = np.argwhere((case != 0) & (case != 15))

    crossings: dict[EdgeKey, Point] = {}
    segments: list[tuple[EdgeKey, EdgeKey]] = []

    def crossing(key: EdgeKey) -> None:
        if key in crossings:
            return
        kind, i, j = key
        v0 = values[i, j]
        if kind == "h":
            f = (level - v0) / (values[i, j + 1] - v0)
            crossings[key] = (float(xs[j] + f * (xs[j + 1] - xs[j])), float(ys[i]))
        else:
            f = (level - v0) / (values[i + 1, j] - v0)
            crossings[key] = (float(xs[j]), float(ys[i] + f * (ys[i + 1] - ys[i])))

    for raw_i, raw_j in hot:
        i, j = int(raw_i), int(raw_j)
        k = int(case[i, j])
        edges: dict[str, EdgeKey] = {
            "S": ("h", i, j),
            "E": ("v", i, j + 1),
            "N": ("h", i + 1, j),
            "W": ("v", i, j),
        }
        if k in _SADDLES:
            mean = (values[i, j] + values[i, j + 1] + values[i + 1, j] + values[i + 1, j + 1]) / 4.0
            pairs = _SADDLES[k][bool(mean >= level)]
        else:
            pairs = _CASES[k]
        for sname, ename in pairs:
            skey, ekey = edges[sname], edges[ename]
            crossing(skey)
            crossing(ekey)
            segments.append((skey, ekey))

    return crossings, _chain_segments(segments)


def extract_contours(surface: MetricSurface, levels: Sequence[float]) -> ContourSet:
    """Iso-level polylines of a surface at the given levels.

    Vertices interpolate linearly along lattice edges, so bilinear
    interpolation of the surface at any vertex reproduces its level.
    Raises EmptyLevelsError for an empty level list.
    """
    lv = tuple(float(v) for v in levels)
    if not lv:
        raise EmptyLevelsError("contour extraction needs at least one level")
    for v in lv:
        if not (math.isfinite(v) and 0.0 <= v <= 1.0):
            raise ValueError(f"contour levels must lie in [0, 1], got {v!r}")
    xs = surface.tnr_coords
    ys = surface.tpr_coords
    per_level = []
    for v in lv:
        crossings, chains = _level_topology(surface.values, xs, ys, v)
        per_level.append(tuple(tuple(crossings[k] for k in keys) for keys, _ in chains))
    return ContourSet(levels=lv, polylines=tuple(per_level))


def _region_polygons(
    values: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
    level: float,
    crossings: dict[EdgeKey, Point],
    chains: list[tuple[list[EdgeKey], bool]],
) -> list[list[Point]]:
    """Oriented polygons bounding the region { value >= level }.

    Closed chains are kept as-is (counterclockwise around the region,
    clockwise around holes).  Open chains are completed counterclockwise
    along the lattice hull, inserting hull corners as they are passed, so
    the full set of polygons fills correctly under the nonzero rule.
    """
    t = values.shape[0]
    x0, x1 = float(xs[0]), float(xs[-1])
    y0, y1 = float(ys[0]), float(ys[-1])
    hull = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]

    closed_polys: list[list[Point]] = []
    open_chains: list[tuple[list[EdgeKey], list[Point]]] = []
    for keys, closed in chains:
        pts = [crossings[k] for k in keys]
        if closed:
            closed_polys.append(pts[:-1])
        else:
            open_chains.append((keys, pts))

    if not open_chains:
        # Interior loops only (or none); the hull rectangle itself bounds the
        # outermost region when the lattice corner lies inside it.
        if bool(values[0, 0] >= level):
            return [hull] + closed_polys
        return closed_polys

    w = x1 - x0
    h = y1 - y0
    perim = 2.0 * (w + h)

    def hull_param(key: EdgeKey, pt: Point) -> float:
        # Perimeter coordinate, counterclockwise from the bottom-left corner.
        kind, i, j = key
        x, y = pt
        if kind == "h" and i == 0:
            return x - x0
        if kind == "v" and j == t - 1:
            return w + (y - y0)
        if kind == "h" and i == t - 1:
            return w + h + (x1 - x)
        if kind == "v" and j == 0:
            return 2.0 * w + h + (y1 - y)
        raise AssertionError(f"open chain endpoint {key} is not on the lattice hull")

    corners = ((0.0, hull[0]), (w, hull[1]), (w + h, hull[2]), (2.0 * w + h, hull[3]))
    starts = [(hull_param(keys[0], pts[0]), idx) for idx, (keys, pts) in enumerate(open_chains)]
    used = [False] * len(open_chains)
    region_polys: list[list[Point]] = []

    for seed in range(len(open_chains)):
        if used[seed]:
            continue
        poly: list[Point] = []
        cur = seed
        while True:
            keys, pts = open_chains[cur]
            used[cur] = True
            poly.extend(pts)
            ep = hull_param(keys[-1], pts[-1])
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
                ((cp - ep) % perim, cpt)
                for cp, cpt in corners
                if 0.0 < (cp - ep) % perim < best_dist
            )
            poly.extend(cpt for _, cpt in passed)
            if best_idx == seed:
                break
            cur = best_idx
        region_polys.append(poly)

    return region_polys + closed_polys


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

_MARGIN_LEFT = 56.0
_MARGIN_RIGHT = 16.0
_MARGIN_TOP = 34.0
_MARGIN_BOTTOM = 46.0


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _hex(rgb: tuple[int, int, int]) -> str:
    return f"#{rgb[0]:02x}{rgb[1]:02x}{rgb[2]:02x}"


def _path_d(polys: Sequence[Sequence[Point]], sx, sy, close: bool) -> str:
    parts = []
    for poly in polys:
        pts = list(poly)
        closed = close
        if len(pts) > 1 and pts[0] == pts[-1]:
            pts = pts[:-1]
            closed = True
        coords = [f"{'M' if k == 0 else 'L'} {_fmt(sx(x))} {_fmt(sy(y))}" for k, (x, y) in enumerate(pts)]
        if closed:
            coords.append("Z")
        parts.append(" ".join(coords))
    return " ".join(parts)


def _axes(
    px0, py0, pw, ph, ticks: Sequence[tuple[str, float, str]], x_label: str, y_label: str
) -> list[str]:
    """Plot frame, ticks and axis titles.

    ``ticks`` holds ``("x" | "y", pixel, label)`` entries in emission order.
    """
    parts = [f'<g id="axes" {_FONT} font-size="11" fill="#000000">']
    parts.append(
        f'<rect x="{_fmt(px0)}" y="{_fmt(py0)}" width="{_fmt(pw)}" height="{_fmt(ph)}" '
        f'fill="none" stroke="#000000" stroke-width="1"/>'
    )
    for axis, pos, label in ticks:
        if axis == "x":
            parts.append(
                f'<line x1="{_fmt(pos)}" y1="{_fmt(py0 + ph)}" x2="{_fmt(pos)}" y2="{_fmt(py0 + ph + 4)}" '
                f'stroke="#000000" stroke-width="1"/>'
            )
            parts.append(f'<text x="{_fmt(pos)}" y="{_fmt(py0 + ph + 16)}" text-anchor="middle">{label}</text>')
        else:
            parts.append(
                f'<line x1="{_fmt(px0 - 4)}" y1="{_fmt(pos)}" x2="{_fmt(px0)}" y2="{_fmt(pos)}" '
                f'stroke="#000000" stroke-width="1"/>'
            )
            parts.append(f'<text x="{_fmt(px0 - 7)}" y="{_fmt(pos + 3.5)}" text-anchor="end">{label}</text>')
    parts.append(
        f'<text x="{_fmt(px0 + pw / 2)}" y="{_fmt(py0 + ph + 34)}" text-anchor="middle" '
        f'font-size="12">{escape(x_label)}</text>'
    )
    parts.append(
        f'<text x="14" y="{_fmt(py0 + ph / 2)}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 14 {_fmt(py0 + ph / 2)})">{escape(y_label)}</text>'
    )
    parts.append("</g>")
    return parts


def _surface_group(surface: MetricSurface, spec: RenderSpec) -> str:
    values = surface.values
    xs = surface.tnr_coords
    ys = surface.tpr_coords
    levels = spec.contour_levels

    px0, py0 = _MARGIN_LEFT, _MARGIN_TOP
    pw = spec.width - _MARGIN_LEFT - _MARGIN_RIGHT
    ph = spec.height - _MARGIN_TOP - _MARGIN_BOTTOM

    def sx(x: float) -> float:
        return px0 + x * pw

    def sy(y: float) -> float:
        return py0 + (1.0 - y) * ph

    topologies = [_level_topology(values, xs, ys, v) for v in levels]

    parts = ["<g>", '<g id="bands" stroke="none">']
    for k, (v, (crossings, chains)) in enumerate(zip(levels, topologies)):
        polys = _region_polygons(values, xs, ys, v, crossings, chains)
        if not polys:
            continue
        band_value = (v + levels[k + 1]) / 2.0 if k + 1 < len(levels) else v
        fill = _hex(default_color_map(band_value))
        parts.append(
            f'<path id="band-{k}" fill="{fill}" fill-rule="nonzero" '
            f'd="{_path_d(polys, sx, sy, close=True)}"/>'
        )
    parts.append("</g>")

    parts.append('<g id="contours" fill="none" stroke="#333333" stroke-width="0.8">')
    for k, (crossings, chains) in enumerate(topologies):
        lines = [[crossings[key] for key in keys] for keys, _ in chains]
        if not lines:
            continue
        parts.append(f'<path id="contour-{k}" d="{_path_d(lines, sx, sy, close=False)}"/>')
    parts.append("</g>")

    ticks = [(axis, pos, f"{f:g}") for f in _AXIS_TICKS for axis, pos in (("x", sx(f)), ("y", sy(f)))]
    parts.extend(_axes(px0, py0, pw, ph, ticks, "tnr", "tpr"))
    title = f"{surface.metric_id} (imbalance 1:{surface.ratio:g})"
    parts.append(
        f'<text x="{_fmt(spec.width / 2)}" y="20" text-anchor="middle" {_FONT} '
        f'font-size="13">{escape(title)}</text>'
    )
    parts.append("</g>")
    return "\n".join(parts)


def _document(width: int, height: int, body: list[str]) -> str:
    parts = [
        _XML_PROLOG,
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
        *body,
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


def render_surface_svg(surface: MetricSurface, spec: RenderSpec | None = None) -> str:
    """A self-contained SVG contour plot of one metric surface."""
    spec = spec if spec is not None else RenderSpec()
    return _document(spec.width, spec.height, [_surface_group(surface, spec)])


def render_surface_pair_svg(
    left: MetricSurface, right: MetricSurface, spec: RenderSpec | None = None
) -> str:
    """Two surface panels side by side in a single SVG document."""
    spec = spec if spec is not None else RenderSpec()
    body = [
        _surface_group(left, spec),
        f'<g transform="translate({spec.width} 0)">',
        _surface_group(right, spec),
        "</g>",
    ]
    return _document(2 * spec.width, spec.height, body)


def render_curves_svg(curves: Sequence[SensitivityCurve], spec: RenderSpec | None = None) -> str:
    """A multi-series sensitivity plot; all curves must share one schedule."""
    spec = spec if spec is not None else RenderSpec()
    if not curves:
        raise ScheduleMismatchError("curve plot needs at least one curve")
    schedule = curves[0].ratios
    for c in curves[1:]:
        if c.ratios != schedule:
            raise ScheduleMismatchError(
                f"curves must share a ratio schedule: {c.metric_id!r} differs from {curves[0].metric_id!r}"
            )

    px0, py0 = _MARGIN_LEFT, _MARGIN_TOP
    pw = spec.width - _MARGIN_LEFT - _MARGIN_RIGHT
    ph = spec.height - _MARGIN_TOP - _MARGIN_BOTTOM

    def u(r: float) -> float:
        return math.log10(r) if spec.log_x else r

    umin, umax = u(schedule[0]), u(schedule[-1])
    span = umax - umin

    def sx(r: float) -> float:
        if span == 0.0:
            return px0 + pw / 2.0
        return px0 + (u(r) - umin) / span * pw

    def sy(s: float) -> float:
        return py0 + (1.0 - s) * ph

    # x ticks: schedule endpoints plus decades (log) or quarters (linear)
    if spec.log_x:
        tick_values = {schedule[0], schedule[-1]}
        for k in range(math.ceil(umin), math.floor(umax) + 1):
            tick_values.add(float(10.0**k))
        xticks = sorted(tick_values)
    elif span == 0.0:
        xticks = [schedule[0]]
    else:
        xticks = [schedule[0] + f * (schedule[-1] - schedule[0]) for f in _AXIS_TICKS]

    ticks = [("x", sx(r), f"{r:g}") for r in xticks] + [("y", sy(f), f"{f:g}") for f in _AXIS_TICKS]
    parts = _axes(px0, py0, pw, ph, ticks, "imbalance ratio r", "sensitivity")

    parts.append('<g id="series" fill="none">')
    for idx, curve in enumerate(curves):
        color = _SERIES_COLORS[idx % len(_SERIES_COLORS)]
        pts = [(sx(r), sy(s)) for r, s in curve.samples]
        if len(pts) > 1:
            attr = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
            parts.append(
                f'<polyline id="series-{escape(curve.metric_id)}" points="{attr}" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
        for x, y in pts:
            parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="2.5" fill="{color}"/>')
    parts.append("</g>")

    parts.append(f'<g id="legend" {_FONT} font-size="11">')
    for idx, curve in enumerate(curves):
        color = _SERIES_COLORS[idx % len(_SERIES_COLORS)]
        lx = px0 + pw - 110
        ly = py0 + 10 + 16 * idx
        parts.append(f'<rect x="{_fmt(lx)}" y="{_fmt(ly - 9)}" width="10" height="10" fill="{color}"/>')
        parts.append(f'<text x="{_fmt(lx + 15)}" y="{_fmt(ly)}">{escape(curve.metric_id)}</text>')
    parts.append("</g>")

    parts.append(
        f'<text x="{_fmt(spec.width / 2)}" y="20" text-anchor="middle" {_FONT} '
        f'font-size="13">class-imbalance sensitivity</text>'
    )
    return _document(spec.width, spec.height, parts)
