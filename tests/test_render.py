from __future__ import annotations

import hashlib
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from conftest import _REF_CASES, _REF_SADDLES, bilinear, parse_path_d, reference_contours, shoelace
from hypothesis import given, settings
from hypothesis import strategies as st

from cspace import (
    ContourSet,
    EmptyLevelsError,
    GridSpec,
    MetricSurface,
    RatioSchedule,
    ScheduleMismatchError,
    SensitivityCurve,
    build_surface,
    extract_contours,
    get_metric,
    render_curves_svg,
    render_surface_pair_svg,
    render_surface_svg,
    sensitivity_curve,
)
from cspace.render import _SEGMENTS, _level_topology, _region_polygons, default_color_map

SVG_NS = "{http://www.w3.org/2000/svg}"


def lattice_bounds(surface):
    xs = surface.tnr_coords
    ys = surface.tpr_coords
    return float(xs[0]), float(xs[-1]), float(ys[0]), float(ys[-1])


def on_hull(surface, point) -> bool:
    x0, x1, y0, y1 = lattice_bounds(surface)
    x, y = point
    return x in (x0, x1) or y in (y0, y1)


# ---------------------------------------------------------------------------
# Contour extraction
# ---------------------------------------------------------------------------


def test_tss_balanced_contour_is_the_no_skill_line():
    surf = build_surface(get_metric("tss"), 1.0, GridSpec(64))
    cset = extract_contours(surf, [0.5])
    lines = cset.polylines[0]
    assert len(lines) == 1
    t = surf.grid.resolution
    assert all(abs(x + y - 1.0) <= 1.0 / t for x, y in lines[0])
    assert on_hull(surf, lines[0][0]) and on_hull(surf, lines[0][-1])


def test_recall_contour_is_horizontal():
    surf = build_surface(get_metric("recall"), 7.0, GridSpec(64))
    lines = extract_contours(surf, [0.5]).polylines[0]
    assert len(lines) == 1
    assert all(y == pytest.approx(0.5, abs=1e-12) for _, y in lines[0])


def test_level_below_surface_minimum_is_empty():
    surf = build_surface(get_metric("recall"), 7.0, GridSpec(64))
    assert extract_contours(surf, [0.0]).polylines[0] == ()


def test_empty_levels_rejected():
    surf = build_surface(get_metric("f1"), 2.0, GridSpec(8))
    with pytest.raises(EmptyLevelsError):
        extract_contours(surf, [])


def test_out_of_range_levels_rejected():
    surf = build_surface(get_metric("f1"), 2.0, GridSpec(8))
    with pytest.raises(ValueError):
        extract_contours(surf, [1.5])


@pytest.mark.parametrize(
    "levels, polylines, message",
    [
        ((0.5,), (), "parallel"),
        ((0.5, 0.7), ((((0.1, 0.2), (0.3, 0.2)),),), "parallel"),
        ((0.5,), ((((0.1, 0.2), (1.5, 0.2)),),), "unit square"),
        ((0.5,), ((((0.1, 0.2), (0.3, 0.2)), ((0.1, -0.1), (0.2, 0.0))),), "unit square"),
    ],
    ids=["no-polylines", "fewer-polylines", "x-above-1", "y-below-0"],
)
def test_contour_sets_refuse_unparallel_levels_and_vertices_off_the_unit_square(levels, polylines, message):
    with pytest.raises(ValueError, match=message):
        ContourSet(levels, polylines)


@pytest.mark.parametrize("metric_id, ratio", [("f1", 49.0), ("precision", 7.0), ("hss", 3.0)])
def test_contour_vertices_interpolate_to_their_level(metric_id, ratio):
    surf = build_surface(get_metric(metric_id), ratio, GridSpec(32))
    levels = [0.1, 0.3, 0.5, 0.7, 0.9]
    cset = extract_contours(surf, levels)
    checked = 0
    for level, lines in zip(cset.levels, cset.polylines):
        for line in lines:
            for x, y in line:
                assert bilinear(surf, x, y) == pytest.approx(level, abs=1e-9)
                checked += 1
    assert checked > 0


def test_polylines_close_or_terminate_on_lattice_hull():
    # doolittle at r=1 peaks at two opposite corners: multiple open chains
    surf = build_surface(get_metric("doolittle"), 1.0, GridSpec(48))
    cset = extract_contours(surf, [0.2, 0.5, 0.8])
    seen_any = False
    for lines in cset.polylines:
        for line in lines:
            seen_any = True
            closed = line[0] == line[-1]
            assert closed or (on_hull(surf, line[0]) and on_hull(surf, line[-1]))
    assert seen_any


# Values on a 1/8 lattice force exact ties with the levels, plateaus and
# saddles whose block mean equals the level.
quantised_grids = st.integers(2, 12).flatmap(
    lambda t: st.lists(st.integers(0, 8), min_size=t * t, max_size=t * t).map(
        lambda eighths: np.array(eighths, dtype=np.float64).reshape(t, t) / 8.0
    )
)
contour_levels = st.lists(
    st.one_of(st.sampled_from([0.0, 1.0]), st.integers(0, 8).map(lambda k: k / 8.0), st.floats(0.0, 1.0)),
    min_size=1,
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(values=quantised_grids, levels=contour_levels)
def test_extract_contours_matches_per_cell_reference(values, levels):
    t = values.shape[0]
    surf = MetricSurface("synthetic", 1.0, GridSpec(t), values, (0.0, 1.0))
    cset = extract_contours(surf, levels)
    assert cset.levels == tuple(levels)
    assert cset.polylines == reference_contours(values, surf.tnr_coords, surf.tpr_coords, levels)


def test_segment_table_matches_the_reference_cases():
    # Row 2 * case + (block mean >= level); saddle rows may list their two
    # segments in either order, since chains are keyed by their start edge.
    codes = {"S": 0, "E": 1, "N": 2, "W": 3}
    for row in range(32):
        case, mean_above = divmod(row, 2)
        ref = _REF_SADDLES[case][bool(mean_above)] if case in _REF_SADDLES else _REF_CASES.get(case, ())
        pairs = [tuple(p) for p in _SEGMENTS[row].tolist() if p != [-1, -1]]
        assert len(pairs) == len(ref) and set(pairs) == {(codes[a], codes[b]) for a, b in ref}, row
    assert (_SEGMENTS[[0, 1, 30, 31]] == -1).all()


@pytest.mark.parametrize("levels", [[0.5, 0.2, 0.5], [1.0, 0.0, 1.0, 0.3], [0.3]])
def test_extract_contours_takes_unsorted_and_repeated_levels(levels):
    surf = build_surface(get_metric("doolittle"), 3.0, GridSpec(40))
    cset = extract_contours(surf, levels)
    assert cset.levels == tuple(levels)
    assert cset.polylines == reference_contours(surf.values, surf.tnr_coords, surf.tpr_coords, levels)


def test_extraction_is_deterministic():
    surf = build_surface(get_metric("f1"), 49.0, GridSpec(32))
    a = extract_contours(surf, [0.2, 0.5])
    b = extract_contours(surf, [0.2, 0.5])
    assert a == b


# ---------------------------------------------------------------------------
# Region polygons (fill geometry)
# ---------------------------------------------------------------------------


def region_area(values, level) -> float:
    t = values.shape[0]
    c = (np.arange(t) + 0.5) / t
    (lines,) = _level_topology(values, c, c, [level])
    x, y, bounds = _region_polygons(values, c, c, level, lines)
    return sum(shoelace(list(zip(x[a:b], y[a:b]))) for a, b in zip(bounds, bounds[1:]))


def test_region_polygons_island_hole_and_saddles():
    t = 64
    c = (np.arange(t) + 0.5) / t
    X, Y = np.meshgrid(c, c)
    hull_area = (1.0 - 1.0 / t) ** 2

    bump = np.clip(1.0 - 2.2 * np.hypot(X - 0.5, Y - 0.5), 0.0, 1.0)
    # island: disk of radius (1 - 0.4)/2.2, area pi*r^2 = 0.2337
    assert region_area(bump, 0.4) == pytest.approx(0.2337, abs=0.002)

    valley = np.clip(2.2 * np.hypot(X - 0.5, Y - 0.5), 0.0, 1.0)
    # hole: hull minus a disk of radius 0.4/2.2 (area 0.1039)
    assert region_area(valley, 0.4) == pytest.approx(hull_area - 0.1039, abs=0.002)

    waves = 0.5 + 0.45 * np.sin(6 * np.pi * X) * np.sin(6 * np.pi * Y)
    count_estimate = float(np.mean(waves >= 0.5)) * hull_area
    assert region_area(waves, 0.5) == pytest.approx(count_estimate, abs=0.005)


def test_region_polygons_full_and_empty_levels():
    surf = build_surface(get_metric("recall"), 7.0, GridSpec(16))
    hull_area = (1.0 - 1.0 / 16) ** 2
    assert region_area(surf.values, 0.0) == pytest.approx(hull_area, abs=1e-12)
    assert region_area(surf.values, 1.0) == 0.0
    assert region_area(surf.values, 0.5) == pytest.approx(hull_area / 2, abs=1e-9)


# ---------------------------------------------------------------------------
# Surface SVG
# ---------------------------------------------------------------------------


def test_surface_svg_is_well_formed_and_titled():
    surf = build_surface(get_metric("recall"), 7.0, GridSpec(32))
    doc = render_surface_svg(surf)
    root = ET.fromstring(doc)
    assert root.tag == f"{SVG_NS}svg"
    titles = [el.text for el in root.iter(f"{SVG_NS}text")]
    assert any("recall" in (t or "") for t in titles)
    assert doc.startswith('<?xml version="1.0"')


def test_surface_svg_is_byte_deterministic():
    surf = build_surface(get_metric("f1"), 49.0, GridSpec(32))
    assert render_surface_svg(surf) == render_surface_svg(surf)


def test_surface_svg_has_band_fills_and_contours():
    surf = build_surface(get_metric("f1"), 1.0, GridSpec(32))
    root = ET.fromstring(render_surface_svg(surf))
    ids = {el.get("id") for el in root.iter()}
    assert "bands" in ids and "contours" in ids and "axes" in ids
    bands = [el for el in root.iter(f"{SVG_NS}path") if (el.get("id") or "").startswith("band-")]
    assert bands


def luminance(hex_color: str) -> float:
    r = int(hex_color[1:3], 16)
    g = int(hex_color[3:5], 16)
    b = int(hex_color[5:7], 16)
    return 0.2126 * r + 0.7152 * g + 0.0722 * b


def mean_fill_luminance(doc: str) -> float:
    """Area-weighted luminance of the stacked band fills."""
    root = ET.fromstring(doc)
    bands = []
    for el in root.iter(f"{SVG_NS}path"):
        pid = el.get("id") or ""
        if pid.startswith("band-"):
            area = abs(sum(shoelace(sp) for sp in parse_path_d(el.get("d"))))
            bands.append((int(pid.split("-")[1]), area, luminance(el.get("fill"))))
    bands.sort()
    total = bands[0][1]
    weighted = 0.0
    for k, (_, area, lum) in enumerate(bands):
        visible = area - (bands[k + 1][1] if k + 1 < len(bands) else 0.0)
        weighted += visible * lum
    return weighted / total


def test_f1_fill_distribution_changes_with_ratio():
    grid = GridSpec(64)
    doc_balanced = render_surface_svg(build_surface(get_metric("f1"), 1.0, grid))
    doc_skewed = render_surface_svg(build_surface(get_metric("f1"), 49.0, grid))
    lum_balanced = mean_fill_luminance(doc_balanced)
    lum_skewed = mean_fill_luminance(doc_skewed)
    # lower surface values map to lighter colors
    assert lum_skewed > lum_balanced + 20.0


def test_pair_svg_contains_both_panels():
    grid = GridSpec(16)
    left = build_surface(get_metric("f1"), 1.0, grid)
    right = build_surface(get_metric("f1"), 49.0, grid)
    doc = render_surface_pair_svg(left, right)
    root = ET.fromstring(doc)
    texts = [el.text or "" for el in root.iter(f"{SVG_NS}text")]
    assert sum("f1" in t for t in texts) == 2
    assert "1:49" in " ".join(texts)


def test_default_color_map_is_monotone_light_to_dark():
    lums = [luminance("#%02x%02x%02x" % default_color_map(v)) for v in np.linspace(0, 1, 21)]
    assert all(b <= a for a, b in zip(lums, lums[1:]))


# ---------------------------------------------------------------------------
# Curve SVG
# ---------------------------------------------------------------------------


def curves_for(metric_ids, schedule, t=32):
    grid = GridSpec(t)
    return [sensitivity_curve(get_metric(mid), schedule, grid) for mid in metric_ids]


def series_points(doc: str) -> dict[str, list[tuple[float, float]]]:
    root = ET.fromstring(doc)
    out = {}
    for el in root.iter(f"{SVG_NS}polyline"):
        pid = el.get("id") or ""
        if pid.startswith("series-"):
            pts = [tuple(map(float, p.split(","))) for p in el.get("points").split()]
            out[pid.removeprefix("series-")] = pts
    return out


def test_agnostic_curves_are_pinned_at_zero():
    schedule = RatioSchedule.geometric(1, 100, 10)
    doc = render_curves_svg(curves_for(["recall", "tss", "youden_j"], schedule))
    series = series_points(doc)
    assert set(series) == {"recall", "tss", "youden_j"}
    baseline_ys = {y for pts in series.values() for _, y in pts}
    assert len(baseline_ys) == 1  # all three series overlap on the zero line


def test_sensitive_series_order_at_right_edge():
    schedule = RatioSchedule.geometric(1, 1024, 2)
    doc = render_curves_svg(curves_for(["precision", "f1", "accuracy", "hss"], schedule, t=64),
                            log_x=True)
    series = series_points(doc)
    right_edge = {mid: pts[-1][1] for mid, pts in series.items()}
    # smaller pixel y = higher sensitivity
    assert right_edge["precision"] < right_edge["f1"] < right_edge["accuracy"] < right_edge["hss"]


def test_curves_svg_requires_shared_schedule():
    a = curves_for(["recall"], RatioSchedule((1.0, 2.0)))
    b = curves_for(["tss"], RatioSchedule((1.0, 3.0)))
    with pytest.raises(ScheduleMismatchError):
        render_curves_svg([a[0], b[0]])
    with pytest.raises(ScheduleMismatchError):
        render_curves_svg([])


def test_single_point_curve_renders_marker_only():
    curve = SensitivityCurve("accuracy", ((1.0, 0.0),), GridSpec(8))
    doc = render_curves_svg([curve])
    root = ET.fromstring(doc)
    assert not [el for el in root.iter(f"{SVG_NS}polyline") if (el.get("id") or "").startswith("series-")]
    assert [el for el in root.iter(f"{SVG_NS}circle")]


def test_curves_svg_is_byte_deterministic():
    schedule = RatioSchedule.geometric(1, 64, 2)
    curves = curves_for(["precision", "accuracy"], schedule)
    assert render_curves_svg(curves) == render_curves_svg(curves)


def test_curves_svg_legend_lists_metrics_in_input_order():
    schedule = RatioSchedule((1.0, 10.0))
    doc = render_curves_svg(curves_for(["hss", "accuracy"], schedule))
    root = ET.fromstring(doc)
    legend = next(el for el in root.iter(f"{SVG_NS}g") if el.get("id") == "legend")
    labels = [el.text for el in legend.iter(f"{SVG_NS}text")]
    assert labels == ["hss", "accuracy"]


# ---------------------------------------------------------------------------
# Golden bytes
# ---------------------------------------------------------------------------

# sha256 of SVG outputs: a linear ratio axis, a single-ratio schedule, a
# pair of doolittle panels (several open chains per level), and surface plots
# at t=256 and t=1024 (tss at r=1 has samples exactly on the 0.5 level; the
# f1 pair is reproduce's fig3), and two synthetic surfaces with closed loops,
# saddles and contours that touch samples: a sine lattice, and random values
# on eighths.
GOLDEN_SVG_SHA256 = {
    "curves-linear-x": "3c432a755b2447ab252ab70b1feb3362f4136007d84b4fe065d4576833fb0d09",
    "curves-single-ratio": "41f75c93454d2ac112e3a52518368ebaa83591ed8795254954d8b61cdbb4663c",
    "surface-pair": "b9da56149fbc3226e258040824a591ea3353f44fd2059f3096dc612a1dcc033b",
    "surface-precision-r300-t256": "75299e8736a87f82d582509bf61702cabfda0bec9a18e155dfe222363ce03ef7",
    "surface-doolittle-r3-t1024": "955b7c26f094c711710efd657e49bbb3545d5ef60ae56cf8b248ff617d69e8ac",
    "surface-hss-r30-t1024": "abbb5da95baef9ee38d15a376cb7f3b0cb9bf642bba3a24e6c7e71b7ab736971",
    "surface-tss-r1-t256": "0ecab8c9beb77301d446aa0b1490241b9c2db906f9aa67852b08aca807806a63",
    "surface-pair-f1-r1-r49-t256": "af9d8b16477301810b0aa977c5ca01794f69cce9335dbe6fb9abc7fb6c7f3985",
    "synthetic-waves-t40": "a3147960823a97062c1ed3ad2c0f9d9b6cf97b337c8a0e951e4a2b4dbf4e7055",
    "synthetic-eighths-t12": "00e04355c7aa833c001863c2551ba305c72dcd1a029640f624698a319f0eb227",
}


def golden_svg(case: str) -> str:
    if case == "curves-linear-x":
        return render_curves_svg(curves_for(["precision", "f1", "accuracy"], RatioSchedule.geometric(1, 64, 2)))
    if case == "curves-single-ratio":
        return render_curves_svg(curves_for(["f1", "hss"], RatioSchedule((5.0,))))
    if case == "synthetic-waves-t40":
        c = (np.arange(40) + 0.5) / 40
        x, y = np.meshgrid(c, c)
        values = 0.5 + 0.45 * np.sin(6 * np.pi * x) * np.sin(6 * np.pi * y)
        return render_surface_svg(MetricSurface("waves", 1.0, GridSpec(40), values, (0.0, 1.0)))
    if case == "synthetic-eighths-t12":
        values = np.random.default_rng(5).integers(0, 9, (12, 12)) / 8.0
        return render_surface_svg(MetricSurface("eighths", 1.0, GridSpec(12), values, (0.0, 1.0)))
    if case == "surface-pair-f1-r1-r49-t256":
        f1 = get_metric("f1")
        return render_surface_pair_svg(build_surface(f1, 1.0, GridSpec(256)), build_surface(f1, 49.0, GridSpec(256)))
    if case.startswith("surface-") and case != "surface-pair":
        _, metric_id, ratio, t = case.split("-")
        return render_surface_svg(build_surface(get_metric(metric_id), float(ratio[1:]), GridSpec(int(t[1:]))))
    grid = GridSpec(24)
    doolittle = get_metric("doolittle")
    return render_surface_pair_svg(build_surface(doolittle, 1.0, grid), build_surface(doolittle, 7.0, grid))


@pytest.mark.parametrize("case", sorted(GOLDEN_SVG_SHA256))
def test_svg_outputs_keep_golden_bytes(case):
    assert hashlib.sha256(golden_svg(case).encode("utf-8")).hexdigest() == GOLDEN_SVG_SHA256[case]
