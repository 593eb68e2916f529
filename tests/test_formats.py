from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cspace import GridSpec, RatioSchedule, build_surface, get_metric, list_metrics, sensitivity_curve
from cspace.formats import (
    curve_to_csv,
    curve_to_json_obj,
    curves_to_json,
    surface_from_json,
    surface_to_csv,
    surface_to_json,
    surface_values_from_csv,
)


@pytest.fixture
def f1_surface():
    return build_surface(get_metric("f1"), 49.0, GridSpec(16))


def test_surface_csv_shape_and_header(f1_surface):
    text = surface_to_csv(f1_surface)
    lines = text.strip().split("\n")
    assert lines[0] == "tnr,tpr,value"
    assert len(lines) == 1 + 16 * 16
    # row-major: the first 16 rows share the first tpr sample
    first_tpr = lines[1].split(",")[1]
    assert all(ln.split(",")[1] == first_tpr for ln in lines[1:17])


def test_surface_csv_round_trip_within_print_precision(f1_surface):
    values = surface_values_from_csv(surface_to_csv(f1_surface))
    assert values.shape == (16, 16)
    assert np.max(np.abs(values - f1_surface.values)) < 1e-8


def test_surface_csv_parser_rejects_garbage():
    with pytest.raises(ValueError):
        surface_values_from_csv("nope\n1,2,3\n")
    with pytest.raises(ValueError):
        surface_values_from_csv("tnr,tpr,value\n0.1,0.1,0.5\n0.3,0.1,0.5\n")


# sha256 of (surface_to_csv, surface_to_json) output, pinned from the per-cell
# writers; any change to either writer must keep these bytes.
GOLDEN_SHA256 = {
    ("f1", 49.0, 2): (
        "dabf8987536bf72866d91fd5166138d8362ad93e86e449e4aa7014c15b306f14",
        "ca48b8dc8b2d599850ee158050d36ef2f16b2efe4ec75a24338f49e527c614fb",
    ),
    ("hss", 3.0, 3): (
        "975ed19a6f8a4359e2631d04ffadff006fa4538e888a65368c6c776523cc30c5",
        "e1180a07d0c2fee16cbaf0d092040ccabca364125c209086921d386f0fc3a9e3",
    ),
    ("accuracy", 0.25, 5): (
        "88a046b295525dd81d3f64fb553d020d12fe5b3e0c2c315f4b45c56d15edfe90",
        "5174d3f18a54a5575177cdf6c98e56b77a810aacc067f18256997e378b989703",
    ),
    ("recall", 2.0, 16): (
        "c312a4ffadff45cbb2d3f381b07415e26141f9f5afa36dd0c20ed4aab208d0ea",
        "dfa6a47aad453934313e0b9ea0d0ab2bc6f268ad30670b3ff7ad708e1bb8c764",
    ),
    ("gilbert", 7.0, 33): (
        "89630f58bca7c39b4bf6319eaa22e3ae22b7e3f671339104abce3d4d4dbd8b7c",
        "bc9536a1fb0959948270c4f6c5560ff75f5f3ffd7e48653ad0c98208efde1d0c",
    ),
    ("precision", 1000.0, 64): (
        "80d70f7abe8e52c277bc996c89ff3050ba60cff1ac79c33a4b6a2541b21098bd",
        "7fa002452e22cd44a9189507e75039f0b2b0f1b2f514552a8aa72cc02bf46b01",
    ),
    ("doolittle", 1000.0, 64): (
        "890021be9082561cd2b301028436422dfa3770670125c9acddab2ca9957a150f",
        "7ff04b39d8e81405ce0e1c1230d599ae61e2659c728564450c6fab44a9f0abc7",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_SHA256), ids=lambda c: f"{c[0]}-r{c[1]:g}-t{c[2]}")
def test_surface_writers_keep_golden_bytes(case):
    metric_id, ratio, t = case
    surface = build_surface(get_metric(metric_id), ratio, GridSpec(t))
    digests = tuple(
        hashlib.sha256(text.encode("utf-8")).hexdigest()
        for text in (surface_to_csv(surface), surface_to_json(surface))
    )
    assert digests == GOLDEN_SHA256[case]


surface_cases = st.builds(
    lambda idx, log_r, t: build_surface(list_metrics()[idx], 10.0**log_r, GridSpec(t)),
    st.integers(0, len(list_metrics()) - 1),
    st.floats(-3.0, 6.0, allow_nan=False),
    st.integers(2, 12),
)


@settings(max_examples=60, deadline=None)
@given(surface=surface_cases)
def test_surface_csv_matches_per_cell_oracle(surface):
    t = surface.grid.resolution
    centers = [(k + 0.5) / t for k in range(t)]
    lines = ["tnr,tpr,value"]
    for i, y in enumerate(centers):
        for j, x in enumerate(centers):
            lines.append(",".join(format(v, ".9g") for v in (x, y, float(surface.values[i, j]))))
    assert surface_to_csv(surface) == "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(surface=surface_cases)
def test_surface_json_matches_indented_dump_oracle(surface):
    obj = {
        "metric": surface.metric_id,
        "ratio": surface.ratio,
        "t": surface.grid.resolution,
        "rescale": list(surface.rescale_interval),
        "values": [[float(v) for v in row] for row in surface.values],
    }
    assert surface_to_json(surface) == json.dumps(obj, indent=2) + "\n"


HEADER = "tnr,tpr,value\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "text",
    [
        "",
        "\n\n",
        "0.25,0.25,0.5\n",
        HEADER,
        HEADER + "\n\n",
        HEADER + "0.1,0.1,0.5\n0.3,0.1,0.5\n0.1,0.3,0.5\n",
        HEADER + "0.25,0.5\n",
        HEADER + "0.25,0.25,0.5\n0.75,0.25\n0.25,0.75,0.5\n0.75,0.75,0.5\n",
        HEADER + "0.25,0.25,0.5,0.5\n",
        HEADER + "0.25,0.25,0.5\n0.75,0.25,0.5,0.5\n0.25,0.75,0.5\n0.75,0.75,0.5\n",
        HEADER + "0.25,0.25,abc\n",
        HEADER + "0.25,0.25,0.5\n0.75,0.25,0.5\n0.25,0.75,\n0.75,0.75,0.5\n",
    ],
    ids=[
        "empty",
        "blank",
        "no-header",
        "header-only",
        "header-and-blank",
        "3-rows",
        "2-fields",
        "2-fields-mid",
        "4-fields",
        "4-fields-mid",
        "non-numeric",
        "empty-value",
    ],
)
def test_surface_csv_parser_raises_value_error(text):
    with pytest.raises(ValueError):
        surface_values_from_csv(text)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tail", ["", "\n", "\n\n\n", "  \n\t\n"], ids=["none", "one", "three", "spaces"])
def test_surface_csv_parser_accepts_blank_trailing_lines(f1_surface, tail):
    values = surface_values_from_csv(surface_to_csv(f1_surface) + tail)
    assert np.array_equal(values, surface_values_from_csv(surface_to_csv(f1_surface)))
    assert values.shape == (16, 16)


@pytest.mark.filterwarnings("error")
def test_surface_csv_parser_reads_crlf_and_t2():
    text = HEADER + "0.25,0.25,0.5\n0.75,0.25,1\n0.25,0.75,0\n0.75,0.75,2.5e-07\n"
    expected = np.array([[0.5, 1.0], [0.0, 2.5e-07]])
    assert np.array_equal(surface_values_from_csv(text), expected)
    assert np.array_equal(surface_values_from_csv(text.replace("\n", "\r\n")), expected)


def test_surface_json_schema_and_exact_round_trip(f1_surface):
    text = surface_to_json(f1_surface)
    obj = json.loads(text)
    assert list(obj) == ["metric", "ratio", "t", "rescale", "values"]
    assert obj["metric"] == "f1"
    assert obj["ratio"] == 49.0
    assert obj["t"] == 16
    assert obj["rescale"] == [0.0, 1.0]
    back = surface_from_json(text)
    assert np.array_equal(back.values, f1_surface.values)
    assert back.grid == f1_surface.grid


def test_curve_csv_format():
    curve = sensitivity_curve(get_metric("accuracy"), RatioSchedule((1.0,)), GridSpec(8))
    assert curve_to_csv(curve) == "ratio,sensitivity\n1,0\n"


def test_curve_json_objects():
    curves = [
        sensitivity_curve(get_metric(mid), RatioSchedule((1.0, 2.0)), GridSpec(8))
        for mid in ("recall", "accuracy")
    ]
    obj = json.loads(curves_to_json(curves))
    assert list(obj) == ["recall", "accuracy"]
    assert obj["recall"]["samples"][0] == {"r": 1.0, "s": 0.0}
    single = curve_to_json_obj(curves[1])
    assert single["metric"] == "accuracy"
    assert len(single["samples"]) == 2
