"""CSV and JSON serialisation of surfaces and sensitivity curves.

Surface CSV: header ``tnr,tpr,value``, one row per grid cell in row-major
order (tpr index outer, tnr index inner), all numbers printed with 9
significant digits.  Surface JSON carries full metadata and full-precision
values: ``{"metric", "ratio", "t", "rescale", "values"}``.  Curve CSV:
header ``ratio,sensitivity``; curve JSON: ``{"metric", "samples"}`` with
``{"r", "s"}`` sample objects.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .sensitivity import SensitivityCurve
from .surface import GridSpec, MetricSurface

__all__ = [
    "curve_to_csv",
    "curve_to_json_obj",
    "curves_to_json",
    "fmt9",
    "surface_from_json",
    "surface_to_csv",
    "surface_to_json",
    "surface_values_from_csv",
]


# The one spelling of the 9-digit format.  For every float, "%.9g" % x is the
# string format(x, ".9g") gives; the %-operator form lets one C-level format
# call fill a whole row of a CSV template.
_FMT9 = "%.9g"
_CSV_HEADER = "tnr,tpr,value"
# The CSV reader splits the text into lines one block of about this many
# characters at a time, so only one block's line objects are alive at once.
_READ_BLOCK = 1 << 16


def fmt9(x: float) -> str:
    """A float at 9 significant digits (round-trip error below 1e-8 on [0,1])."""
    return _FMT9 % float(x)


def surface_to_csv(surface: MetricSurface) -> str:
    # Each coordinate is formatted once; a row of t lines is one template
    # ``x0 + tail + x1 + tail + ...`` whose t value slots one %-call fills.
    xs = [fmt9(x) for x in surface.tnr_coords.tolist()]
    parts = [_CSV_HEADER + "\n"]
    for y, row in zip(surface.tpr_coords.tolist(), surface.values):
        tail = f",{fmt9(y)},{_FMT9}\n"
        parts.append((tail.join(xs) + tail) % tuple(row.tolist()))
    return "".join(parts)


def _lines(text: str):
    """The lines of ``text``, split block by block; trailing blank lines dropped."""
    start, n = 0, len(text)
    while start < n:
        end = text.find("\n", start + _READ_BLOCK) + 1 or n
        block = text[start:end]
        yield from (block if end < n else block.rstrip()).splitlines()
        start = end


def surface_values_from_csv(text: str) -> np.ndarray:
    """Parse a surface CSV back into its t x t value matrix."""
    lines = _lines(text)
    if next((ln for ln in lines if ln.strip()), None) != _CSV_HEADER:
        raise ValueError("not a surface CSV: missing 'tnr,tpr,value' header")
    # Every data row has exactly two commas, so the comma count both tells
    # an empty body from a non-empty one (loadtxt warns on no data) and,
    # since loadtxt rejects rows with fewer than three fields, catches rows
    # with more.
    data_commas = text.count(",") - _CSV_HEADER.count(",")
    if data_commas == 0:
        raise ValueError("surface CSV has no data rows")
    values = np.loadtxt(lines, dtype=np.float64, delimiter=",", comments=None, usecols=2, ndmin=1)
    if data_commas != 2 * len(values):
        raise ValueError("every surface CSV row must have three fields: tnr,tpr,value")
    t = math.isqrt(len(values))
    if t * t != len(values):
        raise ValueError(f"surface CSV must have a square number of data rows, got {len(values)}")
    return values.reshape(t, t)


def surface_to_json(surface: MetricSurface) -> str:
    # json.dumps(indent=2) lays the matrix out one number per line; the
    # values block is built in that layout from each row's float reprs,
    # which is what json writes for finite floats (surface values lie in [0, 1]).
    head = json.dumps(
        {
            "metric": surface.metric_id,
            "ratio": surface.ratio,
            "t": surface.grid.resolution,
            "rescale": list(surface.rescale_interval),
            "values": [],
        },
        indent=2,
    )
    rows = ["    [\n      " + ",\n      ".join(map(repr, row.tolist())) + "\n    ]" for row in surface.values]
    # The head and the tail ride on the first and last rows, so the text is
    # made by one join.
    rows[0] = head[: -len("]\n}")] + "\n" + rows[0]
    rows[-1] += "\n  ]\n}\n"
    return ",\n".join(rows)


def surface_from_json(text: str) -> MetricSurface:
    obj = json.loads(text)
    return MetricSurface(
        metric_id=obj["metric"],
        ratio=obj["ratio"],
        grid=GridSpec(obj["t"]),
        values=np.asarray(obj["values"], dtype=np.float64),
        rescale_interval=(obj["rescale"][0], obj["rescale"][1]),
    )


def curve_to_csv(curve: SensitivityCurve) -> str:
    lines = ["ratio,sensitivity"]
    for r, s in curve.samples:
        lines.append(f"{fmt9(r)},{fmt9(s)}")
    return "\n".join(lines) + "\n"


def curve_to_json_obj(curve: SensitivityCurve) -> dict:
    return {"metric": curve.metric_id, "samples": [{"r": r, "s": s} for r, s in curve.samples]}


def curves_to_json(curves: list[SensitivityCurve]) -> str:
    obj = {curve.metric_id: curve_to_json_obj(curve) for curve in curves}
    return json.dumps(obj, indent=2) + "\n"
