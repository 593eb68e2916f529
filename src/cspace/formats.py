"""CSV and JSON serialisation of surfaces and sensitivity curves.

Surface CSV: header ``tnr,tpr,value``, one row per grid cell in row-major
order (tpr index outer, tnr index inner), all numbers printed with 9
significant digits.  Surface JSON carries full metadata and full-precision
values: ``{"metric", "ratio", "t", "rescale", "values"}``.  Curve CSV:
header ``ratio,sensitivity``; curve JSON: ``{"metric", "samples"}`` with
``{"r", "s"}`` sample objects.  Every writer returns the file's bytes, which
are ASCII; the readers take text.
"""

from __future__ import annotations

import io
import json
import math

import numpy as np

from .errors import CspaceError
from .sensitivity import SensitivityCurve
from .surface import GridSpec, MetricSurface

__all__ = [
    "curve_to_csv",
    "curves_to_json",
    "surface_from_json",
    "surface_to_csv",
    "surface_to_json",
    "surface_values_from_csv",
]


# The one spelling of the 9-digit format.  For every float, b"%.9g" % x is the
# ASCII of format(x, ".9g"); the %-operator form lets one C-level format call
# fill a whole row of a CSV template.
_FMT9 = b"%.9g"
_CSV_HEADER = "tnr,tpr,value"
# The CSV reader splits the text into lines one block of about this many
# characters at a time, so only one block's line objects are alive at once.
_READ_BLOCK = 1 << 16

_ILL_TYPED = "not a surface JSON object: missing or ill-typed field ({})"


def surface_to_csv(surface: MetricSurface) -> bytes:
    # Each coordinate is formatted once, for both axes; a row of t lines is one
    # template ``x0 + tail + x1 + tail + ...`` whose t value slots one %-call
    # fills.  Rows go into one buffer, so the file's bytes exist once.
    xs = [_FMT9 % x for x in surface.grid.centers().tolist()]
    out = io.BytesIO()
    out.write(_CSV_HEADER.encode() + b"\n")
    for y, row in zip(xs, surface.values):
        tail = b"," + y + b"," + _FMT9 + b"\n"
        out.write((tail.join(xs) + tail) % tuple(row.tolist()))
    return out.getvalue()


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
        raise CspaceError("not a surface CSV: missing 'tnr,tpr,value' header")
    # Every data row has exactly two commas, so the comma count both tells
    # an empty body from a non-empty one (loadtxt warns on no data) and,
    # since loadtxt rejects rows with fewer than three fields, catches rows
    # with more.
    data_commas = text.count(",") - _CSV_HEADER.count(",")
    if data_commas == 0:
        raise CspaceError("surface CSV has no data rows")
    try:
        values = np.loadtxt(lines, dtype=np.float64, delimiter=",", comments=None, usecols=2, ndmin=1)
    except ValueError as exc:
        raise CspaceError(str(exc)) from exc
    if data_commas != 2 * len(values):
        raise CspaceError("every surface CSV row must have three fields: tnr,tpr,value")
    t = math.isqrt(len(values))
    if t * t != len(values):
        raise CspaceError(f"surface CSV must have a square number of data rows, got {len(values)}")
    GridSpec(t)  # the grid-size rule (t >= 2) that the JSON reader applies too
    return values.reshape(t, t)


def surface_to_json(surface: MetricSurface) -> bytes:
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
    out = io.BytesIO()
    out.write(head[: -len("]\n}")].encode())
    sep = "\n"
    for row in surface.values:
        out.write((sep + "    [\n      " + ",\n      ".join(map(repr, row.tolist())) + "\n    ]").encode())
        sep = ",\n"
    out.write(b"\n  ]\n}\n")
    return out.getvalue()


def surface_from_json(text: str) -> MetricSurface:
    """Parse a surface JSON; CspaceError when the text is not JSON or a field
    is missing or ill-typed.

    ``values`` is checked as one array, whose type must be integer or float
    (``MetricSurface``'s check): a list that mixes booleans with floats
    becomes float64 and is read.
    """
    try:
        obj = json.loads(text)
    except ValueError as exc:
        raise CspaceError(str(exc)) from exc
    try:
        metric, ratio, t = obj["metric"], obj["ratio"], obj["t"]
        values, rescale = obj["values"], tuple(obj["rescale"])
    except (KeyError, TypeError) as exc:
        raise CspaceError(_ILL_TYPED.format(exc)) from exc
    if not isinstance(metric, str):
        raise CspaceError(_ILL_TYPED.format(f"metric must be a string, got {metric!r}"))
    return MetricSurface(metric_id=metric, ratio=ratio, grid=GridSpec(t), values=values, rescale_interval=rescale)


def curve_to_csv(curve: SensitivityCurve) -> bytes:
    row = _FMT9 + b"," + _FMT9 + b"\n"
    return b"ratio,sensitivity\n" + b"".join(row % sample for sample in curve.samples)


def curves_to_json(curves: list[SensitivityCurve]) -> bytes:
    obj = {
        curve.metric_id: {"metric": curve.metric_id, "samples": [{"r": r, "s": s} for r, s in curve.samples]}
        for curve in curves
    }
    return (json.dumps(obj, indent=2) + "\n").encode()
