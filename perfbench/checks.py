"""Output checks, run outside the timed region.

Every execution of a job is checked against ``pins.json``: the sha256 of each
file it writes (and, for a read-back, of the array it parsed) must equal the
value recorded at the commit that defined the benchmark.  Each distinct job
is in addition checked once for meaning, against oracles that share no code
with the program where one exists:

* sensitivity curves: accuracy against its closed form on the grid, the
  agnostic metrics exactly 0, and ``s(1)`` exactly 0;
* compare: the ranking is sorted, and its printed values agree with the same
  oracles to the 9 digits printed;
* read-backs: CSV values equal ``build_surface`` to within the 9-significant-
  digit rounding of the file, JSON values and metadata equal it exactly;
* figures: every SVG parses as XML, and ``manifest.json`` as JSON.
"""

from __future__ import annotations

import hashlib
import json
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

AGNOSTIC = ("recall", "tss", "youden_j")
CLOSED_FORM_TOL = 1e-15


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def values_digest(values: np.ndarray) -> str:
    arr = np.ascontiguousarray(values, dtype=np.float64)
    return hashlib.sha256(repr(arr.shape).encode() + arr.tobytes()).hexdigest()


def accuracy_s(r: float, t: int) -> float:
    """Exact midpoint-rule sensitivity of accuracy on the t x t cell-centre grid."""
    return abs(r - 1.0) / (2.0 * (1.0 + r)) * (t * t - 1) / (3.0 * t * t)


def within_9_digits(parsed: np.ndarray, exact: np.ndarray) -> bool:
    """True when every parsed value is ``exact`` rounded to 9 significant digits."""
    mag = np.abs(exact)
    with np.errstate(divide="ignore"):
        exp = np.floor(np.log10(np.where(mag > 0, mag, 1.0)))
    tol = 0.5 * 10.0 ** (exp - 8) * (1 + 1e-6)
    return bool(np.all(np.abs(parsed - exact) <= np.where(mag > 0, tol, 0.0)))


def _svg(path: Path) -> list[str]:
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:
        return [f"{path.name}: not well-formed XML ({exc})"]
    if root.tag != "{http://www.w3.org/2000/svg}svg":
        return [f"{path.name}: root element is {root.tag}, not svg"]
    return []


def _curves(job, d: Path) -> list[str]:
    problems = []
    obj = json.loads((d / "sensitivity.json").read_text(encoding="utf-8"))
    t = job.info("t")
    ratios = list(job.info("ratios"))
    for mid in job.info("metrics"):
        samples = obj[mid]["samples"]
        if [s["r"] for s in samples] != ratios:
            problems.append(f"{mid}: ratios differ from the schedule")
            continue
        for smp in samples:
            r, s = smp["r"], smp["s"]
            if not 0.0 <= s < 1.0:
                problems.append(f"{mid}: s={s!r} outside [0, 1) at r={r!r}")
            if r == 1.0 and s != 0.0:
                problems.append(f"{mid}: s(1)={s!r}, not exactly 0")
            if mid in AGNOSTIC and s != 0.0:
                problems.append(f"{mid}: s={s!r} at r={r!r}, not exactly 0")
            if mid == "accuracy" and abs(s - accuracy_s(r, t)) > CLOSED_FORM_TOL:
                problems.append(f"accuracy: s={s!r} at r={r!r} is off the closed form {accuracy_s(r, t)!r}")
    return problems


def _compare(job, d: Path, stdout: str) -> list[str]:
    rows = [line.split() for line in stdout.splitlines()[1:] if line.strip()]
    got = {mid: float(s) for _, mid, s in rows}
    problems = _svg(d / "curves.svg")
    if sorted(got) != sorted(job.info("metrics")):
        return problems + [f"ranking lists {sorted(got)}"]
    values = [float(s) for _, _, s in rows]
    if values != sorted(values, reverse=True):
        problems.append("ranking is not sorted by s")
    r, t = job.info("ratio"), job.info("t")
    for mid, s in got.items():
        if mid in AGNOSTIC and s != 0.0:
            problems.append(f"{mid}: printed s={s!r}, not 0")
        if mid == "accuracy" and not within_9_digits(np.array([s]), np.array([accuracy_s(r, t)])):
            problems.append(f"accuracy: printed s={s!r} is off the closed form")
    return problems


def _read_back(job, d: Path, cspace) -> list[str]:
    from cspace import formats
    from cspace.surface import GridSpec, build_surface

    metric, ratio, t = job.info("metric"), job.info("ratio"), job.info("t")
    expected = build_surface(cspace.get_metric(metric), ratio, GridSpec(t))
    text = Path(job.argv[2].replace("{out}", str(d))).read_text(encoding="utf-8")
    if job.info("check") == "read-csv":
        got = formats.surface_values_from_csv(text)
        if got.shape != expected.values.shape or not within_9_digits(got, expected.values):
            return ["CSV values are not build_surface rounded to 9 digits"]
        return []
    surf = formats.surface_from_json(text)
    meta_ok = (surf.metric_id, surf.ratio, surf.grid, surf.rescale_interval) == (
        expected.metric_id, expected.ratio, expected.grid, expected.rescale_interval)
    if not meta_ok or not np.array_equal(surf.values, expected.values):
        return ["JSON read-back differs from build_surface"]
    return []


def meaning(job, d: Path, stdout: str, cspace) -> list[str]:
    """The once-per-distinct-job check; returns a list of problems."""
    kind = job.info("check")
    if kind == "curves":
        return _curves(job, d)
    if kind == "compare":
        return _compare(job, d, stdout)
    if kind == "svg":
        return _svg(d / "surface.svg")
    if kind == "reproduce":
        problems = [p for name in job.outputs if name.endswith(".svg") for p in _svg(d / name)]
        try:
            json.loads((d / "manifest.json").read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            problems.append(f"manifest.json: {exc}")
        return problems
    if kind.startswith("read-"):
        return _read_back(job, d, cspace)
    return []

