"""Command-line front end.

Subcommands::

    cspace surface      one metric surface -> CSV / JSON / SVG
    cspace sensitivity  sensitivity curves over a ratio schedule
    cspace compare      rank metrics by sensitivity at one ratio
    cspace reproduce    emit the bundled showcase figures + manifest

Ratio schedules are either an explicit comma list (``1,2,5``) or a geometric
range ``start:stop:factor`` (inclusive start; stop included when hit
exactly).  The environment variable ``CSPACE_OUT_DIR`` sets the default
output directory.  Exit status is 0 on success and 2 on usage or
configuration errors; files are written to a temporary name and renamed on
success, so failed runs leave no partial outputs.  ``--t`` may be at most
MAX_RESOLUTION, and one curve (schedule length x t^2 cells) at most
MAX_CURVE_CELLS; both are checked before any surface is built.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path
from typing import NoReturn, Sequence

import numpy as np

from . import __version__
from .errors import CspaceError, InsufficientSamplesError, UsageError
from .formats import curve_to_csv, curves_to_json, surface_to_csv, surface_to_json
from .metrics import MetricDescriptor, get_metric, list_metrics
from .render import CONTOUR_LEVELS, render_curves_svg, render_surface_pair_svg, render_surface_svg
from .sensitivity import (
    DEFAULT_AGNOSTIC_TOL,
    RatioSchedule,
    SensitivityCurve,
    _curve,
    curve_is_agnostic,
    log_growth_check,
    sensitivity,  # noqa: F401  (not called here; perfbench/tracing.py wraps cli.sensitivity)
    sensitivity_curve,
)
from .surface import DEFAULT_RESOLUTION, GridSpec, build_surface

__all__ = ["main"]

# One t=4096 surface is 128 MiB of float64; 2**28 cells is t=1024 over 256
# ratios, above the paper's scale of about 200.
MAX_RESOLUTION = 4096
MAX_CURVE_CELLS = 2**28


def _out_dir(args: argparse.Namespace) -> Path:
    """--out-dir when given, else $CSPACE_OUT_DIR, else the working directory."""
    return Path(args.out_dir or os.environ.get("CSPACE_OUT_DIR", "."))


def _write_text(path: Path, text: str) -> None:
    # Write-to-temp + rename keeps outputs atomic: either the full file
    # appears or nothing does.  Creating the temp file with mode 0o666 lets
    # the kernel apply the umask, as open() would, without changing it.  Its
    # random part is as long as mkstemp's, so the longest usable name holds.
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _parse_schedule(spec: str) -> RatioSchedule:
    s = spec.strip()
    if ":" in s:
        parts = s.split(":")
        if len(parts) != 3:
            raise UsageError(f"geometric schedule must be start:stop:factor, got {spec!r}")
        try:
            start, stop, factor = (float(p) for p in parts)
        except ValueError as exc:
            raise UsageError(f"invalid geometric schedule {spec!r}") from exc
        return RatioSchedule.geometric(start, stop, factor)
    try:
        ratios = tuple(float(p) for p in s.split(","))
    except ValueError as exc:
        raise UsageError(f"invalid ratio list {spec!r}") from exc
    return RatioSchedule(ratios)


def _grid(t: int, ratios: int = 1) -> GridSpec:
    """The grid for ``--t``, once t and the ``ratios * t**2`` cells of one
    curve are within the caps."""
    if t > MAX_RESOLUTION:
        raise UsageError(f"--t {t} is above the largest resolution, {MAX_RESOLUTION}")
    grid = GridSpec(t)
    cells = ratios * t * t
    if cells > MAX_CURVE_CELLS:
        raise UsageError(
            f"{ratios} ratios at t={t} need {cells} cells per curve, more than {MAX_CURVE_CELLS}"
        )
    return grid


def _parse_metrics(spec: str) -> list[MetricDescriptor]:
    ids = [part.strip() for part in spec.split(",") if part.strip()]
    if not ids:
        raise UsageError("no metrics named")
    metrics = [get_metric(mid) for mid in ids]
    repeated = sorted({mid for mid in ids if ids.count(mid) > 1})
    if repeated:
        raise UsageError(f"metric named more than once: {', '.join(repeated)}")
    return metrics


def _cmd_surface(args: argparse.Namespace) -> int:
    metric = get_metric(args.metric)
    grid = _grid(args.t)
    surf = build_surface(metric, args.ratio, grid)
    if args.out:
        out = Path(args.out)
    else:
        out = _out_dir(args) / f"surface_{metric.id}_r{surf.ratio:g}_t{args.t}.{args.format}"
    if args.format == "csv":
        text = surface_to_csv(surf)
    elif args.format == "json":
        text = surface_to_json(surf)
    else:
        text = render_surface_svg(surf)
    _write_text(out, text)
    vals = surf.values
    print(
        f"surface metric={metric.id} r={surf.ratio:g} t={args.t} "
        f"min={np.min(vals):.9g} max={np.max(vals):.9g} mean={np.mean(vals):.9g} -> {out}"
    )
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    metrics = _parse_metrics(args.metrics)
    schedule = _parse_schedule(args.ratios)
    grid = _grid(args.t, len(schedule))
    out_dir = _out_dir(args)
    curves = [sensitivity_curve(m, schedule, grid) for m in metrics]
    # Verdicts come before any write, so a bad --tol leaves no files behind.
    verdicts = [curve_is_agnostic(curve, args.tol) for curve in curves]

    if args.format == "json":
        _write_text(out_dir / "sensitivity.json", curves_to_json(curves))
    else:
        for curve in curves:
            _write_text(out_dir / f"sensitivity_{curve.metric_id}.csv", curve_to_csv(curve))
    if args.svg:
        _write_text(out_dir / args.svg, render_curves_svg(curves, args.log_x))

    for curve, agnostic in zip(curves, verdicts):
        try:
            report = log_growth_check(curve)
        except InsufficientSamplesError:
            growth = ""
        else:
            growth = " growth=" + ("logarithmic-like" if report.logarithmic_like else "irregular")
        if agnostic:
            print(f"{curve.metric_id}: agnostic (tol={args.tol:g})")
        else:
            print(f"{curve.metric_id}: sensitive max_s={max(curve.values):.9g}{growth}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    metrics = _parse_metrics(args.metrics)
    if len(metrics) < 2:
        raise UsageError("compare needs at least two metrics")
    schedule = _parse_schedule(args.ratios) if args.svg else None
    # One curve per metric over the ranking ratio and any plotted schedule,
    # so each balanced surface is built once; the cap counts all of them.
    plotted = set(schedule.ratios) if schedule else set()
    both = RatioSchedule(tuple(sorted(plotted | {args.ratio})))
    grid = _grid(args.t, len(both))
    curves = [sensitivity_curve(m, both, grid) for m in metrics]
    rows = sorted(
        ((dict(c.samples)[args.ratio], c.metric_id) for c in curves),
        key=lambda pair: (-pair[0], pair[1]),
    )
    print(f"rank  metric       s@r={args.ratio:g}")
    for rank, (s, mid) in enumerate(rows, start=1):
        print(f"{rank:>4}  {mid:<11}  {s:.9g}")
    if schedule:
        shown = [
            SensitivityCurve(c.metric_id, tuple(p for p in c.samples if p[0] in plotted), grid)
            for c in curves
        ]
        _write_text(_out_dir(args) / args.svg, render_curves_svg(shown, args.log_x))
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    out_dir = _out_dir(args)
    schedule = _parse_schedule(args.ratios)
    grid = _grid(args.t, len(schedule))

    f1 = get_metric("f1")
    balanced = build_surface(f1, 1.0, grid)
    skewed = build_surface(f1, 49.0, grid)
    core = [m for m in list_metrics() if not m.extension]
    # f1's curve reuses the balanced surface of the panels.
    curves = [
        _curve(m, schedule, grid, balanced.values) if m == f1 else sensitivity_curve(m, schedule, grid)
        for m in core
    ]

    files = {
        "fig2_f1_contour_r1.svg": render_surface_svg(balanced),
        "fig3_f1_contours_r1_r49.svg": render_surface_pair_svg(balanced, skewed),
        "fig4_sensitivity_curves.svg": render_curves_svg(curves, log_x=True),
    }
    manifest = {
        "files": sorted(files),
        "parameters": {
            "t": args.t,
            "surface_metric": "f1",
            "surface_ratios": [1.0, 49.0],
            "curve_metrics": [m.id for m in core],
            "schedule": list(schedule.ratios),
            "contour_levels": list(CONTOUR_LEVELS),
        },
        "version": __version__,
    }
    for name, text in files.items():
        _write_text(out_dir / name, text)
    _write_text(out_dir / "manifest.json", json.dumps(manifest, indent=2) + "\n")
    for name in [*sorted(files), "manifest.json"]:
        print(f"wrote {out_dir / name}")
    return 0


# Option values that argparse (through its private negative-number matcher,
# which knows only -3 and -.5) would take for flags: a minus sign before a
# decimal or exponent literal, inf or nan.  No cspace option looks like one.
_NEGATIVE_NUMBER = re.compile(
    r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE
)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors end as one ``error:`` line
    naming the (sub)command, and which reads ``--ratio -1e-3`` as a value."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message: str) -> NoReturn:
        raise UsageError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cspace",
        description="Metric surfaces and class-imbalance sensitivity analysis.",
        epilog="CSPACE_OUT_DIR sets the default output directory.",
    )
    parser.add_argument("--version", action="version", version=f"cspace {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("surface", help="evaluate one metric surface and write it out")
    ps.add_argument("--metric", required=True, help="catalog metric id")
    ps.add_argument("--ratio", required=True, type=float, help="imbalance ratio r (1:r)")
    ps.add_argument("--t", type=int, default=DEFAULT_RESOLUTION, help="grid resolution per axis")
    ps.add_argument("--format", choices=("csv", "json", "svg"), default="csv")
    ps.add_argument("--out", help="output file (default: surface_<metric>_r<r>_t<t>.<fmt>)")
    ps.set_defaults(func=_cmd_surface, out_dir=None)

    pn = sub.add_parser("sensitivity", help="sensitivity curves over a ratio schedule")
    pn.add_argument("--metrics", required=True, help="comma-separated metric ids")
    pn.add_argument("--ratios", required=True, help="comma list or start:stop:factor")
    pn.add_argument("--t", type=int, default=DEFAULT_RESOLUTION)
    pn.add_argument("--format", choices=("csv", "json"), default="csv")
    pn.add_argument("--svg", help="also write a combined curve plot with this file name")
    pn.add_argument("--tol", type=float, default=DEFAULT_AGNOSTIC_TOL, help="agnostic tolerance")
    pn.add_argument("--log-x", action="store_true", help="log-scale ratio axis in the SVG")
    pn.add_argument("--out-dir", help="output directory")
    pn.set_defaults(func=_cmd_sensitivity)

    pc = sub.add_parser("compare", help="rank metrics by sensitivity at one ratio")
    pc.add_argument("--metrics", required=True, help="comma-separated metric ids (at least two)")
    pc.add_argument("--ratio", required=True, type=float)
    pc.add_argument("--t", type=int, default=DEFAULT_RESOLUTION)
    pc.add_argument("--svg", help="also write a curve plot with this file name")
    pc.add_argument("--ratios", default="1:1024:2", help="schedule for the SVG curves")
    pc.add_argument("--log-x", action="store_true")
    pc.add_argument("--out-dir", help="output directory")
    pc.set_defaults(func=_cmd_compare)

    pr = sub.add_parser("reproduce", help="emit the bundled showcase figures")
    pr.add_argument("--out-dir", help="output directory")
    pr.add_argument("--t", type=int, default=DEFAULT_RESOLUTION)
    pr.add_argument("--ratios", default="1:1024:2", help="curve schedule")
    pr.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        try:
            args, extra = _build_parser().parse_known_args(argv)
        except SystemExit as exc:  # --help and --version
            return exc.code if isinstance(exc.code, int) else 2
        if extra:
            raise UsageError(f"cspace {args.command}: unrecognized arguments: {' '.join(extra)}")
        return args.func(args)
    except (CspaceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
