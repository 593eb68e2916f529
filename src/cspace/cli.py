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
configuration errors.  A command's files are all written to temporary names
before any is renamed, so they appear together or not at all, unless one of
the final renames fails; standard output is printed once every file has
landed.  ``--t`` may be at most MAX_RESOLUTION, one curve (schedule length x
t^2 cells) at most MAX_CURVE_CELLS, every output must name a file that is not
a directory, and the nearest existing ancestor of each output, and of the
output directory itself, must be a directory; all of these are checked before
any surface is built.
"""

from __future__ import annotations

import argparse
import contextlib
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


def _can_be_directory(path: Path) -> bool:
    """Whether ``path`` is a directory or can be made one: the nearest of it
    and its ancestors that exists is a directory."""
    return next((p for p in (path, *path.parents) if os.path.lexists(p)), path).is_dir()


def _out_dir(args: argparse.Namespace) -> Path:
    """--out-dir when given, else $CSPACE_OUT_DIR, else the working directory,
    once it is or can be made a directory."""
    option = "--out-dir" if args.out_dir else "CSPACE_OUT_DIR"
    path = Path(args.out_dir or os.environ.get("CSPACE_OUT_DIR", "."))
    if not _can_be_directory(path):
        raise UsageError(f"{option} {str(path)!r} is not a directory")
    return path


# _write_text hands the text to the file this many characters at a time, so
# the encoder never holds an encoded copy of a whole large file.
_WRITE_SLICE = 1 << 20


def _write_text(fd: int, text: str) -> None:
    """Write ``text`` as UTF-8 to the open file ``fd`` and close it."""
    with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
        for start in range(0, len(text), _WRITE_SLICE):
            fh.write(text[start : start + _WRITE_SLICE])


def _write_files(files: dict[Path, str]) -> None:
    """Write every file to a temporary name beside it, then rename them all;
    on any error remove each temporary file made.  Mode 0o666 lets the kernel
    apply the umask as open() would; a temporary name's length does not
    depend on the target's, so every name the file system allows holds."""
    made: list[Path] = []
    try:
        for path, text in files.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(f".{os.urandom(8).hex()}.tmp")
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            made.append(tmp)
            _write_text(fd, text)
        for tmp, path in zip(made, files):
            os.replace(tmp, path)
    except BaseException:
        for tmp in made:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
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


def _target(option: str, name: str, out_dir: Path | None = None) -> Path:
    """The file ``name``, under ``out_dir`` when given, once its last component
    is not empty, ``.`` or ``..``, it is not an existing directory and its
    parent is or can be made a directory."""
    path = Path(name) if out_dir is None else out_dir / name
    if os.path.basename(name) in ("", ".", ".."):
        raise UsageError(f"{option} {name!r} does not name a file")
    if path.is_dir():
        raise UsageError(f"{option} {name!r} is a directory")
    if not _can_be_directory(path.parent):
        raise UsageError(f"{option} {name!r} is below a file")
    return path


def _parse_metrics(spec: str) -> list[MetricDescriptor]:
    ids = [part.strip() for part in spec.split(",") if part.strip()]
    if not ids:
        raise UsageError("no metrics named")
    metrics = [get_metric(mid) for mid in ids]
    repeated = sorted({mid for mid in ids if ids.count(mid) > 1})
    if repeated:
        raise UsageError(f"metric named more than once: {', '.join(repeated)}")
    return metrics


_Output = tuple[dict[Path, str], list[str]]  # a command's files to write, lines to print


def _cmd_surface(args: argparse.Namespace) -> _Output:
    metric = get_metric(args.metric)
    grid = _grid(args.t)
    if args.out is None:
        name = f"surface_{metric.id}_r{args.ratio:g}_t{args.t}.{args.format}"
        out = _target("output", str(_out_dir(args) / name))
    else:
        out = _target("--out", args.out)
    surf = build_surface(metric, args.ratio, grid)
    # Built per call, so that writers patched after import are the ones used.
    writers = {"csv": surface_to_csv, "json": surface_to_json, "svg": render_surface_svg}
    vals = surf.values
    line = f"surface metric={metric.id} r={surf.ratio:g} t={args.t} min={np.min(vals):.9g} "
    line += f"max={np.max(vals):.9g} mean={np.mean(vals):.9g} -> {out}"
    return {out: writers[args.format](surf)}, [line]


def _cmd_sensitivity(args: argparse.Namespace) -> _Output:
    metrics = _parse_metrics(args.metrics)
    schedule = _parse_schedule(args.ratios)
    grid = _grid(args.t, len(schedule))
    out_dir = _out_dir(args)
    as_json = args.format == "json"
    names = ["sensitivity.json"] if as_json else [f"sensitivity_{m.id}.csv" for m in metrics]
    paths = [_target("output", str(out_dir / name)) for name in names]
    svg = None if args.svg is None else _target("--svg", args.svg, out_dir)
    if svg is not None and svg.name in names and svg.parent.resolve() == out_dir.resolve():
        raise UsageError(f"--svg {args.svg!r} is also the name of a curve data file")
    curves = [sensitivity_curve(m, schedule, grid) for m in metrics]
    lines = []
    for curve in curves:
        try:
            report = log_growth_check(curve)
        except InsufficientSamplesError:
            growth = ""
        else:
            growth = " growth=" + ("logarithmic-like" if report.logarithmic_like else "irregular")
        if curve_is_agnostic(curve, args.tol):
            lines.append(f"{curve.metric_id}: agnostic (tol={args.tol:g})")
        else:
            lines.append(f"{curve.metric_id}: sensitive max_s={max(curve.values):.9g}{growth}")
    texts = [curves_to_json(curves)] if as_json else [curve_to_csv(curve) for curve in curves]
    files = dict(zip(paths, texts))
    if svg is not None:
        files[svg] = render_curves_svg(curves, args.log_x)
    return files, lines


def _cmd_compare(args: argparse.Namespace) -> _Output:
    metrics = _parse_metrics(args.metrics)
    if len(metrics) < 2:
        raise UsageError("compare needs at least two metrics")
    # --ratios is checked even when no SVG will plot it.
    schedule = _parse_schedule(args.ratios)
    # One curve per metric over the ranking ratio and any plotted schedule,
    # so each balanced surface is built once; the cap counts all of them.
    plotted = set(schedule.ratios) if args.svg is not None else set()
    both = RatioSchedule(tuple(sorted(plotted | {args.ratio})))
    grid = _grid(args.t, len(both))
    svg = None if args.svg is None else _target("--svg", args.svg, _out_dir(args))
    curves = [sensitivity_curve(m, both, grid) for m in metrics]
    rows = sorted(
        ((dict(c.samples)[args.ratio], c.metric_id) for c in curves),
        key=lambda pair: (-pair[0], pair[1]),
    )
    lines = [f"rank  metric       s@r={args.ratio:g}"]
    lines += [f"{rank:>4}  {mid:<11}  {s:.9g}" for rank, (s, mid) in enumerate(rows, start=1)]
    if svg is None:
        return {}, lines
    shown = [
        SensitivityCurve(c.metric_id, tuple(p for p in c.samples if p[0] in plotted), grid)
        for c in curves
    ]
    return {svg: render_curves_svg(shown, args.log_x)}, lines


# The figures reproduce writes, in the order of their texts; manifest.json follows.
_FIGURES = ("fig2_f1_contour_r1.svg", "fig3_f1_contours_r1_r49.svg", "fig4_sensitivity_curves.svg")


def _cmd_reproduce(args: argparse.Namespace) -> _Output:
    out_dir = _out_dir(args)
    schedule = _parse_schedule(args.ratios)
    grid = _grid(args.t, len(schedule))
    paths = [_target("output", str(out_dir / name)) for name in (*_FIGURES, "manifest.json")]

    f1 = get_metric("f1")
    balanced = build_surface(f1, 1.0, grid)
    skewed = build_surface(f1, 49.0, grid)
    core = [m for m in list_metrics() if not m.extension]
    curves = [sensitivity_curve(m, schedule, grid) for m in core]

    texts = [
        render_surface_svg(balanced),
        render_surface_pair_svg(balanced, skewed),
        render_curves_svg(curves, log_x=True),
    ]
    manifest = {
        "files": list(_FIGURES),
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
    texts.append(json.dumps(manifest, indent=2) + "\n")
    return dict(zip(paths, texts)), [f"wrote {path}" for path in paths]


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
        files, lines = args.func(args)
        _write_files(files)
        for line in lines:
            print(line)
        return 0
    except (CspaceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
