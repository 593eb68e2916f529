"""Counters and spans recorded around the names each cspace layer calls.

The wrappers live here, in the benchmark, and replace module attributes for
the duration of a run; the program itself is not changed.  Counting is always
on (an integer add per wrapped call).  Spans are recorded only when tracing:
each is ``[name, parent, start, end]`` in a list kept in memory, and a span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from time import perf_counter

import numpy as np

# Span names per layer; the per-layer table in README.md follows these.
CLI_WRAPS = {
    "build_surface": "surface.build",
    "sensitivity": "sensitivity",
    "sensitivity_curve": "sensitivity",
    "surface_to_csv": "formats.write",
    "surface_to_json": "formats.write",
    "curve_to_csv": "formats.write",
    "curves_to_json": "formats.write",
    "render_surface_svg": "render.svg",
    "render_surface_pair_svg": "render.svg",
    "render_curves_svg": "render.svg",
    "_write_text": "cli.write",
}
RENDER_WRAPS = {"_level_topology": "render.contour", "_region_polygons": "render.bands"}

# Counters that must repeat exactly for a given job, in every pass and mode.
EXACT = (
    "metrics.calls",
    "metrics.cells",
    "surface.builds",
    "surface.repeats",
    "sensitivity.samples",
    "formats.bytes_out",
    "formats.bytes_in",
    "render.svg_bytes",
    "cli.write_bytes",
)

# Per-layer metrics reported with --trace 1: name -> unit.
PER_LAYER = {
    "metrics.eval_s": "s",
    "metrics.calls": "count",
    "metrics.cells": "count",
    "surface.build_self_s": "s",
    "surface.builds": "count",
    "surface.repeat_frac": "frac",
    "sensitivity.self_s": "s",
    "sensitivity.samples": "count",
    "formats.write_s": "s",
    "formats.read_s": "s",
    "formats.bytes_out": "bytes",
    "formats.bytes_in": "bytes",
    "render.contour_s": "s",
    "render.bands_s": "s",
    "render.svg_self_s": "s",
    "render.svg_bytes": "bytes",
    "cli.write_s": "s",
    "cli.write_bytes": "bytes",
    "cli.self_s": "s",
    "trace.job_s": "s",
    "trace.overhead_frac": "frac",
    "metrics.share": "frac",
    "surface.share": "frac",
    "sensitivity.share": "frac",
    "formats.share": "frac",
    "render.share": "frac",
    "cli.write_share": "frac",
    "cli.self_share": "frac",
}

# Each share is the self time of these span names over the pass's job time.
SHARES = {
    "metrics.share": ("metrics.eval",),
    "surface.share": ("surface.build",),
    "sensitivity.share": ("sensitivity",),
    "formats.share": ("formats.write", "formats.read"),
    "render.share": ("render.svg", "render.contour", "render.bands"),
    "cli.write_share": ("cli.write",),
    "cli.self_share": ("job",),
}


def text_bytes(text: str) -> int:
    return len(text) if text.isascii() else len(text.encode("utf-8"))


class Recorder:
    """Counters for every call, plus spans while ``tracing`` is true."""

    def __init__(self) -> None:
        self.tracing = False
        self.counts: Counter[str] = Counter()
        self.built: set[tuple[str, float, int]] = set()
        self.spans: list[list] = []
        self._stack: list[int] = []

    def reset(self) -> None:
        """Start a new pass: counters, built-surface keys and spans are cleared."""
        self.counts.clear()
        self.built.clear()
        self.spans.clear()
        self._stack.clear()

    def call(self, name: str, fn, *args, **kwargs):
        if not self.tracing:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1, perf_counter(), 0.0])
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[idx][3] = perf_counter()

    def wrap(self, name: str, fn, on_args=None, on_result=None):
        def wrapper(*args, **kwargs):
            if on_args is not None:
                on_args(args, kwargs)
            result = self.call(name, fn, *args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    # -- counting hooks -------------------------------------------------

    def _metric_args(self, args, kwargs) -> None:
        self.counts["metrics.calls"] += 1
        self.counts["metrics.cells"] += int(np.prod(np.broadcast_shapes(np.shape(args[0]), np.shape(args[1]))))

    def _build_args(self, args, kwargs) -> None:
        metric, ratio = args[0], args[1]
        grid = args[2] if len(args) > 2 else kwargs.get("grid")
        key = (metric.id, float(ratio), grid.resolution if grid is not None else -1)
        self.counts["surface.builds"] += 1
        if key in self.built:
            self.counts["surface.repeats"] += 1
        self.built.add(key)

    def _samples(self, result) -> None:
        self.counts["sensitivity.samples"] += len(result.samples) if hasattr(result, "samples") else 1

    def _bytes(self, name: str):
        def add(result) -> None:
            self.counts[name] += text_bytes(result)

        return add

    def _write_args(self, args, kwargs) -> None:
        self.counts["cli.write_bytes"] += text_bytes(args[1])

    # -- installation ---------------------------------------------------

    def metric(self, desc):
        return dataclasses.replace(desc, fn=self.wrap("metrics.eval", desc.fn, on_args=self._metric_args))

    def patches(self, cspace_modules) -> list[tuple[object, str, object]]:
        """(module, attribute, replacement) for every wrapped name."""
        cli, sensitivity, render = cspace_modules
        wrapped_metrics: dict[str, object] = {}

        def get_metric(metric_id):
            desc = cli_get_metric(metric_id)
            if desc.id not in wrapped_metrics:
                wrapped_metrics[desc.id] = self.metric(desc)
            return wrapped_metrics[desc.id]

        def list_metrics():
            return tuple(get_metric(m.id) for m in cli_list_metrics())

        cli_get_metric, cli_list_metrics = cli.get_metric, cli.list_metrics
        hooks = {  # span name -> (on_args, on_result)
            "surface.build": (self._build_args, None),
            "sensitivity": (None, self._samples),
            "formats.write": (None, self._bytes("formats.bytes_out")),
            "render.svg": (None, self._bytes("render.svg_bytes")),
            "cli.write": (self._write_args, None),
        }
        out = [(cli, "get_metric", get_metric), (cli, "list_metrics", list_metrics)]
        for attr, name in CLI_WRAPS.items():
            out.append((cli, attr, self.wrap(name, getattr(cli, attr), *hooks.get(name, (None, None)))))
        out.append((sensitivity, "build_surface", self.wrap("surface.build", sensitivity.build_surface,
                                                            self._build_args)))
        for attr, name in RENDER_WRAPS.items():
            out.append((render, attr, self.wrap(name, getattr(render, attr))))
        return out

    def reader(self, fn):
        """A formats reader wrapped as a ``formats.read`` span."""
        return self.wrap("formats.read", fn)

    # -- results ----------------------------------------------------------

    def self_times(self) -> Counter[str]:
        """Total self time per span name over the recorded spans."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter[str] = Counter()
        for (name, _, start, end), covered in zip(self.spans, child):
            out[name] += (end - start) - covered
        return out


def per_layer(counts: Counter, selfs: Counter, job_s: float, untraced_job_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""
    counts, selfs = Counter(counts), Counter(selfs)
    builds = counts["surface.builds"]
    m = {
        "metrics.eval_s": selfs["metrics.eval"],
        "metrics.calls": counts["metrics.calls"],
        "metrics.cells": counts["metrics.cells"],
        "surface.build_self_s": selfs["surface.build"],
        "surface.builds": builds,
        "surface.repeat_frac": counts["surface.repeats"] / builds if builds else 0.0,
        "sensitivity.self_s": selfs["sensitivity"],
        "sensitivity.samples": counts["sensitivity.samples"],
        "formats.write_s": selfs["formats.write"],
        "formats.read_s": selfs["formats.read"],
        "formats.bytes_out": counts["formats.bytes_out"],
        "formats.bytes_in": counts["formats.bytes_in"],
        "render.contour_s": selfs["render.contour"],
        "render.bands_s": selfs["render.bands"],
        "render.svg_self_s": selfs["render.svg"],
        "render.svg_bytes": counts["render.svg_bytes"],
        "cli.write_s": selfs["cli.write"],
        "cli.write_bytes": counts["cli.write_bytes"],
        "cli.self_s": selfs["job"],
        "trace.job_s": job_s,
        "trace.overhead_frac": job_s / untraced_job_s - 1.0,
    }
    for name, spans in SHARES.items():
        m[name] = sum(selfs[s] for s in spans) / job_s
    return {k: int(v) if PER_LAYER[k] in ("count", "bytes") else float(v) for k, v in m.items()}
