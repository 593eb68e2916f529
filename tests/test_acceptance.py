"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Resolutions and tolerances are fixed here, not configurable.
"""

from __future__ import annotations

import json
import math
import time
import xml.etree.ElementTree as ET

import numpy as np
from conftest import metric_from_counts
from test_sensitivity import GOLDEN_S_F1_49, GOLDEN_S_PRECISION_49

from cspace import (
    GridSpec,
    RatioSchedule,
    build_surface,
    get_metric,
    list_metrics,
    sensitivity,
    sensitivity_curve,
)
from cspace.cli import main

GRID = GridSpec(256)


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_c01_agnostic_set():
    t0 = time.perf_counter()
    schedule = RatioSchedule((2.0, 5.0, 10.0, 49.0, 100.0, 1000.0))
    worst = max(
        max(sensitivity_curve(get_metric(mid), schedule, GRID).values)
        for mid in ("recall", "tss", "youden_j")
    )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    assert report(1, ok, f"recall/tss/youden_j agnostic: max s={worst:.3g} ({elapsed:.2f}s)")


def test_c02_sensitivity_ordering_at_49():
    t0 = time.perf_counter()
    s = {mid: sensitivity(get_metric(mid), 49.0, GRID) for mid in ("precision", "f1", "accuracy", "hss")}
    elapsed = time.perf_counter() - t0
    ok = s["precision"] > s["f1"] > s["accuracy"] > s["hss"] > 1e-4 and elapsed < 1.0
    detail = " > ".join(f"{mid}={s[mid]:.6f}" for mid in ("precision", "f1", "accuracy", "hss"))
    assert report(2, ok, f"ordering at r=49: {detail} ({elapsed:.2f}s)")


def test_c03_zero_at_balance_bitwise():
    values = [sensitivity(m, 1.0, GRID) for m in list_metrics()]
    ok = all(s == 0.0 and math.copysign(1.0, s) == 1.0 for s in values)
    assert report(3, ok, f"s at r=1 is +0.0 bitwise for all {len(values)} catalog metrics")


def test_c04_bounds_over_extreme_ratios():
    schedule = RatioSchedule((1e-3, 0.1, 1.0, 10.0, 49.0, 1e3, 1e6))
    lo, hi = math.inf, -math.inf
    for m in list_metrics():
        for s in sensitivity_curve(m, schedule, GRID).values:
            lo, hi = min(lo, s), max(hi, s)
    ok = 0.0 <= lo and hi < 1.0
    assert report(4, ok, f"s within [0, 1) for r in [1e-3, 1e6]: observed [{lo:.3g}, {hi:.6f}]")


def test_c05_logarithmic_growth():
    schedule = RatioSchedule.geometric(1.0, 1024.0, 2.0)
    ok = True
    details = []
    for mid in ("precision", "f1", "accuracy", "hss"):
        s = sensitivity_curve(get_metric(mid), schedule, GRID).values
        increments = [b - a for a, b in zip(s, s[1:])]
        monotone = all(d >= 0.0 for d in increments)
        tail_concave = all(
            increments[k + 1] <= increments[k] + 1e-6 for k in range(2, len(increments) - 1)
        )
        ok = ok and monotone and tail_concave
        details.append(f"{mid}: monotone={monotone} concave(k>=2)={tail_concave}")
    assert report(5, ok, "; ".join(details))


def test_c06_count_oracle_equivalence():
    p, r = 32, 3
    n = p * r
    core = [m for m in list_metrics() if not m.extension]
    tps = [2 * i + 1 for i in range(16)]        # p * (i + 0.5) / 16
    tns = [3 * (2 * j + 1) for j in range(16)]  # n * (j + 0.5) / 16
    tpr = np.array([tp / p for tp in tps])[:, None]
    tnr = np.array([tn / n for tn in tns])[None, :]
    worst = 0.0
    for m in core:
        values = np.broadcast_to(m.fn(tpr, tnr, n / p), (16, 16))
        for i, tp in enumerate(tps):
            for j, tn in enumerate(tns):
                diff = abs(values[i, j] - metric_from_counts(m.id, tp, p - tp, tn, n - tn))
                worst = max(worst, diff)
    ok = worst <= 1e-12
    assert report(6, ok, f"closed form vs integer counts (p=32, r=3, 16x16): max diff={worst:.3g}")


def test_c07_tss_youden_identity():
    worst = 0.0
    for r in (1.0, 49.0):
        a = build_surface(get_metric("tss"), r, GRID).values
        b = build_surface(get_metric("youden_j"), r, GRID).values
        worst = max(worst, float(np.max(np.abs(a - b))))
    ok = worst <= 1e-15
    assert report(7, ok, f"tss vs youden_j surfaces at r in {{1, 49}}: max diff={worst:.3g}")


def test_c08_resolution_convergence():
    coarse, fine = GridSpec(128), GridSpec(256)
    worst = 0.0
    for m in list_metrics():
        for r in (2.0, 49.0, 1000.0):
            worst = max(worst, abs(sensitivity(m, r, coarse) - sensitivity(m, r, fine)))
    ok = worst < 1e-3
    assert report(8, ok, f"|s(t=128) - s(t=256)| over catalog x {{2,49,1000}}: max={worst:.2e}")


def test_c09_derived_golden_values():
    sp = sensitivity(get_metric("precision"), 49.0, GRID)
    sf = sensitivity(get_metric("f1"), 49.0, GRID)
    dp = abs(sp - GOLDEN_S_PRECISION_49)
    df = abs(sf - GOLDEN_S_F1_49)
    ok = dp < 1e-3 and df < 1e-3
    assert report(9, ok, f"1024^2-oracle goldens at t=256: precision diff={dp:.2e}, f1 diff={df:.2e}")


def test_c10_figure_reproduction(tmp_path):
    first = tmp_path / "run1"
    second = tmp_path / "run2"
    assert main(["reproduce", "--out-dir", str(first)]) == 0
    assert main(["reproduce", "--out-dir", str(second)]) == 0

    manifest = json.loads((first / "manifest.json").read_text())
    svgs = manifest["files"]
    ok = len(svgs) == 3
    for name in svgs:
        root = ET.fromstring((first / name).read_text())
        ok = ok and root.tag == "{http://www.w3.org/2000/svg}svg"

    mean_balanced = float(build_surface(get_metric("f1"), 1.0, GRID).values.mean())
    mean_skewed = float(build_surface(get_metric("f1"), 49.0, GRID).values.mean())
    ok = ok and mean_skewed < mean_balanced

    identical = all(
        (first / name).read_bytes() == (second / name).read_bytes()
        for name in [*svgs, "manifest.json"]
    )
    ok = ok and identical
    assert report(
        10,
        ok,
        f"3 well-formed SVGs; f1 mean {mean_skewed:.4f}@r49 < {mean_balanced:.4f}@r1; "
        f"byte-identical reruns={identical}",
    )
