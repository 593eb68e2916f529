from __future__ import annotations

import contextlib
import io
import json
import os
import stat
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cspace
from cspace import (
    GridSpec,
    RatioSchedule,
    UsageError,
    build_surface,
    get_metric,
    list_metrics,
    sensitivity,
    sensitivity_curve,
)
from cspace import cli
from cspace.cli import main
from cspace.formats import surface_values_from_csv
from cspace.render import render_curves_svg


def run(tmp_path, monkeypatch, *argv) -> int:
    monkeypatch.setenv("CSPACE_OUT_DIR", str(tmp_path))
    return main(list(argv))


def test_surface_csv_row_count(tmp_path, monkeypatch, capsys):
    code = run(tmp_path, monkeypatch, "surface", "--metric", "f1", "--ratio", "49", "--t", "256")
    assert code == 0
    out = capsys.readouterr().out
    assert "metric=f1" in out and "r=49" in out and "t=256" in out
    text = (tmp_path / "surface_f1_r49_t256.csv").read_text()
    assert len(text.strip().split("\n")) == 1 + 65536


def test_surface_json_mean_of_recall(tmp_path, monkeypatch):
    code = run(tmp_path, monkeypatch, "surface", "--metric", "recall", "--ratio", "7", "--format", "json")
    assert code == 0
    obj = json.loads((tmp_path / "surface_recall_r7_t256.json").read_text())
    mean = float(np.mean(obj["values"]))
    assert mean == pytest.approx(0.5, abs=1e-12)


def test_surface_csv_round_trips_against_recomputation(tmp_path, monkeypatch):
    run(tmp_path, monkeypatch, "surface", "--metric", "hss", "--ratio", "3", "--t", "32")
    values = surface_values_from_csv((tmp_path / "surface_hss_r3_t32.csv").read_text())
    recomputed = build_surface(get_metric("hss"), 3.0, GridSpec(32)).values
    assert np.max(np.abs(values - recomputed)) < 1e-8


def test_surface_svg_output(tmp_path, monkeypatch):
    code = run(tmp_path, monkeypatch, "surface", "--metric", "recall", "--ratio", "2",
               "--t", "32", "--format", "svg", "--out", str(tmp_path / "r.svg"))
    assert code == 0
    root = ET.fromstring((tmp_path / "r.svg").read_text())
    assert root.tag.endswith("svg")


def test_repeated_runs_are_byte_identical(tmp_path, monkeypatch):
    args = ("surface", "--metric", "precision", "--ratio", "49", "--t", "64")
    run(tmp_path, monkeypatch, *args)
    first = (tmp_path / "surface_precision_r49_t64.csv").read_bytes()
    run(tmp_path, monkeypatch, *args)
    assert (tmp_path / "surface_precision_r49_t64.csv").read_bytes() == first


def test_unknown_metric_exits_2_and_names_it(tmp_path, monkeypatch, capsys):
    code = run(tmp_path, monkeypatch, "surface", "--metric", "nosuch", "--ratio", "2")
    assert code == 2
    assert "nosuch" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("ratio", ["0", "-3", "nan", "inf", "-1e-3", "-1E+3", "-.5e1", "-inf"])
def test_invalid_ratio_exits_2(tmp_path, monkeypatch, capsys, ratio):
    # Exponent forms and -inf must reach the ratio check, not be read as flags.
    assert run(tmp_path, monkeypatch, "surface", "--metric", "f1", "--ratio", ratio) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "finite positive real" in err[0], err


def test_invalid_resolution_exits_2(tmp_path, monkeypatch, capsys):
    assert run(tmp_path, monkeypatch, "surface", "--metric", "f1", "--ratio", "2", "--t", "1") == 2
    assert "resolution" in capsys.readouterr().err


def test_no_partial_files_when_target_unwritable(tmp_path, monkeypatch, capsys):
    blocker = tmp_path / "blocker.txt"
    blocker.write_text("in the way\n")
    code = run(tmp_path, monkeypatch, "surface", "--metric", "f1", "--ratio", "2",
               "--t", "16", "--out", str(blocker / "out.csv"))
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")
    assert [p.name for p in tmp_path.iterdir()] == ["blocker.txt"]


@pytest.mark.parametrize(
    "umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)], ids=["022", "077", "002"]
)
def test_output_files_get_the_umask_mode(tmp_path, monkeypatch, umask, mode):
    previous = os.umask(umask)
    try:
        code = run(tmp_path, monkeypatch, "surface", "--metric", "f1", "--ratio", "2", "--t", "8")
    finally:
        os.umask(previous)
    assert code == 0
    assert stat.S_IMODE((tmp_path / "surface_f1_r2_t8.csv").stat().st_mode) == mode


def test_writes_leave_the_umask_alone(tmp_path, monkeypatch):
    # Setting the umask, even briefly, would change the mode of files that
    # other threads create meanwhile.
    def refuse(mask):
        raise AssertionError("os.umask called")

    previous = os.umask(0o027)
    try:
        with monkeypatch.context() as patched:
            patched.setattr(os, "umask", refuse)
            code = run(tmp_path, monkeypatch, "surface", "--metric", "f1", "--ratio", "2", "--t", "8")
    finally:
        os.umask(previous)
    assert code == 0
    assert stat.S_IMODE((tmp_path / "surface_f1_r2_t8.csv").stat().st_mode) == 0o640


def test_sensitivity_agnostic_verdicts(tmp_path, monkeypatch, capsys):
    code = run(tmp_path, monkeypatch, "sensitivity", "--metrics", "recall,tss,youden_j",
               "--ratios", "1:1000:10", "--t", "64")
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("agnostic") == 3
    for mid in ("recall", "tss", "youden_j"):
        lines = (tmp_path / f"sensitivity_{mid}.csv").read_text().strip().split("\n")
        assert lines[0] == "ratio,sensitivity"
        assert [ln.split(",")[1] for ln in lines[1:]] == ["0", "0", "0", "0"]


def test_sensitivity_precision_grows_logarithmically(tmp_path, monkeypatch, capsys):
    code = run(tmp_path, monkeypatch, "sensitivity", "--metrics", "precision",
               "--ratios", "1:64:2", "--t", "64")
    assert code == 0
    assert "logarithmic-like" in capsys.readouterr().out
    lines = (tmp_path / "sensitivity_precision.csv").read_text().strip().split("\n")[1:]
    values = [float(ln.split(",")[1]) for ln in lines]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_sensitivity_single_ratio(tmp_path, monkeypatch):
    code = run(tmp_path, monkeypatch, "sensitivity", "--metrics", "accuracy", "--ratios", "1", "--t", "16")
    assert code == 0
    assert (tmp_path / "sensitivity_accuracy.csv").read_text() == "ratio,sensitivity\n1,0\n"


def test_sensitivity_json_and_svg_outputs(tmp_path, monkeypatch):
    code = run(tmp_path, monkeypatch, "sensitivity", "--metrics", "recall,accuracy",
               "--ratios", "1,2,4", "--t", "16", "--format", "json", "--svg", "curves.svg", "--log-x")
    assert code == 0
    obj = json.loads((tmp_path / "sensitivity.json").read_text())
    assert list(obj) == ["recall", "accuracy"]
    ET.fromstring((tmp_path / "curves.svg").read_text())


@pytest.mark.parametrize("tol", ["nan", "0", "-1e-12", "-inf"])
def test_sensitivity_invalid_tolerance_exits_2(tmp_path, monkeypatch, capsys, tol):
    code = run(tmp_path, monkeypatch, "sensitivity", "--metrics", "recall", "--ratios", "1,2", "--t", "8",
               f"--tol={tol}")
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "tolerance" in captured.err
    assert captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ("sensitivity", "--metrics", "recall,f1,f1", "--ratios", "1,2", "--t", "8"),
        ("compare", "--metrics", "f1,f1", "--ratio", "2", "--t", "8"),
        ("compare", "--metrics", "f1, recall ,f1,recall", "--ratio", "2", "--t", "8", "--svg", "c.svg"),
    ],
    ids=["sensitivity", "compare", "compare-svg"],
)
def test_repeated_metric_ids_exit_2(tmp_path, monkeypatch, capsys, argv):
    assert run(tmp_path, monkeypatch, *argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "f1" in captured.err
    assert list(tmp_path.iterdir()) == []


def test_sensitivity_invalid_schedule_exits_2(tmp_path, monkeypatch, capsys):
    assert run(tmp_path, monkeypatch, "sensitivity", "--metrics", "f1", "--ratios", "5:1:2") == 2
    assert "error:" in capsys.readouterr().err


def test_compare_orders_by_descending_sensitivity(tmp_path, monkeypatch, capsys):
    code = run(tmp_path, monkeypatch, "compare", "--metrics", "hss,accuracy,precision,f1",
               "--ratio", "49", "--t", "128")
    assert code == 0
    out = capsys.readouterr().out
    order = [ln.split()[1] for ln in out.strip().split("\n")[1:]]
    assert order == ["precision", "f1", "accuracy", "hss"]


def test_compare_breaks_ties_alphabetically(tmp_path, monkeypatch, capsys):
    code = run(tmp_path, monkeypatch, "compare", "--metrics", "tss,recall", "--ratio", "100", "--t", "32")
    assert code == 0
    rows = [ln.split() for ln in capsys.readouterr().out.strip().split("\n")[1:]]
    assert [r[1] for r in rows] == ["recall", "tss"]
    assert [r[2] for r in rows] == ["0", "0"]


def test_compare_requires_two_metrics(tmp_path, monkeypatch, capsys):
    assert run(tmp_path, monkeypatch, "compare", "--metrics", "f1", "--ratio", "2") == 2
    assert "two metrics" in capsys.readouterr().err


def test_compare_optional_svg(tmp_path, monkeypatch):
    code = run(tmp_path, monkeypatch, "compare", "--metrics", "recall,precision", "--ratio", "4",
               "--t", "16", "--svg", "cmp.svg", "--ratios", "1:16:2", "--log-x")
    assert code == 0
    ET.fromstring((tmp_path / "cmp.svg").read_text())


@pytest.mark.parametrize("ratio", ["4", "5"])
def test_compare_svg_ranks_and_plots_as_separate_calls_would(tmp_path, monkeypatch, capsys, ratio):
    # The ranking ratio lies on the schedule (4) or off it (5); either way the
    # ranking and the plot equal what sensitivity and sensitivity_curve give.
    code = run(tmp_path, monkeypatch, "compare", "--metrics", "hss,recall,doolittle", "--ratio", ratio,
               "--t", "16", "--svg", "cmp.svg", "--ratios", "1:16:2", "--log-x")
    assert code == 0
    grid = GridSpec(16)
    metrics = [get_metric(m) for m in ("hss", "recall", "doolittle")]
    ranked = sorted((-sensitivity(m, float(ratio), grid), m.id) for m in metrics)
    lines = capsys.readouterr().out.splitlines()[1:]
    assert [line.split() for line in lines] == [
        [str(rank), mid, f"{-neg:.9g}"] for rank, (neg, mid) in enumerate(ranked, start=1)
    ]
    curves = [sensitivity_curve(m, RatioSchedule.geometric(1, 16, 2), grid) for m in metrics]
    assert (tmp_path / "cmp.svg").read_text() == render_curves_svg(curves, log_x=True)


def test_reproduce_curves_match_sensitivity_curve(tmp_path, monkeypatch):
    assert run(tmp_path, monkeypatch, "reproduce", "--t", "24", "--ratios", "0.5:64:2") == 0
    grid = GridSpec(24)
    schedule = RatioSchedule.geometric(0.5, 64, 2)
    curves = [sensitivity_curve(m, schedule, grid) for m in list_metrics() if not m.extension]
    expected = render_curves_svg(curves, log_x=True)
    assert (tmp_path / "fig4_sensitivity_curves.svg").read_text() == expected


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv",
    [
        ("sensitivity", "--metrics", "doolittle", "--ratios", "1e-300,1e300", "--t", "8"),
        ("compare", "--metrics", "hss,f1", "--ratio", "1e308", "--t", "8"),
        ("surface", "--metric", "doolittle", "--ratio", "1e120", "--t", "8"),
    ],
    ids=["sensitivity-doolittle", "compare-hss", "surface-doolittle"],
)
def test_extreme_ratios_exit_0_without_warnings(tmp_path, monkeypatch, capsys, argv):
    # These once overflowed: a traceback, or RuntimeWarning lines on stderr.
    assert run(tmp_path, monkeypatch, *argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert "nan" not in out


def test_reproduce_emits_figures_and_manifest(tmp_path, monkeypatch, capsys):
    code = run(tmp_path, monkeypatch, "reproduce", "--out-dir", str(tmp_path / "figs"), "--t", "32")
    assert code == 0
    names = sorted(p.name for p in (tmp_path / "figs").iterdir())
    assert names == [
        "fig2_f1_contour_r1.svg",
        "fig3_f1_contours_r1_r49.svg",
        "fig4_sensitivity_curves.svg",
        "manifest.json",
    ]
    manifest = json.loads((tmp_path / "figs" / "manifest.json").read_text())
    assert manifest["files"] == names[:3]
    params = manifest["parameters"]
    assert params["t"] == 32
    assert params["schedule"][0] == 1.0
    assert len(params["curve_metrics"]) == 7
    assert manifest["version"]
    for name in names[:3]:
        ET.fromstring((tmp_path / "figs" / name).read_text())


def test_missing_subcommand_exits_2(tmp_path, monkeypatch, capsys):
    assert run(tmp_path, monkeypatch) == 2


_SURFACE = ("surface", "--metric", "f1", "--ratio", "2", "--t", "4")
_CURVES = ("sensitivity", "--metrics", "f1", "--ratios", "1,2", "--t", "4")

# Output targets that name no file, or the file of another output; {tmp} is
# the output directory itself.
BAD_TARGETS = {
    "out-dot": (*_SURFACE, "--out", "."),
    "out-dot-dot": (*_SURFACE, "--out", "{tmp}/sub/.."),
    "out-empty": (*_SURFACE, "--out", ""),
    "out-directory": (*_SURFACE, "--out", "{tmp}"),
    "svg-dot": (*_CURVES, "--svg", "."),
    "svg-trailing-slash": (*_CURVES, "--svg", "sub/"),
    "svg-directory": (*_CURVES, "--svg", "{tmp}"),
    "compare-svg-dot": ("compare", "--metrics", "f1,tss", "--ratio", "2", "--t", "4", "--svg", "."),
    "svg-is-the-json": (*_CURVES, "--format", "json", "--svg", "sensitivity.json"),
    "svg-is-a-csv": (
        "sensitivity", "--metrics", "f1,precision", "--ratios", "1,2", "--t", "4",
        "--svg", "sub/../sensitivity_precision.csv",
    ),
}


@pytest.mark.parametrize(
    "argv",
    [
        ("surface", "--metric", "f1", "--ratio", "-1e-3"),
        ("compare", "--metrics", "f1,precision", "--ratio", "2", "--bogus"),
        ("compare", "--metrics", "f1,tss", "--ratio", "2", "--ratios", "abc", "--t", "8"),
        (),
        ("sensitivity", "--metrics", "f1", "--ratios", "1:2", "--t", "4"),
        ("sensitivity", "--metrics", "f1", "--ratios", "a:b:c", "--t", "4"),
        ("sensitivity", "--metrics", ",", "--ratios", "1,2", "--t", "4"),
        *BAD_TARGETS.values(),
    ],
    ids=[
        "exponent-negative-ratio",
        "unknown-flag",
        "compare-ratios-without-svg",
        "no-subcommand",
        "geometric-two-parts",
        "geometric-not-numbers",
        "no-metrics",
        *BAD_TARGETS,
    ],
)
def test_usage_errors_print_one_line_and_exit_2(tmp_path, monkeypatch, capsys, argv):
    assert run(tmp_path, monkeypatch, *(a.replace("{tmp}", str(tmp_path)) for a in argv)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert list(tmp_path.iterdir()) == []


_REPRODUCE = ("reproduce", "--t", "4", "--ratios", "1,2")

# Output places that something of the wrong kind already holds: the path made
# first under the output directory (a directory when it ends in "/", else an
# empty file), the argv, and the word that starts the error line after
# "error:".  Fixed-name outputs are named "output".
TAKEN_TARGETS = {
    "json-is-a-directory": ("sensitivity.json/", (*_CURVES, "--format", "json"), "output"),
    "csv-is-a-directory": (
        "sensitivity_precision.csv/",
        ("sensitivity", "--metrics", "f1,precision", "--ratios", "1,2", "--t", "4"),
        "output",
    ),
    "surface-default-is-a-directory": ("surface_f1_r2_t4.csv/", _SURFACE, "output"),
    "reproduce-figure-is-a-directory": ("fig3_f1_contours_r1_r49.svg/", _REPRODUCE, "output"),
    "reproduce-manifest-is-a-directory": ("manifest.json/", _REPRODUCE, "output"),
    "out-dir-is-a-file": ("od", (*_CURVES, "--out-dir", "{tmp}/od"), "--out-dir"),
    "out-dir-below-a-file": ("od", (*_CURVES, "--out-dir", "{tmp}/od/sub"), "--out-dir"),
    "reproduce-out-dir-is-a-file": ("od", (*_REPRODUCE, "--out-dir", "{tmp}/od"), "--out-dir"),
    "out-below-a-file": ("F", (*_SURFACE, "--out", "{tmp}/F/x.csv"), "--out"),
    "svg-below-a-file": ("F", (*_CURVES, "--svg", "F/sub/c.svg"), "--svg"),
    "compare-svg-below-a-file": (
        "F",
        ("compare", "--metrics", "f1,precision", "--ratio", "2", "--t", "4", "--svg", "F/c.svg"),
        "--svg",
    ),
}


@pytest.mark.parametrize(
    "taken, argv, option",
    [
        *((None, argv, argv[-2]) for argv in BAD_TARGETS.values()),
        *TAKEN_TARGETS.values(),
    ],
    ids=[*BAD_TARGETS, *TAKEN_TARGETS],
)
def test_output_targets_are_checked_before_evaluation(tmp_path, monkeypatch, capsys, taken, argv, option):
    def refuse(*args):
        raise AssertionError("evaluated before the output targets were checked")

    if taken is not None and taken.endswith("/"):
        (tmp_path / taken).mkdir()
    elif taken is not None:
        (tmp_path / taken).touch()
    monkeypatch.setattr(cli, "build_surface", refuse)
    monkeypatch.setattr(cli, "sensitivity_curve", refuse)
    assert run(tmp_path, monkeypatch, *(a.replace("{tmp}", str(tmp_path)) for a in argv)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {option} "), err
    if taken is not None:
        assert [p.name for p in tmp_path.iterdir()] == [taken.rstrip("/")]


def test_an_out_dir_from_the_environment_that_is_a_file_is_refused(tmp_path, monkeypatch, capsys):
    (tmp_path / "od").touch()
    monkeypatch.setenv("CSPACE_OUT_DIR", str(tmp_path / "od"))
    monkeypatch.setattr(cli, "build_surface", lambda *args: pytest.fail("evaluated"))
    assert main(list(_SURFACE)) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: CSPACE_OUT_DIR {str(tmp_path / 'od')!r} is not a directory"]


def test_a_failed_rename_leaves_neither_the_temporary_file_nor_the_target(tmp_path, monkeypatch, capsys):
    def full(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli.os, "replace", full)
    assert run(tmp_path, monkeypatch, *_SURFACE) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, files",
    [
        (_SURFACE, 1),
        (("sensitivity", "--metrics", "f1,precision", "--ratios", "1,2", "--t", "4", "--svg", "c.svg"), 3),
        (("compare", "--metrics", "f1,precision", "--ratio", "2", "--t", "4", "--svg", "c.svg"), 1),
        (("reproduce", "--t", "4", "--ratios", "1,2"), 4),
    ],
    ids=["surface", "sensitivity", "compare", "reproduce"],
)
def test_a_failure_in_the_last_write_leaves_no_file_and_prints_nothing(tmp_path, monkeypatch, capsys, argv, files):
    # The last file's text is written in full before the disk "fills".
    write, calls = cli._write_text, []

    def full_after_the_last_file(*args):
        write(*args)
        calls.append(args)
        if len(calls) == files:
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "_write_text", full_after_the_last_file)
    assert run(tmp_path, monkeypatch, *argv) == 2
    assert len(calls) == files
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error:"), (out, err)
    assert [p for p in tmp_path.rglob("*") if not p.is_dir()] == []


def test_an_output_name_of_the_longest_length_the_file_system_allows_is_written(tmp_path, monkeypatch):
    # The temporary name must fit wherever the target's name fits.
    name = "a" * (os.pathconf(tmp_path, "PC_NAME_MAX") - len(".csv")) + ".csv"
    assert run(tmp_path, monkeypatch, *_SURFACE, "--out", str(tmp_path / name)) == 0
    assert [p.name for p in tmp_path.iterdir()] == [name]
    assert (tmp_path / name).read_text().startswith("tnr,tpr,value\n")


def test_an_output_symlink_is_replaced_and_its_target_kept(tmp_path, monkeypatch):
    # os.replace renames over the link itself; it does not write through it.
    target = tmp_path / "target.csv"
    target.write_text("kept\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    assert run(tmp_path, monkeypatch, *_SURFACE, "--out", str(link)) == 0
    assert not link.is_symlink()
    assert link.read_text().startswith("tnr,tpr,value\n")
    assert target.read_text() == "kept\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("surface", "--ratio", "2"), "error: cspace surface: the following arguments are required: --metric"),
        (("surface", "--metric", "f1", "--ratio", "2", "--bogus"), "error: cspace surface: unrecognized arguments: --bogus"),
        (("compare", "--metrics", "f1,tss", "--ratio", "2", "x"), "error: cspace compare: unrecognized arguments: x"),
        (("sensitivity", "--metrics", "f1"), "error: cspace sensitivity: the following arguments are required: --ratios"),
    ],
    ids=["missing-metric", "unknown-flag", "extra-argument", "missing-ratios"],
)
def test_usage_errors_name_the_subcommand(tmp_path, monkeypatch, capsys, argv, message):
    assert run(tmp_path, monkeypatch, *argv) == 2
    assert capsys.readouterr().err.splitlines() == [message]


def test_resource_caps_admit_benchmark_and_paper_scale():
    for t, ratios in [(1024, 200), (1024, 256), (1024, 16), (256, 120), (256, 4096), (4096, 1), (2, 10_000)]:
        assert cli._grid(t, ratios) == GridSpec(t)


@pytest.mark.parametrize("t, ratios", [(4097, 1), (100_000, 1), (1024, 257), (256, 4097), (2, 2**26 + 1)])
def test_resource_caps_reject_from_the_estimate(t, ratios):
    # Only the estimate is checked here: nothing of this size is allocated.
    with pytest.raises(UsageError):
        cli._grid(t, ratios)


@pytest.mark.parametrize(
    "argv",
    [
        ("surface", "--metric", "f1", "--ratio", "2", "--t", "17"),
        ("sensitivity", "--metrics", "f1", "--ratios", "1:64:2", "--t", "8"),
        ("compare", "--metrics", "f1,tss", "--ratio", "2", "--t", "8", "--svg", "c.svg", "--ratios", "1:64:2"),
        ("reproduce", "--t", "8"),
        ("sensitivity", "--metrics", "f1", "--ratios", "1:2:1.0000001", "--t", "2"),
        ("compare", "--metrics", "f1,tss", "--ratio", "7", "--t", "8", "--svg", "c.svg", "--ratios", "1,2,3,4,5,6"),
    ],
    ids=[
        "t-above-cap",
        "curve-cells",
        "compare-curve-cells",
        "reproduce-curve-cells",
        "schedule-length",
        "compare-ranking-ratio",
    ],
)
def test_over_the_caps_exits_2_before_any_work(tmp_path, monkeypatch, capsys, argv):
    # Caps lowered so that the commands stay small; 7 ratios at t=8 is 448 cells.
    monkeypatch.setattr(cli, "MAX_RESOLUTION", 16)
    monkeypatch.setattr(cli, "MAX_CURVE_CELLS", 6 * 64)
    assert run(tmp_path, monkeypatch, *argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error:"), err
    assert list(tmp_path.iterdir()) == []


def test_compare_cap_admits_an_on_schedule_ranking_ratio(tmp_path, monkeypatch):
    # The schedule fills the lowered cap exactly; a ranking ratio on it adds no ratio.
    monkeypatch.setattr(cli, "MAX_CURVE_CELLS", 6 * 64)
    argv = ("compare", "--metrics", "f1,tss", "--ratio", "5", "--t", "8", "--svg", "c.svg", "--ratios", "1,2,3,4,5,6")
    assert run(tmp_path, monkeypatch, *argv) == 0
    assert (tmp_path / "c.svg").exists()


@pytest.mark.parametrize("argv", [("--help",), ("--version",), ("surface", "--help")])
def test_help_and_version_exit_0(tmp_path, monkeypatch, capsys, argv):
    assert run(tmp_path, monkeypatch, *argv) == 0
    assert capsys.readouterr().out


def test_module_entry_point_runs_in_subprocess(tmp_path):
    # A relative PYTHONPATH does not resolve from tmp_path, so point the child at
    # the package this process imported; drop CSPACE_OUT_DIR so the documented
    # default (the working directory) is what gets checked.
    env = dict(os.environ)
    env.pop("CSPACE_OUT_DIR", None)
    package_root = str(Path(cspace.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "cspace", "surface", "--metric", "tss", "--ratio", "2", "--t", "8"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "surface_tss_r2_t8.csv").exists()


# argv drawn from the CLI grammar.  Each example runs in a fresh directory
# that holds one regular file, F, and every name stays inside it, because the
# program runs os.replace on whatever it is given.


def _either(accepted: tuple[str, ...], refused: tuple[str, ...]):
    """One argument's values: an accepted one half the time, else a refused one."""
    return st.one_of(st.sampled_from(accepted), st.sampled_from(refused))


_RATIOS = ("0.5", "1", "2", "49", "1e-320", "1_0", " 3")
_floats = _either(_RATIOS, ("0x10", "inf", "nan", "-2", "-1e-3", "-inf"))
_METRICS = ("f1", "precision", "tss", "hss", "accuracy")
_metric_ids = _either(_METRICS, ("bogus", ""))
_metric_lists = st.one_of(
    st.lists(st.sampled_from(_METRICS), min_size=1, max_size=3, unique=True),
    st.lists(st.sampled_from((*_METRICS, "bogus", "")), max_size=3),
).map(",".join)
# Geometric schedules hold at most 31 ratios, or a factor puts their length
# above the cap.
_schedules = st.one_of(
    st.lists(st.sampled_from(_RATIOS), min_size=1, max_size=4, unique=True).map(
        lambda ratios: ",".join(sorted(ratios, key=float))
    ),
    st.lists(_floats, min_size=1, max_size=4).map(",".join),
    st.tuples(*(st.sampled_from(parts) for parts in (("0.5", "1"), ("8", "1e9"), ("2", "8")))).map(":".join),
    st.lists(
        st.sampled_from(("0.5", "1", "2", "8", "1e9", "1.0000001", "0", "-2", "nan", "x")), min_size=2, max_size=4
    ).map(":".join),
)
_t = _either(("2", "3", "16"), ("-1", "0", "1", "2.5", "x", "4097", str(10**9)))
_names = _either(
    ("a.svg", "sub/a.svg", "sensitivity.json", "sensitivity_f1.csv", "manifest.json"),
    (".", "..", "", "sub/", "F/x.svg"),
)
_out_dirs = _either((".", "od"), ("F", "F/sub"))
_flag = st.just(None)

# Per subcommand: the options always given, and those that may be.
_GRAMMAR = {
    "surface": (
        {"--metric": _metric_ids, "--ratio": _floats, "--t": _t},
        {"--format": st.sampled_from(("csv", "json", "svg", "xml")), "--out": _names},
    ),
    "sensitivity": (
        {"--metrics": _metric_lists, "--ratios": _schedules, "--t": _t},
        {
            "--format": st.sampled_from(("csv", "json")),
            "--svg": _names,
            "--tol": _floats,
            "--log-x": _flag,
            "--out-dir": _out_dirs,
        },
    ),
    "compare": (
        {"--metrics": _metric_lists, "--ratio": _floats, "--t": _t},
        {"--svg": _names, "--ratios": _schedules, "--log-x": _flag, "--out-dir": _out_dirs},
    ),
    "reproduce": ({"--t": _t}, {"--ratios": _schedules, "--out-dir": _out_dirs}),
}


def _argv(command: str, options: dict) -> list[str]:
    argv = [command]
    for flag, value in options.items():
        argv += [flag] if value is None else [flag, value]
    return argv


_argvs = st.sampled_from(sorted(_GRAMMAR)).flatmap(
    lambda cmd: st.fixed_dictionaries(_GRAMMAR[cmd][0], optional=_GRAMMAR[cmd][1]).map(
        lambda options: _argv(cmd, options)
    )
)


def _run_in_fresh_directory(argv: list[str]):
    """Exit code, stdout, stderr and every path left (file -> bytes, or None
    for a directory) of ``main(argv)`` run in a new directory holding F."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp)
        mp.setenv("CSPACE_OUT_DIR", ".")
        Path("F").touch()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        left = {
            str(p): None if p.is_dir() else p.read_bytes() for p in sorted(Path(".").rglob("*"))
        }
    return code, out.getvalue(), err.getvalue(), left


@settings(max_examples=300, deadline=None)
@given(argv=_argvs)
# An SVG below a file, given to the two commands that evaluate curves before
# they write it.
@example(argv=["sensitivity", "--metrics", "f1", "--ratios", "1,2", "--t", "3", "--svg", "F/x.svg"])
@example(argv=["compare", "--metrics", "f1,precision", "--ratio", "2", "--t", "3", "--svg", "F/x.svg"])
def test_every_argv_of_the_grammar_ends_in_a_result_or_one_error_line(argv):
    code, out, err, left = _run_in_fresh_directory(argv)
    assert code in (0, 2)
    assert not [name for name in left if name.endswith(".tmp")], left
    if code == 2:
        lines = err.splitlines()
        assert out == "" and len(lines) == 1 and lines[0].startswith("error:"), (out, lines)
        assert left == {"F": b""}
    else:
        assert err == ""
        assert _run_in_fresh_directory(argv) == (code, out, err, left)
