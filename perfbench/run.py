"""Benchmark of the cspace CLI: seeded closed-loop workloads, run in process.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` beside this directory, and every job is
a call of ``cspace.cli.main(argv)`` (or a read-back of a file a job wrote)
made one at a time after an untimed warm-up.  With ``--trace 0`` the run
reports the end-to-end metrics; with ``--trace 1`` it alternates untraced and
traced passes over the same job list and reports the per-layer metrics.  The
last line of standard output is one JSON object; the full result, with the
environment and the argv of every job, goes to
``.perfbench_out/results/``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from checks import meaning, sha256_file, values_digest
from jobs import OUT, WORKLOADS, cycle, warmup_jobs
from reference import KERNELS, reference_seconds
from tracing import EXACT, PER_LAYER, Recorder, per_layer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = Path(".perfbench_out")
PINS = HERE / "pins.json"

# Confirm claims on this seed only after the change is written; it is never
# used while tuning.
HELD_OUT_SEED = 7919

SETUP_RUNS = 9
SETUP_SNIPPET = (
    "import time; t0 = time.perf_counter()\n"
    "import cspace\n"
    "cspace.build_surface(cspace.get_metric('f1'), 2.0, cspace.GridSpec(8))\n"
    "print(time.perf_counter() - t0, cspace.__file__)\n"
)
# The baseline interpreter run beside each set-up one.  Most of set-up is this
# import, and its time swings by up to 2x within minutes on a shared machine.
# The median of what cspace adds on top of it moved by under a fifth when the
# baseline halved, so set-up is measured as that difference.
BASELINE_SNIPPET = (
    "import time; t0 = time.perf_counter()\n"
    "import numpy\n"
    "print(time.perf_counter() - t0, numpy.__file__)\n"
)
# Median `import numpy` time, in seconds, on the machine where the benchmark
# was defined (Python 3.11.7, numpy 2.4.6, 2 cores of an Intel Xeon).
# ``setup_s`` is this fixed time plus the measured time set-up takes beyond
# the baseline import.
BASELINE_NOMINAL_S = 0.156

# The layers each workload is meant to load, by their share metrics.
TARGETS = {
    "sweep": ("metrics.share", "surface.share", "sensitivity.share"),
    "export": ("formats.share", "cli.write_share"),
    "figures": ("render.share",),
}

END_TO_END = {
    "setup_s": "s",
    "cells_per_ref": "1/ref",
    "job_p50_ref": "ref",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}


def _import_program():
    """Import cspace from this checkout's src/, or return None if it is not there."""
    if not (SRC / "cspace" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import cspace

    if SRC not in Path(cspace.__file__).resolve().parents:
        return None
    return cspace


def layer_modules():
    """The modules whose names the recorder wraps (cli, sensitivity, render).

    ``cspace.sensitivity`` is the function the package re-exports, so the
    modules are looked up by their full names.
    """
    return tuple(importlib.import_module(f"cspace.{name}") for name in ("cli", "sensitivity", "render"))


def _interpreter_seconds(snippet: str) -> float:
    """Seconds a fresh interpreter reports for ``snippet``; cspace must come from src/."""
    proc = subprocess.run(
        [sys.executable, "-c", snippet], env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
        capture_output=True, text=True, timeout=120, check=True,
    )
    seconds, where = proc.stdout.split()
    if snippet is SETUP_SNIPPET and SRC not in Path(where).resolve().parents:
        raise RuntimeError(f"set-up interpreter imported cspace from {where}")
    return float(seconds)


class SetupSampler:
    """Times set-up in fresh interpreters, each beside a baseline interpreter.

    A sample is one interpreter that imports cspace and builds a tiny
    surface, then one that only imports numpy; the sample's value is the
    first time minus the second.  The samples are spread evenly over the run,
    between jobs, because the machine's speed drifts over tens of seconds.
    """

    def __init__(self, seconds: float, runs: int):
        self.samples: list[tuple[float, float]] = []
        self.runs = runs
        self.every = seconds / runs
        self.sample()  # unmeasured: warms the file cache
        self.samples.clear()
        self.last = perf_counter() - self.every

    def sample(self) -> None:
        self.samples.append((_interpreter_seconds(SETUP_SNIPPET), _interpreter_seconds(BASELINE_SNIPPET)))

    def between_jobs(self) -> None:
        if len(self.samples) < self.runs and perf_counter() - self.last >= self.every:
            self.sample()
            self.last = perf_counter()

    def finish(self) -> list[tuple[float, float]]:
        while len(self.samples) < self.runs:
            self.sample()
        return self.samples


@contextmanager
def patched(patches):
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
    try:
        for mod, attr, new in patches:
            setattr(mod, attr, new)
        yield
    finally:
        for mod, attr, old in saved:
            setattr(mod, attr, old)


class Runner:
    """Executes jobs and checks each execution against the pins."""

    def __init__(self, cspace, recorder, work: Path, pins: dict | None):
        self.cspace = cspace
        self.rec = recorder
        self.work = work
        self.pins = pins
        self.first_counts: dict[str, dict[str, int]] = {}
        self.first_stdout: dict[str, str] = {}
        from cspace import formats
        from cspace.cli import main as cli_main

        self.cli_main = cli_main

        self.readers = {
            "csv": recorder.reader(formats.surface_values_from_csv),
            "json": recorder.reader(lambda text: formats.surface_from_json(text).values),
        }

    def home(self, job) -> Path:
        return self.work / hashlib.sha1(job.home.encode()).hexdigest()[:12]

    def execute(self, job) -> tuple[float, list[str], dict[str, str]]:
        """Run one job; returns (seconds, problems, output digests)."""
        d = self.home(job)
        argv = [a.replace("{out}", str(d)) for a in job.argv]
        before = {k: self.rec.counts[k] for k in EXACT}
        problems: list[str] = []
        digests: dict[str, str] = {}
        for name in job.outputs:
            (d / name).unlink(missing_ok=True)
        if job.kind == "cli":
            stdout, stderr = io.StringIO(), io.StringIO()
            code = None
            with redirect_stdout(stdout), redirect_stderr(stderr):
                t0 = perf_counter()
                try:
                    code = self.rec.call("job", self.cli_main, argv)
                except Exception as exc:  # a raising job is a failed job, not a crash of the run
                    problems.append(f"raised {type(exc).__name__}: {exc}")
                dt = perf_counter() - t0
            if code != 0 and not problems:
                problems.append(f"exit status {code}: {stderr.getvalue().strip()}")
            self.first_stdout.setdefault(job.key, stdout.getvalue())
            # The printed lines name the output directory, which differs per run.
            digests["stdout"] = hashlib.sha256(stdout.getvalue().replace(str(d), OUT).encode()).hexdigest()
            for name in job.outputs:
                if (d / name).is_file():
                    digests[name] = sha256_file(d / name)
                else:
                    problems.append(f"{name} was not written")
        else:
            path = Path(argv[2])
            reader = self.readers[argv[1]]
            t0 = perf_counter()
            try:
                values = self.rec.call("job", lambda: reader(path.read_text(encoding="utf-8")))
            except (OSError, ValueError, KeyError) as exc:
                problems.append(f"read-back raised {type(exc).__name__}: {exc}")
                values = None
            dt = perf_counter() - t0
            if values is not None:
                self.rec.counts["formats.bytes_in"] += path.stat().st_size
                digests["values"] = values_digest(values)
        if self.pins is not None:
            pinned = self.pins.get(job.key)
            if pinned is None:
                problems.append("no pinned output hashes for this job")
            elif not problems and digests != pinned:
                changed = sorted(k for k in pinned if digests.get(k) != pinned[k])
                problems.append(f"output bytes differ from the pins: {', '.join(changed)}")
        counts = {k: self.rec.counts[k] - before[k] for k in EXACT}
        first = self.first_counts.setdefault(job.key, counts)
        if counts != first:
            problems.append(f"counters differ from this job's first execution: {counts} != {first}")
        return dt, problems, digests

    def meaning(self, job) -> list[str]:
        return meaning(job, self.home(job), self.first_stdout.get(job.key, ""), self.cspace)


def run_pass(runner, jobs, traced: bool, kernel, between_jobs=None) -> dict:
    """One pass over the cycle; each job is timed between two reference timings."""
    rec = runner.rec
    rec.reset()
    lat, failed_at = [], {}
    refs = [reference_seconds(kernel)]
    for i, job in enumerate(jobs):
        rec.tracing = traced
        dt, problems, _ = runner.execute(job)
        rec.tracing = False
        lat.append(dt)
        if problems:
            failed_at[i] = problems
        if between_jobs is not None:
            between_jobs()
        refs.append(reference_seconds(kernel))
    return {
        "traced": traced,
        "latencies": lat,
        "norm": [dt / ((a + b) / 2) for dt, a, b in zip(lat, refs, refs[1:])],
        "refs": refs,
        "failed": failed_at,
        "job_s": sum(lat),
        "counts": dict(rec.counts),
        "selfs": dict(rec.self_times()) if traced else {},
        "spans": [list(s) for s in rec.spans] if traced else [],
    }


def environment(cspace) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
        elif not ref.startswith("ref: "):
            commit = ref
    src = hashlib.sha256()
    for path in sorted((SRC / "cspace").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cspace": cspace.__version__,
        "git_commit": commit,
        "source_sha256": src.hexdigest(),
        "nproc": nproc,
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def _line(name: str, value, unit: str, note: str = "") -> str:
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    return f"  {name:<22} {text:>14} {unit:<6} {note}".rstrip()


def benchmark(args, cspace) -> tuple[dict, list[str]]:
    """Run the workload; returns the result object and the lines to print."""
    jobs = cycle(args.workload, args.seed)
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    work = OUT_ROOT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    kernel = KERNELS[args.workload]
    setup = None if args.trace else SetupSampler(args.seconds, SETUP_RUNS)

    rec = Recorder()
    passes: list[dict] = []
    try:
        with patched(rec.patches(layer_modules())):
            warm = Runner(cspace, rec, work / "warmup", None)
            for job in warmup_jobs():
                _, problems, _ = warm.execute(job)
                if problems:
                    raise RuntimeError(f"warm-up job failed: {job.key}: {problems}")
            runner = Runner(cspace, rec, work, pins)
            start = perf_counter()
            while True:
                passes.append(run_pass(runner, jobs, False, kernel, setup and setup.between_jobs))
                if args.trace:
                    passes.append(run_pass(runner, jobs, True, kernel))
                elapsed = perf_counter() - start
                rounds = len(passes) // (2 if args.trace else 1)
                # Stop at the round boundary nearest to the time asked for.
                if elapsed + elapsed / rounds / 2 >= args.seconds:
                    break
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            checked = {job.key: runner.meaning(job) for job in jobs}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures: dict[str, list[str]] = {}
    for p in passes:
        for i, problems in p["failed"].items():
            failures.setdefault(jobs[i].key, problems)
    for key, problems in checked.items():
        if problems:
            failures.setdefault(key, problems)
    attempted = len(jobs) * len(passes)
    failed = sum(1 for p in passes for i, job in enumerate(jobs) if i in p["failed"] or checked[job.key])
    pass_counts = [p["counts"] for p in passes]
    if any(c != pass_counts[0] for c in pass_counts):
        failures.setdefault("(passes)", ["counters differ between passes"])

    lat = [x for p in passes for x in p["latencies"]]
    lines = [
        f"cspace benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
        f"passes={len(passes)} jobs/pass={len(jobs)}",
    ]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(cspace),
        "jobs": [{"argv": list(j.argv), "source": j.source or None, "cells": j.cells} for j in jobs],
        "passes": len(passes),
        "pass_counts": pass_counts[0],
        "failures": failures,
    }
    if not args.trace:
        setup_samples = setup.finish()
        setup_extra_s = statistics.median(a - b for a, b in setup_samples)
        cells = sum(j.cells for j in jobs)
        ref_s = statistics.median(r for p in passes for r in p["refs"])
        # Each job's median over the passes, in ref, then summed or the median taken.
        per_job = [statistics.median(p["norm"][i] for p in passes) for i in range(len(jobs))]
        metrics = {
            "setup_s": BASELINE_NOMINAL_S + setup_extra_s,
            "cells_per_ref": cells / sum(per_job),
            "job_p50_ref": statistics.median(per_job),
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": 1.0 - failed / attempted,
        }
        units = END_TO_END
        lines += [
            _line("setup_raw_s", statistics.median(a for a, _ in setup_samples), "s",
                  f"median of {len(setup_samples)} fresh interpreters, not gated"),
            _line("setup_extra_s", setup_extra_s, "s", "median of set-up - baseline `import numpy`"),
            _line("setup_s", metrics["setup_s"], "s", f"{BASELINE_NOMINAL_S} s + setup_extra_s"),
            _line("cells_per_s", cells * len(passes) / sum(lat), "1/s", f"{sum(lat):.3f} s of jobs, not gated"),
            _line("cells_per_ref", metrics["cells_per_ref"], "1/ref", f"median of {len(passes)} passes per job"),
            _line("job_p50_s", statistics.median(lat), "s", f"n={len(lat)}, not gated"),
            _line("job_p50_ref", metrics["job_p50_ref"], "ref", f"n={len(jobs)} jobs x {len(passes)} passes"),
            _line("ref", ref_s, "s", f"median {kernel.__name__} time"),
            _line("peak_rss_mb", metrics["peak_rss_mb"], "MB"),
            _line("failed_frac", failed / attempted, "frac", f"{failed} of {attempted} jobs"),
            _line("ok_frac", metrics["ok_frac"], "frac"),
        ]
        result["setup_samples_s"] = [{"setup": a, "baseline": b} for a, b in setup_samples]
        result["latencies_s"] = lat
        result["latencies_ref"] = [x for p in passes for x in p["norm"]]
        result["reference_s"] = [p["refs"] for p in passes]
    else:
        traced = [p for p in passes if p["traced"]]
        untraced_s = statistics.median(p["job_s"] for p in passes if not p["traced"])
        layers = [per_layer(p["counts"], p["selfs"], p["job_s"], untraced_s) for p in traced]
        # Counts are equal in every pass (checked above); times take the median.
        metrics = {name: layers[0][name] if PER_LAYER[name] in ("count", "bytes")
                   else statistics.median(m[name] for m in layers) for name in PER_LAYER}
        units = PER_LAYER
        lines += [_line(name, value, PER_LAYER[name]) for name, value in metrics.items()]
        target = TARGETS[args.workload]
        share = sum(metrics[name] for name in target)
        lines.append(f"  target layers {'+'.join(target)} take {share:.1%} of traced job time")
        result["target_share"] = share
        result["spans"] = {"fields": ["name", "parent", "start", "end"], "last_traced_pass": traced[-1]["spans"]}
    for key, problems in failures.items():
        lines.append(f"  FAILED {key}: {'; '.join(problems)}")

    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    result["correct"] = not failures
    result["attempted"] = attempted
    result["failed"] = failed
    return result, lines


def _earlier_counts(result: dict) -> list[str]:
    """Compare pass counters with earlier results of the same code and job list."""
    problems = []
    pattern = f"{result['workload']}-seed{result['seed']}-trace*.json"
    for path in sorted((OUT_ROOT / "results").glob(pattern)):
        try:
            old = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            continue
        same_code = old.get("environment", {}).get("source_sha256") == result["environment"]["source_sha256"]
        if same_code and old.get("jobs") == result["jobs"] and old.get("pass_counts") != result["pass_counts"]:
            problems.append(f"counters differ from {path.name}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cspace = _import_program()
    if cspace is None:
        print(f"error: no cspace sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    result, lines = benchmark(args, cspace)

    stale = _earlier_counts(result)
    if stale:
        result["failures"]["(earlier runs)"] = stale
        result["correct"] = False
        lines += [f"  FAILED {p}" for p in stale]
    out = OUT_ROOT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print("\n".join(lines))
    print(f"  results: {out}")
    summary = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
