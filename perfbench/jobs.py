"""Seeded job lists for the three workloads, and the finite pool they draw from.

A job is one closed-loop step: a ``cspace`` CLI invocation, or a read-back of
a file an earlier job wrote.  ``cycle(workload, seed)`` returns the job list a
seed selects; a run repeats that list until its time is spent.  Every choice a
seed can make comes from a small fixed menu, so ``pool(workload)`` can list
every job any seed can produce, and ``pins.json`` can hold the output hashes
of all of them.

Every cycle of a workload has the same mix of job kinds and sizes, and the
seed only picks among inputs of near-equal cost, so cycles of different seeds
cost about the same and the run-to-run spread stays small.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

WORKLOADS = ("sweep", "export", "figures")

# Catalog order of cspace.metrics; the job lists must not depend on the
# program under test, so the ids are spelled out here.
METRICS = ("accuracy", "precision", "recall", "f1", "tss", "hss", "youden_j", "gilbert", "doolittle")

# The 3x3 affine plane: metric k sits at (k // 3, k % 3), and each of the four
# directions splits the nine points into three parallel lines.  A seed picks a
# direction; over all four, every pair of metrics shares one triple.
_DIRECTIONS = ((0, 1), (1, 0), (1, 1), (1, 2))

# Sweep job sizes keep three separate latency groups: compare on a triple
# (fastest), sensitivity of all nine metrics at t=256, sensitivity of a triple
# at t=1024 (slowest).  The five all-metric jobs outnumber either other group,
# so the median job is always one of them and does not depend on the seed.
SENS256 = {"t": 256, "n": 120, "factors": ("1.04", "1.05", "1.06", "1.07", "1.08")}
SENS1024 = {"t": 1024, "n": 16, "factors": ("1.5", "2", "3")}
COMPARE = {"t": 256, "n": 120, "factors": ("1.05", "1.07", "1.1"), "ratios": ("2", "10", "49", "1000")}
# Export draws from metrics whose surfaces hold full-length decimals, at
# ratios where their files differ in size by under 2%.  The agnostic metrics
# (and accuracy) give short values that format and parse faster, and large
# ratios lengthen the JSON; either would make a cycle's cost depend on the seed.
# Gilbert and doolittle files are 2-3% larger and raise the peak RSS of a t=1024
# CSV write by 7-9 MB, and a cycle that wrote both t=1024 files from doolittle
# peaked 7% above the others, so they are left out.
EXPORT_METRICS = ("precision", "f1", "hss")
EXPORT_T = (512, 1024)
EXPORT_FORMATS = ("csv", "json")
EXPORT_RATIOS = ("3", "5", "7")
FIGURE_RATIOS = ("3", "30", "300")
# Distinct surfaces `cspace reproduce` needs at its defaults (t=256,
# schedule 1:1024:2): f1 at {1, 49} plus the 11 schedule ratios, six other
# core metrics at 11 ratios, and three rendered panels.
REPRODUCE_T = 256
REPRODUCE_SURFACES = 12 + 6 * 11 + 3

OUT = "{out}"  # placeholder for a job's output directory in argv and pin keys


@dataclass(frozen=True)
class Job:
    """One step of a cycle.

    ``argv`` is the CLI argument list with ``{out}`` standing for the job's
    output directory; for a read-back job it is ``("read", fmt, path)``, and
    ``source`` is the key of the job that wrote the file, whose directory it
    reads.  ``key`` names the job in ``pins.json``.  ``cells`` is the nominal number
    of grid cells the job processes, from its arguments alone.  ``outputs``
    are the files it writes, relative to its output directory.  ``meta``
    carries what the output check needs.
    """

    kind: str
    argv: tuple[str, ...]
    cells: int
    outputs: tuple[str, ...]
    meta: tuple[tuple[str, object], ...] = ()
    source: str = ""

    @property
    def key(self) -> str:
        return " ".join(self.argv) + (f" < {self.source}" if self.source else "")

    @property
    def home(self) -> str:
        """The key whose output directory this job writes or reads."""
        return self.source or self.key

    def info(self, name: str):
        return dict(self.meta)[name]


def triples(direction: int) -> list[tuple[str, ...]]:
    dx, dy = _DIRECTIONS[direction]
    lines = []
    seen: set[int] = set()
    for k in range(9):
        if k in seen:
            continue
        x0, y0 = divmod(k, 3)
        line = sorted({((x0 + s * dx) % 3) * 3 + (y0 + s * dy) % 3 for s in range(3)})
        seen.update(line)
        lines.append(tuple(METRICS[i] for i in line))
    return lines


def schedule(factor: str, n: int) -> tuple[str, tuple[float, ...]]:
    """A ``1:stop:factor`` spec with exactly ``n`` ratios, and those ratios.

    The CLI computes ratio k as ``1.0 * f**k``; ``stop`` is the same float for
    k = n - 1, so the last ratio is hit exactly and the count is ``n``.
    """
    f = float(factor)
    ratios = tuple(1.0 * f**k for k in range(n))
    return f"1:{ratios[-1]!r}:{factor}", ratios


def _sensitivity(metrics: tuple[str, ...], spec: dict, factor: str) -> Job:
    sched, ratios = schedule(factor, spec["n"])
    t = spec["t"]
    argv = ("sensitivity", "--metrics", ",".join(metrics), "--ratios", sched, "--t", str(t),
            "--format", "json", "--out-dir", OUT)
    # Per metric: the balanced surface plus one per ratio other than 1.
    cells = len(metrics) * len({1.0, *ratios}) * t * t
    meta = (("check", "curves"), ("t", t), ("metrics", metrics), ("ratios", ratios))
    return Job("cli", argv, cells, ("sensitivity.json",), meta)


def _compare(metrics: tuple[str, ...], ratio: str, factor: str) -> Job:
    sched, ratios = schedule(factor, COMPARE["n"])
    t = COMPARE["t"]
    argv = ("compare", "--metrics", ",".join(metrics), "--ratio", ratio, "--t", str(t),
            "--svg", "curves.svg", "--ratios", sched, "--log-x", "--out-dir", OUT)
    cells = len(metrics) * len({1.0, float(ratio), *ratios}) * t * t
    meta = (("check", "compare"), ("t", t), ("metrics", metrics), ("ratio", float(ratio)))
    return Job("cli", argv, cells, ("curves.svg",), meta)


def _export_pair(metric: str, ratio: str, t: int, fmt: str) -> tuple[Job, Job]:
    name = f"surface.{fmt}"
    write = Job(
        "cli",
        ("surface", "--metric", metric, "--ratio", ratio, "--t", str(t), "--format", fmt,
         "--out", f"{OUT}/{name}"),
        2 * t * t,  # the surface, then its serialisation
        (name,),
        (("check", "none"),),
    )
    read = Job(
        "read",
        ("read", fmt, f"{OUT}/{name}"),
        t * t,
        (),
        (("check", f"read-{fmt}"), ("metric", metric), ("ratio", float(ratio)), ("t", t)),
        source=write.key,
    )
    return write, read


def _figure(metric: str, ratio: str, t: int) -> Job:
    argv = ("surface", "--metric", metric, "--ratio", ratio, "--t", str(t), "--format", "svg",
            "--out", f"{OUT}/surface.svg")
    return Job("cli", argv, 2 * t * t, ("surface.svg",), (("check", "svg"),))


REPRODUCE = Job(
    "cli",
    ("reproduce", "--out-dir", OUT),
    REPRODUCE_SURFACES * REPRODUCE_T * REPRODUCE_T,
    ("fig2_f1_contour_r1.svg", "fig3_f1_contours_r1_r49.svg", "fig4_sensitivity_curves.svg", "manifest.json"),
    (("check", "reproduce"),),
)


def cycle(workload: str, seed: int) -> list[Job]:
    """The job list that ``seed`` selects for ``workload``; same seed, same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep":
        jobs = [_sensitivity(METRICS, SENS256, f) for f in SENS256["factors"]]
        for group in triples(rng.randrange(len(_DIRECTIONS))):
            jobs.append(_sensitivity(group, SENS1024, rng.choice(SENS1024["factors"])))
            jobs.append(_compare(group, rng.choice(COMPARE["ratios"]), rng.choice(COMPARE["factors"])))
        rng.shuffle(jobs)
        return jobs
    if workload == "export":
        pairs = [
            _export_pair(rng.choice(EXPORT_METRICS), rng.choice(EXPORT_RATIOS), t, fmt)
            for t in EXPORT_T
            for fmt in EXPORT_FORMATS
        ]
        rng.shuffle(pairs)
        return [job for pair in pairs for job in pair]
    if workload == "figures":
        # Every metric at every ratio at t=256, so more than half the cycle is
        # the same 27 small jobs and the median job does not depend on the
        # seed.  At t=1024 each ratio goes to three metrics, in seeded order.
        jobs = [REPRODUCE] + [_figure(m, r, 256) for m in METRICS for r in FIGURE_RATIOS]
        ratios = list(FIGURE_RATIOS) * 3
        rng.shuffle(ratios)
        jobs.extend(_figure(m, r, 1024) for m, r in zip(METRICS, ratios))
        rng.shuffle(jobs)
        return jobs
    raise ValueError(f"unknown workload {workload!r}")


def pool(workload: str) -> list[Job]:
    """Every job ``cycle(workload, seed)`` can return, for any seed."""
    groups = sorted({g for d in range(len(_DIRECTIONS)) for g in triples(d)})
    if workload == "sweep":
        return (
            [_sensitivity(METRICS, SENS256, f) for f in SENS256["factors"]]
            + [_sensitivity(g, SENS1024, f) for g in groups for f in SENS1024["factors"]]
            + [_compare(g, r, f) for g in groups for r in COMPARE["ratios"] for f in COMPARE["factors"]]
        )
    if workload == "export":
        return [
            job
            for m, r, t, fmt in itertools.product(EXPORT_METRICS, EXPORT_RATIOS, EXPORT_T, EXPORT_FORMATS)
            for job in _export_pair(m, r, t, fmt)
        ]
    if workload == "figures":
        return [REPRODUCE] + [_figure(m, r, t) for m in METRICS for r in FIGURE_RATIOS for t in (256, 1024)]
    raise ValueError(f"unknown workload {workload!r}")


def warmup_jobs() -> list[Job]:
    """One tiny job of every kind, run once untimed before measuring."""
    write, read = _export_pair("f1", "3", 16, "csv")
    write_j, read_j = _export_pair("f1", "3", 16, "json")
    small = {"t": 16, "n": 4}
    return [
        _sensitivity(("accuracy", "f1"), small, "2"),
        Job("cli", ("compare", "--metrics", "f1,precision", "--ratio", "3", "--t", "16", "--svg",
                    "curves.svg", "--ratios", "1:8:2", "--out-dir", OUT), 0, ("curves.svg",)),
        write, read, write_j, read_j,
        _figure("precision", "3", 16),
        Job("cli", ("reproduce", "--t", "16", "--out-dir", OUT), 0, REPRODUCE.outputs),
    ]
