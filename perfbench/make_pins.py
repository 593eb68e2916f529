"""Record the output hashes of every job any seed can select, into pins.json.

    python3 perfbench/make_pins.py [workload ...]

Run this only at a commit whose outputs are known to be right: the benchmark
fails every job whose bytes differ from the pins.  Each job's output is also
put through the same meaning checks a benchmark run applies.
"""

from __future__ import annotations

import json
import shutil
import sys

from jobs import WORKLOADS, pool
from run import OUT_ROOT, PINS, Runner, _import_program, layer_modules, patched
from tracing import Recorder


def main(argv: list[str]) -> int:
    cspace = _import_program()
    if cspace is None:
        print("error: no cspace sources beside the benchmark", file=sys.stderr)
        return 2
    pins = json.loads(PINS.read_text(encoding="utf-8")) if PINS.is_file() else {}
    rec = Recorder()
    work = OUT_ROOT / "pins-work"
    bad = 0
    try:
        with patched(rec.patches(layer_modules())):
            for workload in argv or WORKLOADS:
                runner = Runner(cspace, rec, work, None)
                for job in pool(workload):
                    _, problems, digests = runner.execute(job)
                    problems += runner.meaning(job)
                    if problems:
                        bad += 1
                        print(f"FAILED {job.key}: {problems}", file=sys.stderr)
                    pins[job.key] = digests
                    print(f"{workload}: {job.key}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if bad:
        return 1
    current = {job.key for workload in WORKLOADS for job in pool(workload)}
    pins = {key: pins[key] for key in sorted(pins) if key in current}
    PINS.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
