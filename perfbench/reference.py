"""Reference kernels: fixed work, independent of cspace, timed beside every job.

The speed of the machine this benchmark was defined on drifts by up to 2x
over tens of seconds.  Dividing each job's time by the time of a fixed
kernel measured just before and just after it cancels most of that drift, so
the gated metrics are in units of ``ref``, the kernel's time, and the raw
seconds are reported beside them.  Different work drifts by different
amounts, so each workload uses the kernel whose ratio to that workload's jobs
stayed steadiest across fresh processes: numpy arithmetic for ``sweep``,
Python float formatting, parsing and dict lookups for ``export``, and both
for ``figures``.  README.md gives the spread each kernel leaves on each
workload.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

import numpy as np

_FLOATS = [k * 0.001234567 for k in range(2000)]
_IN_L2 = np.linspace(0.1, 0.9, 1 << 16)  # 512 KiB
_OUT_OF_L2 = np.linspace(0.1, 0.9, 1 << 20)  # 8 MiB


def python_kernel() -> str:
    back = [float(text) for text in [format(x, ".9g") for x in _FLOATS]]
    cells: dict[tuple[int, int], int] = {}
    for i in range(3000):
        key = (i % 97, i % 89)
        cells[key] = cells.get(key, 0) + i
    return json.dumps(back)


def numpy_kernel() -> float:
    a = _IN_L2
    for _ in range(10):
        a = np.abs(a * 1.0001 - 0.5) / 1.3
    return float(np.abs(_OUT_OF_L2 * 1.0001 - 0.5).mean())


def mixed_kernel() -> None:
    python_kernel()
    numpy_kernel()


KERNELS = {"sweep": numpy_kernel, "export": python_kernel, "figures": mixed_kernel}
REPEATS = 5


def reference_seconds(kernel) -> float:
    """Median time of a few back-to-back runs of ``kernel``.

    The median ignores a run disturbed by an interruption, which would weigh
    far more on a few-millisecond kernel than on a job, and also a run that
    caught a brief fast moment of the machine, which the best run would
    report; over 200-second runs it left less spread than the best run on
    ``export`` (0.053 against 0.078) and little more on ``sweep`` (0.050
    against 0.039).
    """
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)
