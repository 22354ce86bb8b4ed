"""Machine-speed probe, by which the benchmark scales its timings.

On a shared machine a fixed piece of work can run up to 1.6 times slower
for seconds or minutes at a time.  A median within a run cannot remove a
slow phase that lasts most of the run, so the benchmark times this probe
right before each unit of work and scales the unit's times by
REF_PROBE_S / probe.  The probe uses no jlolab code: an integer loop,
small numpy matrix products and dict-and-sort work, the three kinds of
work the workloads do.  Each task is timed best of three and the probe is
their sum, so a phase that slows the program slows the probe alike, while
a slower program leaves the probe unchanged.
"""

from __future__ import annotations

import math
import time

import numpy as np

REF_PROBE_S = 2e-3    # probe time at which scaled timings are reported

_rng = np.random.default_rng(0)
_MATRIX = 0.25 * (_rng.standard_normal((8, 8))
                 + 1j * _rng.standard_normal((8, 8)))


def _integer_loop():
    acc = 0
    for i in range(8000):
        acc += i * i % 7
    return acc


def _small_matmuls():
    x = _MATRIX
    for _ in range(150):
        x = _MATRIX @ x
    return x


def _objects():
    table = {(i, i % 5): [i, str(i)] for i in range(1500)}
    return sorted(table.items(), key=lambda kv: -kv[1][0])


def probe() -> float:
    """Seconds the three probe tasks take, each best of three."""
    total = 0.0
    for task in (_integer_loop, _small_matmuls, _objects):
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            task()
            best = min(best, time.perf_counter() - t0)
        total += best
    return total
