"""Host-speed probe: a fixed CPU workload timed between rounds of jobs.

The machines this benchmark runs on are shared, and the same job on the
same input takes anywhere from 0.9 s to 1.75 s depending on what the
neighbours do; the slow and fast spells last seconds to minutes, so
longer runs do not average them out.  The probe runs the same kind of
work as the index build (a per-row sort, two binary searches and a
Python-level loop over every row) on fixed data, independent of the
code under test, so a change to ``src/`` cannot move it.

The slow spells of the two CPUs are independent of each other, so the
probe runs on the CPUs the daemon runs on: the one it is pinned to, or
each CPU in turn (averaged) when its pool needs them all.  A time ``t``
measured while the probe takes ``p`` seconds is reported as
``t * NOMINAL_S / p``: seconds on a host where the probe takes
``NOMINAL_S``.
"""

from __future__ import annotations

import os
import time
from typing import Collection

import numpy as np

#: probe duration that defines a "nominal host second"
NOMINAL_S = 0.05

_DATA = np.random.default_rng(20060403).uniform(0.0, 10.0, size=(3000, 30))


def probe(cpus: Collection[int]) -> float:
    """Mean seconds the fixed workload takes right now on ``cpus``."""
    restore = os.sched_getaffinity(0)
    try:
        took = []
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            took.append(_workload())
    finally:
        os.sched_setaffinity(0, restore)
    return sum(took) / len(took)


def _workload() -> float:
    began = time.perf_counter()
    total = 0
    for row in _DATA:
        order = np.argsort(row, kind="stable")
        ranked = row[order]
        reach = 0.1 * (ranked[-1] - ranked[0])
        low = np.searchsorted(ranked, ranked - reach, side="left")
        high = np.searchsorted(ranked, ranked + reach, side="right")
        total += sum(int(h) - int(lo) for lo, h in zip(low, high))
    if total <= 0:
        raise AssertionError("probe workload computed nothing")
    return time.perf_counter() - began
