"""A fixed reference kernel that reads how fast the host's CPU is right now.

The benchmark runs on shared machines whose speed drifts by a fifth or
more over minutes, for every workload at once: other tenants share the
physical cores and the socket's clock.  The probe is benchmark code, not
program code, and its working set (a Python loop and 128 x 128 matrix
products) stays in the core's own cache, so its time moves with the
core's speed only, not with the program or with where memory landed.
Workloads run it between their timed units, and the harness states the
gated figures at the speed of a host on which the probe takes ``REF_S``:

    rate at reference speed = measured rate x (median probe time / REF_S)
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

from perfbench import stats

#: The probe's median time on the host the baseline was recorded on
#: (2-vCPU x86-64 VM, OpenBLAS with one thread).  Only ratios between
#: runs matter; this keeps the stated figures near the measured ones.
REF_S = 0.020

_PY_ITERS = 150_000
_MM_ITERS = 200
_SMALL = np.random.default_rng(0).random((128, 128), dtype=np.float32)


def probe() -> float:
    """Run the reference kernel once; returns its wall time in seconds."""
    start = time.perf_counter()
    total = 0
    for i in range(_PY_ITERS):
        total += i
    for _ in range(_MM_ITERS):
        _SMALL @ _SMALL
    return time.perf_counter() - start


def factor(samples: List[float]) -> float:
    """How much slower than the reference host the probe ran: the median
    probe time over ``REF_S``."""
    return stats.median(samples) / REF_S
