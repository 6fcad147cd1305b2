"""A fixed reference kernel that measures the host's current speed.

The benchmark's host is a few vCPUs of a shared machine whose speed drifts
about twofold in phases of seconds to minutes: a fixed Python loop slows as
much as a solve does. A raw time then says as much about the phase a run
fell in as about the program. So every timed region is paired with this
kernel, timed next to it, and reported as

    seconds * NOMINAL_S / kernel seconds

that is, in seconds at the host speed at which the kernel takes NOMINAL_S.
The kernel mixes the three kinds of work the workloads are bound by: a
plain interpreter loop, a dense matrix-vector chain and many numpy calls on
small arrays. With all three the scaled times of one workload drifted 4%
over four minutes in which the raw times drifted 30%, against 10-11% with
the first two or the last alone. The kernel uses nothing of splitep, so a
change to the program moves the scaled times as much as the raw ones.

Imports numpy, so callers set the BLAS thread count before importing it.
"""

import time

import numpy as np

# Close to the kernel's time on a quiet 2-vCPU Xeon VM, so scaled times
# read about as raw times do there.
NOMINAL_S = 0.010

_PY_ITERATIONS = 25_000
_MATVECS = 30
_SMALL_CALLS = 500
_rng = np.random.default_rng(20150817)
_MATRIX = _rng.standard_normal((500, 500))
_VECTOR = _rng.standard_normal(500)
_SMALL_MATRIX = _rng.standard_normal((40, 20))
_SMALL_VECTOR = _rng.standard_normal(20)


def kernel_s() -> float:
    """Seconds the reference kernel takes now (about 10 ms on that VM)."""
    started = time.perf_counter()
    total = 0
    for i in range(_PY_ITERATIONS):
        total += i * i
    w = _VECTOR
    for _ in range(_MATVECS):
        w = _MATRIX @ w
        w /= np.linalg.norm(w)
    acc = 0.0
    for _ in range(_SMALL_CALLS):
        r = _SMALL_MATRIX @ _SMALL_VECTOR
        acc += np.maximum(r, 0.0).sum() + np.linalg.norm(r)
    return time.perf_counter() - started


def scale(before: float, after: float) -> float:
    """Factor that turns the seconds of a region timed between two kernel runs into scaled seconds."""
    return NOMINAL_S / ((before + after) / 2.0)
