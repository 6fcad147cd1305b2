"""Time one cold set-up of a workload in a fresh interpreter.

Set-up is what a user pays before the first solve: importing splitep (and
numpy), generating the instances and deriving their default configs.
``run.py`` starts this script several times per run and reports the median;
it prints the measured seconds and then the reference kernel's time right
after set-up (median of three, after one warm-up run; see ``reference.py``).

Usage: python3 bench/setup_probe.py WORKLOAD SEED SMOKE(0|1)
"""

import time

started = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import SMOKE_WORKLOADS, WORKLOADS, build  # noqa: E402  (imports splitep and numpy)

workload, seed, smoke = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
build((SMOKE_WORKLOADS if smoke else WORKLOADS)[workload], seed)
seconds = time.perf_counter() - started

import statistics  # noqa: E402

import reference  # noqa: E402

reference.kernel_s()
print(seconds, statistics.median(reference.kernel_s() for _ in range(3)))
