#!/usr/bin/env python3
"""splitep benchmark: one caller solves a workload's planted instances, one at a time.

Run from the repository root, for example

    python3 bench/run.py --workload weak-grid --seed 0 --seconds 35 --trace 0

The runner is a closed loop: a single caller starts the next solve only when
the previous one has returned. It measures whole passes over the workload's
instances for about ``--seconds`` seconds and checks every solve against the
correctness gate outside the timed region. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics. End-to-end times are in scaled seconds, which
take out the host's drift in speed (see ``reference.py``). Human-readable
lines come first; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The BLAS thread count (``--blas-threads``, default 1, at most the number of
usable processors) is set before numpy is imported.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
# The keys of workloads.WORKLOADS, which cannot be imported before numpy is.
WORKLOAD_NAMES = ("weak-grid", "strong-grid", "weak-large")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0, help="orders the instances within a pass")
    parser.add_argument("--seconds", type=float, default=35.0, help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", type=int, default=1)
    parser.add_argument("--smoke", action="store_true", help="tiny instances, for the benchmark's own tests")
    args = parser.parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not 1 <= args.blas_threads <= nproc:
        parser.error(f"--blas-threads must lie in [1, {nproc}] (the usable processors)")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "splitep" / "__init__.py").is_file():
        print(f"error: the splitep sources are missing under {SRC}", file=sys.stderr)
        return 2
    loadavg_start = os.getloadavg()
    for var in THREAD_VARS:
        os.environ[var] = str(args.blas_threads)
    sys.path.insert(0, str(SRC))

    import measure  # imports numpy: only after the thread count is set

    result, detail, failures = measure.run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, args.blas_threads, loadavg_start
    )
    print("detail " + json.dumps(detail))
    for line in failures:
        print(f"FAILED {line}")
    tail = detail["solve_s_tail"]
    if tail is not None:
        print(f"solve_s_tail is p{tail['percentile']:.4g} of {tail['samples']} solves ({tail['beyond']} above it)")
    print(f"fail_frac {result['failed']}/{result['attempted']} = {detail['fail_frac']}")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
