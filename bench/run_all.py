#!/usr/bin/env python3
"""Run every workload untraced and then traced, printing all of their metrics.

Run from the repository root:

    python3 bench/run_all.py [--seed N] [--seconds S] [--blas-threads T]

Each run is a separate ``bench/run.py`` process, so each workload's peak
memory is its own. Exits with 1 if a run fails or a solve fails the gate.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", default="0")
    parser.add_argument("--seconds", default="35")
    parser.add_argument("--blas-threads", default="1")
    args = parser.parse_args()
    ok = True
    for workload in WORKLOAD_NAMES:
        for trace in ("0", "1"):
            print(f"== {workload} trace {trace}", flush=True)
            done = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", args.seed,
                 "--seconds", args.seconds, "--trace", trace, "--blas-threads", args.blas_threads],
                capture_output=True, text=True,
            )
            print(done.stdout, end="", flush=True)
            print(done.stderr, end="", file=sys.stderr, flush=True)
            lines = done.stdout.strip().splitlines()
            ok &= done.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
