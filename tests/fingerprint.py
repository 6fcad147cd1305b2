"""Print SHA-256 digests of the solvers' iterates and of the problem files on the acceptance grid.

A change that must keep the iterates or the file format byte-identical runs
this script on the old and the new tree and compares the two outputs. Each
solver digest covers, for every instance of ``ACCEPTANCE_CASES`` in order, the
bytes of every history record's ``next_x``, of the report's ``final_x``, its
status, iteration count and number of cuts, and each cut's normal and offset.
The cut geometry digest covers, for the strong runs in the order printed,
each reported cut's norm ``size``, unit normal and level, which the solver
derives from its rows. The last digest covers the JSON of ``problem_to_dict``
of each instance, as ``save`` writes it.

It is not collected by pytest. Run it from the repository root::

    PYTHONPATH=src python tests/fingerprint.py               # weak, and strong at 1,000 iterations
    PYTHONPATH=src python tests/fingerprint.py --unbudgeted  # also strong without a budget (about a minute)
"""

import argparse
import hashlib
import json

import numpy as np

import splitep as sp
from splitep.problems import problem_to_dict
from conftest import ACCEPTANCE_CASES


def digest(mode: str, max_iter: int | None = None, geometry=None) -> str:
    """SHA-256 over the runs of one solver on the acceptance grid; each cut's geometry goes into ``geometry``."""
    sha = hashlib.sha256()
    for seed, n, m in ACCEPTANCE_CASES:
        problem = sp.generate_planted(n, m, seed=seed)
        overrides = {} if max_iter is None else {"max_iter": max_iter}
        config = sp.default_config(problem, mode=mode, **overrides)
        solve = sp.weak_solve if mode == "weak" else sp.strong_solve
        report = solve(problem, config)
        for record in report.history:
            sha.update(record.next_x.tobytes())
        sha.update(report.final_x.tobytes())
        sha.update(repr((report.status.value, report.iterations, len(report.cuts))).encode())
        for cut in report.cuts:
            sha.update(cut.normal.tobytes())
            sha.update(np.float64(cut.offset).tobytes())
            if geometry is not None:
                geometry.update(np.float64(cut.size).tobytes())
                geometry.update(cut._unit.tobytes())
                geometry.update(np.float64(cut._level).tobytes())
    return sha.hexdigest()


def problem_files_digest() -> str:
    """SHA-256 over the file form of each acceptance instance."""
    sha = hashlib.sha256()
    for seed, n, m in ACCEPTANCE_CASES:
        sha.update(json.dumps(problem_to_dict(sp.generate_planted(n, m, seed=seed)), indent=2).encode())
    return sha.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--unbudgeted", action="store_true", help="also digest strong_solve without an iteration budget")
    args = parser.parse_args()
    runs = [("weak", "weak", None), ("strong max_iter=1000", "strong", 1000)]
    if args.unbudgeted:
        runs.append(("strong unbudgeted", "strong", None))
    geometry = hashlib.sha256()
    for label, mode, max_iter in runs:
        print(f"{label:<22}{digest(mode, max_iter, geometry if mode == 'strong' else None)}")
    print(f"{'cut geometry':<22}{geometry.hexdigest()}")
    print(f"{'problem files':<22}{problem_files_digest()}")


if __name__ == "__main__":
    main()
