"""Compare the plain iteration with the shrinking-projection iteration.

Both are run on the same planted instance. The plain scheme moves the
iterate directly; the hybrid scheme re-projects the fixed start point onto
an ever-shrinking set, the constraint set cut by two halfspaces per
iteration, which buys norm convergence at the price of heavier iterations.
"""

import time

import numpy as np

import splitep as sp

problem = sp.generate_planted(n=5, m=5, seed=4)
x_star = problem.planted_solution

for label, solve in (("plain (weak-type)", sp.weak_solve), ("shrinking (strong-type)", sp.strong_solve)):
    started = time.perf_counter()
    report = solve(problem)
    elapsed = time.perf_counter() - started
    dist = np.linalg.norm(report.final_x - x_star)
    print(f"{label:24s}: {report.status.value}, {report.iterations} iterations, "
          f"dist to x* {dist:.2e}, {elapsed:.2f}s")

report = sp.strong_solve(problem)
print(f"\naccumulated cuts: {len(report.cuts)}")
worst = max(cut.membership_violation(x_star) for cut in report.cuts)
print(f"worst cut violation at x*: {worst:.2e} (the solution is never cut off)")

anchor = [np.linalg.norm(r.x - problem.x1) for r in report.history]
print(f"distance from the anchor grows monotonically: "
      f"{anchor[0]:.4f} -> {anchor[len(anchor)//2]:.4f} -> {anchor[-1]:.4f}")
