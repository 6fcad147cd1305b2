"""Tour of the convex-analytic primitives underneath the solvers.

Closed-form projections, alternating projections onto an intersection,
nonexpansive mappings built from projections, and the resolvent of a
monotone bifunction checked against its closed form; the script exits
nonzero if the two differ by more than 1e-9.
"""

import sys

import numpy as np

import splitep as sp

# closed-form projections
box = sp.Box([0.0, 0.0], [1.0, 1.0])
ball = sp.Ball([0.0, 0.0], 1.0)
halfspace = sp.Halfspace([1.0, 0.0], 0.0)
print("project([2,-1] onto unit box)      ->", box.project([2.0, -1.0]))
print("project([3, 4] onto unit ball)     ->", ball.project([3.0, 4.0]))
print("project([2, 5] onto {x1 <= 0})     ->", halfspace.project([2.0, 5.0]))

# intersections via alternating projections with correction terms
quadrant = [sp.Halfspace([-1.0, 0.0], 0.0), sp.Halfspace([0.0, -1.0], 0.0)]
print("project([-1,-1] onto the quadrant) ->", sp.project_intersection(quadrant, [-1.0, -1.0]))

# the halfspace of points at least as close to a as to b
cut = sp.halfspace_dominates([0.0], [2.0])
print(f"closer-to-0-than-to-2 cut: normal {cut.normal}, offset {cut.offset} (i.e. r <= 1)")

# nonexpansive mappings: averaging the identity with a ball projection
S = sp.Averaged(0.5, sp.ProjectionOnto(sp.Ball([0.0], 1.0)))
print("averaged ball-projection map at 3  ->", S.apply([3.0]))

# resolvent of g(u, v) = (u - 0.3)(v - u) on [-1, 1] vs its closed form
# clamp((u + 0.3 alpha) / (1 + alpha), -1, 1), which is 0.5 at u = 0.9, alpha = 2
g = sp.AffineVIBifunction.with_default_constants(np.eye(1), np.array([-0.3]))
Q = sp.Box([-1.0], [1.0])
u, alpha = 0.9, 2.0
w = sp.resolvent(g, Q, alpha=alpha, u=[u])
closed_form = min(max((u + 0.3 * alpha) / (1.0 + alpha), -1.0), 1.0)
print(f"resolvent at u=0.9: {w[0]:.8f} (closed form {closed_form:.8f})")
if abs(w[0] - closed_form) > 1e-9:
    sys.exit("the resolvent misses its closed form")

# probing declared bifunction assumptions numerically
report = sp.check_assumptions(g, Q, samples=500, seed=0)
print(f"assumption probe violations: diagonal {report.diagonal:.1e}, "
      f"monotonicity {report.monotonicity:.1e}, lipschitz {report.lipschitz_type:.1e}")
