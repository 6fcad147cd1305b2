"""Independent brute-force oracles shared by the unit and acceptance suites."""

import numpy as np

from splitep.sets import Halfspace


def two_halfspace_projection_oracle(a1, b1, a2, b2, x):
    """Projection onto two halfspaces by KKT case enumeration.

    Checks the unconstrained point, each single active constraint
    (projection onto its boundary hyperplane) and the doubly active case
    (2x2 normal system), returning the feasible candidate closest to ``x``.
    """
    candidates = []

    def feasible(r):
        return a1 @ r <= b1 + 1e-9 and a2 @ r <= b2 + 1e-9

    if feasible(x):
        candidates.append(x)
    for a, b in ((a1, b1), (a2, b2)):
        r = x - ((a @ x - b) / (a @ a)) * a
        if feasible(r):
            candidates.append(r)
    A = np.vstack([a1, a2])
    gram = A @ A.T
    if abs(np.linalg.det(gram)) > 1e-12:
        lam = np.linalg.solve(gram, A @ x - np.array([b1, b2]))
        r = x - A.T @ lam
        if feasible(r):
            candidates.append(r)
    return min(candidates, key=lambda r: np.linalg.norm(r - x))


def random_two_halfspaces(rng, dim=3):
    """Two halfspaces sharing an interior point, so their intersection is nonempty."""
    interior = rng.standard_normal(dim)
    a1 = rng.standard_normal(dim)
    a2 = rng.standard_normal(dim)
    b1 = float(a1 @ interior) + rng.uniform(0.1, 1.0)
    b2 = float(a2 @ interior) + rng.uniform(0.1, 1.0)
    return Halfspace(a1, b1), Halfspace(a2, b2)


def contracting_resolvent(g, Q, alpha, u, tol=1e-13, max_steps=10**6):
    """Resolvent of an affine ``g`` by a projected fixed point that always contracts.

    Iterates ``w <- P_Q(w - rho (alpha (M w + q) + w - u))`` with
    ``rho = 1 / L^2`` for the Lipschitz constant ``L = 1 + alpha ||M||`` of
    ``alpha G + I``: a step that contracts for any monotone ``g``, symmetric
    or not, until the displacement drops below ``tol``.
    """
    rho = 1.0 / (1.0 + alpha * g.operator_norm_upper) ** 2
    w = Q.project(u)
    for _ in range(max_steps):
        w_next = Q.project(w - rho * (alpha * g.operator(w) + (w - u)))
        if np.linalg.norm(w_next - w) < tol:
            return w_next
        w = w_next
    raise AssertionError("the contracting resolvent loop did not converge")
