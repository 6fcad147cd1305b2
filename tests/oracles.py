"""Independent brute-force oracles, and the test problems they solve, shared by the suites."""

import numpy as np

from splitep.equilibrium import CallableBifunction
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


def projected_gradient(grad, C, start, lipschitz, tol=1e-13, max_steps=10**6):
    """Minimizer over ``C`` of a 1-strongly convex function with ``lipschitz``-Lipschitz gradient ``grad``.

    Iterates ``y <- P_C(y - grad(y) / L)``, which contracts by ``1 - 1/L``,
    until the displacement drops below ``tol``; the distance to the
    minimizer is then at most ``L tol``.
    """
    y = C.project(start)
    for _ in range(max_steps):
        y_next = C.project(y - grad(y) / lipschitz)
        if np.linalg.norm(y_next - y) < tol:
            return y_next
        y = y_next
    raise AssertionError("the projected gradient loop did not converge")


def quadratic_bifunction(P, Q, q):
    """The test bifunction ``f(x, y) = <P x + Q y + q, y - x>`` for a symmetric ``Q``.

    From Tran, Muu and Nguyen (Optimization 57, 2008). It is monotone when
    ``P - Q`` is positive semidefinite, and satisfies the Lipschitz-type
    condition with ``c1 = c2 = ||P - Q|| / 2``.
    """
    c = np.linalg.norm(P - Q, 2) / 2.0
    return CallableBifunction(
        lambda x, y: float((P @ x + Q @ y + q) @ (y - x)),
        lambda x, y: (P - Q) @ x + 2.0 * Q @ y + q,
        "monotone",
        c,
        c,
    )


def quadratic_prox_reference(P, Q, q, C, x, lam, at):
    """``argmin_{y in C} lam f(at, y) + ||y - x||^2 / 2`` for :func:`quadratic_bifunction` by projected gradient."""
    lipschitz = 1.0 + 2.0 * lam * np.linalg.norm(Q, 2)
    return projected_gradient(lambda y: lam * ((P - Q) @ at + 2.0 * Q @ y + q) + (y - x), C, x, lipschitz)


def clipped_soft_threshold(v, t, box):
    """``argmin_{w in box} t ||w||_1 + ||w - v||^2 / 2``: the soft threshold, clipped coordinatewise.

    This is the exact resolvent of ``g(x, y) = ||y||_1 - ||x||_1`` with
    parameter ``t``, and the exact prox step of the same bifunction.
    """
    return np.clip(np.sign(v) * np.maximum(np.abs(v) - t, 0.0), box.lower, box.upper)
