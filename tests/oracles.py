"""Independent brute-force oracles, and the test problems they solve, shared by the suites."""

import dataclasses

import numpy as np

from splitep.equilibrium import AffineVIBifunction, CallableBifunction
from splitep.linalg import DenseOperator
from splitep.problems import ProblemSpec, generate_planted
from splitep.sets import (
    ActiveSet,
    Averaged,
    Ball,
    Box,
    EmptySetError,
    Halfspace,
    Identity,
    Intersection,
    PivotBudgetError,
    ProjectionOnto,
    WholeSpace,
    project_polyhedron,
)
from splitep.solver import IterateRecord


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


def inequality_rows(*members) -> tuple[np.ndarray, np.ndarray]:
    """Stacked rows ``G r <= h`` of boxes (upper faces, then lower ones) and halfspaces."""
    G, h = [], []
    for member in members:
        if isinstance(member, Box):
            eye = np.eye(member.dim)
            G += [eye, -eye]
            h += [member.upper, -member.lower]
        else:
            G.append(member.normal[None, :])
            h.append([member.offset])
    return np.vstack(G), np.concatenate(h)


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


def grid_resolvent(g, box, alpha, u, grid_points):
    """Resolvent of an affine ``g`` on a small box by brute force, accurate to the grid spacing.

    Scans a uniform grid of ``grid_points`` nodes per axis of ``box`` and
    returns the first node ``w`` in scan order with the least worst violation
    ``max_v [-g(w, v) - <v - w, w - u> / alpha]`` over the nodes ``v``.
    """
    axes = np.linspace(box.lower, box.upper, grid_points).T
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, box.dim)
    u = np.asarray(u, dtype=float)
    worst = [np.max(-((grid - w) @ (g.matrix @ w + g.offset)) - (grid - w) @ (w - u) / alpha) for w in grid]
    return grid[np.argmin(worst)]


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


def reference_project(K, x):
    """Projection onto a box, ball or the whole space through ``np.clip`` and ``np.linalg.norm``."""
    if isinstance(K, WholeSpace):
        return x
    if isinstance(K, Box):
        return np.clip(x, K.lower, K.upper)
    if isinstance(K, Ball):
        offset = x - K.center
        dist = np.linalg.norm(offset)
        return x if dist <= K.radius else K.center + (K.radius / dist) * offset
    raise NotImplementedError(f"no reference projection onto {K!r}")


def reference_apply(T, x):
    """Image of ``x`` under an identity, projection or averaged map, through :func:`reference_project`."""
    if isinstance(T, Identity):
        return x
    if isinstance(T, ProjectionOnto):
        return reference_project(T.target, x)
    if isinstance(T, Averaged):
        return (1.0 - T.theta) * x + T.theta * reference_apply(T.base, x)
    raise NotImplementedError(f"no reference image under {T!r}")


def reference_affine_resolvent(g, Q, alpha, u, max_steps=10_000):
    """Exact resolvent of an affine ``g`` on a box or the whole space by the full active-set loop.

    Every call runs the primal-dual active-set steps from the empty set,
    also when the free point ``inv(I + alpha M) (u - alpha q)`` already lies
    in the box, and returns None where those steps cycle or run out.
    """
    if not isinstance(g, AffineVIBifunction) or not isinstance(Q, (Box, WholeSpace)):
        raise NotImplementedError("the reference resolvent covers affine g on a box or the whole space")
    inverse = np.linalg.inv(np.eye(g.dim) + alpha * g.matrix)
    free = inverse @ (u - alpha * g.offset)
    if isinstance(Q, WholeSpace):
        return free
    w, nu = free, np.zeros(Q.dim)
    at_upper = at_lower = active = np.zeros(Q.dim, dtype=bool)
    previous = (bytes(Q.dim), bytes(Q.dim))
    seen = {previous}
    for step in range(max_steps + 1):
        at_upper = np.where(active, at_upper & (nu < 0.0), w > Q.upper)
        at_lower = np.where(active, at_lower & (nu > 0.0), w < Q.lower)
        key = (at_upper.tobytes(), at_lower.tobytes())
        if key == previous:
            return reference_project(Q, w)
        if key in seen or step == max_steps:
            return None
        seen.add(key)
        previous = key
        active = at_upper | at_lower
        bound = np.where(at_upper, Q.upper, Q.lower)[active]
        nu = np.zeros(Q.dim)
        nu[active] = np.linalg.solve(inverse[np.ix_(active, active)], bound - free[active])
        w = free + inverse[:, active] @ nu[active]


def scheduled(config, k: int) -> dict:
    """The schedule values a solve hands its step at index ``k``, as the keyword arguments ``lam`` and ``alpha_k``."""
    return {"lam": config.lambda_schedule(k), "alpha_k": config.alpha_k_schedule(k)}


def reference_core_step(problem, config, x, k):
    """The plain iteration's record from ``x`` at index ``k``, written without the solver's kernels.

    Exact prox steps for an affine ``f``, :func:`reference_apply` for ``S``
    and ``T``, :func:`reference_affine_resolvent` for ``g``, and the residual
    parts collected in a dict of ``np.linalg.norm`` values, with the residual
    their ``max`` after the step's norm.
    """
    if not isinstance(problem.f, AffineVIBifunction):
        raise NotImplementedError("the reference step covers an affine f")
    lam = config.lambda_schedule(k)
    alpha_k = config.alpha_k_schedule(k)
    y = reference_project(problem.C, x - lam * problem.f.operator(x))
    z = reference_project(problem.C, x - lam * problem.f.operator(y))
    Sz = reference_apply(problem.S, z)
    t = (1.0 - config.alpha) * z + config.alpha * Sz
    At = problem.A.entries @ t
    u = reference_affine_resolvent(problem.g, problem.Q, alpha_k, At)
    assert u is not None, "the active-set steps cycled; the reference has no fallback"
    Tu = reference_apply(problem.T, u)
    s = reference_project(problem.C, t + config.mu * (problem.A.entries.T @ (Tu - At)))
    parts = dict(
        res_xy=float(np.linalg.norm(x - y)),
        res_yz=float(np.linalg.norm(y - z)),
        res_Sz=float(np.linalg.norm(Sz - z)),
        res_uAt=float(np.linalg.norm(u - At)),
        res_Tu=float(np.linalg.norm(Tu - u)),
    )
    step = float(np.linalg.norm(s - x))
    return IterateRecord(
        k=k,
        x=x,
        y=y,
        z=z,
        t=t,
        u=u,
        next_x=s,
        lambda_k=lam,
        alpha_k=alpha_k,
        step=step,
        residual=max(step, *parts.values()),
        **parts,
    )


def reference_project_polyhedron(
    x0,
    G: np.ndarray,
    h: np.ndarray,
    start: ActiveSet | None = None,
) -> tuple[np.ndarray, tuple[int, ...]]:
    """:func:`splitep.sets.project_polyhedron` as it stood before its per-pivot numpy calls were cut.

    Kept verbatim, fancy indexing, ``np.argmax`` and all, so that tests can
    demand bit-equal points, active rows and ``ActiveSet`` records from the
    library's version on the same calls. Only the record follows the
    library: it is made for its point, which a call must be for, it carries
    the tolerance, a call that succeeds stores the rows past those it holds,
    through its public ``append``, and the record keeps the norms of the
    checked rows, which every call here takes afresh for all rows; a call
    with no rows returns its point.
    """
    x0 = np.asarray(x0, dtype=float)
    G = np.asarray(G, dtype=float)
    h = np.asarray(h, dtype=float)
    k = G.shape[0]
    start = ActiveSet(x0) if start is None else start
    if start.key != x0.tobytes() or start.count > k:
        raise ValueError("the active-set record was made for another point or for more rows")
    if k == 0:
        return start.point, ()
    row_scale = np.linalg.norm(G, axis=1)
    if np.any(row_scale == 0.0):
        raise ValueError("zero rows must be filtered out before projection")
    max_pivots = 200 + 10 * G.shape[1] + 2 * k
    feas_scale = start.tol
    working, multipliers, r = list(start.rows), list(start.multipliers), start.point
    # The first scan starts at the added rows, or at the last row when none
    # were added, so that it is never empty.
    fresh = min(start.checked, k - 1)

    for _ in range(max_pivots):
        violations = (G[fresh:] @ r - h[fresh:]) / row_scale[fresh:]
        p = fresh + int(np.argmax(violations))
        if violations[p - fresh] <= feas_scale:
            for normal, offset in zip(G[start.count :], h[start.count :]):
                start.append(normal, offset)
            start.rows, start.multipliers, start.point, start.checked = tuple(working), multipliers, r, k
            start.norms[:] = row_scale
            return r, tuple(i for i, lam in zip(working, multipliers) if lam > 0.0)
        fresh = 0
        a_p = G[p]
        lam_p = 0.0
        for _ in range(len(working) + 1):
            if working:
                Gw = G[working]
                try:
                    d = np.linalg.solve(Gw @ Gw.T, Gw @ a_p)
                except np.linalg.LinAlgError:
                    d = np.linalg.lstsq(Gw @ Gw.T, Gw @ a_p, rcond=None)[0]
                z = a_p - Gw.T @ d
                d = d.tolist()
            else:
                d = []
                z = a_p.copy()
            z_sq = float(z @ z)
            dependent = z_sq <= (1e-12 * row_scale[p]) ** 2
            # Longest multiplier-feasible dual step along the exchange
            # direction; the blocking row's multiplier hits zero first.
            t_dual = np.inf
            blocking = -1
            for idx, (lam_i, d_i) in enumerate(zip(multipliers, d)):
                if d_i > 1e-14 and max(lam_i, 0.0) / d_i < t_dual:
                    t_dual = max(lam_i, 0.0) / d_i
                    blocking = idx
            if dependent:
                if blocking < 0:
                    raise EmptySetError(
                        "inequality rows are infeasible; no point satisfies them all"
                    )
                t, full_step = t_dual, False
            else:
                t_primal = float(a_p @ r - h[p]) / z_sq
                full_step = t_primal <= t_dual
                t = t_primal if full_step else t_dual
            r = r - t * z
            multipliers = [lam_i - t * d_i for lam_i, d_i in zip(multipliers, d)]
            lam_p += t
            if full_step:
                working.append(p)
                multipliers.append(lam_p)
                break
            del working[blocking]
            del multipliers[blocking]
    raise PivotBudgetError(float(np.max((G @ r - h) / row_scale)), max_pivots)


def same_record(start: ActiveSet, reference: ActiveSet) -> bool:
    """Whether two ``ActiveSet`` records hold the same stored rows and offsets, working rows, multipliers,
    checked rows, point, tolerance and checked rows' norms, bit for bit."""
    return (
        start.count == reference.count
        and start.G.tobytes() == reference.G.tobytes()
        and start.h.tobytes() == reference.h.tobytes()
        and start.rows == reference.rows
        and np.asarray(start.multipliers).tobytes() == np.asarray(reference.multipliers).tobytes()
        and start.checked == reference.checked
        and start.key == reference.key
        and start.point.tobytes() == reference.point.tobytes()
        and np.float64(start.tol).tobytes() == np.float64(reference.tol).tobytes()
        and start.norms.tobytes() == reference.norms.tobytes()
    )


def reference_cut_row(a, b) -> tuple[np.ndarray, float]:
    """Normal ``2 (b - a)`` and offset ``(b - a) @ (a + b)`` of the cut ``halfspace_dominates(a, b)``.

    Written with ``@``, so that tests can demand bit-equal rows from the
    solver's own products.
    """
    difference = b - a
    return 2.0 * difference, float(difference @ (a + b))


def tangential_ball_problem(stretch: float = 1.0, shift: float = 2.0):
    """Planted seed 34 (n = m = 2) with ``C`` a ball through ``x1`` that passes close by ``x*``.

    The center is the midpoint of ``x1`` and ``x*`` moved ``shift`` units to
    one side of the segment between them, and the radius is ``stretch`` times the
    center's distance to ``x1``; at ``stretch = 1`` the ball passes through
    ``x1`` and ``x*`` both. ``x*`` stays a solution, since the problem's
    operator vanishes there. The iterates reach the ball's boundary, where the
    cut rows meet it nearly tangentially.
    """
    problem = generate_planted(2, 2, seed=34)
    x1, x_star = problem.x1, problem.planted_solution
    side = np.array([x_star[1] - x1[1], x1[0] - x_star[0]]) / np.linalg.norm(x_star - x1)
    center = (x1 + x_star) / 2.0 + shift * side
    return dataclasses.replace(problem, C=Ball(center, stretch * np.linalg.norm(x1 - center)))


def box_fixed_point_problem(n: int, m: int, seed: int, pinned: bool = False) -> tuple[ProblemSpec, np.ndarray]:
    """A problem whose solution set ``Omega`` is a polyhedron, and the projection of ``x1`` onto it.

    ``f`` and ``g`` vanish (zero matrices, ``c1 = c2 = 1``), so every point of
    ``C = [-5, 5]^n`` and of the wide box ``Q = [-1e3, 1e3]^m`` is an
    equilibrium. ``S`` and ``T`` are the 0.5-averaged projections onto boxes
    ``B_S`` and ``B_T``, whose fixed points are the boxes themselves, so
    ``Omega = {x in C and B_S : A x in B_T}``; ``B_T`` lies inside ``Q``.
    ``B_S`` sits around a seeded point ``c`` of ``[-2, 2]^n``, ``B_T`` around
    its image, so ``Omega`` holds ``c``, and ``x1`` is a vertex of ``C``,
    outside ``B_S``. With ``pinned``, ``f(x, y) = <D (x - c), y - x>`` for a
    0/1 diagonal ``D`` with ``n // 2`` seeded ones instead: a monotone ``f``
    with a singular matrix when ``n > 1``, whose equilibria in ``C`` are the
    points with ``x_i = c_i`` wherever ``D_ii = 1``. The reference is the
    exact projection of ``x1`` onto the ``4 n + 2 m`` rows of ``Omega``, and
    the two rows ``x_i <= c_i``, ``-x_i <= -c_i`` of each pinned coordinate:
    the point the strong theorem names.
    """
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    center = rng.uniform(-2.0, 2.0, n)
    B_S = Box(center - rng.uniform(0.5, 2.0, n), center + rng.uniform(0.5, 2.0, n))
    image = A @ center
    B_T = Box(image - rng.uniform(0.1, 1.0, m), image + rng.uniform(0.1, 1.0, m))
    x1 = rng.choice([-5.0, 5.0], n)
    D = np.diag(rng.permutation(n) < n // 2).astype(float) if pinned else np.zeros((n, n))
    problem = ProblemSpec(
        C=Box(np.full(n, -5.0), np.full(n, 5.0)),
        Q=Box(np.full(m, -1e3), np.full(m, 1e3)),
        A=DenseOperator(A),
        f=AffineVIBifunction(D, -D @ center, "monotone", 1.0, 1.0),
        g=AffineVIBifunction(np.zeros((m, m)), np.zeros(m), "monotone", 1.0, 1.0),
        S=Averaged(0.5, ProjectionOnto(B_S)),
        T=Averaged(0.5, ProjectionOnto(B_T)),
        x1=x1,
    )
    E = np.eye(n)[np.diag(D) == 1.0]
    G, h = inequality_rows(problem.C, B_S)
    G = np.vstack([G, A, -A, E, -E])
    h = np.concatenate([h, B_T.upper, -B_T.lower, E @ center, -E @ center])
    return problem, project_polyhedron(problem.x1, G, h)[0]


def small_angle_problem() -> ProblemSpec:
    """A problem whose ``C`` is two halfspaces of the plane meeting at an angle of 0.01, too small for Dykstra's scheme.

    ``C = {r : r_2 <= 0, sin(0.01) r_1 <= cos(0.01) r_2}`` holds ``x1 = 0``.
    ``f(x, y) = <x - (1, 1), y - x>``, so the first prox step projects a point
    of the open quadrant, and Dykstra's scheme uses up its 10,000 sweeps
    before it reaches ``C`` to its tolerance. ``A = [1, 0]``, ``Q = [-5, 5]``,
    ``g`` vanishes and ``S``, ``T`` are identities.
    """
    return ProblemSpec(
        C=Intersection([Halfspace([0.0, 1.0], 0.0), Halfspace([np.sin(0.01), -np.cos(0.01)], 0.0)]),
        Q=Box([-5.0], [5.0]),
        A=DenseOperator([[1.0, 0.0]]),
        f=AffineVIBifunction(np.eye(2), -np.ones(2), "monotone", 0.5, 0.5),
        g=AffineVIBifunction(np.zeros((1, 1)), np.zeros(1), "monotone", 0.5, 0.5),
        S=Identity(2),
        T=Identity(1),
        x1=np.zeros(2),
    )


def reference_project_rows_and_ball(x, G, h, ball: Ball) -> np.ndarray:
    """Projection of ``x`` onto ``{r : G r <= h}`` intersected with ``ball``, by bisection on the ball's multiplier.

    For a multiplier ``nu >= 0`` on ``||r - c||^2 <= rho^2`` the minimizer of
    ``||r - x||^2 + nu ||r - c||^2`` over the rows is
    ``P_rows((x + nu c) / (1 + nu))``, whose distance to ``c`` does not grow
    with ``nu``. The projection is the minimizer at ``nu = 0`` when that lies
    in the ball, else the one at the ``nu`` where the distance equals
    ``rho``; each ``P_rows`` is a cold :func:`reference_project_polyhedron`.
    Raises ``EmptySetError`` when no multiplier brings the minimizer into the
    ball.
    """
    c, rho = ball.center, ball.radius

    def minimizer(nu):
        return reference_project_polyhedron((x + nu * c) / (1.0 + nu), G, h)[0]

    def inside(r):
        return np.linalg.norm(r - c) <= rho

    point = minimizer(0.0)
    if inside(point):
        return point
    low, high = 0.0, 1.0
    while not inside(minimizer(high)):
        low, high = high, 2.0 * high
        if high > 1e30:
            raise EmptySetError("the rows and the ball have no common point")
    for _ in range(200):
        middle = 0.5 * (low + high)
        if middle in (low, high):
            break
        if inside(minimizer(middle)):
            high = middle
        else:
            low = middle
    return minimizer(high)
