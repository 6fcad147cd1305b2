"""Projectable convex sets and nonexpansive mappings built from projections.

Each :class:`ConvexSet` variant carries a closed-form metric projection except
:class:`Intersection`, which is projected with Dykstra's alternating scheme.
The projection ``z = P(x)`` of any variant satisfies the variational
characterization ``<x - z, y - z> <= 0`` for all members ``y`` of the set.

``project`` and ``apply`` check their argument and call the variant's unchecked
``_project`` or ``_apply``; a user subclass may override the public method alone.
Set and mapping objects are immutable after construction and all operations
are pure, so values can be shared freely across threads.
"""

from __future__ import annotations

import numpy as np

from splitep.linalg import as_vector

__all__ = [
    "ActiveSet",
    "Averaged",
    "Ball",
    "Box",
    "Composition",
    "ConvexSet",
    "DykstraError",
    "EmptySetError",
    "Halfspace",
    "Identity",
    "Intersection",
    "NonexpansiveMap",
    "ProjectionOnto",
    "WholeSpace",
    "halfspace_dominates",
    "linear_inequality_rows",
    "map_apply",
    "project",
    "project_intersection",
    "project_polyhedron",
]

# Below this norm a halfspace normal is considered exactly zero, encoding the
# whole space (offset >= -TINY_NORMAL) or the empty set (offset < -TINY_NORMAL).
TINY_NORMAL = 1e-14


class EmptySetError(ValueError):
    """A set description denotes the empty set."""


class DykstraError(RuntimeError):
    """A projection onto an intersection stopped without reaching feasibility.

    Dykstra's scheme used up its ``sweeps`` (the intersection may be empty),
    or, with ``pivots``, :func:`project_polyhedron` used up that many pivots.
    """

    def __init__(self, worst_violation: float, sweeps: int, pivots: bool = False):
        self.worst_violation = worst_violation
        self.sweeps = sweeps
        super().__init__(
            (f"the active-set projection used up its budget of {sweeps} pivots" if pivots else
             f"alternating projections did not converge after {sweeps} sweeps")
            + f"; worst membership violation {worst_violation:.3e} (the intersection may be empty)"
        )


class ConvexSet:
    """Base class for projectable closed convex set descriptions."""

    dim: int

    def project(self, x) -> np.ndarray:
        """Metric projection of ``x``, checked as a finite vector of dimension ``dim``."""
        return self._project(as_vector(x, self.dim))

    def _project(self, x: np.ndarray) -> np.ndarray:
        """Projection of a finite float vector of dimension ``dim``, unchecked."""
        if type(self).project is ConvexSet.project:
            raise NotImplementedError
        return self.project(x)

    def membership_violation(self, x) -> float:
        """Euclidean distance from ``x`` to the set (a lower bound for Intersection)."""
        raise NotImplementedError

    def contains(self, x, tol: float = 1e-9) -> bool:
        return self.membership_violation(x) <= tol

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Axis-aligned bounds enclosing the set, or None when unbounded."""
        return None


class WholeSpace(ConvexSet):
    """All of R^dim."""

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        self.dim = int(dim)

    def _project(self, x: np.ndarray) -> np.ndarray:
        return x

    def membership_violation(self, x) -> float:
        as_vector(x, self.dim)
        return 0.0

    def __eq__(self, other) -> bool:
        return isinstance(other, WholeSpace) and other.dim == self.dim

    def __repr__(self) -> str:
        return f"WholeSpace(dim={self.dim})"


class Box(ConvexSet):
    """Axis-aligned box ``{x : lower <= x <= upper}`` (componentwise)."""

    def __init__(self, lower, upper):
        self.lower = as_vector(lower)
        self.upper = as_vector(upper, self.lower.size)
        if np.any(self.lower > self.upper):
            raise ValueError("box requires lower <= upper componentwise")
        self.dim = self.lower.size

    def _project(self, x: np.ndarray) -> np.ndarray:
        return np.clip(x, self.lower, self.upper)

    def membership_violation(self, x) -> float:
        x = as_vector(x, self.dim)
        return float(np.linalg.norm(x - np.clip(x, self.lower, self.upper)))

    def bounding_box(self):
        return self.lower, self.upper

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Box)
            and bool(np.array_equal(other.lower, self.lower))
            and bool(np.array_equal(other.upper, self.upper))
        )

    def __repr__(self) -> str:
        return f"Box(dim={self.dim})"


class Ball(ConvexSet):
    """Closed Euclidean ball of given center and radius >= 0."""

    def __init__(self, center, radius: float):
        self.center = as_vector(center)
        radius = float(radius)
        if not np.isfinite(radius) or radius < 0.0:
            raise ValueError("ball radius must be finite and >= 0")
        self.radius = radius
        self.dim = self.center.size

    def _project(self, x: np.ndarray) -> np.ndarray:
        offset = x - self.center
        dist = np.linalg.norm(offset)
        if dist <= self.radius:
            return x
        return self.center + (self.radius / dist) * offset

    def membership_violation(self, x) -> float:
        x = as_vector(x, self.dim)
        return max(0.0, float(np.linalg.norm(x - self.center)) - self.radius)

    def bounding_box(self):
        return self.center - self.radius, self.center + self.radius

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Ball)
            and bool(np.array_equal(other.center, self.center))
            and other.radius == self.radius
        )

    def __repr__(self) -> str:
        return f"Ball(dim={self.dim}, radius={self.radius})"


class Halfspace(ConvexSet):
    """Halfspace ``{x : <normal, x> <= offset}``.

    A normal with ``||normal|| < TINY_NORMAL`` encodes the whole space when
    the offset is nonnegative (up to the same tolerance) and is rejected as
    empty otherwise.
    """

    def __init__(self, normal, offset: float):
        self.normal = as_vector(normal)
        self.offset = float(offset)
        if not np.isfinite(self.offset):
            raise ValueError("halfspace offset must be finite")
        self.dim = self.normal.size
        self._normal_sq = float(self.normal @ self.normal)
        self.is_whole_space = np.sqrt(self._normal_sq) < TINY_NORMAL
        if self.is_whole_space and self.offset < -TINY_NORMAL:
            raise EmptySetError("halfspace with zero normal and negative offset is empty")

    @classmethod
    def _from_row(cls, normal: np.ndarray, offset: float) -> "Halfspace":
        """Halfspace of a finite row whose normal has norm ``>= TINY_NORMAL``, unchecked."""
        cut = cls.__new__(cls)
        cut.normal, cut.offset, cut.dim, cut.is_whole_space = normal, float(offset), normal.size, False
        cut._normal_sq = float(normal @ normal)
        return cut

    def _project(self, x: np.ndarray) -> np.ndarray:
        if self.is_whole_space:
            return x
        excess = float(self.normal @ x) - self.offset
        if excess <= 0.0:
            return x
        return x - (excess / self._normal_sq) * self.normal

    def membership_violation(self, x) -> float:
        x = as_vector(x, self.dim)
        if self.is_whole_space:
            return 0.0
        excess = float(self.normal @ x) - self.offset
        return max(0.0, excess / np.sqrt(self._normal_sq))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Halfspace)
            and bool(np.array_equal(other.normal, self.normal))
            and other.offset == self.offset
        )

    def __repr__(self) -> str:
        return f"Halfspace(dim={self.dim})"


class Intersection(ConvexSet):
    """Intersection of finitely many convex sets of one ambient dimension."""

    def __init__(self, members):
        members = list(members)
        if not members:
            raise ValueError("intersection requires at least one member")
        dims = {member.dim for member in members}
        if len(dims) != 1:
            raise ValueError(f"intersection members disagree on dimension: {sorted(dims)}")
        self.members = members
        self.dim = members[0].dim

    def _project(self, x: np.ndarray) -> np.ndarray:
        return project_intersection(self.members, x)

    def membership_violation(self, x) -> float:
        return max(member.membership_violation(x) for member in self.members)

    def bounding_box(self):
        lo, hi = None, None
        for member in self.members:
            bb = member.bounding_box()
            if bb is None:
                continue
            lo = bb[0] if lo is None else np.maximum(lo, bb[0])
            hi = bb[1] if hi is None else np.minimum(hi, bb[1])
        if lo is None:
            return None
        return lo, hi

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Intersection)
            and len(other.members) == len(self.members)
            and all(a == b for a, b in zip(self.members, other.members))
        )

    def __repr__(self) -> str:
        return f"Intersection(dim={self.dim}, members={len(self.members)})"


def project(convex_set: ConvexSet, x) -> np.ndarray:
    """Metric projection of ``x`` onto ``convex_set``."""
    return convex_set.project(x)


def project_intersection(members, x, tol: float = 1e-10, max_sweeps: int = 10_000) -> np.ndarray:
    """Project ``x`` onto the intersection of ``members`` with Dykstra's scheme.

    Parameters
    ----------
    members : sequence of ConvexSet
        Nonempty list of sets sharing one ambient dimension. The caller is
        responsible for the intersection being nonempty; emptiness surfaces
        as non-convergence.
    x : array_like
        Point to project.
    tol : float
        Stop once no member projection within a full sweep moves the iterate
        by ``tol`` or more in norm. (Comparing only sweep-end iterates is not
        safe: projections are many-to-one, so consecutive sweep ends can
        coincide transiently while the iterate still moves inside the sweep.)
    max_sweeps : int
        Sweep budget.

    Returns
    -------
    numpy.ndarray
        The Dykstra iterate, which converges to the exact projection onto
        the intersection as ``tol -> 0``.

    Raises
    ------
    DykstraError
        If, at exit, the iterate still violates some member's membership by
        more than ``10 * tol`` (exhausted budget or a stalled sweep; either
        way the usual cause is an empty intersection).
    """
    members = list(members)
    if not members:
        raise ValueError("need at least one set to project onto")
    dim = members[0].dim
    x = as_vector(x, dim)
    if len(members) == 1:
        return members[0]._project(x)
    increments = [np.zeros(dim) for _ in members]
    current = x
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        moved = 0.0
        for i, member in enumerate(members):
            shifted = current + increments[i]
            projected = member._project(shifted)
            increments[i] = shifted - projected
            moved = max(moved, float(np.linalg.norm(projected - current)))
            current = projected
        if moved < tol:
            break
    worst = max(member.membership_violation(current) for member in members)
    if worst > 10.0 * tol:
        raise DykstraError(worst, sweeps)
    return current


def linear_inequality_rows(convex_set: ConvexSet) -> tuple[np.ndarray, np.ndarray] | None:
    """Describe a polyhedral set as stacked rows ``G r <= h``, else None.

    Whole-space descriptions contribute no rows; balls (and intersections
    containing one) have no finite row description and yield None.
    """
    if isinstance(convex_set, WholeSpace):
        return np.zeros((0, convex_set.dim)), np.zeros(0)
    if isinstance(convex_set, Halfspace):
        if convex_set.is_whole_space:
            return np.zeros((0, convex_set.dim)), np.zeros(0)
        return convex_set.normal[None, :], np.array([convex_set.offset])
    if isinstance(convex_set, Box):
        eye = np.eye(convex_set.dim)
        return np.vstack([eye, -eye]), np.concatenate([convex_set.upper, -convex_set.lower])
    if isinstance(convex_set, Intersection):
        rows = [linear_inequality_rows(member) for member in convex_set.members]
        if any(r is None for r in rows):
            return None
        return (
            np.vstack([G for G, _ in rows]),
            np.concatenate([h for _, h in rows]),
        )
    return None


class ActiveSet:
    """Where :func:`project_polyhedron` stopped; it reads the record and refreshes it.

    ``rows`` and ``multipliers`` are the working rows and their multipliers,
    ``point`` the projection of the point whose bytes are ``key``, and
    ``checked`` how many leading rows that projection satisfies. A fresh
    record, or one holding only ``rows``, warm-starts from those rows. The
    record shares ``point`` with the caller, who must not modify it in place.
    """

    def __init__(self, rows=()):
        self.rows: tuple[int, ...] = tuple(rows)
        self.multipliers: list[float] = []
        self.point: np.ndarray | None = None
        self.key = b""
        self.checked = 0


def project_polyhedron(
    x0,
    G: np.ndarray,
    h: np.ndarray,
    start: ActiveSet | None = None,
    row_norms=None,
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Exact projection of ``x0`` onto ``{r : G r <= h}`` by a dual active-set method.

    Runs the Goldfarb-Idnani iteration for the identity-Hessian quadratic
    program ``min ||r - x0||^2`` subject to the rows: repeatedly pick a
    violated row, then take the longest step that keeps the working-set
    multipliers nonnegative, either activating the row (full primal step) or
    dropping the blocking working row (dual step) and retrying. It stops once
    no row is violated by more than ``1e-12 (1 + ||x0||)`` in scaled
    distance, or after ``200 + 10 n + 2 k`` pivots for ``k`` rows in
    dimension ``n``. On success the returned point satisfies all rows and
    the KKT conditions to tolerance, i.e. it is the projection to machine
    precision.

    Returns the projection together with the active row indices (the working
    rows with positive multipliers). A ``start`` record carries a call's end
    state to the next call, whose rows may add rows after the old ones but
    must leave those unchanged. When ``x0`` is bit-equal to the last point
    the record projected, the iteration resumes from the stored point and
    multipliers, and its first scan reads only the added rows: the others
    held at that point to the same tolerance, which depends on ``x0`` alone.
    For any other ``x0`` it re-derives multipliers for the stored working
    rows, shedding those no longer binding. Given ``row_norms`` must be the
    norms of the rows of ``G``. Unlike Dykstra's scheme this is insensitive
    to nearly parallel rows, but it needs the explicit inequality
    description.

    Raises
    ------
    EmptySetError
        If the rows are detected to be infeasible (no point satisfies all).
    DykstraError
        If the pivot budget is exhausted.
    """
    x0 = np.asarray(x0, dtype=float)
    G = np.asarray(G, dtype=float)
    h = np.asarray(h, dtype=float)
    k = G.shape[0]
    if k == 0:
        return x0.copy(), ()
    row_scale = np.linalg.norm(G, axis=1) if row_norms is None else np.asarray(row_norms, dtype=float)
    if np.any(row_scale == 0.0):
        raise ValueError("zero rows must be filtered out before projection")
    max_pivots = 200 + 10 * G.shape[1] + 2 * k
    feas_scale = 1e-12 * (1.0 + float(np.linalg.norm(x0)))

    working: list[int] = []
    multipliers: list[float] = []

    def solve_working(rows):
        Gw = G[rows]
        return np.linalg.solve(Gw @ Gw.T, Gw @ x0 - h[rows])

    start = ActiveSet() if start is None else start
    key = x0.tobytes()
    if start.key == key and start.checked <= k:
        working, multipliers, r = list(start.rows), list(start.multipliers), start.point
        # The first scan starts at the added rows, or at the last row when none
        # were added, so that it is never empty.
        fresh = min(start.checked, k - 1)
    else:
        # Re-derive warm-start multipliers, shedding rows that are no longer
        # binding; rows carried over from a previous call stay independent.
        warm = [i for i in start.rows if 0 <= i < k]
        while warm:
            try:
                lam = solve_working(warm)
            except np.linalg.LinAlgError:
                warm = []
                break
            if np.min(lam) >= 0.0:
                working = warm
                multipliers = [float(v) for v in lam]
                break
            del warm[int(np.argmin(lam))]
        r = x0 - G[working].T @ np.asarray(multipliers) if working else x0.copy()
        fresh = 0

    for _ in range(max_pivots):
        violations = (G[fresh:] @ r - h[fresh:]) / row_scale[fresh:]
        p = fresh + int(np.argmax(violations))
        if violations[p - fresh] <= feas_scale:
            start.rows, start.multipliers, start.point, start.key, start.checked = (
                tuple(working), multipliers, r, key, k
            )
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
    raise DykstraError(float(np.max((G @ r - h) / row_scale)), max_pivots, pivots=True)


def halfspace_dominates(a, b) -> Halfspace:
    """Halfspace of points at least as close to ``a`` as to ``b``.

    ``||a - r|| <= ||b - r||`` expands to ``2 <b - a, r> <= ||b||^2 - ||a||^2``.
    The offset is evaluated as ``<b - a, a + b>`` with the same computed
    difference vector as the normal: algebraically identical, but it keeps
    the boundary anchored at the midpoint of ``a`` and ``b`` even when the
    two points nearly coincide, where the naive difference of squared norms
    loses all significant digits. When the points coincide to within the
    zero-normal tolerance the whole space is returned, encoded as a
    zero-normal halfspace with offset 0.
    """
    a = as_vector(a)
    row = _dominating_row(a, as_vector(b, a.size))
    return Halfspace(np.zeros(a.size), 0.0) if row is None else Halfspace(*row[:2])


def _dominating_row(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float, float] | None:
    """Normal, offset and normal's norm of :func:`halfspace_dominates`, unchecked; None for the whole space."""
    difference = b - a
    normal = 2.0 * difference
    size = float(np.linalg.norm(normal))
    return None if size < TINY_NORMAL else (normal, float(difference @ (a + b)), size)


class NonexpansiveMap:
    """Base class for nonexpansive self-maps of R^dim."""

    dim: int

    def apply(self, x) -> np.ndarray:
        """Image of ``x``, checked as a finite vector of dimension ``dim``."""
        return self._apply(as_vector(x, self.dim))

    def _apply(self, x: np.ndarray) -> np.ndarray:
        """Image of a finite float vector of dimension ``dim``, unchecked."""
        if type(self).apply is NonexpansiveMap.apply:
            raise NotImplementedError
        return self.apply(x)


class Identity(NonexpansiveMap):
    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        self.dim = int(dim)

    def _apply(self, x: np.ndarray) -> np.ndarray:
        return x

    def __eq__(self, other) -> bool:
        return isinstance(other, Identity) and other.dim == self.dim

    def __repr__(self) -> str:
        return f"Identity(dim={self.dim})"


class ProjectionOnto(NonexpansiveMap):
    """Metric projection onto a convex set; its fixed points are the set itself."""

    def __init__(self, target: ConvexSet):
        self.target = target
        self.dim = target.dim

    def _apply(self, x: np.ndarray) -> np.ndarray:
        return self.target._project(x)

    def __eq__(self, other) -> bool:
        return isinstance(other, ProjectionOnto) and other.target == self.target

    def __repr__(self) -> str:
        return f"ProjectionOnto({self.target!r})"


class Averaged(NonexpansiveMap):
    """Convex combination ``(1 - theta) I + theta base`` with theta in (0, 1]."""

    def __init__(self, theta: float, base: NonexpansiveMap):
        theta = float(theta)
        if not 0.0 < theta <= 1.0:
            raise ValueError("averaging weight must lie in (0, 1]")
        self.theta = theta
        self.base = base
        self.dim = base.dim

    def _apply(self, x: np.ndarray) -> np.ndarray:
        return (1.0 - self.theta) * x + self.theta * self.base._apply(x)

    def __eq__(self, other) -> bool:
        return isinstance(other, Averaged) and other.theta == self.theta and other.base == self.base

    def __repr__(self) -> str:
        return f"Averaged(theta={self.theta}, base={self.base!r})"


class Composition(NonexpansiveMap):
    """Composition ``outer(inner(x))`` of two nonexpansive maps."""

    def __init__(self, outer: NonexpansiveMap, inner: NonexpansiveMap):
        if outer.dim != inner.dim:
            raise ValueError("composed maps must share one dimension")
        self.outer = outer
        self.inner = inner
        self.dim = outer.dim

    def _apply(self, x: np.ndarray) -> np.ndarray:
        return self.outer._apply(self.inner._apply(x))

    def __eq__(self, other) -> bool:
        return isinstance(other, Composition) and other.outer == self.outer and other.inner == self.inner

    def __repr__(self) -> str:
        return f"Composition({self.outer!r}, {self.inner!r})"


def map_apply(mapping: NonexpansiveMap, x) -> np.ndarray:
    """Apply a nonexpansive mapping to a point."""
    return mapping.apply(x)
