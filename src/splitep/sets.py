"""Projectable convex sets and nonexpansive mappings built from projections.

Each :class:`ConvexSet` variant carries a closed-form metric projection except
:class:`Intersection`, which is projected with Dykstra's alternating scheme.
The projection ``z = P(x)`` of any variant satisfies the variational
characterization ``<x - z, y - z> <= 0`` for all members ``y`` of the set.

``project`` and ``apply`` check their argument with :func:`splitep.linalg.as_vector`
and call the variant's unchecked ``_project`` or ``_apply``, which need no guard
against overflow on the components it admits; a user subclass may override the
public method alone.
Set and mapping objects are immutable after construction and all operations
are pure, so values can be shared freely across threads.
"""

from __future__ import annotations

import numbers

import numpy as np
from numpy.linalg import _umath_linalg

try:
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy 1.x
    from numpy.core.umath import clip as _clip

from splitep.linalg import MAX_MAGNITUDE, Value, _norm, _real_array, as_vector, norm

# ActiveSet and project_polyhedron serve the strong solver, which imports them by name; they stay
# out of __all__ and so out of the package's namespace.
__all__ = [
    "Averaged",
    "Ball",
    "Box",
    "Composition",
    "ConvexSet",
    "DykstraError",
    "EmptySetError",
    "Halfspace",
    "Identity",
    "InnerSolveError",
    "Intersection",
    "NonexpansiveMap",
    "PivotBudgetError",
    "ProjectionOnto",
    "WholeSpace",
    "halfspace_dominates",
    "project_intersection",
]

# Below this norm a halfspace normal is considered exactly zero, encoding the
# whole space (offset >= -TINY_NORMAL) or the empty set (offset < -TINY_NORMAL).
TINY_NORMAL = 1e-14
_BEYOND_THE_BOUND = f"the projection onto the rows has a component beyond {MAX_MAGNITUDE:g} in magnitude"
_largest = np.maximum.reduce


def _dimension(dim) -> int:
    if not isinstance(dim, numbers.Integral) or isinstance(dim, bool) or dim < 1:
        raise ValueError(f"dimension must be an integer >= 1, got {dim!r}")
    return int(dim)


class EmptySetError(ValueError):
    """A set description denotes the empty set."""


class InnerSolveError(RuntimeError):
    """An inner solver gave up before reaching its tolerance; the message names the quantity ``residual`` holds."""

    def __init__(self, message: str, residual: float):
        self.residual = residual
        super().__init__(message)


class DykstraError(InnerSolveError):
    """Dykstra's scheme ended after ``sweeps`` sweeps without reaching feasibility.

    ``stalled`` tells the two ends apart: the iterate stalled before the
    budget ran out (no projection of a sweep moved it by the tolerance), or
    the budget ran out while it still moved.
    """

    def __init__(self, worst_violation: float, sweeps: int, stalled: bool):
        self.worst_violation = worst_violation
        self.sweeps = sweeps
        self.stalled = stalled
        if stalled:
            how = f"stalled after {sweeps} sweeps: no projection of the last one moved the iterate by the tolerance"
        else:
            how = f"used up its {sweeps} sweeps (its sets may meet at a small angle, or the intersection may be empty)"
        super().__init__(f"Dykstra's scheme {how}; worst membership violation {worst_violation:.3e}", worst_violation)


class PivotBudgetError(InnerSolveError):
    """:func:`project_polyhedron` used up its ``pivots`` without reaching feasibility."""

    def __init__(self, worst_violation: float, pivots: int):
        self.worst_violation = worst_violation
        self.pivots = pivots
        super().__init__(
            f"the active-set projection used up its budget of {pivots} pivots; worst membership "
            f"violation {worst_violation:.3e} (the intersection may be empty)",
            worst_violation,
        )


class ConvexSet:
    """Base class for projectable closed convex set descriptions."""

    dim: int

    def project(self, x) -> np.ndarray:
        """Metric projection of ``x``, checked by :func:`~splitep.linalg.as_vector` for dimension ``dim``."""
        return self._project(as_vector(x, self.dim))

    def _project(self, x: np.ndarray) -> np.ndarray:
        """Projection of a finite float vector of dimension ``dim``, unchecked."""
        if type(self).project is ConvexSet.project:
            raise NotImplementedError
        return self.project(x)

    def membership_violation(self, x) -> float:
        """Euclidean distance from ``x``, checked as by :meth:`project`, to the set (a lower bound for Intersection)."""
        x = as_vector(x, self.dim)
        return norm(x - self._project(x))

    def contains(self, x, tol: float = 1e-9) -> bool:
        return self.membership_violation(x) <= tol


class WholeSpace(ConvexSet, Value):
    """All of R^dim."""

    __match_args__ = ("dim",)

    def __init__(self, dim: int):
        self.dim = _dimension(dim)

    def _project(self, x: np.ndarray) -> np.ndarray:
        return x

    def __repr__(self) -> str:
        return f"WholeSpace(dim={self.dim})"


class Box(ConvexSet, Value):
    """Axis-aligned box ``{x : lower <= x <= upper}`` (componentwise)."""

    __match_args__ = ("lower", "upper")

    def __init__(self, lower, upper):
        self.lower = as_vector(lower)
        self.upper = as_vector(upper, self.lower.size)
        if np.any(self.lower > self.upper):
            raise ValueError("box requires lower <= upper componentwise")
        self.dim = self.lower.size

    def _project(self, x: np.ndarray) -> np.ndarray:
        # the ufunc np.clip runs, without its Python wrappers
        return _clip(x, self.lower, self.upper)

    def __repr__(self) -> str:
        return f"Box(dim={self.dim})"


class Ball(ConvexSet, Value):
    """Closed Euclidean ball of given center and radius >= 0."""

    __match_args__ = ("center", "radius")

    def __init__(self, center, radius: float):
        self.center, self.radius = as_vector(center), float(radius)
        if not 0.0 <= self.radius < np.inf:
            raise ValueError("ball radius must be finite and >= 0")
        self.dim = self.center.size

    def _project(self, x: np.ndarray) -> np.ndarray:
        offset = x - self.center
        dist = _norm(offset)
        return x if dist <= self.radius else self.center + (self.radius / dist) * offset

    def membership_violation(self, x) -> float:
        return max(0.0, norm(as_vector(x, self.dim) - self.center) - self.radius)

    def __repr__(self) -> str:
        return f"Ball(dim={self.dim}, radius={self.radius})"


class Halfspace(ConvexSet, Value):
    """Halfspace ``{x : <normal, x> <= offset}``.

    Its constructor admits a normal and offset of components at most
    ``MAX_MAGNITUDE`` in magnitude. It projects and measures along its unit normal, at the level
    ``offset / size`` for the norm ``size`` of its normal. A normal with
    ``size < TINY_NORMAL`` encodes the whole space when the offset is
    nonnegative (up to the same tolerance) and is rejected as empty otherwise.
    """

    __match_args__ = ("normal", "offset")

    def __init__(self, normal, offset: float):
        self.normal = as_vector(normal)
        self.offset = float(offset)
        if not abs(self.offset) <= MAX_MAGNITUDE:
            raise ValueError(f"halfspace offset must be finite and at most {MAX_MAGNITUDE:g} in magnitude")
        self.dim = self.normal.size
        self.size = norm(self.normal)
        self.is_whole_space = self.size < TINY_NORMAL
        if self.is_whole_space and self.offset < -TINY_NORMAL:
            raise EmptySetError("halfspace with zero normal and negative offset is empty")
        if self.is_whole_space:  # no point lies past a boundary of zero unit normal and level
            self._unit, self._level = np.zeros(self.dim), 0.0
        else:
            self._unit, self._level = self.normal / self.size, self.offset / self.size

    @classmethod
    def _from_rows(cls, G: np.ndarray, h: np.ndarray) -> list["Halfspace"]:
        """Halfspaces of finite rows ``G r <= h``, unchecked, each of norm at least ``TINY_NORMAL``.

        One division over the rows gives every unit normal and level, with
        the bits of a division per row.
        """
        # stacked 1 x n by n x 1 products run ndarray.dot's kernel per row, so each size has _norm's bits
        sizes = np.sqrt(np.matmul(G[:, None, :], G[:, :, None]).ravel())
        cuts = []
        units, levels = G / sizes[:, None], (h / sizes).tolist()
        for normal, offset, size, unit, level in zip(G, h.tolist(), sizes.tolist(), units, levels):
            cut = cls.__new__(cls)
            cut.normal, cut.offset, cut.dim, cut.is_whole_space = normal, offset, normal.size, False
            cut.size, cut._unit, cut._level = size, unit, level
            cuts.append(cut)
        return cuts

    def _project(self, x: np.ndarray) -> np.ndarray:
        distance = float(self._unit.dot(x)) - self._level
        return x if distance <= 0.0 else x - distance * self._unit

    def membership_violation(self, x) -> float:
        return max(0.0, float(self._unit.dot(as_vector(x, self.dim))) - self._level)

    def __repr__(self) -> str:
        return f"Halfspace(dim={self.dim})"


class Intersection(ConvexSet, Value):
    """Intersection of finitely many convex sets of one ambient dimension."""

    __match_args__ = ("members",)

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
        return project_intersection(self.members, x) if np.isfinite(x).all() else x  # a NaN passes, as elsewhere

    def membership_violation(self, x) -> float:
        return max(member.membership_violation(x) for member in self.members)

    def __repr__(self) -> str:
        return f"Intersection(dim={self.dim}, members={len(self.members)})"


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
    ValueError
        If ``members`` is empty or its sets disagree on the dimension.
    DykstraError
        If, at exit, the iterate still violates some member's membership by
        more than ``10 * tol``. Its message says whether the budget ran out,
        as it does on an empty intersection and on sets meeting at a small
        angle, or the iterate stalled before it.
    """
    members = list(members)
    dim = Intersection(members).dim
    x = as_vector(x, dim)
    if len(members) == 1:
        return members[0]._project(x)
    increments = [np.zeros(dim) for _ in members]
    current = x
    sweeps, moved = 0, np.inf
    for sweeps in range(1, max_sweeps + 1):
        moved = 0.0
        for i, member in enumerate(members):
            shifted = current + increments[i]
            projected = member._project(shifted)
            increments[i] = shifted - projected
            moved = max(moved, _norm(projected - current))
            current = projected
        if moved < tol:
            break
    worst = max(member.membership_violation(current) for member in members)
    if worst > 10.0 * tol:
        raise DykstraError(worst, sweeps, stalled=moved < tol)
    return current


class ActiveSet:
    """The rows ``G r <= h`` stored for the point ``x0``, and where :func:`project_polyhedron` stopped projecting it.

    ``key`` and ``tol``, the bytes of ``x0``, which :func:`~splitep.linalg.as_vector`
    must admit, and its feasibility tolerance ``1e-12 (1 + ||x0||)``, never change.
    ``G``, ``h`` and ``norms`` view the ``count`` stored rows, their offsets
    and the norms of the leading ``checked`` ones, kept in three buffers that
    grow together by doubling. ``rows``, ``multipliers``, ``point`` and
    ``checked``, the working rows, their multipliers, the projection so far
    and how many leading rows it satisfies, start cold: none, ``x0`` and 0.
    :meth:`append` stores no row equal to a stored one; a set of the stored
    offsets keys that check. The caller must not modify ``point`` or the views in place.
    """

    def __init__(self, x0):
        x0 = as_vector(x0)
        self.key = x0.tobytes()
        self.tol = 1e-12 * (1.0 + norm(x0))
        self.point = x0.copy()
        self.rows: tuple[int, ...] = ()
        self.multipliers: list[float] = []
        self.count = self.checked = 0
        self._G, self._h, self._norms = np.zeros((0, x0.size)), np.zeros(0), np.zeros(0)
        self._offsets: set[float] = set()

    G = property(lambda self: self._G[: self.count])
    h = property(lambda self: self._h[: self.count])
    norms = property(lambda self: self._norms[: self.checked])

    def append(self, normal: np.ndarray, offset: float) -> bool:
        """Store the row ``<normal, r> <= offset`` unless a stored row equals it; whether it was stored.

        Raises ``ValueError`` for a normal that is not a vector of the record's
        dimension; the next projection checks the rest. A row equal to a stored
        one, entry for entry and in its offset, is the same halfspace and is not
        stored again; the offsets seen key the lookup, so a new offset costs one probe.
        """
        if normal.shape != self._G.shape[1:]:
            raise ValueError(f"a row of this record has {self._G.shape[1]} entries, got shape {normal.shape}")
        if offset in self._offsets:
            if (self.G[self.h == offset] == normal).all(1).any():
                return False
        else:
            self._offsets.add(offset)
        if self.count == self._h.size:
            self._reserve(self.count + 1)
        self._G[self.count], self._h[self.count] = normal, offset
        self.count += 1
        return True

    def _reserve(self, rows: int) -> None:
        """Grow the three buffers together to hold ``rows`` rows, at least doubling them; past ``count`` is scratch."""
        size = max(rows, 2 * self._h.size)
        self._G = np.resize(self._G, (size, self._G.shape[1]))
        self._h, self._norms = np.resize(self._h, size), np.resize(self._norms, size)


def project_polyhedron(
    x0,
    G: np.ndarray,
    h: np.ndarray,
    start: ActiveSet | None = None,
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
    rows with positive multipliers). The iteration runs from a ``start``
    record made for ``x0``, a new one when none is given, whose stored rows
    must lead ``G`` and ``h`` (its own ``start.G`` and ``start.h`` do). A
    call that succeeds stores the rows past those and writes its end state
    back. It resumes from the stored point and multipliers, takes the norms
    of the rows not yet checked only, and its first scan reads only those,
    as the others held at that point to the record's tolerance. A call with
    no rows returns the record's point and leaves the record as it was.
    Unlike Dykstra's scheme this is insensitive to nearly parallel rows, but
    it needs the explicit inequality description.

    Raises
    ------
    ValueError
        If ``x0`` is not a vector that ``as_vector`` admits, if ``start`` was
        made for another point or stores more rows than ``G`` has, or if
        a row it has not checked is zero, or it or its offset has an entry
        that ``as_vector`` refuses, or if the projection or an iterate on the
        way has a component beyond ``MAX_MAGNITUDE``; the record is left as it was.
    EmptySetError
        If the rows are detected to be infeasible (no point satisfies all).
    PivotBudgetError
        If the pivot budget is exhausted.
    """
    x0, G, h = _real_array(x0), _real_array(G), _real_array(h)
    k = G.shape[0]
    start = ActiveSet(x0) if start is None else start
    if start.key != x0.tobytes() or start.count > k:
        raise ValueError("the active-set record was made for another point or for more rows")
    if k == 0:
        return start.point, ()
    if start.count < k:  # rows past the stored ones go to scratch, and count takes them only on success
        if start._h.size < k:
            start._reserve(k)
        start._G[start.count : k], start._h[start.count : k] = G[start.count :], h[start.count :]
    row_scale, added, offsets = start._norms[:k], G[start.checked:], h[start.checked:]
    # the ufunc's reduce runs, without max's Python wrapper; a NaN fails the test
    if start.checked < k and not (
        _largest(abs(added), None) <= MAX_MAGNITUDE and _largest(abs(offsets), None) <= MAX_MAGNITUDE
    ):
        raise ValueError(f"inequality rows and offsets must be finite and at most {MAX_MAGNITUDE:g} in magnitude")
    unchecked = row_scale[start.checked:]
    np.sqrt(np.add.reduce(added * added, axis=1), out=unchecked)  # np.linalg.norm(added, axis=1)
    if np.count_nonzero(unchecked) != unchecked.size:
        raise ValueError("zero rows must be filtered out before projection")
    max_pivots = 200 + 10 * G.shape[1] + 2 * k
    working, multipliers, r, feas_scale = list(start.rows), list(start.multipliers), start.point, start.tol
    # The first scan starts at the added rows, or at the last row when none
    # were added, so that it is never empty; every later scan reads all rows.
    fresh = min(start.checked, k - 1)
    scan_G, scan_h, scan_scale = G[fresh:], h[fresh:], row_scale[fresh:]

    # The gufunc under np.linalg.solve, without its costly wrapper, flags a
    # singular Gram matrix as invalid; raised, that takes the lstsq fallback.
    # Nothing else here sets the flag while the products stay finite: the scans
    # divide by nonzero norms, t is finite, and the ratio test is Python floats.
    # A tiny admitted row can send the iterate past MAX_MAGNITUDE: refused at the end, or where a product overflows.
    try:
        with np.errstate(invalid="raise"):
            for _ in range(max_pivots):
                # each row's violation scaled by its norm, in place on the product
                violations = scan_G.dot(r)
                violations -= scan_h
                violations /= scan_scale
                worst = violations.argmax()
                if violations[worst] <= feas_scale:
                    if not _largest(abs(r), None) <= MAX_MAGNITUDE:
                        raise ValueError(_BEYOND_THE_BOUND)
                    start.rows, start.multipliers, start.point = tuple(working), multipliers, r
                    if start.count < k:
                        start._offsets.update(h[start.count :].tolist())
                    start.checked = start.count = k
                    return r, tuple(i for i, lam in zip(working, multipliers) if lam > 0.0)
                p = fresh + int(worst)
                if fresh:
                    fresh, scan_G, scan_h, scan_scale = 0, G, h, row_scale
                a_p, h_p = G[p], float(h[p])
                dependent_sq = (1e-12 * float(row_scale[p])) ** 2
                lam_p = 0.0
                for _ in range(len(working) + 1):
                    if working:
                        # G.take(rows, 0) gives the bytes of G[rows] for a fraction of its cost
                        Gw = G.take(working, 0)
                        gram, rhs = Gw.dot(Gw.T), Gw.dot(a_p)
                        try:
                            d = _umath_linalg.solve1(gram, rhs, signature="dd->d")
                        except FloatingPointError:
                            d = np.linalg.lstsq(gram, rhs, rcond=None)[0]
                        z = a_p - Gw.T.dot(d)
                        d = d.tolist()
                    else:
                        d = []
                        z = a_p.copy()
                    z_sq = float(z.dot(z))
                    dependent = z_sq <= dependent_sq
                    # Longest multiplier-feasible dual step along the exchange
                    # direction; the blocking row's multiplier hits zero first.
                    t_dual = np.inf
                    blocking = -1
                    for idx, d_i in enumerate(d):
                        if d_i > 1e-14:
                            ratio = max(multipliers[idx], 0.0) / d_i
                            if ratio < t_dual:
                                t_dual, blocking = ratio, idx
                    if dependent:
                        if blocking < 0:
                            raise EmptySetError(
                                "inequality rows are infeasible; no point satisfies them all"
                            )
                        t, full_step = t_dual, False
                    else:
                        t_primal = (float(a_p.dot(r)) - h_p) / z_sq
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
    except FloatingPointError:
        raise ValueError(_BEYOND_THE_BOUND) from None
    raise PivotBudgetError(float(np.max((G @ r - h) / row_scale)), max_pivots)


def halfspace_dominates(a, b) -> Halfspace:
    """Halfspace of points at least as close to ``a`` as to ``b``.

    ``||a - r|| <= ||b - r||`` expands to ``2 <b - a, r> <= ||b||^2 - ||a||^2``.
    The offset is evaluated as ``<b - a, a + b>`` with the same computed
    difference vector as the normal: algebraically identical, but it keeps
    the boundary anchored at the midpoint of ``a`` and ``b`` even when the
    two points nearly coincide, where the naive difference of squared norms
    loses all significant digits. When the points coincide to within the
    zero-normal tolerance the whole space is returned, encoded as a
    zero-normal halfspace with offset 0; the row, which may exceed ``MAX_MAGNITUDE``, is unchecked.
    """
    a = as_vector(a)
    row = _dominating_row(a, as_vector(b, a.size))
    if row is None:
        return Halfspace(np.zeros(a.size), 0.0)
    normal, offset = row
    return Halfspace._from_rows(normal[None], np.array([offset]))[0]


def _dominating_row(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float] | None:
    """Normal and offset of :func:`halfspace_dominates`, unchecked; None for the whole space."""
    difference = b - a
    normal = 2.0 * difference
    return None if _norm(normal) < TINY_NORMAL else (normal, float(difference.dot(a + b)))


class NonexpansiveMap:
    """Base class for nonexpansive self-maps of R^dim."""

    dim: int

    def apply(self, x) -> np.ndarray:
        """Image of ``x``, checked by :func:`~splitep.linalg.as_vector` for dimension ``dim``."""
        return self._apply(as_vector(x, self.dim))

    def _apply(self, x: np.ndarray) -> np.ndarray:
        """Image of a finite float vector of dimension ``dim``, unchecked."""
        if type(self).apply is NonexpansiveMap.apply:
            raise NotImplementedError
        return self.apply(x)


class Identity(NonexpansiveMap, Value):
    __match_args__ = ("dim",)

    def __init__(self, dim: int):
        self.dim = _dimension(dim)

    def _apply(self, x: np.ndarray) -> np.ndarray:
        return x

    def __repr__(self) -> str:
        return f"Identity(dim={self.dim})"


class ProjectionOnto(NonexpansiveMap, Value):
    """Metric projection onto a convex set; its fixed points are the set itself."""

    __match_args__ = ("target",)

    def __init__(self, target: ConvexSet):
        self.target = target
        self.dim = target.dim

    def _apply(self, x: np.ndarray) -> np.ndarray:
        return self.target._project(x)

    def __repr__(self) -> str:
        return f"ProjectionOnto({self.target!r})"


class Averaged(NonexpansiveMap, Value):
    """Convex combination ``(1 - theta) I + theta base`` with theta in (0, 1]."""

    __match_args__ = ("theta", "base")

    def __init__(self, theta: float, base: NonexpansiveMap):
        theta = float(theta)
        if not 0.0 < theta <= 1.0:
            raise ValueError("averaging weight must lie in (0, 1]")
        self.theta = theta
        self.base = base
        self.dim = base.dim

    def _apply(self, x: np.ndarray) -> np.ndarray:
        return (1.0 - self.theta) * x + self.theta * self.base._apply(x)

    def __repr__(self) -> str:
        return f"Averaged(theta={self.theta}, base={self.base!r})"


class Composition(NonexpansiveMap, Value):
    """Composition ``outer(inner(x))`` of two nonexpansive maps."""

    __match_args__ = ("outer", "inner")

    def __init__(self, outer: NonexpansiveMap, inner: NonexpansiveMap):
        if outer.dim != inner.dim:
            raise ValueError("composed maps must share one dimension")
        self.outer = outer
        self.inner = inner
        self.dim = outer.dim

    def _apply(self, x: np.ndarray) -> np.ndarray:
        return self.outer._apply(self.inner._apply(x))

    def __repr__(self) -> str:
        return f"Composition({self.outer!r}, {self.inner!r})"
