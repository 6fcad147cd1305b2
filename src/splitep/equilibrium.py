"""Equilibrium bifunctions and the inner solvers built on them.

A bifunction ``f(x, y)`` vanishing on the diagonal defines the equilibrium
problem: find ``x`` in the domain with ``f(x, y) >= 0`` for every ``y`` in
the domain. Two realizations are provided:

* :class:`AffineVIBifunction` -- ``f(x, y) = <F(x), y - x>`` with affine
  ``F(x) = M x + q``; covers variational inequalities and admits closed-form
  proximal sub-steps.
* :class:`CallableBifunction` -- user-supplied evaluation and a selection
  from the subdifferential of ``f(x, .)``, served by one iterative inner
  solver for both sub-problems.

Both carry declared Lipschitz-type constants ``c1, c2 > 0`` and a declared
monotonicity class, which :func:`check_assumptions` probes numerically.

Bifunction values are immutable (user callables must be pure), and every
operation here is a pure function, safe to call from any number of threads.
:class:`AffineVIBifunction` fills two caches lazily, the operator-norm bound
of its matrix (held by a :class:`~splitep.linalg.DenseOperator`) and the
inverse and shift its exact resolvent uses; each is replaced by one
assignment, so threads sharing a bifunction at worst compute a value twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from splitep.linalg import DenseOperator, Value, _norm, _real_array, as_vector, operator_norm_sq_upper
from splitep.sets import Box, ConvexSet, WholeSpace

__all__ = [
    "AffineVIBifunction",
    "AssumptionReport",
    "Bifunction",
    "CallableBifunction",
    "InnerSolveError",
    "ProxResult",
    "check_assumptions",
    "prox_step",
    "resolvent",
]

MONOTONE = "monotone"
PSEUDOMONOTONE = "pseudomonotone"

# Floor applied to declared Lipschitz-type constants so that step-size bounds
# of the form 1 / (2 c) stay finite even for constant or vanishing operators.
MIN_LIPSCHITZ_CONSTANT = 1e-9

# Floor on the backtracked forward-backward-forward step size, about 40
# halvings from 1; below it the loop raises, as :func:`resolvent` explains.
MIN_FBF_STEP = 1e-12


class InnerSolveError(RuntimeError):
    """An iterative inner solve stopped before reaching its tolerance."""

    def __init__(self, message: str, residual: float):
        self.residual = residual
        super().__init__(f"{message} (last displacement {residual:.3e})")


class Bifunction:
    """Base class: evaluation, a subgradient selection, and metadata."""

    monotonicity: str
    c1: float
    c2: float

    def evaluate(self, x, y) -> float:
        raise NotImplementedError

    def subgradient_y(self, x, y) -> np.ndarray:
        """A selection from the subdifferential of ``f(x, .)`` at ``y``."""
        raise NotImplementedError


def _check_metadata(monotonicity: str, c1: float, c2: float) -> tuple[str, float, float]:
    if monotonicity not in (MONOTONE, PSEUDOMONOTONE):
        raise ValueError(f"unknown monotonicity class: {monotonicity!r}")
    c1, c2 = float(c1), float(c2)
    if not (0.0 < c1 < math.inf and 0.0 < c2 < math.inf):
        raise ValueError(f"Lipschitz-type constants must be positive and finite, got c1={c1}, c2={c2}")
    return monotonicity, c1, c2


class AffineVIBifunction(Bifunction, Value):
    """Bifunction ``f(x, y) = <M x + q, y - x>`` of an affine operator.

    The first resolvent call caches ``(alpha, inv(I + alpha M), alpha q)``,
    one ``m x m`` array and the shift of the right-hand side, and later calls
    reuse them while ``alpha`` repeats; a schedule that changes ``alpha``
    every iteration rebuilds them every call.
    """

    __match_args__ = ("matrix", "offset", "c1", "c2", "monotonicity")

    def __init__(self, matrix, offset, monotonicity: str, c1: float, c2: float):
        self.matrix = _real_array(matrix)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("bifunction matrix must be square")
        self._linear = DenseOperator(self.matrix)  # rejects non-finite entries
        self.offset = as_vector(offset, self.matrix.shape[0])
        self.monotonicity, self.c1, self.c2 = _check_metadata(monotonicity, c1, c2)
        self.dim = self.matrix.shape[0]
        self._inverse_cache: tuple[float, np.ndarray | None, np.ndarray] | None = None

    @classmethod
    def with_default_constants(cls, matrix, offset, monotonicity: str = MONOTONE) -> "AffineVIBifunction":
        """Construct with ``c1 = c2 = ||M|| / 2``, valid for any affine operator.

        For ``F(x) = M x + q`` one has
        ``f(x,y) + f(y,z) - f(x,z) = <F(x) - F(y), y - z>
        >= -||M|| ||x-y|| ||y-z|| >= -(||M||/2)(||x-y||^2 + ||y-z||^2)``.
        """
        bf = cls(matrix, offset, monotonicity, 1.0, 1.0)
        c = max(bf.operator_norm_upper / 2.0, MIN_LIPSCHITZ_CONSTANT)
        _, bf.c1, bf.c2 = _check_metadata(monotonicity, c, c)  # an overflowing bound makes c inf
        return bf

    @property
    def operator_norm_upper(self) -> float:
        """Certified upper bound on ``||M||``: the root of :func:`operator_norm_sq_upper`."""
        return math.sqrt(operator_norm_sq_upper(self._linear))

    def _resolvent_inverse(self, alpha: float) -> tuple[np.ndarray | None, np.ndarray]:
        """``inv(I + alpha M)``, None when singular, and ``alpha q``, cached for the last ``alpha``.

        The matrix is invertible whenever ``M`` is monotone (positive
        semidefinite symmetric part), since then ``I + alpha M`` has a
        symmetric part of at least ``I``.
        """
        cached = self._inverse_cache
        if cached is None or cached[0] != alpha:
            try:
                inverse = np.linalg.inv(np.eye(self.dim) + alpha * self.matrix)
            except np.linalg.LinAlgError:
                inverse = None
            # one assignment of the triple keeps it consistent across threads
            cached = (alpha, inverse, alpha * self.offset)
            self._inverse_cache = cached
        return cached[1], cached[2]

    def operator(self, x) -> np.ndarray:
        return self.matrix @ as_vector(x, self.dim) + self.offset

    def evaluate(self, x, y) -> float:
        x, y = as_vector(x, self.dim), as_vector(y, self.dim)
        return float(self.operator(x) @ (y - x))

    def subgradient_y(self, x, y) -> np.ndarray:
        return self.operator(x)

    def __repr__(self) -> str:
        return f"AffineVIBifunction(dim={self.dim}, monotonicity={self.monotonicity!r})"


class CallableBifunction(Bifunction):
    """Bifunction given by user callables; both must be pure functions.

    Hemicontinuity in the first argument and joint weak continuity cannot be
    probed numerically and remain the caller's obligation.
    """

    def __init__(self, evaluate_fn, subgradient_y_fn, monotonicity: str, c1: float, c2: float):
        self._evaluate = evaluate_fn
        self._subgradient_y = subgradient_y_fn
        self.monotonicity, self.c1, self.c2 = _check_metadata(monotonicity, c1, c2)

    def evaluate(self, x, y) -> float:
        return float(self._evaluate(x, y))

    def subgradient_y(self, x, y) -> np.ndarray:
        return _real_array(self._subgradient_y(x, y))

    def __repr__(self) -> str:
        return f"CallableBifunction(monotonicity={self.monotonicity!r})"


@dataclass
class ProxResult:
    """Outcome of an inner solve: the solution, trial steps taken and last displacement."""

    minimizer: np.ndarray
    inner_iterations: int
    inner_residual: float


def prox_step(
    f: Bifunction,
    C: ConvexSet,
    x,
    lam: float,
    at=None,
    tol: float = 1e-10,
    max_inner: int = 20_000,
) -> ProxResult:
    """Minimize ``lam * f(at, y) + (1/2) ||y - x||^2`` over ``y`` in ``C``.

    With ``at = x`` (the default) this is the proximal sub-step of the
    extragradient scheme; passing the previous sub-step's output as ``at``
    while keeping the anchor ``x`` gives the extragradient correction, whose
    objective is linearized at ``at`` but penalized around ``x``.

    For :class:`AffineVIBifunction` the minimizer is exact:
    ``P_C(x - lam * F(at))`` by first-order optimality. Other bifunctions run
    the forward-backward-forward loop of :func:`resolvent` from ``x`` on
    ``F(y) = lam f.subgradient_y(at, y) + y - x``; for a convex ``f(at, .)``
    it returns a point within ``1.9 tol`` of the minimizer.

    Raises
    ------
    ValueError
        If ``lam <= 0``, ``as_vector`` refuses ``x`` or ``at`` for dimension
        ``C.dim``, or ``x`` lies outside ``C`` (violation above 1e-9).
    InnerSolveError
        As :func:`resolvent`'s loop does, naming the prox step.
    """
    lam = float(lam)
    if lam <= 0.0:
        raise ValueError("prox step size must be positive")
    x = as_vector(x, C.dim)
    violation = C.membership_violation(x)
    if violation > 1e-9:
        raise ValueError(f"prox anchor lies outside the constraint set (violation {violation:.3e})")
    at = x if at is None else as_vector(at, C.dim)
    if isinstance(f, AffineVIBifunction):
        return ProxResult(minimizer=_prox_step(f, C, x, lam, at), inner_iterations=0, inner_residual=0.0)
    return _prox_fbf(f, C, x, lam, at, tol, max_inner)


def _prox_step(f, C, x: np.ndarray, lam: float, at: np.ndarray) -> np.ndarray:
    """:func:`prox_step`'s minimizer, unchecked: ``lam > 0``, ``x`` in ``C``, and ``x``, ``at`` finite float vectors."""
    if isinstance(f, AffineVIBifunction):
        return C._project(x - lam * (f.matrix.dot(at) + f.offset))
    return _prox_fbf(f, C, x, lam, at).minimizer


def _prox_fbf(f, C, x: np.ndarray, lam: float, at: np.ndarray, tol=1e-10, max_inner=20_000) -> ProxResult:
    """The iterative prox step of a bifunction without an exact one, unchecked."""
    return _fbf(lambda y: lam * f.subgradient_y(at, y) + (y - x), C, x, tol, max_inner, "prox step")


def _exact_affine_resolvent(g: AffineVIBifunction, Q, alpha: float, u, max_steps: int):
    """Exact resolvent of an affine bifunction on a box or the whole space.

    With ``K = I + alpha M`` and ``b = u - alpha q`` the resolvent is the
    ``w`` in ``Q`` with ``K w - b`` in ``-N_Q(w)``. On the whole space that
    is ``inv(K) b``, which is also the answer on a box that holds it (the
    common case, returned before any bookkeeping). Otherwise primal-dual
    active-set steps (Hintermueller, Ito and Kunisch, SIAM J. Optim. 13,
    2003) hold the coordinates of the box's active set ``A`` at their
    bounds ``c``: the multipliers ``nu = K w - b`` solve
    ``inv(K)[A, A] nu_A = c - (inv(K) b)[A]`` and
    ``w = inv(K) b + inv(K)[:, A] nu_A``, all from ``g``'s cached
    ``inv(K)``. An active coordinate stays while its multiplier has the sign
    the normal cone of its bound asks for, a free one joins when it leaves
    the box; an unchanged set is the solution. This is the method's rule
    with its constant taken large: with the constant 1 (next set from
    ``w - nu``) a multiplier wider than the box moves a coordinate to the
    opposite bound, and on narrow boxes the steps cycle far more often.

    Returns None when ``K`` is singular, when ``inv(K) b`` overflows from a
    finite ``u``, when an active set repeats, or after ``max_steps`` steps;
    the caller then runs its iterative loop.
    """
    inverse, shift = g._resolvent_inverse(alpha)
    if inverse is None:
        return None
    free = inverse.dot(u - shift)
    w = Q._project(free)
    if isinstance(Q, Box) and not np.count_nonzero(w != free):
        return w  # free lies in the box, so is finite; step 0 below keeps the empty active set
    if np.count_nonzero(np.isfinite(free)) != free.size and np.isfinite(u).all():
        return None  # free overflowed; the caller's loop reports it
    if not isinstance(Q, Box):
        return w  # a NaN in u flows on into the residual, for the solve loop to stop on
    w, nu = free, np.zeros(Q.dim)
    at_upper = at_lower = active = np.zeros(Q.dim, dtype=bool)
    previous = (bytes(Q.dim), bytes(Q.dim))  # the empty active set, solved by free
    seen = {previous}
    for step in range(max_steps + 1):
        at_upper = np.where(active, at_upper & (nu < 0.0), w > Q.upper)
        at_lower = np.where(active, at_lower & (nu > 0.0), w < Q.lower)
        key = (at_upper.tobytes(), at_lower.tobytes())
        if key == previous:
            return Q._project(w)
        if key in seen or step == max_steps:
            return None
        seen.add(key)
        previous = key
        active = at_upper | at_lower
        bound = np.where(at_upper, Q.upper, Q.lower)[active]
        nu = np.zeros(Q.dim)
        try:
            nu[active] = np.linalg.solve(inverse[np.ix_(active, active)], bound - free[active])
        except np.linalg.LinAlgError:
            return None
        w = free + inverse[:, active] @ nu[active]


def resolvent(
    g: Bifunction,
    Q: ConvexSet,
    alpha: float,
    u,
    tol: float = 1e-9,
    max_inner: int = 10_000,
) -> np.ndarray:
    """Resolvent of a monotone bifunction: the unique ``w`` in ``Q`` with

    ``g(w, v) + (1/alpha) <v - w, w - u> >= 0`` for all ``v`` in ``Q``.

    For :class:`AffineVIBifunction` ``g(w, v) = <M w + q, v - w>`` this is
    the affine variational inequality ``(I + alpha M) w + alpha q - u`` in
    ``-N_Q(w)``. When ``Q`` is a :class:`Box` or :class:`WholeSpace` it is
    solved exactly from ``g``'s cached ``inv(I + alpha M)``: one
    matrix-vector product on the whole space; on a box, when that product
    lies outside it, primal-dual active-set steps, at most ``max_inner`` of
    them. The exact path ignores ``tol`` and holds for any monotone ``M``,
    symmetric or not.

    Every other case, and a box whose active-set steps revisit a set or
    exhaust ``max_inner``, runs Tseng's forward-backward-forward step (SIAM
    J. Control Optim. 38, 2000) on ``F(w) = alpha g.subgradient_y(w, w) +
    w - u``: ``z = P_Q(w - gamma F(w))``, ``w <- P_Q(z - gamma (F(z) -
    F(w)))``, halving ``gamma`` (from 1, kept across steps) while
    ``gamma ||F(z) - F(w)|| > 0.9 ||z - w||``. It converges for every
    monotone Lipschitz ``g``, symmetric or not, and returns ``z`` once
    ``||z - w|| <= gamma tol``; as ``F`` is 1-strongly monotone, ``z`` then
    lies within ``1.9 tol`` of the resolvent.

    Raises
    ------
    ValueError
        If ``alpha <= 0`` or ``as_vector`` refuses ``u`` for dimension ``Q.dim``.
    InnerSolveError
        When the loop takes ``max_inner`` trial steps, backtracking ones
        included, as soon as a trial step's norm is not finite (the iteration
        diverges for a non-monotone ``g``, or the subgradient is not finite),
        or when ``gamma`` falls below ``MIN_FBF_STEP``: the selection is then
        not Lipschitz at the scale of ``tol`` (``sign(y)`` for ``||y||_1``
        near a kink), and the stop test could pass at a wrong point.
    """
    alpha = float(alpha)
    if alpha <= 0.0:
        raise ValueError("resolvent parameter must be positive")
    return _resolvent(g, Q, alpha, as_vector(u, Q.dim), tol, max_inner)


def _resolvent(g, Q, alpha: float, u: np.ndarray, tol=1e-9, max_inner=10_000) -> np.ndarray:
    """:func:`resolvent` unchecked: ``alpha > 0`` and ``u`` a finite float vector of dimension ``Q.dim``."""
    affine = isinstance(g, AffineVIBifunction)
    if affine and isinstance(Q, (Box, WholeSpace)):
        w = _exact_affine_resolvent(g, Q, alpha, u, max_inner)
        if w is not None:
            return w

    def forward(w):
        # the affine product unchecked: a diverging loop ends in InnerSolveError, not in as_vector's ValueError
        return alpha * (g.matrix @ w + g.offset if affine else g.subgradient_y(w, w)) + (w - u)

    return _fbf(forward, Q, Q._project(u), tol, max_inner, "resolvent").minimizer


def _fbf(F, K, start: np.ndarray, tol: float, max_inner: int, name: str) -> ProxResult:
    """:func:`resolvent`'s loop for ``F(w)`` in ``-N_K(w)`` from ``start`` in ``K``; errors name ``name``."""
    what, gamma, displacement = f"forward-backward-forward loop of the {name}", 1.0, np.inf
    # a diverging iteration overflows inside numpy, in its norms first; a trial
    # step of non-finite norm raises InnerSolveError, so warnings are silenced
    with np.errstate(over="ignore", invalid="ignore"):
        w, forward_w = start, F(start)
        for trials in range(1, max_inner + 1):
            step = w - gamma * forward_w
            if not math.isfinite(_norm(step)):
                raise InnerSolveError(f"{what} diverged", displacement)
            z = K._project(step)
            forward_z = F(z)
            displacement = _norm(z - w)
            if gamma * _norm(forward_z - forward_w) > 0.9 * displacement:
                gamma *= 0.5  # Armijo backtracking: the trial step is too long
                if gamma < MIN_FBF_STEP:
                    raise InnerSolveError(f"{what}: step size fell below {MIN_FBF_STEP:g}", displacement)
                continue
            if displacement <= gamma * tol:
                return ProxResult(minimizer=z, inner_iterations=trials, inner_residual=displacement)
            w = K._project(z - gamma * (forward_z - forward_w))
            forward_w = F(w)
    raise InnerSolveError(f"{what} did not converge", displacement)


@dataclass
class AssumptionReport:
    """Worst sampled violation of each probed bifunction assumption.

    All entries are nonnegative; zero (up to the caller's tolerance) means
    the assumption held on every sample.
    """

    diagonal: float
    monotonicity: float
    pseudomonotonicity: float
    lipschitz_type: float

    def worst(self) -> float:
        return max(vars(self).values())  # the fields in order, as max is order-sensitive under NaN


def check_assumptions(f: Bifunction, domain: ConvexSet, samples: int = 200, seed: int = 0) -> AssumptionReport:
    """Probe the declared bifunction assumptions on a bounded domain.

    Sample points are Gaussian probes projected onto ``domain`` (seeded, so
    reports are reproducible). Probed per sample:

    * ``f(x, x) = 0`` on the diagonal;
    * declared monotone: ``f(x, y) + f(y, x) <= 0``;
    * declared pseudomonotone: ``f(x, y) >= 0`` implies ``f(y, x) <= 0``;
    * Lipschitz-type bound with the declared constants:
      ``f(x, y) + f(y, z) >= f(x, z) - c1 ||x-y||^2 - c2 ||y-z||^2``.

    The monotonicity entry is reported for both declared classes (every
    monotone bifunction is pseudomonotone, not conversely); only the entry
    matching the declaration is a contract violation when positive. Raises
    ``ValueError`` for ``samples < 1``, which would probe nothing.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    rng = np.random.default_rng(seed)

    def sample() -> np.ndarray:
        return domain.project(3.0 * rng.standard_normal(domain.dim))

    diagonal = 0.0
    monotonicity = 0.0
    pseudomonotonicity = 0.0
    lipschitz_type = 0.0
    for _ in range(samples):
        x, y, z = sample(), sample(), sample()
        diagonal = max(diagonal, abs(f.evaluate(x, x)))
        fxy = f.evaluate(x, y)
        fyx = f.evaluate(y, x)
        monotonicity = max(monotonicity, fxy + fyx)
        if fxy >= 0.0:
            pseudomonotonicity = max(pseudomonotonicity, fyx)
        slack = (
            fxy
            + f.evaluate(y, z)
            - f.evaluate(x, z)
            + f.c1 * _norm(x - y) ** 2
            + f.c2 * _norm(y - z) ** 2
        )
        lipschitz_type = max(lipschitz_type, -slack)
    return AssumptionReport(
        diagonal=diagonal,
        monotonicity=max(0.0, monotonicity),
        pseudomonotonicity=max(0.0, pseudomonotonicity),
        lipschitz_type=max(0.0, lipschitz_type),
    )
