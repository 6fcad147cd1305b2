"""Equilibrium bifunctions and the inner solvers built on them.

A bifunction ``f(x, y)`` vanishing on the diagonal defines the equilibrium
problem: find ``x`` in the domain with ``f(x, y) >= 0`` for every ``y`` in
the domain. Two realizations are provided:

* :class:`AffineVIBifunction` -- ``f(x, y) = <F(x), y - x>`` with affine
  ``F(x) = M x + q``; covers variational inequalities and admits closed-form
  proximal sub-steps.
* :class:`CallableBifunction` -- user-supplied evaluation and a selection
  from the subdifferential of ``f(x, .)``; supported on a best-effort basis
  by iterative inner solvers.

Both carry declared Lipschitz-type constants ``c1, c2 > 0`` and a declared
monotonicity class, which :func:`check_assumptions` probes numerically.

Bifunction values are immutable (user callables must be pure), and every
operation here is a pure function, safe to call from any number of threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from splitep.linalg import DenseOperator, as_vector, operator_norm_sq_upper
from splitep.sets import ConvexSet

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
    "resolvent_oracle",
]

MONOTONE = "monotone"
PSEUDOMONOTONE = "pseudomonotone"

# Floor applied to declared Lipschitz-type constants so that step-size bounds
# of the form 1 / (2 c) stay finite even for constant or vanishing operators.
MIN_LIPSCHITZ_CONSTANT = 1e-9


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

    def evaluate_many(self, x, ys: np.ndarray) -> np.ndarray:
        """Evaluate ``f(x, y)`` for every row ``y`` of ``ys``."""
        return np.array([self.evaluate(x, y) for y in ys])


def _check_metadata(monotonicity: str, c1: float, c2: float) -> tuple[str, float, float]:
    if monotonicity not in (MONOTONE, PSEUDOMONOTONE):
        raise ValueError(f"unknown monotonicity class: {monotonicity!r}")
    c1, c2 = float(c1), float(c2)
    if c1 <= 0.0 or c2 <= 0.0:
        raise ValueError("Lipschitz-type constants must be positive")
    return monotonicity, c1, c2


class AffineVIBifunction(Bifunction):
    """Bifunction ``f(x, y) = <M x + q, y - x>`` of an affine operator."""

    def __init__(self, matrix, offset, monotonicity: str, c1: float, c2: float):
        self.matrix = np.asarray(matrix, dtype=float)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("bifunction matrix must be square")
        if not np.all(np.isfinite(self.matrix)):
            raise ValueError("bifunction matrix must be finite")
        self.offset = as_vector(offset, self.matrix.shape[0])
        self.monotonicity, self.c1, self.c2 = _check_metadata(monotonicity, c1, c2)
        self.dim = self.matrix.shape[0]
        self._norm_upper: float | None = None

    @classmethod
    def with_default_constants(cls, matrix, offset, monotonicity: str = MONOTONE) -> "AffineVIBifunction":
        """Construct with ``c1 = c2 = ||M|| / 2``, valid for any affine operator.

        For ``F(x) = M x + q`` one has
        ``f(x,y) + f(y,z) - f(x,z) = <F(x) - F(y), y - z>
        >= -||M|| ||x-y|| ||y-z|| >= -(||M||/2)(||x-y||^2 + ||y-z||^2)``.
        """
        bf = cls(matrix, offset, monotonicity, 1.0, 1.0)
        c = max(bf.operator_norm_upper / 2.0, MIN_LIPSCHITZ_CONSTANT)
        bf.c1 = c
        bf.c2 = c
        return bf

    @property
    def operator_norm_upper(self) -> float:
        """Certified-style upper bound on ``||M||`` (power iteration)."""
        if self._norm_upper is None:
            self._norm_upper = float(
                np.sqrt(operator_norm_sq_upper(DenseOperator(self.matrix), iters=300))
            )
        return self._norm_upper

    def operator(self, x) -> np.ndarray:
        return self.matrix @ np.asarray(x, dtype=float) + self.offset

    def evaluate(self, x, y) -> float:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return float(self.operator(x) @ (y - x))

    def subgradient_y(self, x, y) -> np.ndarray:
        return self.operator(x)

    def evaluate_many(self, x, ys: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return (np.asarray(ys, dtype=float) - x) @ self.operator(x)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AffineVIBifunction)
            and bool(np.array_equal(other.matrix, self.matrix))
            and bool(np.array_equal(other.offset, self.offset))
            and other.monotonicity == self.monotonicity
            and other.c1 == self.c1
            and other.c2 == self.c2
        )

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
        return np.asarray(self._subgradient_y(x, y), dtype=float)

    def __repr__(self) -> str:
        return f"CallableBifunction(monotonicity={self.monotonicity!r})"


@dataclass
class ProxResult:
    """Outcome of a proximal sub-step: the minimizer and inner-solve effort."""

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
    step0: float = 1.0,
) -> ProxResult:
    """Minimize ``lam * f(at, y) + (1/2) ||y - x||^2`` over ``y`` in ``C``.

    With ``at = x`` (the default) this is the proximal sub-step of the
    extragradient scheme; passing the previous sub-step's output as ``at``
    while keeping the anchor ``x`` gives the extragradient correction, whose
    objective is linearized at ``at`` but penalized around ``x``.

    For :class:`AffineVIBifunction` the minimizer is exact:
    ``P_C(x - lam * F(at))`` by first-order optimality. For general
    bifunctions a projected subgradient descent with diminishing steps
    ``step0 / (j + 1)`` runs until the iterate displacement drops below
    ``tol``.

    Raises
    ------
    ValueError
        If ``lam <= 0`` or ``x`` lies outside ``C`` (violation above 1e-9).
    InnerSolveError
        If the iterative path stalls above ``tol`` within ``max_inner`` steps.
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
        y = C.project(x - lam * f.operator(at))
        return ProxResult(minimizer=y, inner_iterations=0, inner_residual=0.0)

    y = x
    displacement = np.inf
    for j in range(max_inner):
        grad = lam * f.subgradient_y(at, y) + (y - x)
        y_next = C.project(y - (step0 / (j + 1.0)) * grad)
        displacement = float(np.linalg.norm(y_next - y))
        y = y_next
        if displacement < tol:
            return ProxResult(minimizer=y, inner_iterations=j + 1, inner_residual=displacement)
    raise InnerSolveError("projected subgradient descent did not converge", displacement)


def resolvent(
    g: Bifunction,
    Q: ConvexSet,
    alpha: float,
    u,
    tol: float = 1e-9,
    max_inner: int = 10_000,
    rho: float | None = None,
) -> np.ndarray:
    """Resolvent of a monotone bifunction: the unique ``w`` in ``Q`` with

    ``g(w, v) + (1/alpha) <v - w, w - u> >= 0`` for all ``v`` in ``Q``.

    For :class:`AffineVIBifunction` with positive-semidefinite matrix this is
    the strongly monotone variational inequality with operator
    ``alpha G(.) + (. - u)``, solved by the projected fixed-point iteration
    ``w <- P_Q(w - rho (alpha G(w) + w - u))`` with
    ``rho = 1 / (1 + alpha ||M||)``, iterated until the displacement drops
    below ``tol``. For general monotone bifunctions the same scheme runs with
    a subgradient selection in place of ``G``; convergence is then heuristic
    and failures surface as :class:`InnerSolveError`.

    Raises
    ------
    ValueError
        If ``alpha <= 0``.
    InnerSolveError
        On non-convergence within ``max_inner`` iterations, or as soon as the
        displacement stops being finite (the iteration diverges).
    """
    alpha = float(alpha)
    if alpha <= 0.0:
        raise ValueError("resolvent parameter must be positive")
    u = as_vector(u, Q.dim)

    if rho is None:
        if isinstance(g, AffineVIBifunction):
            rho = 1.0 / (1.0 + alpha * g.operator_norm_upper)
        else:
            rho = 1.0 / (1.0 + alpha)

    if isinstance(g, AffineVIBifunction):
        direction = g.operator
    else:
        def direction(w):
            return g.subgradient_y(w, w)

    w = Q.project(u)
    displacement = np.inf
    # a diverging iteration overflows inside numpy; the finiteness check
    # below reports it as InnerSolveError, so numpy's warnings are silenced
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_inner):
            w_next = Q.project(w - rho * (alpha * direction(w) + (w - u)))
            displacement = float(np.linalg.norm(w_next - w))
            if not math.isfinite(displacement):
                raise InnerSolveError("resolvent fixed-point iteration diverged", displacement)
            w = w_next
            if displacement < tol:
                return w
    raise InnerSolveError("resolvent fixed-point iteration did not converge", displacement)


def resolvent_oracle(g: Bifunction, Q: ConvexSet, alpha: float, u, grid_points: int = 1001) -> np.ndarray:
    """Brute-force resolvent for bounded sets of dimension <= 2.

    Scans a uniform grid over ``Q`` (``grid_points`` nodes per axis) and
    returns the grid point ``w`` minimizing the worst violation

    ``max_v [ -g(w, v) - (1/alpha) <v - w, w - u> ]``

    over the same grid of ``v``. The accuracy is the grid spacing. Intended
    as an independent check of :func:`resolvent`, not for production use.
    """
    alpha = float(alpha)
    if alpha <= 0.0:
        raise ValueError("resolvent parameter must be positive")
    if Q.dim > 2:
        raise ValueError("the grid oracle supports dimensions 1 and 2 only")
    bb = Q.bounding_box()
    if bb is None:
        raise ValueError("the grid oracle requires a bounded set")
    if grid_points < 2:
        raise ValueError("need at least 2 grid points per axis")
    u = as_vector(u, Q.dim)

    axes = [np.linspace(bb[0][i], bb[1][i], grid_points) for i in range(Q.dim)]
    if Q.dim == 1:
        candidates = axes[0][:, None]
    else:
        g0, g1 = np.meshgrid(axes[0], axes[1], indexing="ij")
        candidates = np.column_stack([g0.ravel(), g1.ravel()])
    inside = np.array([Q.membership_violation(p) <= 1e-9 for p in candidates])
    grid = candidates[inside]
    if grid.shape[0] == 0:
        raise ValueError("no grid points fall inside the set; refine the grid")

    best_point = None
    best_violation = np.inf
    for w in grid:
        values = g.evaluate_many(w, grid)
        inner_terms = (grid - w) @ (w - u) / alpha
        worst = float(np.max(-values - inner_terms))
        if worst < best_violation:
            best_violation = worst
            best_point = w
    return np.array(best_point)


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
        return max(self.diagonal, self.monotonicity, self.pseudomonotonicity, self.lipschitz_type)


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
    matching the declaration is a contract violation when positive.
    """
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
            + f.c1 * float(np.linalg.norm(x - y)) ** 2
            + f.c2 * float(np.linalg.norm(y - z)) ** 2
        )
        lipschitz_type = max(lipschitz_type, -slack)
    return AssumptionReport(
        diagonal=diagonal,
        monotonicity=max(0.0, monotonicity),
        pseudomonotonicity=max(0.0, pseudomonotonicity),
        lipschitz_type=max(0.0, lipschitz_type),
    )
