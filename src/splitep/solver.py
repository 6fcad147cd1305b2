"""Extragradient and hybrid shrinking-projection solvers.

Both iterations share one core step built from problem data
``(C, Q, A, f, g, S, T)``: two proximal sub-steps for ``f`` (the second
linearized at the first's output but anchored at the current iterate), an
averaging step with ``S``, a resolvent of ``g`` at the image under ``A``,
and a projected dual correction transported back through the adjoint.

The plain iteration (:func:`weak_solve`) applies the corrected point
directly and is Fejer monotone with respect to every solution. The hybrid
variant (:func:`strong_solve`) instead accumulates, per iteration, the two
halfspaces of points at least as close to the corrected point as to the
trial points, and re-projects the fixed anchor ``x1`` onto the constraint
set intersected with all accumulated cuts.

One driver loop runs both iterations: it owns the start point, the
divergence guard, the mapping of inner-solver failures to the
``InnerFailure`` status, the stop test and the budget. It keeps every
``history_stride``-th record as the run goes (the last record always), so
the stride bounds the history's memory on every exit path.

A solve is one sequential process owning its own state; problems and
configs are immutable, so any number of solves may run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from splitep.equilibrium import InnerSolveError, prox_step, resolvent
from splitep.linalg import as_vector, norm, operator_norm_sq_upper
from splitep.sets import (
    DykstraError,
    Halfspace,
    Identity,
    halfspace_dominates,
    linear_inequality_rows,
    project_intersection,
    project_polyhedron,
)

__all__ = [
    "ConfigError",
    "ConfigViolation",
    "IterateRecord",
    "SolveReport",
    "SolveStatus",
    "SolverConfig",
    "StrongState",
    "default_config",
    "fejer_audit",
    "strong_solve",
    "strong_step",
    "validate",
    "weak_solve",
    "weak_step",
]

WEAK = "weak"
STRONG = "strong"

# Iterates beyond this norm abort the run; bounds of this size only arise
# from invalid problem data (e.g. a bifunction that is not pseudomonotone).
DIVERGENCE_LIMIT = 1e12

# How many leading schedule values validate() probes against declared bounds.
SCHEDULE_PROBE_COUNT = 50


class SolveStatus(str, Enum):
    CONVERGED = "Converged"
    MAX_ITER_REACHED = "MaxIterReached"
    INNER_FAILURE = "InnerFailure"


@dataclass(frozen=True)
class ConfigViolation:
    name: str
    message: str

    def __str__(self) -> str:
        return f"{self.name}: {self.message}"


class ConfigError(ValueError):
    """A solver configuration violates the convergence hypotheses."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


def constant_schedule(value: float) -> Callable[[int], float]:
    """Schedule that returns ``value`` for every iteration index."""
    value = float(value)

    def schedule(k: int) -> float:
        return value

    return schedule


@dataclass(frozen=True)
class SolverConfig:
    """Parameters of one solve.

    Attributes
    ----------
    lambda_schedule : callable
        Iteration index -> proximal step size; must stay inside
        ``lambda_bounds``.
    lambda_bounds : (float, float)
        Declared range ``[a, b]``; admissible when
        ``0 < a <= b < min(1/(2 c1), 1/(2 c2))`` for the constants of ``f``.
    mu : float
        Dual step; admissible when ``0 < mu < 1 / U`` for the certified
        operator-norm bound ``U`` of ``A``.
    alpha : float
        Averaging weight for ``S``; admissible in ``(0, 1)``.
    alpha_k_schedule : callable
        Iteration index -> resolvent parameter; must stay at or above
        ``alpha_k_lower > 0``.
    tol : float
        Outer stopping tolerance on the residual (max over residual parts).
    max_iter : int
        Outer iteration budget.
    mode : str
        ``"weak"`` (plain iteration) or ``"strong"`` (shrinking projections).
    sep_mode : bool
        When True, ``S`` and ``T`` are replaced by identities, reducing the
        problem to a split equilibrium problem without fixed-point
        constraints.
    validate_mu : bool
        Unsafe escape hatch: when False, :func:`validate` skips the upper
        bound on ``mu``. Exists for negative-control experiments only.
    history_stride : int
        The report's history keeps record ``k`` when ``k`` is a multiple of
        the stride, plus the last record. Thinning happens while the run
        goes, on every exit path, so the stride bounds the memory the history
        holds. Audits that walk consecutive iterations need stride 1.
    """

    lambda_schedule: Callable[[int], float]
    lambda_bounds: tuple[float, float]
    mu: float
    alpha: float = 0.5
    alpha_k_schedule: Callable[[int], float] = constant_schedule(1.0)
    alpha_k_lower: float = 1.0
    tol: float = 1e-6
    max_iter: int = 50_000
    mode: str = WEAK
    sep_mode: bool = False
    prox_tol: float = 1e-10
    prox_max_inner: int = 20_000
    resolvent_tol: float = 1e-9
    resolvent_max_inner: int = 10_000
    dykstra_tol: float = 1e-10
    dykstra_max_sweeps: int = 10_000
    validate_mu: bool = True
    history_stride: int = 1

    def __post_init__(self):
        if self.mode not in (WEAK, STRONG):
            raise ValueError(f"mode must be 'weak' or 'strong', got {self.mode!r}")
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.history_stride < 1:
            raise ValueError("history_stride must be >= 1")


def default_config(problem, mode: str = WEAK, **overrides) -> SolverConfig:
    """Admissible configuration derived from the problem's constants.

    Defaults: constant proximal step at 0.9 of the admissible bound
    ``min(1/(2 c1), 1/(2 c2))``, averaging weight 0.5, resolvent parameter 1,
    and ``mu`` at ``mu_fraction = 0.5`` of the certified bound ``1 / U``.
    ``mu_fraction`` and any :class:`SolverConfig` field may be overridden.
    """
    overrides = dict(overrides)
    mu_fraction = float(overrides.pop("mu_fraction", 0.5))
    if mu_fraction <= 0.0:
        raise ValueError("mu_fraction must be positive")
    lam_bound = min(1.0 / (2.0 * problem.f.c1), 1.0 / (2.0 * problem.f.c2))
    lam = 0.9 * lam_bound
    U = operator_norm_sq_upper(problem.A)
    defaults = dict(
        lambda_schedule=constant_schedule(lam),
        lambda_bounds=(lam, lam),
        mu=mu_fraction / U,
        mode=mode,
    )
    defaults.update(overrides)
    return SolverConfig(**defaults)


def validate(config: SolverConfig, problem) -> list[ConfigViolation]:
    """Check every convergence hypothesis of ``config`` against ``problem``.

    Returns all violations at once (empty list when admissible).
    """
    violations = []
    a, b = config.lambda_bounds
    lam_bound = min(1.0 / (2.0 * problem.f.c1), 1.0 / (2.0 * problem.f.c2))
    if not (0.0 < a <= b < lam_bound):
        violations.append(
            ConfigViolation(
                "LambdaOutOfRange",
                f"lambda bounds [{a}, {b}] must satisfy 0 < a <= b < {lam_bound} "
                "= min(1/(2 c1), 1/(2 c2))",
            )
        )
    else:
        probed = [config.lambda_schedule(k) for k in range(SCHEDULE_PROBE_COUNT)]
        slack = 1e-12 * (1.0 + abs(b))
        if any(not (a - slack <= v <= b + slack) for v in probed):
            violations.append(
                ConfigViolation(
                    "LambdaScheduleOutsideBounds",
                    f"lambda schedule leaves the declared range [{a}, {b}]",
                )
            )
    if not (0.0 < config.alpha < 1.0):
        violations.append(
            ConfigViolation("AlphaOutOfRange", f"alpha = {config.alpha} must lie in (0, 1)")
        )
    if config.mu <= 0.0:
        violations.append(ConfigViolation("MuNotPositive", f"mu = {config.mu} must be positive"))
    elif config.validate_mu:
        U = operator_norm_sq_upper(problem.A)
        if config.mu >= 1.0 / U:
            violations.append(
                ConfigViolation(
                    "MuTooLarge",
                    f"mu = {config.mu} must be below 1/U = {1.0 / U} for the certified "
                    "squared-operator-norm bound U",
                )
            )
    if config.alpha_k_lower <= 0.0:
        violations.append(
            ConfigViolation(
                "AlphaKNotPositive",
                f"declared resolvent-parameter lower bound {config.alpha_k_lower} must be positive",
            )
        )
    else:
        probed = [config.alpha_k_schedule(k) for k in range(SCHEDULE_PROBE_COUNT)]
        slack = 1e-12 * (1.0 + abs(config.alpha_k_lower))
        if any(v < config.alpha_k_lower - slack for v in probed):
            violations.append(
                ConfigViolation(
                    "AlphaKBelowDeclaredBound",
                    "resolvent-parameter schedule drops below its declared lower bound "
                    f"{config.alpha_k_lower}",
                )
            )
    return violations


def _require_valid(config: SolverConfig, problem) -> None:
    violations = validate(config, problem)
    if violations:
        raise ConfigError(violations)


@dataclass
class IterateRecord:
    """One outer iteration: the points produced and the residual parts."""

    k: int
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    t: np.ndarray
    u: np.ndarray
    next_x: np.ndarray
    lambda_k: float
    alpha_k: float
    res_xy: float
    res_yz: float
    res_Sz: float
    res_uAt: float
    res_Tu: float
    step: float
    residual: float
    s: np.ndarray | None = None
    res_sx: float = 0.0
    res_tx: float = 0.0

    def csv_parts(self) -> tuple[float, float, float, float, float, float]:
        return (self.res_xy, self.res_yz, self.res_Sz, self.res_uAt, self.res_Tu, self.step)


class _RowBuffer:
    """Append-only inequality rows ``G r <= h`` with amortized growth.

    Row indices are stable, so active-set indices from one projection remain
    valid after appending more rows.
    """

    def __init__(self, G0: np.ndarray, h0: np.ndarray):
        dim = G0.shape[1]
        capacity = max(64, 2 * len(h0))
        self._G = np.zeros((capacity, dim))
        self._h = np.zeros(capacity)
        self.count = len(h0)
        self._G[: self.count] = G0
        self._h[: self.count] = h0

    def append(self, row: np.ndarray, offset: float) -> None:
        if self.count == len(self._h):
            self._G = np.concatenate([self._G, np.zeros_like(self._G)])
            self._h = np.concatenate([self._h, np.zeros_like(self._h)])
        self._G[self.count] = row
        self._h[self.count] = offset
        self.count += 1

    def view(self) -> tuple[np.ndarray, np.ndarray]:
        return self._G[: self.count], self._h[: self.count]


@dataclass
class StrongState:
    """Anchor and accumulated halfspace cuts of the shrinking-set iteration.

    Cuts are never dropped: the nesting of the constraint sets, which the
    convergence argument relies on, would break otherwise. The remaining
    fields carry the exact-projection working state between iterations (the
    stacked inequality rows and the last active rows, used to warm-start the
    next anchor projection).
    """

    anchor: np.ndarray
    cuts: list[Halfspace] = field(default_factory=list)
    rows: "_RowBuffer | None" = None
    rows_usable: bool = True
    active_rows: tuple[int, ...] = ()


@dataclass
class SolveReport:
    status: SolveStatus
    iterations: int
    final_x: np.ndarray
    final_u: np.ndarray | None
    final_residual: float
    history: list[IterateRecord]
    cuts: list[Halfspace] = field(default_factory=list)
    message: str = ""


def _effective_maps(problem, config: SolverConfig):
    if config.sep_mode:
        return Identity(problem.C.dim), Identity(problem.Q.dim)
    return problem.S, problem.T


def _core_step(problem, config: SolverConfig, x, k: int) -> IterateRecord:
    """Shared portion of both iterations: the plain iteration's record.

    Its ``next_x`` is the corrected point ``s``; the hybrid iteration amends
    the record in place.
    """
    x = as_vector(x, problem.C.dim)
    S, T = _effective_maps(problem, config)
    lam = config.lambda_schedule(k)
    alpha_k = config.alpha_k_schedule(k)

    y = prox_step(
        problem.f, problem.C, x, lam, tol=config.prox_tol, max_inner=config.prox_max_inner
    ).minimizer
    z = prox_step(
        problem.f, problem.C, x, lam, at=y, tol=config.prox_tol, max_inner=config.prox_max_inner
    ).minimizer
    Sz = S.apply(z)
    t = (1.0 - config.alpha) * z + config.alpha * Sz
    At = problem.A.apply(t)
    u = resolvent(
        problem.g,
        problem.Q,
        alpha_k,
        At,
        tol=config.resolvent_tol,
        max_inner=config.resolvent_max_inner,
    )
    Tu = T.apply(u)
    s = problem.C.project(t + config.mu * problem.A.adjoint_apply(Tu - At))
    parts = dict(
        res_xy=norm(x - y),
        res_yz=norm(y - z),
        res_Sz=norm(Sz - z),
        res_uAt=norm(u - At),
        res_Tu=norm(Tu - u),
    )
    step = norm(s - x)
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


def weak_step(problem, config: SolverConfig, x, k: int) -> IterateRecord:
    """One iteration of the plain extragradient scheme from ``x`` at index ``k``.

    The caller is responsible for ``x`` in ``C`` and for ``config`` having
    passed :func:`validate`.
    """
    return _core_step(problem, config, x, k)


def _project_shrinking_set(problem, config: SolverConfig, state: StrongState) -> np.ndarray:
    """Project the anchor onto the constraint set intersected with all cuts.

    When the constraint set has an explicit inequality description the exact
    active-set projector is used, warm-started with the previously active
    rows (rows only ever append, so indices stay valid). Otherwise, or if the
    pivoting degenerates, Dykstra's scheme is the fallback; the constraint
    set goes last in its member list so the returned sweep iterate is exactly
    feasible for it (the next prox step checks membership).
    """
    if state.rows_usable and state.rows is not None:
        G, h = state.rows.view()
        try:
            next_x, state.active_rows = project_polyhedron(
                state.anchor, G, h, start_active=state.active_rows
            )
            return next_x
        except DykstraError:
            state.active_rows = ()
    return project_intersection(
        [*state.cuts, problem.C],
        state.anchor,
        tol=config.dykstra_tol,
        max_sweeps=config.dykstra_max_sweeps,
    )


def strong_step(problem, config: SolverConfig, state: StrongState, x, k: int) -> IterateRecord:
    """One iteration of the shrinking-projection scheme from ``x`` at index ``k``.

    Appends the two new cuts (points at least as close to the corrected point
    ``s`` as to ``t``, and to ``t`` as to ``x``) to ``state``, which it
    mutates in place, and projects the anchor onto the constraint set
    intersected with all accumulated cuts. The record's ``next_x`` is that
    projection; ``s`` holds the corrected point. The caller is responsible
    for ``x`` in ``C`` and for ``config`` having passed :func:`validate`.
    """
    record = _core_step(problem, config, x, k)
    if state.rows is None and state.rows_usable:
        base = linear_inequality_rows(problem.C)
        if base is None:
            state.rows_usable = False
        else:
            state.rows = _RowBuffer(*base)
    for cut in (halfspace_dominates(record.next_x, record.t), halfspace_dominates(record.t, record.x)):
        state.cuts.append(cut)
        if not cut.is_whole_space and state.rows is not None:
            state.rows.append(cut.normal, cut.offset)
    record.s = record.next_x
    record.res_sx = record.step
    record.next_x = _project_shrinking_set(problem, config, state)
    record.step = norm(record.next_x - record.x)
    record.res_tx = norm(record.t - record.x)
    # the plain residual already covers res_sx and the five residual parts
    record.residual = max(record.step, record.residual, record.res_tx)
    return record


def _solve(problem, config: SolverConfig, step, cuts=()) -> SolveReport:
    """Iterate ``step(x, k) -> IterateRecord`` from ``problem.x1``.

    Stops at the first record whose residual is at most ``config.tol``,
    after ``config.max_iter + 1`` records, or on the first failure: iterates
    beyond ``DIVERGENCE_LIMIT``, an inner solver giving up, or a non-finite
    residual. Record ``k`` enters the history when ``k`` is a multiple of
    ``config.history_stride``; the last record always does.
    """
    _require_valid(config, problem)
    history: list[IterateRecord] = []
    last = failure = None
    x = as_vector(problem.x1, problem.C.dim)
    for k in range(config.max_iter + 1):
        if norm(x) > DIVERGENCE_LIMIT:
            failure = "iterates diverged; check the problem data"
            break
        try:
            last = step(x, k)
        except (InnerSolveError, DykstraError) as exc:
            failure = str(exc)
            break
        if k % config.history_stride == 0:
            history.append(last)
        if not np.isfinite(last.residual):
            failure = "non-finite residual; check the problem data"
            break
        x = last.next_x
        if last.residual <= config.tol:
            break
    if last is not None and (not history or history[-1] is not last):
        history.append(last)
    if failure is not None:
        status = SolveStatus.INNER_FAILURE
    elif last.residual <= config.tol:
        status = SolveStatus.CONVERGED
    else:
        status = SolveStatus.MAX_ITER_REACHED
    return SolveReport(
        status=status,
        iterations=last.k if last else 0,
        final_x=x,
        final_u=last.u if last else None,
        final_residual=last.residual if last else np.inf,
        history=history,
        cuts=list(cuts),
        message=failure or "",
    )


def weak_solve(problem, config: SolverConfig | None = None) -> SolveReport:
    """Run the plain extragradient iteration from ``problem.x1``.

    Stops when the residual (max over residual parts, including the iterate
    displacement) drops to ``config.tol``, or when the iteration budget is
    exhausted (reported as a status, not an error).
    """
    if config is None:
        config = default_config(problem, mode=WEAK)
    if config.mode != WEAK:
        raise ValueError("weak_solve requires a config with mode='weak'")
    return _solve(problem, config, lambda x, k: weak_step(problem, config, x, k))


def strong_solve(problem, config: SolverConfig | None = None) -> SolveReport:
    """Run the shrinking-projection iteration from ``problem.x1``.

    The report's ``cuts`` field carries every accumulated halfspace; any
    solution of the problem satisfies them all.
    """
    if config is None:
        config = default_config(problem, mode=STRONG)
    if config.mode != STRONG:
        raise ValueError("strong_solve requires a config with mode='strong'")
    state = StrongState(anchor=as_vector(problem.x1, problem.C.dim))
    return _solve(
        problem, config, lambda x, k: strong_step(problem, config, state, x, k), state.cuts
    )


def fejer_audit(history: list[IterateRecord], x_star) -> float:
    """Worst violation of the per-iteration distance chain to a known solution.

    For consecutive records the chain
    ``||x_{k+1} - x*|| <= ||t_k - x*|| <= ||z_k - x*|| <= ||x_k - x*||``
    must hold; the return value is the largest amount by which any link
    fails, and 0.0 for histories with fewer than two records. Requires an
    unthinned history.
    """
    x_star = as_vector(x_star)
    worst = 0.0
    for prev, nxt in zip(history, history[1:]):
        d_next = norm(nxt.x - x_star)
        d_t = norm(prev.t - x_star)
        d_z = norm(prev.z - x_star)
        d_x = norm(prev.x - x_star)
        worst = max(worst, d_next - d_t, d_t - d_z, d_z - d_x)
    return max(0.0, worst)
