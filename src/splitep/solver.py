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
set, any closed convex one, intersected with all accumulated cuts, rows of
the record :class:`StrongState` keeps for the anchor, the only point it projects.

One driver loop runs both iterations: it owns the start point, the
divergence guard, the mapping of inner-solver failures to the
``InnerFailure`` status, the stop test and the budget. It keeps every
``history_stride``-th record as the run goes (the last record always), so
the stride bounds the history's memory on every exit path.

A solve is one sequential process owning its own state; problems and
configs are immutable, so any number of solves may run concurrently. The
only state a problem carries is the lazily filled norm bound of its
operators and the resolvent inverse of an affine bifunction (see
:mod:`splitep.linalg` and :mod:`splitep.equilibrium`), which concurrent
solves may share.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Callable

import numpy as np

# bench/spans.py getattrs prox_step, resolvent, halfspace_dominates and project_intersection here
# to wrap them, and raises without them, though the loop calls none of them
from splitep.equilibrium import InnerSolveError, _prox_step, _resolvent, prox_step, resolvent  # noqa: F401
from splitep.linalg import _norm, as_vector, norm, operator_norm_sq_upper
from splitep.sets import (
    ActiveSet,
    DykstraError,
    EmptySetError,
    Halfspace,
    PivotBudgetError,
    _dominating_row,
    halfspace_dominates,  # noqa: F401
    project_intersection,  # noqa: F401
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

# How many leading schedule values validate() probes.
SCHEDULE_PROBE_COUNT = 50

# How many projections onto its rows one shrinking-set projection may make.
SUPPORT_ROUNDS = 100


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

    :func:`validate` checks each schedule on its first
    ``SCHEDULE_PROBE_COUNT`` (50) values. A solve reads each schedule once
    per iteration, checks the value and hands it to the step; a value outside
    its admissible range ends the run with the ``InnerFailure`` status. As
    the solve reads again the values :func:`validate` read, each schedule
    must be a pure function of the iteration index.

    Attributes
    ----------
    lambda_schedule : callable
        Iteration index -> proximal step size; admissible when every value
        lies in ``(0, min(1/(2 c1), 1/(2 c2)))`` for the constants of ``f``.
        The theorems further ask that all values stay in one closed ``[a, b]``
        inside that range, which no finite probe can check.
    mu : float
        Dual step; admissible when ``0 < mu < 1 / U`` for the certified bound
        ``U >= ||A||^2`` of :func:`~splitep.linalg.operator_norm_sq_upper`,
        so that ``mu < 1 / ||A||^2`` holds as the convergence theorems ask.
    alpha : float
        Averaging weight for ``S``; admissible in ``(0, 1)``.
    alpha_k_schedule : callable
        Iteration index -> resolvent parameter; admissible when every value
        is positive and finite. The theorems further ask that the values stay
        bounded away from 0, which no finite probe can check.
    tol : float
        Outer stopping tolerance on the residual (max over residual parts).
    max_iter : int
        Outer iteration budget.
    mode : str
        ``"weak"`` (plain iteration) or ``"strong"`` (shrinking projections).
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
    mu: float
    alpha: float = 0.5
    alpha_k_schedule: Callable[[int], float] = constant_schedule(1.0)
    tol: float = 1e-6
    max_iter: int = 50_000
    mode: str = WEAK
    validate_mu: bool = True
    history_stride: int = 1

    def __post_init__(self):
        if self.mode not in (WEAK, STRONG):
            raise ValueError(f"mode must be 'weak' or 'strong', got {self.mode!r}")
        if not (0.0 < self.tol < math.inf):
            raise ValueError("tol must be positive and finite")
        for name in ("max_iter", "history_stride"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def _lambda_bound(f) -> float:
    """Admissible bound ``min(1/(2 c1), 1/(2 c2))`` on the proximal step for ``f``."""
    return min(1.0 / (2.0 * f.c1), 1.0 / (2.0 * f.c2))


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
    lam = 0.9 * _lambda_bound(problem.f)
    U = operator_norm_sq_upper(problem.A)
    defaults = dict(
        lambda_schedule=constant_schedule(lam),
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
    lambda_rule, alpha_k_rule = _schedule_rules(problem)
    _probe_schedule(violations, config, lambda_rule)
    if not (0.0 < config.alpha < 1.0):
        violations.append(
            ConfigViolation("AlphaOutOfRange", f"alpha = {config.alpha} must lie in (0, 1)")
        )
    if not (0.0 < config.mu < math.inf):
        violations.append(
            ConfigViolation("MuNotPositive", f"mu = {config.mu} must be positive and finite")
        )
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
    _probe_schedule(violations, config, alpha_k_rule)
    return violations


def _schedule_rules(problem) -> tuple[tuple[str, float, str, str], ...]:
    """Per schedule: its field, the end ``b`` of its admissible range ``(0, b)``, its violation and requirement."""
    lam_bound = _lambda_bound(problem.f)
    return (
        ("lambda_schedule", lam_bound, "LambdaOutOfRange", f"in (0, {lam_bound}) = (0, min(1/(2 c1), 1/(2 c2)))"),
        ("alpha_k_schedule", math.inf, "AlphaKNotPositive", "positive and finite"),
    )


def _schedule_violation(rule, k: int, value) -> ConfigViolation | None:
    """The violation of a :func:`_schedule_rules` rule by its schedule's ``value`` at ``k``, if any."""
    label, upper, name, requirement = rule
    if 0.0 < value < upper:
        return None
    return ConfigViolation(name, f"{label}({k}) = {value} must be {requirement}")


def _probe_schedule(violations, config: SolverConfig, rule) -> None:
    """Append the violation of ``rule`` by the first probed schedule value that breaks it."""
    schedule = getattr(config, rule[0])
    for k in range(SCHEDULE_PROBE_COUNT):
        violation = _schedule_violation(rule, k, schedule(k))
        if violation is not None:
            violations.append(violation)
            return


def _require_valid(config: SolverConfig, problem) -> None:
    violations = validate(config, problem)
    if violations:
        raise ConfigError(violations)


@dataclass(slots=True)
class IterateRecord:
    """One outer iteration: the points produced and the residual parts; slotted, so it has no ``__dict__``."""

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

    def csv_parts(self) -> tuple[float, float, float, float, float, float]:
        return (self.res_xy, self.res_yz, self.res_Sz, self.res_uAt, self.res_Tu, self.step)


class StrongState:
    """Anchor, and the shrinking set: ``C`` intersected with the rows ``G r <= h``.

    Projects one point, the anchor, by :meth:`project_anchor`; ``C`` is
    reached only through its projection. The record ``active_set`` made for
    the anchor stores the rows, each once: every cut that constrains something (their
    indices are ``cut_rows``) and every supporting halfspace of ``C`` that a
    projection added, in the order made. A supporting row holds all of
    ``C``, so it leaves the shrinking set as it was. Rows are never dropped:
    the nesting of the constraint sets, which the convergence argument
    relies on, would break otherwise. Stored rows never change, so each
    projection resumes from where the last one stopped.
    """

    def __init__(self, problem):
        self.C = problem.C
        self.anchor = as_vector(problem.x1, problem.C.dim)
        self.cut_rows: list[int] = []
        self.active_set = ActiveSet(self.anchor)
        self.schedule: tuple[float, float] | None = None  # the last step's (lambda_k, alpha_k)

    def project_anchor(self) -> np.ndarray:
        """Projection ``r`` of the anchor onto the rows, once it lies in ``C``.

        While ``r`` lies farther than ``1e-12 (1 + ||anchor||)`` from
        ``p = P_C(r)``, the halfspace ``<r - p, y> <= <r - p, p>`` supporting
        ``C`` at ``p``, which ``r`` violates by that distance, becomes a row
        and the projection resumes. Raises ``InnerSolveError`` when a row
        is not finite, before storing it, or after ``SUPPORT_ROUNDS``
        projections.

        A normal ``r - p`` from a gap below ``push = 1e-4 (1 + ||p||)`` is
        mostly rounding, and its row can cut into ``C``. The row is then
        taken at ``P_C(q)`` with normal ``q - P_C(q)``, for the point ``q``
        that lies ``push`` from ``p`` along ``r - p``; ``P_C(q)`` is ``p`` in
        exact arithmetic, so the row cuts ``r``. When it does not, ``r - p``
        was rounding rather than a normal of ``C`` at ``p``, and ``r`` lies in
        ``C`` to working precision: it is returned.
        """
        record = self.active_set
        for _ in range(SUPPORT_ROUNDS):
            r = project_polyhedron(self.anchor, record.G, record.h, start=record)[0]
            p = self.C._project(r)
            normal = r - p
            gap = _norm(normal)
            if gap <= record.tol:
                return r
            push = 1e-4 * (1.0 + _norm(p))
            if gap < push:
                q = p + (push / gap) * normal
                p = self.C._project(q)
                normal = q - p
                if normal.dot(r) <= normal.dot(p):
                    return r  # the row misses r, so r - p was rounding
            offset = float(normal.dot(p))  # finite only when normal and p are
            if not abs(offset) < math.inf:
                raise InnerSolveError("the shrinking-set projection met a non-finite supporting row of C", offset)
            record.append(normal, offset)
        raise InnerSolveError(
            f"the supporting-halfspace loop of the shrinking-set projection used up its {SUPPORT_ROUNDS} rounds", gap
        )

    def add_cut(self, a: np.ndarray, b: np.ndarray) -> None:
        """Store ``halfspace_dominates(a, b)`` of finite vectors as a row unless it is the whole space or stored."""
        row = _dominating_row(a, b)
        if row is not None and self.active_set.append(*row):
            self.cut_rows.append(self.active_set.count - 1)

    def cuts(self) -> list[Halfspace]:
        """The stored cuts, in order, as halfspaces, not checked again."""
        rows = self.cut_rows
        return Halfspace._from_rows(self.active_set.G[rows], self.active_set.h[rows])


@dataclass
class SolveReport:
    """Outcome of one solve; ``cuts`` lists, in order, every cut of a strong
    solve that constrains something, and is empty for a weak solve."""

    status: SolveStatus
    iterations: int
    final_x: np.ndarray
    final_u: np.ndarray | None
    final_residual: float
    history: list[IterateRecord]
    cuts: list[Halfspace] = field(default_factory=list)
    message: str = ""


def _core_step(problem, config: SolverConfig, x: np.ndarray, k: int, lam=None, alpha_k=None) -> IterateRecord:
    """Shared portion of both iterations: the plain iteration's record.

    Its ``next_x`` is the corrected point ``s``; the hybrid iteration amends
    the record in place. ``lam`` and ``alpha_k`` are the schedules' values at
    ``k``, read here when not given. It runs on unchecked kernels and checks
    nothing: a non-finite value a user's map or bifunction returns makes the
    residual non-finite, and the driver ends the run with the ``InnerFailure``
    status.
    """
    if lam is None:
        lam = config.lambda_schedule(k)
    if alpha_k is None:
        alpha_k = config.alpha_k_schedule(k)

    y = _prox_step(problem.f, problem.C, x, lam, x)
    z = _prox_step(problem.f, problem.C, x, lam, y)
    Sz = problem.S._apply(z)
    t = (1.0 - config.alpha) * z + config.alpha * Sz
    At = problem.A.entries.dot(t)
    u = _resolvent(problem.g, problem.Q, alpha_k, At)
    Tu = problem.T._apply(u)
    s = problem.C._project(t + config.mu * problem.A.entries.T.dot(Tu - At))
    res_xy, res_yz, res_Sz = _norm(x - y), _norm(y - z), _norm(Sz - z)
    res_uAt, res_Tu, step = _norm(u - At), _norm(Tu - u), _norm(s - x)
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
        res_xy=res_xy,
        res_yz=res_yz,
        res_Sz=res_Sz,
        res_uAt=res_uAt,
        res_Tu=res_Tu,
        step=step,
        # max is order-sensitive under NaN: keep step first, then the parts in field order
        residual=max(step, res_xy, res_yz, res_Sz, res_uAt, res_Tu),
    )


def weak_step(problem, config: SolverConfig, x, k: int, *, lam=None, alpha_k=None) -> IterateRecord:
    """One iteration of the plain extragradient scheme from ``x`` at index ``k``.

    ``lam`` and ``alpha_k`` are ``config.lambda_schedule(k)`` and
    ``config.alpha_k_schedule(k)``, which the step reads itself when they are
    not given; a solve reads them once, to check them, and passes them. The
    caller is responsible for ``x`` being a finite float vector in ``C`` and
    for ``config`` having passed :func:`validate`.
    """
    return _core_step(problem, config, x, k, lam, alpha_k)


def strong_step(problem, config: SolverConfig, state: StrongState, x, k: int, *, lam=None, alpha_k=None) -> IterateRecord:
    """One iteration of the shrinking-projection scheme from ``x`` at index ``k``.

    Stores the two new cuts (points at least as close to the corrected point
    ``s`` as to ``t``, and to ``t`` as to ``x``) in ``state`` unless a cut is
    the whole space or already stored, and sets the record's ``next_x`` to the projection
    ``state.project_anchor()`` of the anchor; ``s`` holds the corrected
    point. A record with a non-finite residual is returned without cuts, for
    the solve loop to stop on. A step that stores no new row and returns ``x``
    itself, with the ``lambda_k`` and ``alpha_k`` of the step before (kept
    in ``state``), can only be repeated: it raises ``InnerSolveError``.
    ``lam`` and ``alpha_k`` are the schedules' values at ``k``, as for
    :func:`weak_step`. The caller is responsible for ``x`` being a finite
    float vector in ``C`` and for ``config`` having passed :func:`validate`.
    """
    record = _core_step(problem, config, x, k, lam, alpha_k)
    if not math.isfinite(record.residual):
        return record
    stored = state.active_set.count
    state.add_cut(record.next_x, record.t)
    state.add_cut(record.t, record.x)
    record.s = record.next_x
    record.next_x = state.project_anchor()
    schedule, state.schedule = state.schedule, (record.lambda_k, record.alpha_k)
    if record.next_x is record.x and state.active_set.count == stored and schedule == state.schedule:
        raise InnerSolveError(
            f"the shrinking-set projection stalled at k = {k}: the step stored no new row and left the iterate "
            "where it was, so with the same lambda_k and alpha_k every later step repeats it; the residual "
            "cannot reach tol below what the projection's stop tolerance 1e-12 (1 + ||x1||) resolves",
            record.residual,
        )
    record.step = _norm(record.next_x - record.x)
    # the plain residual already covers the step to s and the five residual parts
    record.residual = max(record.step, record.residual, _norm(record.t - record.x))
    return record


def _solve(problem, config: SolverConfig, step) -> SolveReport:
    """Iterate ``step(x, k, lam=..., alpha_k=...) -> IterateRecord`` from ``problem.x1``.

    Reads each schedule once per iteration and hands its value to the step.
    Stops at the first record whose residual is at most ``config.tol``,
    after ``config.max_iter + 1`` records, or on the first failure: iterates
    beyond ``DIVERGENCE_LIMIT``, a schedule value outside its admissible
    range (:func:`validate` probes only the first ``SCHEDULE_PROBE_COUNT``,
    so each step's ``lambda_k`` and ``alpha_k`` are checked before it runs),
    an inner solver giving up, an empty shrinking set, a value that a checked
    call refuses, or a non-finite residual. Record ``k`` enters the history
    when ``k`` is a multiple of ``config.history_stride``; the last always does.
    """
    _require_valid(config, problem)
    lambda_rule, alpha_k_rule = _schedule_rules(problem)
    lambda_schedule, lambda_upper = config.lambda_schedule, lambda_rule[1]
    alpha_k_schedule, alpha_k_upper = config.alpha_k_schedule, alpha_k_rule[1]
    history: list[IterateRecord] = []
    last = failure = None
    x = as_vector(problem.x1, problem.C.dim)
    with np.errstate(over="ignore"):  # a user map's value near 1e200 overflows to inf, which the residual test reports
        for k in range(config.max_iter + 1):
            if _norm(x) > DIVERGENCE_LIMIT:
                failure = "iterates diverged; check the problem data"
                break
            lam, alpha_k = lambda_schedule(k), alpha_k_schedule(k)
            if not (0.0 < lam < lambda_upper and 0.0 < alpha_k < alpha_k_upper):  # the rules, inline
                failure = str(_schedule_violation(lambda_rule, k, lam) or _schedule_violation(alpha_k_rule, k, alpha_k))
                break
            try:
                last = step(x, k, lam=lam, alpha_k=alpha_k)
            except EmptySetError as exc:
                failure = f"the shrinking set is empty: {exc}"
                break
            except (InnerSolveError, DykstraError, PivotBudgetError, ValueError) as exc:
                failure = str(exc)  # a ValueError is a checked call refusing a value, say one beyond MAX_MAGNITUDE
                break
            if k % config.history_stride == 0:
                history.append(last)
            if not math.isfinite(last.residual):
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
    return _solve(problem, config, partial(weak_step, problem, config))


def strong_solve(problem, config: SolverConfig | None = None) -> SolveReport:
    """Run the shrinking-projection iteration from ``problem.x1``.

    The report's ``cuts`` lists, in order and each once, every cut that
    constrains something; any solution of the problem satisfies them all. When ``C``
    intersected with the cuts becomes empty, so that the problem has no
    solution, the run ends with the ``InnerFailure`` status.
    """
    if config is None:
        config = default_config(problem, mode=STRONG)
    if config.mode != STRONG:
        raise ValueError("strong_solve requires a config with mode='strong'")
    state = StrongState(problem)
    report = _solve(problem, config, partial(strong_step, problem, config, state))
    report.cuts = state.cuts()
    return report


def fejer_audit(history: list[IterateRecord], x_star) -> float:
    """Worst violation of the per-iteration distance chain to a known solution.

    For consecutive records the chain
    ``||x_{k+1} - x*|| <= ||t_k - x*|| <= ||z_k - x*|| <= ||x_k - x*||``
    must hold; the return value is the largest amount by which any link
    fails, and 0.0 for histories with fewer than two records. Raises
    ``ValueError`` when two neighbouring records are not consecutive
    iterations, as in a history thinned by ``history_stride > 1``, and when
    ``x_star`` does not have the records' dimension.
    """
    x_star = as_vector(x_star, history[0].x.size if history else None)
    worst = 0.0
    for prev, nxt in zip(history, history[1:]):
        if nxt.k != prev.k + 1:
            raise ValueError(f"records {prev.k} and {nxt.k} are not consecutive iterations")
        d_next = norm(nxt.x - x_star)
        d_t = norm(prev.t - x_star)
        d_z = norm(prev.z - x_star)
        d_x = norm(prev.x - x_star)
        worst = max(worst, d_next - d_t, d_t - d_z, d_z - d_x)
    return max(0.0, worst)
