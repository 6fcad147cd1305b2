import dataclasses
import math
import warnings

import numpy as np
import pytest

import splitep as sp
from splitep.equilibrium import AffineVIBifunction, CallableBifunction
from splitep.problems import ProblemSpec
from splitep.sets import (
    ActiveSet,
    Ball,
    Box,
    ConvexSet,
    Halfspace,
    Identity,
    NonexpansiveMap,
    PivotBudgetError,
    ProjectionOnto,
    WholeSpace,
)
from splitep.solver import (
    ConfigError,
    IterateRecord,
    SolveStatus,
    SolverConfig,
    StrongState,
    constant_schedule,
    default_config,
    fejer_audit,
    strong_solve,
    strong_step,
    validate,
    weak_solve,
    weak_step,
)

from oracles import (
    box_fixed_point_problem,
    inequality_rows,
    quadratic_bifunction,
    reference_core_step,
    reference_cut_row,
    reference_project_polyhedron,
    reference_project_rows_and_ball,
    same_record,
    tangential_ball_problem,
)


def flat_bifunction(dim, c=0.5):
    return AffineVIBifunction(np.zeros((dim, dim)), np.zeros(dim), "monotone", c, c)


def degenerate_problem():
    return ProblemSpec(
        C=WholeSpace(1),
        Q=WholeSpace(1),
        A=sp.DenseOperator([[1.0]]),
        f=flat_bifunction(1),
        g=flat_bifunction(1),
        S=Identity(1),
        T=Identity(1),
        x1=np.array([0.7]),
    )


def expansive_problem():
    # declared monotone but f = -<x, y - x> pushes the iterates outward
    return ProblemSpec(
        C=WholeSpace(1),
        Q=WholeSpace(1),
        A=sp.DenseOperator([[1.0]]),
        f=AffineVIBifunction(-np.eye(1), np.zeros(1), "monotone", 0.5, 0.5),
        g=flat_bifunction(1),
        S=Identity(1),
        T=Identity(1),
        x1=np.array([1.0]),
    )


def skew_problem(Q=WholeSpace(2)):
    # monotone but not symmetric, with the solution 0 in every Q used here
    skew = AffineVIBifunction(np.array([[0.0, 10.0], [-10.0, 0.0]]), np.zeros(2), "monotone", 5.0, 5.0)
    return ProblemSpec(
        C=WholeSpace(2),
        Q=Q,
        A=sp.DenseOperator(np.eye(2)),
        f=skew,
        g=skew,
        S=Identity(2),
        T=Identity(2),
        x1=np.array([1.0, 2.0]),
    )


def expanding_resolvent_problem():
    # g is declared monotone but M = -2I is not: on a halfspace Q its
    # resolvent step expands until it overflows
    expanding = AffineVIBifunction(-2.0 * np.eye(2), np.zeros(2), "monotone", 1.0, 1.0)
    return dataclasses.replace(skew_problem(Q=Halfspace([1.0, 0.0], 100.0)), g=expanding)


class NaNFromFourthCall(NonexpansiveMap):
    """A user map, defined by ``apply`` alone, that returns NaN from its fourth call on."""

    def __init__(self, base):
        self.base = base
        self.dim = base.dim
        self.calls = 0

    def apply(self, x):
        self.calls += 1
        return self.base.apply(x) if self.calls < 4 else np.full(self.dim, np.nan)


class BeyondTheBoundFromFourthCall(NaNFromFourthCall):
    """A user map that returns a finite vector beyond ``MAX_MAGNITUDE`` from its fourth call on."""

    def apply(self, x):
        self.calls += 1
        return self.base.apply(x) if self.calls < 4 else np.full(self.dim, 1e152)


class OverflowingOnThirdCall(NaNFromFourthCall):
    """A user map whose third value is finite and admitted, but near 1e200, so that its square overflows."""

    def apply(self, x):
        self.calls += 1
        return np.full(self.dim, 1e200) if self.calls == 3 else self.base.apply(x)


class NaNOnCall(ConvexSet):
    """A user set whose ``_project`` is NaN on its ``call``-th call and ``base``'s otherwise; membership calls no ``_project``."""

    def __init__(self, base, call):
        self.base, self.dim, self.call = base, base.dim, call
        self.calls = 0

    def _project(self, x):
        self.calls += 1
        return np.full(self.dim, np.nan) if self.calls == self.call else self.base._project(x)

    def membership_violation(self, x):
        return self.base.membership_violation(x)


def simple_config(problem, **overrides):
    defaults = dict(
        lambda_schedule=constant_schedule(0.4),
        mu=0.9 / sp.operator_norm_sq_upper(problem.A),
    )
    defaults.update(overrides)
    return SolverConfig(**defaults)


class TestValidate:
    def test_admissible_config_has_no_violations(self):
        problem = degenerate_problem()
        assert validate(simple_config(problem), problem) == []

    def test_lambda_out_of_range(self):
        problem = degenerate_problem()
        config = simple_config(problem, lambda_schedule=constant_schedule(1.5))
        names = [v.name for v in validate(config, problem)]
        assert names == ["LambdaOutOfRange"]

    def test_lambda_at_the_bound_is_rejected(self):
        # the admissible range (0, min(1/(2 c1), 1/(2 c2))) is open
        problem = degenerate_problem()
        bound = min(1.0 / (2.0 * problem.f.c1), 1.0 / (2.0 * problem.f.c2))
        config = simple_config(problem, lambda_schedule=constant_schedule(bound))
        assert [v.name for v in validate(config, problem)] == ["LambdaOutOfRange"]
        just_inside = simple_config(problem, lambda_schedule=constant_schedule(np.nextafter(bound, 0.0)))
        assert validate(just_inside, problem) == []

    @pytest.mark.parametrize(
        "field, schedule, name, first",
        [
            ("lambda_schedule", lambda k: 0.4 if k < 7 else -1.0, "LambdaOutOfRange", "lambda_schedule(7) = -1.0"),
            ("alpha_k_schedule", lambda k: 1.0 if k < 12 else 0.0, "AlphaKNotPositive", "alpha_k_schedule(12) = 0.0"),
        ],
        ids=["lambda", "alpha_k"],
    )
    def test_message_names_first_offending_index(self, field, schedule, name, first):
        problem = degenerate_problem()
        (violation,) = validate(simple_config(problem, **{field: schedule}), problem)
        assert violation.name == name
        assert f"{first} must be" in violation.message

    def test_mu_too_large(self):
        problem = degenerate_problem()
        U = sp.operator_norm_sq_upper(problem.A)
        config = simple_config(problem, mu=2.0 / U)
        names = [v.name for v in validate(config, problem)]
        assert names == ["MuTooLarge"]

    def test_unsafe_flag_skips_only_mu_bound(self):
        problem = degenerate_problem()
        U = sp.operator_norm_sq_upper(problem.A)
        config = simple_config(problem, mu=2.0 / U, validate_mu=False)
        assert validate(config, problem) == []

    def test_all_violations_reported_at_once(self):
        problem = degenerate_problem()
        config = simple_config(
            problem,
            lambda_schedule=constant_schedule(1.5),
            mu=-1.0,
            alpha=1.0,
            alpha_k_schedule=constant_schedule(0.0),
        )
        names = {v.name for v in validate(config, problem)}
        assert names == {"LambdaOutOfRange", "MuNotPositive", "AlphaOutOfRange", "AlphaKNotPositive"}

    def test_schedule_leaving_admissible_range(self):
        problem = degenerate_problem()
        config = simple_config(problem, lambda_schedule=lambda k: 0.4 + 0.1 * k)
        names = [v.name for v in validate(config, problem)]
        assert names == ["LambdaOutOfRange"]

    def test_solves_reject_invalid_configs(self):
        problem = degenerate_problem()
        config = simple_config(problem, mu=-1.0)
        with pytest.raises(ConfigError, match="MuNotPositive"):
            weak_solve(problem, config)

    @pytest.mark.parametrize("entry", [1e160, 1e200])
    def test_overflowing_operator_fails_as_mu_not_positive(self, entry):
        # its norm bound is inf, so the default mu is 0; no overflow warning on the way
        problem = dataclasses.replace(sp.generate_planted(2, 2, seed=1), A=sp.DenseOperator(np.full((2, 2), entry)))
        config = default_config(problem)
        assert config.mu == 0.0
        with pytest.raises(ConfigError, match="MuNotPositive"):
            weak_solve(problem, config)

    def test_config_field_validation(self):
        with pytest.raises(ValueError, match="mode"):
            SolverConfig(constant_schedule(0.4), 0.5, mode="fast")
        for tol in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="tol"):
                SolverConfig(constant_schedule(0.4), 0.5, tol=tol)

    @pytest.mark.parametrize("field", ["max_iter", "history_stride"])
    @pytest.mark.parametrize("value", [1e3, 2.5, True, "10"])
    def test_counts_must_be_positive_integers(self, field, value):
        problem = degenerate_problem()
        with pytest.raises(ValueError, match=f"{field} must be an integer >= 1"):
            default_config(problem, **{field: value})

    @pytest.mark.parametrize(
        "overrides, name",
        [
            (dict(mu=math.nan), "MuNotPositive"),
            (dict(mu=math.inf, validate_mu=False), "MuNotPositive"),
            # schedules that turn non-finite only after k = 0: the probe walks on
            (dict(alpha_k_schedule=lambda k: 1.0 if k < 10 else math.nan), "AlphaKNotPositive"),
            (dict(alpha_k_schedule=lambda k: 1.0 if k < 10 else -math.inf), "AlphaKNotPositive"),
            (dict(alpha_k_schedule=constant_schedule(math.nan)), "AlphaKNotPositive"),
            (dict(alpha_k_schedule=constant_schedule(math.inf)), "AlphaKNotPositive"),
            (dict(lambda_schedule=constant_schedule(math.nan)), "LambdaOutOfRange"),
        ],
    )
    def test_non_finite_values_are_named_violations(self, overrides, name):
        problem = degenerate_problem()
        config = simple_config(problem, **overrides)
        assert [v.name for v in validate(config, problem)] == [name]
        with pytest.raises(ConfigError, match=name):
            weak_solve(problem, config)

    def test_mu_bound_is_certified_for_close_singular_values(self):
        # singular values 1 and 0.99, the second right singular vector along
        # the all-ones start vector with a graded tilt: a power iteration
        # started there stays on the second singular value and underestimates
        # ||A||^2 by about 2%, more than the 1% safety factor
        n = 2
        start = 1.0 + 1e-6 * np.arange(n)
        second = start / np.linalg.norm(start)
        first = np.array([-second[1], second[0]])
        entries = np.diag([1.0, 0.99]) @ np.vstack([first, second])
        problem = dataclasses.replace(
            sp.generate_planted(n, n, seed=1), A=sp.DenseOperator(entries)
        )
        norm_sq = np.linalg.norm(entries, 2) ** 2
        assert sp.operator_norm_sq_upper(problem.A) >= norm_sq
        config = default_config(problem, mu=1.0 / norm_sq)
        assert [v.name for v in validate(config, problem)] == ["MuTooLarge"]

    def test_default_config_and_solve_decompose_the_gram_matrix_once(self, monkeypatch):
        problem = sp.generate_planted(4, 3, seed=2)
        eigvalsh = np.linalg.eigvalsh
        shapes = []

        def counting_eigvalsh(matrix, *args, **kwargs):
            shapes.append(np.shape(matrix))
            return eigvalsh(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        report = weak_solve(problem, default_config(problem))
        assert report.status is SolveStatus.CONVERGED
        assert shapes == [(3, 3)]

    def test_mode_mismatch_rejected(self):
        problem = degenerate_problem()
        with pytest.raises(ValueError, match="weak"):
            weak_solve(problem, simple_config(problem, mode="strong"))
        with pytest.raises(ValueError, match="strong"):
            strong_solve(problem, simple_config(problem))


class TestWeakIteration:
    def test_degenerate_problem_is_a_fixed_point(self):
        problem = degenerate_problem()
        record = weak_step(problem, simple_config(problem), problem.x1, 0)
        assert record.residual == 0.0
        assert np.array_equal(record.next_x, problem.x1)

    def test_degenerate_problem_converges_immediately(self):
        problem = degenerate_problem()
        report = weak_solve(problem, simple_config(problem))
        assert report.status is SolveStatus.CONVERGED
        assert report.iterations <= 2
        assert len(report.history) == report.iterations + 1

    def test_planted_solution_is_a_fixed_point(self):
        problem = sp.generate_planted(2, 2, seed=21)
        config = default_config(problem)
        record = weak_step(problem, config, problem.planted_solution, 0)
        assert record.residual <= 1e-7

    def test_single_step_does_not_move_away_from_solution(self):
        problem = sp.generate_planted(2, 3, seed=22)
        config = default_config(problem)
        rng = np.random.default_rng(0)
        x_star = problem.planted_solution
        for _ in range(25):
            x = problem.C.project(x_star + 3.0 * rng.standard_normal(2))
            record = weak_step(problem, config, x, 0)
            assert np.linalg.norm(record.next_x - x_star) <= np.linalg.norm(x - x_star) + 1e-8

    def test_distance_chain_inequality_per_iteration(self):
        # ||z-x*||^2 <= ||x-x*||^2 - (1-2 lam c1)||x-y||^2 - (1-2 lam c2)||y-z||^2
        problem = sp.generate_planted(3, 3, seed=23)
        report = weak_solve(problem)
        x_star = problem.planted_solution
        c1, c2 = problem.f.c1, problem.f.c2
        for record in report.history:
            lam = record.lambda_k
            lhs = np.linalg.norm(record.z - x_star) ** 2
            rhs = (
                np.linalg.norm(record.x - x_star) ** 2
                - (1.0 - 2.0 * lam * c1) * np.linalg.norm(record.x - record.y) ** 2
                - (1.0 - 2.0 * lam * c2) * np.linalg.norm(record.y - record.z) ** 2
            )
            assert lhs <= rhs + 1e-8

    def test_iterates_stay_feasible(self):
        problem = sp.generate_planted(3, 2, seed=24)
        report = weak_solve(problem)
        for record in report.history[:: max(1, len(report.history) // 20)]:
            for point in (record.x, record.y, record.z, record.t):
                assert problem.C.membership_violation(point) <= 1e-9
            assert problem.Q.membership_violation(record.u) <= 1e-9

    def test_max_iter_reached_is_a_status(self):
        problem = sp.generate_planted(3, 3, seed=25)
        report = weak_solve(problem, default_config(problem, max_iter=3))
        assert report.status is SolveStatus.MAX_ITER_REACHED
        assert report.iterations == 3
        assert len(report.history) == 4

    def test_ball_resolvent_loop_converges(self):
        # a ball has no exact resolvent, so the forward-backward-forward loop runs
        planted = sp.generate_planted(3, 3, seed=26)
        problem = dataclasses.replace(planted, Q=Ball(planted.A.apply(planted.planted_solution), 5.0))
        report = weak_solve(problem, default_config(problem))
        assert report.status is SolveStatus.CONVERGED
        assert report.iterations == 52

    def test_divergence_guard(self):
        problem = expansive_problem()
        report = weak_solve(problem, simple_config(problem, max_iter=500))
        assert report.status is SolveStatus.INNER_FAILURE
        assert "diverged" in report.message

    def test_history_thinning_keeps_last_record(self):
        problem = sp.generate_planted(3, 3, seed=27)
        full = weak_solve(problem)
        thinned = weak_solve(problem, default_config(problem, history_stride=25))
        assert len(thinned.history) < len(full.history)
        assert thinned.history[-1].k == full.history[-1].k

    def test_converged_report_contract(self):
        problem = sp.generate_planted(4, 4, seed=28)
        config = default_config(problem)
        report = weak_solve(problem, config)
        assert report.status is SolveStatus.CONVERGED
        assert report.final_residual <= config.tol
        assert np.array_equal(report.final_x, report.history[-1].next_x)


class TestStrongIteration:
    def test_degenerate_problem_cuts_are_whole_space(self):
        problem = degenerate_problem()
        config = simple_config(problem, mode="strong")
        state = StrongState(problem)
        record = strong_step(problem, config, state, problem.x1, 0)
        assert state.cuts() == []
        assert np.array_equal(record.next_x, problem.x1)
        assert record.residual == 0.0

    def test_degenerate_problem_converges_immediately(self):
        problem = degenerate_problem()
        report = strong_solve(problem, simple_config(problem, mode="strong"))
        assert report.status is SolveStatus.CONVERGED
        assert report.iterations <= 2

    def test_stored_rows_are_never_zero(self):
        # project_polyhedron rejects a zero row, so none may be stored:
        # whole-space cuts, and with them zero rows, are dropped
        problem = sp.generate_planted(5, 5, seed=4)
        config = default_config(problem, mode="strong", max_iter=40)
        state = StrongState(problem)
        x = problem.x1
        record = state.active_set
        for k in range(40):
            count = record.count
            state.add_cut(x, x.copy())
            assert record.count == count
            x = strong_step(problem, config, state, x, k).next_x
        G = record.G
        assert len(G) > 2 * 20 and record.checked == len(G)
        assert np.all(np.any(G != 0.0, axis=1)) and np.all(record.norms > 0.0)

    def test_planted_run_invariants(self):
        problem = sp.generate_planted(2, 3, seed=31)
        report = strong_solve(problem)
        assert report.status is SolveStatus.CONVERGED
        x_star = problem.planted_solution
        assert np.linalg.norm(report.final_x - x_star) <= 1e-4
        # every accumulated cut contains the solution
        worst = max(cut.membership_violation(x_star) for cut in report.cuts)
        assert worst <= 1e-8
        # distance from the anchor is nondecreasing
        anchor_distances = [np.linalg.norm(r.x - problem.x1) for r in report.history]
        assert min(np.diff(anchor_distances)) >= -1e-10

    def test_iterate_gaps_controlled_by_anchor_distances(self):
        # ||x_m - x_n||^2 <= ||x_m - x1||^2 - ||x_n - x1||^2 for m > n
        problem = sp.generate_planted(2, 2, seed=32)
        report = strong_solve(problem)
        rng = np.random.default_rng(1)
        xs = [r.x for r in report.history]
        d1 = [np.linalg.norm(x - problem.x1) for x in xs]
        for _ in range(200):
            n_idx, m_idx = sorted(rng.integers(0, len(xs), size=2))
            if n_idx == m_idx:
                continue
            lhs = np.linalg.norm(xs[m_idx] - xs[n_idx]) ** 2
            assert lhs <= d1[m_idx] ** 2 - d1[n_idx] ** 2 + 1e-6

    def test_cuts_follow_history_in_order(self):
        problem = sp.generate_planted(2, 3, seed=31)
        report = strong_solve(problem)
        assert len(report.cuts) == 2 * len(report.history)
        for record in report.history:
            expected = (sp.halfspace_dominates(record.s, record.t), sp.halfspace_dominates(record.t, record.x))
            for cut, want in zip(report.cuts[2 * record.k : 2 * record.k + 2], expected):
                assert np.array_equal(cut.normal, want.normal)
                assert cut.offset == want.offset

    def test_strong_records_carry_corrected_point(self):
        problem = sp.generate_planted(2, 2, seed=33)
        report = strong_solve(problem)
        assert all(record.s is not None for record in report.history)

    def test_ball_constraint_projects_onto_cut_rows_then_C(self):
        # a constraint set without inequality rows is reached through its
        # supporting halfspaces, added as rows; a handful of iterations checks
        # every projection
        problem = sp.generate_planted(2, 2, seed=34)
        ball_C = sp.Ball(np.zeros(2), 8.0)
        moved = ProblemSpec(
            C=ball_C, Q=problem.Q, A=problem.A, f=problem.f, g=problem.g,
            S=problem.S, T=problem.T, x1=problem.x1,
            planted_solution=problem.planted_solution,
        )
        report = strong_solve(moved, default_config(moved, mode="strong", max_iter=8))
        assert report.status is SolveStatus.MAX_ITER_REACHED
        assert len(report.history) == 9
        x_star = problem.planted_solution
        distances = [np.linalg.norm(r.x - x_star) for r in report.history]
        assert distances[-1] <= distances[0]
        for record in report.history:
            assert ball_C.membership_violation(record.x) <= 1e-8
        # Dykstra's sweep over every cut and C at a tight tolerance is the reference
        assert len(report.cuts) == 2 * len(report.history)
        for record in report.history:
            cuts_so_far = report.cuts[: 2 * record.k + 2]
            reference = sp.project_intersection([*cuts_so_far, ball_C], moved.x1, tol=1e-12)
            assert np.linalg.norm(record.next_x - reference) <= 1e-10

    def test_pivots_run_out_is_an_inner_failure(self, monkeypatch):
        problem = sp.generate_planted(2, 3, seed=31)
        config = default_config(problem, mode="strong", max_iter=8)

        def out_of_pivots(*args, **kwargs):
            raise PivotBudgetError(1.0, 0)

        monkeypatch.setattr("splitep.solver.project_polyhedron", out_of_pivots)
        report = strong_solve(problem, config)
        assert report.status is SolveStatus.INNER_FAILURE
        assert report.iterations == 0
        assert "active-set projection used up its budget of 0 pivots" in report.message

    @pytest.mark.parametrize(
        "n, m, seed, ball",
        [(5, 5, 4, False), (20, 10, 7, False), (2, 2, 34, True)],
        ids=["rows-5x5", "rows-20x10", "ball"],
    )
    def test_every_projection_matches_a_cold_one(self, monkeypatch, n, m, seed, ball):
        # each call resumes from where the last one stopped; a cold call on
        # the same rows is the reference. Every call projects one point, the
        # anchor, also for a ball, which the iterates reach, so that some steps
        # add supporting rows and project again.
        problem = tangential_ball_problem(1.02) if ball else sp.generate_planted(n, m, seed=seed)
        original = sp.solver.project_polyhedron
        points, gaps = set(), []

        def checked(x0, G, h, *args, **kwargs):
            point, active = original(x0, G, h, *args, **kwargs)
            points.add(x0.tobytes())
            gaps.append(float(np.linalg.norm(point - original(x0, G, h)[0])))
            return point, active

        monkeypatch.setattr("splitep.solver.project_polyhedron", checked)
        report = strong_solve(problem, default_config(problem, mode="strong", max_iter=300))
        assert report.status is (SolveStatus.CONVERGED if ball else SolveStatus.MAX_ITER_REACHED)
        assert len(gaps) >= report.iterations
        assert max(gaps) <= 1e-10
        assert len(points) == 1


@pytest.mark.parametrize(
    "build, status",
    [
        (lambda: sp.generate_planted(5, 2, seed=3), SolveStatus.MAX_ITER_REACHED),
        (lambda: sp.generate_planted(20, 10, seed=7), SolveStatus.MAX_ITER_REACHED),
        (lambda: sp.generate_planted(20, 20, seed=8), SolveStatus.MAX_ITER_REACHED),
        (lambda: tangential_ball_problem(1.0), SolveStatus.CONVERGED),
        (lambda: tangential_ball_problem(1.02), SolveStatus.CONVERGED),
    ],
    ids=["3-5-2", "7-20-10", "8-20-20", "ball-1.0", "ball-1.02"],
)
def test_projections_of_a_strong_run_match_the_reference_bit_for_bit(monkeypatch, build, status):
    # every call of the run is replayed through the version kept in oracles.py,
    # which carries its own record from call to call. On the balls some steps
    # add supporting rows and project again within the step.
    problem = build()
    original = sp.solver.project_polyhedron
    reference_start = ActiveSet(problem.x1)
    checked, rows = [], []

    def compared(x0, G, h, start=None):
        checked.append(start.checked)
        rows.append(len(h))
        point, active = original(x0, G, h, start=start)
        want, want_active = reference_project_polyhedron(x0, G, h, start=reference_start)
        assert point.tobytes() == want.tobytes()
        assert active == want_active
        assert same_record(start, reference_start)
        return point, active

    monkeypatch.setattr("splitep.solver.project_polyhedron", compared)
    report = strong_solve(problem, default_config(problem, mode="strong", max_iter=300))
    assert report.status is status
    assert len(rows) >= report.iterations + 1
    assert (len(rows) == report.iterations + 1) is (status is SolveStatus.MAX_ITER_REACHED)
    # every call after the first resumes from the rows the call before it checked
    assert checked == [0] + rows[:-1] and all(rows)


def test_cut_rows_of_a_strong_run_match_the_reference_bit_for_bit(monkeypatch):
    # the replay above hands both projections the same rows, so it cannot see
    # a change in how the rows themselves are computed
    problem = sp.generate_planted(20, 10, seed=7)
    original = StrongState.add_cut
    stored = []

    def compared(state, a, b):
        record = state.active_set
        before = record.count
        original(state, a, b)
        assert record.count == before + 1 and state.cut_rows[-1] == before  # no cut of this run is the whole space
        normal, offset = reference_cut_row(a, b)
        assert record.G[before].tobytes() == normal.tobytes()
        assert record.h[before].tobytes() == np.float64(offset).tobytes()
        stored.append(normal)

    monkeypatch.setattr(StrongState, "add_cut", compared)
    report = strong_solve(problem, default_config(problem, mode="strong", max_iter=300))
    assert report.status is SolveStatus.MAX_ITER_REACHED
    assert len(stored) == len(report.cuts) == 2 * (report.iterations + 1)  # records 0 to max_iter
    # each reported cut measures its normal as np.linalg.norm does the reference's
    assert all(cut.size == np.linalg.norm(normal) for cut, normal in zip(report.cuts, stored))


def test_reported_cuts_hold_what_the_halfspace_constructor_takes_from_their_rows():
    # the report divides all cut rows by their norms at once; each cut must
    # hold the norm, unit normal and level the constructor takes row by row
    problem = sp.generate_planted(10, 10, seed=5)
    report = strong_solve(problem, default_config(problem, mode="strong", max_iter=300))
    assert len(report.cuts) == 2 * (report.iterations + 1)
    for cut in report.cuts:
        built = Halfspace(cut.normal, cut.offset)
        assert cut == built and not cut.is_whole_space and cut.dim == built.dim
        assert type(cut.offset) is type(cut.size) is type(cut._level) is float
        assert np.float64([cut.size, cut._level]).tobytes() == np.float64([built.size, built._level]).tobytes()
        assert cut._unit.tobytes() == built._unit.tobytes()


def test_solve_loop_calls_the_projections_by_the_names_the_benchmark_traces(monkeypatch):
    # bench/spans.py times the shrinking-set projection by replacing
    # project_polyhedron in splitep.solver, and reads the rows' offsets h as
    # its third positional argument; a loop that went around the name would
    # leave that layer reading 0. spans.installed also looks up prox_step,
    # resolvent, halfspace_dominates and project_intersection there and would
    # raise without them, so solver.py keeps importing those four although the
    # loop calls none of them: the step projects the anchor through
    # StrongState.project_anchor, and Dykstra's scheme runs only inside the
    # projection of a C that is an Intersection.
    for name in ("prox_step", "resolvent", "halfspace_dominates", "project_intersection"):
        assert hasattr(sp.solver, name)
    planted = sp.generate_planted(5, 5, seed=4)
    C = sp.Intersection([Box(-5.0 * np.ones(5), 5.0 * np.ones(5)), Ball(np.zeros(5), 8.0)])
    calls = {"project_polyhedron": [], "project_intersection": []}

    def counted(name):
        original = getattr(sp.solver, name)

        def wrapper(*args, **kwargs):
            calls[name].append(args)
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(sp.solver, name, counted(name))
    assert not isinstance(StrongState(planted), sp.ConvexSet)
    report = strong_solve(planted, default_config(planted, mode="strong", max_iter=40))
    assert report.status is SolveStatus.MAX_ITER_REACHED
    assert calls["project_intersection"] == []
    assert len(calls["project_polyhedron"]) == report.iterations + 1
    final_h = calls["project_polyhedron"][-1][2]
    assert np.array_equal(final_h, [cut.offset for cut in report.cuts])
    # Dykstra's scheme runs, but only inside C's own projection
    dykstra = []
    project_intersection = sp.sets.project_intersection
    monkeypatch.setattr(sp.sets, "project_intersection", lambda *args: dykstra.append(1) or project_intersection(*args))
    problem = dataclasses.replace(planted, C=C, x1=C.project(planted.x1))
    report = strong_solve(problem, default_config(problem, mode="strong", max_iter=40))
    assert report.status is SolveStatus.MAX_ITER_REACHED
    assert calls["project_intersection"] == [] and dykstra


@pytest.mark.parametrize("seed", [34, 1])
@pytest.mark.parametrize(
    "make_C",
    [
        lambda x_star: Ball(np.zeros(2), 8.0),
        lambda x_star: sp.Intersection([Box(-5.0 * np.ones(2), 5.0 * np.ones(2)), Ball(np.zeros(2), 8.0)]),
        lambda x_star: sp.Intersection([Box(-5.0 * np.ones(2), 5.0 * np.ones(2)), Halfspace([1.0, 1.0], x_star.sum())]),
    ],
    ids=["ball", "box-and-ball", "box-and-halfspace"],
)
def test_strong_solve_converges_without_rows_for_C(seed, make_C):
    # the shrinking-set projection reaches C only through C's projection and
    # adds C's supporting halfspaces to the cut rows as needed; a per-cut
    # Dykstra sweep once failed here after some 60 iterations. The halfspace
    # passes through x*, so the solution lies on C's boundary.
    planted = sp.generate_planted(2, 2, seed=seed)
    C = make_C(planted.planted_solution)
    problem = dataclasses.replace(planted, C=C, x1=C.project(planted.x1))
    report = strong_solve(problem, default_config(problem, mode="strong", max_iter=200))
    assert report.status is SolveStatus.CONVERGED
    assert np.linalg.norm(report.final_x - planted.planted_solution) <= 1e-5


# Instances of the box fixed-point family, whose solution set is a polyhedron.
BOX_FIXED_POINT_CASES = [(n, m, seed) for n, m in ((2, 1), (3, 2), (4, 3), (5, 3)) for seed in range(3)]
# At tol 1e-5, 1e-6 and 1e-7 every strong solve of the family ended within
# 5.7 tol of P_Omega(x1); below tol 1e-8 a floor near 1e-5 takes over. With
# half the coordinates pinned by f, the worst at tol 1e-6 is 5.0e-6.
FAMILY_TOL, FAMILY_DISTANCE = 1e-6, 1e-5


@pytest.mark.parametrize("pinned", [False, True], ids=["zero-f", "pinned-f"])
@pytest.mark.parametrize("n, m, seed", BOX_FIXED_POINT_CASES)
def test_strong_solve_converges_to_the_solution_nearest_the_start_point(n, m, seed, pinned):
    # the strong theorem: the iterates converge to P_Omega(x1), not merely to
    # some solution, also where f's equilibria are a face of C (singular M)
    problem, nearest = box_fixed_point_problem(n, m, seed, pinned)
    report = strong_solve(problem, default_config(problem, mode="strong", tol=FAMILY_TOL))
    assert report.status is SolveStatus.CONVERGED
    assert np.linalg.norm(report.final_x - nearest) <= FAMILY_DISTANCE


def test_weak_solve_of_the_family_mostly_ends_at_another_solution():
    # the family tells the theorems apart: the weak theorem promises some
    # solution, and on 11 of the 12 instances it is not the nearest one
    far = 0
    for n, m, seed in BOX_FIXED_POINT_CASES:
        problem, nearest = box_fixed_point_problem(n, m, seed)
        report = weak_solve(problem, default_config(problem, tol=FAMILY_TOL))
        assert report.status is SolveStatus.CONVERGED
        far += np.linalg.norm(report.final_x - nearest) > FAMILY_DISTANCE
    assert far >= 10


def test_box_faces_through_the_solution_give_the_projection_onto_its_rows(monkeypatch):
    # every other upper face of C passes through x*, so some projections onto
    # the cuts land outside C and the step adds C's supporting rows; each
    # next_x must still be the projection onto the box's rows and the cuts
    planted = sp.generate_planted(5, 5, seed=4)
    C = Box(-5.0 * np.ones(5), np.where(np.arange(5) % 2 == 0, planted.planted_solution, 5.0))
    problem = dataclasses.replace(planted, C=C, x1=C.project(planted.x1))
    G_of_C, h_of_C = inequality_rows(C)
    project_polyhedron, project_anchor = sp.solver.project_polyhedron, StrongState.project_anchor
    rounds, errors = [], []

    def counted(*args, **kwargs):
        rounds[-1] += 1
        return project_polyhedron(*args, **kwargs)

    def compared(state):
        rounds.append(0)
        point = project_anchor(state)
        G = np.vstack([G_of_C, state.active_set.G[state.cut_rows]])
        h = np.concatenate([h_of_C, state.active_set.h[state.cut_rows]])
        errors.append(np.abs(point - reference_project_polyhedron(state.anchor, G, h)[0]).max())
        return point

    monkeypatch.setattr(sp.solver, "project_polyhedron", counted)
    monkeypatch.setattr(StrongState, "project_anchor", compared)
    report = strong_solve(problem, default_config(problem, mode="strong", max_iter=300))
    assert report.status is SolveStatus.MAX_ITER_REACHED
    assert len(rounds) == report.iterations + 1 and max(rounds) > 1
    assert max(errors) <= 1e-10


def test_strong_solve_converges_where_the_cuts_meet_a_ball_tangentially():
    # x* lies on the ball's boundary and the cut rows close in on it nearly
    # tangentially to the ball; alternating projections between the rows and
    # the ball ran out of sweeps here at iteration 29
    problem = tangential_ball_problem()
    report = strong_solve(problem, default_config(problem, mode="strong", max_iter=500))
    assert report.status is SolveStatus.CONVERGED
    x_star = problem.planted_solution
    assert np.linalg.norm(report.final_x - x_star) <= 1e-5
    assert max(cut.membership_violation(x_star) for cut in report.cuts) <= 1e-8
    normals, offsets = [], []
    for record in report.history:
        for cut in (sp.halfspace_dominates(record.s, record.t), sp.halfspace_dominates(record.t, record.x)):
            if not cut.is_whole_space:
                normals.append(cut.normal)
                offsets.append(cut.offset)
        want = reference_project_rows_and_ball(problem.x1, np.array(normals), np.array(offsets), problem.C)
        assert np.linalg.norm(record.next_x - want) <= 1e-9


def supporting_rows_of_a_run(monkeypatch, problem, max_iter=500):
    """The run's report, and the rows its shrinking-set projection added as supporting halfspaces of ``C``."""
    states = []
    monkeypatch.setattr(sp.solver, "StrongState", lambda problem: states.append(StrongState(problem)) or states[-1])
    report = strong_solve(problem, default_config(problem, mode="strong", max_iter=max_iter))
    (state,) = states
    G, h = state.active_set.G, state.active_set.h
    support = np.setdiff1d(np.arange(len(h)), state.cut_rows)
    return report, G[support], h[support], np.linalg.norm(G[support], axis=1)


def test_supporting_rows_do_not_cut_into_a_tangential_ball(monkeypatch):
    # a normal r - P_C(r) from a gap of 1e-12 is mostly rounding; rows built
    # from such normals once cut 2.9e-10 into the ball
    problem = tangential_ball_problem(1.0)
    report, G, h, norms = supporting_rows_of_a_run(monkeypatch, problem)
    assert report.status is SolveStatus.CONVERGED and len(h) > 0
    ball = problem.C
    # how far the ball reaches past each row's boundary
    assert ((G @ ball.center + ball.radius * norms - h) / norms).max() <= 1e-14


def test_the_solution_satisfies_every_row_with_the_ball_moved_to_one_side(monkeypatch):
    # with the ball twice as far to the side, x* once violated a supporting
    # row by 1.7e-11 and fell outside the shrinking set
    problem = tangential_ball_problem(1.0, shift=4.0)
    report, G, h, norms = supporting_rows_of_a_run(monkeypatch, problem)
    assert report.status is SolveStatus.CONVERGED and len(h) > 0
    assert (G @ problem.planted_solution - h).max() <= 0.0
    assert max(cut.membership_violation(problem.planted_solution) for cut in report.cuts) <= 0.0


@pytest.mark.parametrize("seed", [0, 2, 3, 10, 12])
def test_a_gap_of_rounding_on_a_far_ball_returns_the_point(seed):
    # x1 = 0 lies in a ball 1e6 away, and one row touches the ball's far side
    # at t. The projection r of x1 onto the row is t to rounding, whose ulps
    # of 1.2e-10 exceed the tolerance 1e-12 (1 + ||x1||); the row pushed out
    # from such a gap missed r, and the loop once used up all its rounds
    # (with the row at P_C(r) kept instead, seed 3 found the rows empty)
    rng = np.random.default_rng(seed)
    center = rng.standard_normal(2)
    center *= 1e6 / np.linalg.norm(center)
    direction = rng.standard_normal(2)
    direction /= np.linalg.norm(direction)
    assert direction @ center > 0.0
    ball = Ball(center, 1e6 + 1.0)
    t = center + ball.radius * direction
    problem = dataclasses.replace(sp.generate_planted(2, 2, seed=1), C=ball, x1=np.zeros(2))
    state = StrongState(problem)
    a = -t / np.linalg.norm(t)
    state.cut_rows.append(0)
    state.active_set.append(a, float(a @ t))
    r = state.project_anchor()
    assert state.active_set.count == 1
    assert np.linalg.norm(r - t) <= 4 * np.spacing(1e6)
    assert ball.membership_violation(r) <= 4 * np.spacing(1e6)


def test_supporting_rows_running_out_is_an_inner_failure(monkeypatch):
    # on this instance some steps need more than one projection onto the rows
    monkeypatch.setattr("splitep.solver.SUPPORT_ROUNDS", 1)
    problem = tangential_ball_problem()
    report = strong_solve(problem, default_config(problem, mode="strong", max_iter=500))
    assert report.status is SolveStatus.INNER_FAILURE
    assert "supporting-halfspace loop of the shrinking-set projection used up its 1 rounds" in report.message


# At tol 1e-10 the projection's stop tolerance 1e-12 (1 + ||x1||) halts this
# run's iterate near k = 3,911 with the residual at 5.7e-10: from there every
# step repeated the last, its two cuts stored again, until max_iter.
STALL_CASE, STALL_TOL, STALL_STEP = (5, 3, 1), 1e-10, 3_911


def stalled_run(monkeypatch, **overrides):
    """The stalling run's report, its state and the stored-row count after each step."""
    states, counts = [], []

    class Watched(StrongState):
        def project_anchor(self):
            point = super().project_anchor()
            counts.append(self.active_set.count)
            return point

    monkeypatch.setattr(sp.solver, "StrongState", lambda problem: states.append(Watched(problem)) or states[-1])
    problem, _ = box_fixed_point_problem(*STALL_CASE)
    config = default_config(problem, mode="strong", tol=STALL_TOL, **{"max_iter": 50_000, **overrides})
    report = strong_solve(problem, config)
    (state,) = states
    return report, state, counts


def test_a_strong_run_that_can_only_repeat_its_step_ends_as_an_inner_failure(monkeypatch):
    report, state, counts = stalled_run(monkeypatch)
    assert report.status is SolveStatus.INNER_FAILURE
    assert abs(report.iterations - STALL_STEP) <= 5
    assert "1e-12 (1 + ||x1||)" in report.message
    assert report.final_residual > STALL_TOL
    # no row enters after the first zero step, and none twice
    assert len(counts) <= STALL_STEP + 5 and counts[-1] == counts[STALL_STEP]
    record = state.active_set
    rows = np.column_stack([record.G, record.h])
    assert len(np.unique(rows, axis=0)) == record.count
    assert len(report.cuts) == len(state.cut_rows) == len(set(state.cut_rows))


def test_a_varying_schedule_is_not_ended_at_a_zero_step(monkeypatch):
    # f and g vanish, so neither schedule changes a bit of the run: the same
    # zero steps come, but alpha_k differs from step to step, so the run goes
    # on to max_iter, its rows stored once
    report, state, counts = stalled_run(monkeypatch, max_iter=STALL_STEP + 100, alpha_k_schedule=lambda k: 1.0 + k % 2)
    assert report.status is SolveStatus.MAX_ITER_REACHED
    assert counts[-1] == counts[STALL_STEP]
    assert len(np.unique(np.column_stack([state.active_set.G, state.active_set.h]), axis=0)) == state.active_set.count


def test_a_repeated_cut_is_stored_once():
    problem, _ = box_fixed_point_problem(*STALL_CASE)
    state = StrongState(problem)
    a, b = problem.x1, np.zeros(problem.n)
    state.add_cut(a, b)
    state.add_cut(a, b)
    assert state.active_set.count == 1 and state.cut_rows == [0]
    assert len(state.cuts()) == 1


SOLVERS ={"weak": weak_solve, "strong": strong_solve}


@pytest.mark.parametrize("mode", SOLVERS)
def test_callable_f_converges_to_the_planted_solution(mode):
    # f(x, y) = <P x + Q y + q, y - x> with P = Q + I/2 and q = -(P + Q) x*:
    # f(x*, y) = <Q (y - x*), y - x*> >= 0 and f is strongly monotone, so x*
    # stays the only solution, reached through the iterative prox step
    planted = sp.generate_planted(2, 2, seed=1)
    x_star = planted.planted_solution
    B = np.random.default_rng(0).standard_normal((2, 2))
    Q = B @ B.T
    P = Q + 0.5 * np.eye(2)
    problem = dataclasses.replace(planted, f=quadratic_bifunction(P, Q, -(P + Q) @ x_star))
    report = SOLVERS[mode](problem, default_config(problem, mode=mode))
    assert report.status is SolveStatus.CONVERGED
    assert np.linalg.norm(report.final_x - x_star) <= 1e-5


class TestFailureRouting:
    @pytest.mark.parametrize("mode", SOLVERS)
    def test_diverging_resolvent_is_an_inner_failure(self, mode):
        problem = expanding_resolvent_problem()
        # the divergence is reported as a status, without numpy overflow warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = SOLVERS[mode](problem, default_config(problem, mode=mode))
        assert report.status is SolveStatus.INNER_FAILURE
        assert "resolvent" in report.message

    @pytest.mark.parametrize("mode", SOLVERS)
    @pytest.mark.parametrize(
        "member, value",
        [("f", math.inf), ("f", math.nan), ("g", math.inf)],
    )
    def test_non_finite_subgradient_is_an_inner_failure(self, mode, member, value):
        # the inner loops stop at the first non-finite step instead of handing
        # it to a projection, which would reject it with a ValueError
        planted = sp.generate_planted(3, 3, seed=1)
        bifunction = getattr(planted, member)
        broken = CallableBifunction(
            lambda x, y: 0.0,
            lambda x, y: np.full(bifunction.dim, value),
            "monotone",
            bifunction.c1,
            bifunction.c2,
        )
        problem = dataclasses.replace(planted, **{member: broken})
        report = SOLVERS[mode](problem, default_config(problem, mode=mode))
        assert report.status is SolveStatus.INNER_FAILURE
        assert {"f": "prox step", "g": "resolvent"}[member] in report.message

    @pytest.mark.parametrize("mode", SOLVERS)
    @pytest.mark.parametrize(
        "sets, iterations, message",
        [
            (lambda planted: {}, 3, "non-finite residual"),
            (lambda planted: {"Q": sp.WholeSpace(3)}, 3, "non-finite residual"),
            (lambda planted: {"Q": sp.Halfspace([1.0, 0.0, 0.0], 100.0)}, 2, "resolvent"),
            (lambda planted: {"C": sp.Intersection([planted.C, sp.Halfspace([1.0, 0.0, 0.0], 100.0)])}, 3, "non-finite residual"),
        ],
        ids=["box", "whole-space", "halfspace-Q", "intersection-C"],
    )
    def test_non_finite_map_value_is_an_inner_failure(self, mode, sets, iterations, message):
        # the loop checks nothing past its start, so the NaN flows through the
        # step and every set's projection, the public Intersection's and a
        # Halfspace's included, into the resolvent's
        # check or the residual instead of being rejected by a projection
        planted = sp.generate_planted(3, 3, seed=1)
        problem = dataclasses.replace(planted, S=NaNFromFourthCall(planted.S), **sets(planted))
        report = SOLVERS[mode](problem, default_config(problem, mode=mode))
        assert report.status is SolveStatus.INNER_FAILURE
        assert report.iterations == iterations
        assert message in report.message

    @pytest.mark.parametrize(
        "mode, sets, message",
        [
            ("weak", lambda planted: {"C": sp.Intersection([planted.C, Ball(np.zeros(3), 1e6)])}, "components"),
            ("strong", lambda planted: {}, "inequality rows and offsets"),
            ("strong", lambda planted: {"C": sp.Intersection([planted.C, Ball(np.zeros(3), 1e6)])}, "components"),
        ],
        ids=["weak-intersection-C", "strong-box", "strong-intersection-C"],
    )
    def test_map_value_beyond_the_bound_is_an_inner_failure(self, mode, sets, message):
        # the value reaches a checked call inside the step, Dykstra's or the
        # projection onto the cut rows, whose refusal ends the solve
        planted = sp.generate_planted(3, 3, seed=2)
        problem = dataclasses.replace(planted, S=BeyondTheBoundFromFourthCall(planted.S), **sets(planted))
        report = SOLVERS[mode](problem, default_config(problem, mode=mode, max_iter=50))
        assert report.status is SolveStatus.INNER_FAILURE
        assert f"{message} must be finite and at most 1e+150 in magnitude" in report.message

    @pytest.mark.parametrize("mode", SOLVERS)
    def test_overflowing_map_value_is_an_inner_failure_without_a_warning(self, mode):
        # a norm of the huge value once overflowed with numpy's RuntimeWarning,
        # which the error::RuntimeWarning filter turned into an exception
        planted = sp.generate_planted(3, 3, seed=2)
        problem = dataclasses.replace(planted, S=OverflowingOnThirdCall(planted.S))
        report = SOLVERS[mode](problem, default_config(problem, mode=mode))
        assert report.status is SolveStatus.INNER_FAILURE
        assert "non-finite residual" in report.message

    @pytest.mark.parametrize("call", [4, 8, 12])
    def test_non_finite_projection_in_the_supporting_row_loop_is_an_inner_failure(self, call):
        # every fourth projection onto C is the shrinking-set projection's;
        # its NaN gap was once stored as a row, and the next projection onto
        # the rows raised a stray ValueError
        planted = sp.generate_planted(3, 3, seed=1)
        problem = dataclasses.replace(planted, C=NaNOnCall(planted.C, call))
        report = strong_solve(problem, default_config(problem, mode="strong", max_iter=20))
        assert report.status is SolveStatus.INNER_FAILURE
        assert "non-finite supporting row of C" in report.message

    @pytest.mark.parametrize("call", [7, 18, 20])
    def test_non_finite_projection_in_the_push_out_branch_is_an_inner_failure(self, call):
        # these calls are the second projection of a push-out round, where a
        # gap below push re-projects a point pushed away from C; its NaN once
        # read as a row that misses r, and the run ended Converged
        ball = tangential_ball_problem(1.0)
        problem = dataclasses.replace(ball, C=NaNOnCall(ball.C, call))
        report = strong_solve(problem, default_config(problem, mode="strong"))
        assert report.status is SolveStatus.INNER_FAILURE
        assert "non-finite supporting row of C" in report.message

    @pytest.mark.parametrize("mode", SOLVERS)
    @pytest.mark.parametrize(
        "field, late, name",
        [
            ("lambda_schedule", 1.5, "LambdaOutOfRange"),
            ("lambda_schedule", 50.0, "LambdaOutOfRange"),
            ("lambda_schedule", -0.5, "LambdaOutOfRange"),
            ("alpha_k_schedule", math.nan, "AlphaKNotPositive"),
        ],
        ids=["lambda-1.5x", "lambda-50x", "lambda-negative", "alpha_k-nan"],
    )
    def test_schedule_leaving_its_range_after_the_probe_is_an_inner_failure(self, mode, field, late, name):
        # validate probes the first 50 values only; the loop checks each value
        # it reads, so a schedule that turns inadmissible at k = 50 stops there
        # instead of running the whole budget on inadmissible steps
        problem = sp.generate_planted(5, 5, seed=4)
        bound = min(1.0 / (2.0 * problem.f.c1), 1.0 / (2.0 * problem.f.c2))
        early, value = (0.9 * bound, late * bound) if field == "lambda_schedule" else (1.0, late)
        config = default_config(problem, mode=mode, **{field: lambda k: early if k < 50 else value})
        assert validate(config, problem) == []
        report = SOLVERS[mode](problem, config)
        assert report.status is SolveStatus.INNER_FAILURE
        assert f"{name}: {field}(50) = {value} must be" in report.message
        assert report.iterations == 49
        assert [record.k for record in report.history] == list(range(50))

    @pytest.mark.parametrize("ball", [False, True], ids=["box", "ball"])
    def test_empty_shrinking_set_is_an_inner_failure(self, ball):
        # the fixed points of S miss C, so the cuts and C have no common point;
        # for a ball the supporting rows added to the cut rows are infeasible
        # together, which the active-set projection detects exactly
        planted = sp.generate_planted(2, 2, seed=1)
        problem = dataclasses.replace(planted, S=ProjectionOnto(Ball([20.0, 20.0], 1.0)))
        if ball:
            problem = dataclasses.replace(problem, C=Ball(np.zeros(2), 8.0))
        report = strong_solve(problem)
        assert report.status is SolveStatus.INNER_FAILURE
        assert report.iterations == 0
        assert "shrinking set is empty" in report.message

    @pytest.mark.parametrize("mode", SOLVERS)
    @pytest.mark.parametrize(
        "Q",
        [WholeSpace(2), Halfspace([1.0, 0.0], 100.0), Ball(np.zeros(2), 100.0)],
        ids=["whole", "halfspace", "ball"],
    )
    def test_skew_resolvent_converges(self, mode, Q):
        # exact on the whole space, the forward-backward-forward loop elsewhere
        problem = skew_problem(Q)
        report = SOLVERS[mode](problem, default_config(problem, mode=mode))
        assert report.status is SolveStatus.CONVERGED
        assert np.linalg.norm(report.final_x) <= 1e-6


class TestExactResolventPath:
    def test_planted_resolvent_projects_onto_q_once(self, monkeypatch):
        # the planted family (affine g, box Q) takes the exact resolvent,
        # which projects onto Q once per call; the forward-backward-forward
        # loop would project at least twice per inner iteration. The solve
        # loop calls the unchecked kernel.
        problem = sp.generate_planted(5, 5, seed=4)
        project = problem.Q._project
        calls = []

        def counting_project(x):
            calls.append(1)
            return project(x)

        monkeypatch.setattr(problem.Q, "_project", counting_project)
        report = weak_solve(problem)
        assert report.status is SolveStatus.CONVERGED
        assert len(calls) == report.iterations + 1


def same_bits(a, b) -> bool:
    """Same type, and for numbers and arrays the same dtype, shape and bytes (sign bits and NaNs included)."""
    if type(a) is not type(b):
        return False
    if a is None:
        return True
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed, n, m", [(1, 2, 2), (5, 10, 10), (8, 20, 20)])
def test_weak_steps_match_the_reference_step_bit_for_bit(seed, n, m):
    # the reference computes each record with np.linalg.norm, np.clip, a dict
    # of residual parts and the resolvent's full active-set loop
    problem = sp.generate_planted(n, m, seed=seed)
    config = default_config(problem)
    x = problem.x1
    for k in range(50):
        record = weak_step(problem, config, x, k)
        reference = reference_core_step(problem, config, x, k)
        for field in dataclasses.fields(IterateRecord):
            assert same_bits(getattr(record, field.name), getattr(reference, field.name)), (k, field.name)
        x = record.next_x


def stride_runs(mode, exit_path, stride):
    """The same run with history stride 1 and ``stride``."""
    if exit_path is SolveStatus.INNER_FAILURE:
        problem = expansive_problem()
        config = simple_config(problem, mode=mode, max_iter=500)
    else:
        problem = sp.generate_planted(2, 3, seed=31)
        budget = 40 if exit_path is SolveStatus.MAX_ITER_REACHED else 50_000
        config = default_config(problem, mode=mode, max_iter=budget)
    full = SOLVERS[mode](problem, config)
    thinned = SOLVERS[mode](problem, dataclasses.replace(config, history_stride=stride))
    return full, thinned


class TestHistoryStride:
    @pytest.mark.parametrize("mode", SOLVERS)
    @pytest.mark.parametrize("exit_path", list(SolveStatus))
    @pytest.mark.parametrize("stride", [7, 10])
    def test_stride_keeps_every_stride_th_record_and_the_last(self, mode, exit_path, stride):
        full, thinned = stride_runs(mode, exit_path, stride)
        assert full.status is thinned.status is exit_path
        assert thinned.iterations == full.iterations
        expected = full.history[::stride]
        if expected[-1].k != full.history[-1].k:
            expected.append(full.history[-1])
        assert [r.k for r in thinned.history] == [r.k for r in expected]
        for kept, want in zip(thinned.history, expected):
            assert np.array_equal(kept.x, want.x)
            assert np.array_equal(kept.next_x, want.next_x)
            assert kept.residual == want.residual
        assert len(thinned.history) <= thinned.iterations // stride + 2


class TestVariableSchedules:
    def test_nonconstant_schedules_drive_both_solvers(self):
        problem = sp.generate_planted(3, 3, seed=17)
        bound = min(1.0 / (2.0 * problem.f.c1), 1.0 / (2.0 * problem.f.c2))
        a, b = 0.3 * bound, 0.85 * bound

        def lam(k):
            return a + (b - a) / (k + 1.0)

        def resolvent_parameter(k):
            return 1.0 + 1.0 / (k + 1.0)

        for mode, solve in (("weak", weak_solve), ("strong", strong_solve)):
            config = default_config(
                problem,
                mode=mode,
                lambda_schedule=lam,
                alpha_k_schedule=resolvent_parameter,
            )
            report = solve(problem, config)
            assert report.status is SolveStatus.CONVERGED
            assert np.linalg.norm(report.final_x - problem.planted_solution) <= 1e-4
            assert report.history[0].lambda_k != report.history[5].lambda_k


    @pytest.mark.parametrize("mode", SOLVERS)
    def test_a_solve_reads_each_schedule_once_per_iteration(self, mode):
        # validate probes the first 50 values; then the loop reads each value
        # once, checks it and hands it to the step, which once read it again
        problem = sp.generate_planted(3, 3, seed=17)
        base = default_config(problem, mode=mode)
        reads = {"lambda_schedule": [], "alpha_k_schedule": []}

        def counted(name):
            schedule = getattr(base, name)
            return lambda k: reads[name].append(k) or schedule(k)

        config = dataclasses.replace(base, **{name: counted(name) for name in reads})
        report = SOLVERS[mode](problem, config)
        assert report.status is SolveStatus.CONVERGED
        for ks in reads.values():
            assert ks == list(range(50)) + list(range(report.iterations + 1))

    @pytest.mark.parametrize("mode", SOLVERS)
    def test_a_step_takes_the_schedule_values_it_is_handed(self, mode):
        # the values handed in give the record the step reads itself from
        # schedules of those values, bit for bit
        problem = sp.generate_planted(5, 5, seed=4)
        config = default_config(problem, mode=mode)
        lam, alpha_k = 0.5 * config.lambda_schedule(3), 2.0
        constant = dataclasses.replace(
            config, lambda_schedule=constant_schedule(lam), alpha_k_schedule=constant_schedule(alpha_k)
        )
        records = []
        for cfg, values in ((config, dict(lam=lam, alpha_k=alpha_k)), (constant, {})):
            if mode == "weak":
                records.append(weak_step(problem, cfg, problem.x1, 3, **values))
            else:
                records.append(strong_step(problem, cfg, StrongState(problem), problem.x1, 3, **values))
        handed, read = records
        assert (handed.lambda_k, handed.alpha_k) == (lam, alpha_k)
        for field in dataclasses.fields(IterateRecord):
            assert same_bits(getattr(handed, field.name), getattr(read, field.name)), field.name


def test_iterate_records_have_no_instance_dict():
    # a long run keeps one record per kept iteration; slots make each smaller
    problem = sp.generate_planted(2, 2, seed=1)
    record = weak_step(problem, default_config(problem), problem.x1, 0)
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.note = "not a field"


class TestSepMode:
    def test_sep_mode_trivializes_map_residuals(self):
        problem = sp.generate_planted(3, 3, seed=43).with_identity_maps()
        report = weak_solve(problem, default_config(problem))
        assert all(record.res_Sz == 0.0 for record in report.history)
        assert all(record.res_Tu == 0.0 for record in report.history)


class TestFejerAudit:
    def test_thinned_history_is_rejected(self):
        # the chain links consecutive iterations; records 25 apart say nothing
        problem = sp.generate_planted(3, 3, seed=27)
        thinned = weak_solve(problem, default_config(problem, history_stride=25))
        with pytest.raises(ValueError, match="consecutive"):
            fejer_audit(thinned.history, problem.planted_solution)

    def test_wrong_dimension_solution_is_rejected(self):
        # a length-1 x_star would broadcast against the 3-vectors of the records
        problem = sp.generate_planted(3, 3, seed=1)
        report = weak_solve(problem, default_config(problem))
        with pytest.raises(ValueError, match="dimension 3"):
            fejer_audit(report.history, [0.0])

    def test_single_record_history_is_empty_chain(self):
        problem = sp.generate_planted(2, 2, seed=51)
        config = default_config(problem)
        record = weak_step(problem, config, problem.x1, 0)
        assert fejer_audit([record], problem.planted_solution) == 0.0

    def test_valid_run_has_no_violation(self):
        problem = sp.generate_planted(4, 3, seed=52)
        report = weak_solve(problem)
        assert fejer_audit(report.history, problem.planted_solution) <= 1e-8

    def test_audit_reports_the_computed_chain_violation(self):
        # corrupted dual step with validation bypassed; the assertion is that
        # the audit equals an independent recomputation of the worst chain
        # violation, with no claim about its magnitude
        problem = sp.generate_planted(4, 4, seed=53)
        U = sp.operator_norm_sq_upper(problem.A)
        config = default_config(problem, mu_fraction=2.0, validate_mu=False, max_iter=2000)
        assert config.mu == pytest.approx(2.0 / U)
        report = weak_solve(problem, config)
        audit = fejer_audit(report.history, problem.planted_solution)
        x_star = problem.planted_solution
        expected = 0.0
        for r1, r2 in zip(report.history, report.history[1:]):
            d = [np.linalg.norm(p - x_star) for p in (r2.x, r1.t, r1.z, r1.x)]
            expected = max(expected, d[0] - d[1], d[1] - d[2], d[2] - d[3])
        assert audit == max(0.0, expected)

    def test_audit_catches_a_breaking_dual_step(self):
        # far beyond the admissible range the distance chain visibly breaks
        # and the run stops converging; the audit must report a violation
        problem = sp.generate_planted(2, 1, seed=7)
        config = default_config(problem, mu_fraction=20.0, validate_mu=False, max_iter=1500)
        report = weak_solve(problem, config)
        audit = fejer_audit(report.history, problem.planted_solution)
        assert (report.status is not SolveStatus.CONVERGED) or audit > 0.0
        assert audit > 0.0
