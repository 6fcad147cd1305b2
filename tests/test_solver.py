import dataclasses
import math
import warnings

import numpy as np
import pytest

import splitep as sp
from splitep.equilibrium import AffineVIBifunction
from splitep.problems import ProblemSpec
from splitep.sets import Box, Identity, WholeSpace
from splitep.solver import (
    ConfigError,
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


def skew_problem():
    # monotone but not symmetric: the resolvent's fixed-point step expands
    skew = AffineVIBifunction(np.array([[0.0, 10.0], [-10.0, 0.0]]), np.zeros(2), "monotone", 5.0, 5.0)
    return ProblemSpec(
        C=WholeSpace(2),
        Q=WholeSpace(2),
        A=sp.DenseOperator(np.eye(2)),
        f=skew,
        g=skew,
        S=Identity(2),
        T=Identity(2),
        x1=np.array([1.0, 2.0]),
    )


def simple_config(problem, **overrides):
    defaults = dict(
        lambda_schedule=constant_schedule(0.4),
        lambda_bounds=(0.4, 0.4),
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
        config = simple_config(problem, lambda_schedule=constant_schedule(1.5), lambda_bounds=(1.5, 1.5))
        names = [v.name for v in validate(config, problem)]
        assert names == ["LambdaOutOfRange"]

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
            lambda_bounds=(1.5, 1.5),
            mu=-1.0,
            alpha=1.0,
            alpha_k_lower=0.0,
        )
        names = {v.name for v in validate(config, problem)}
        assert names == {"LambdaOutOfRange", "MuNotPositive", "AlphaOutOfRange", "AlphaKNotPositive"}

    def test_schedule_leaving_declared_bounds(self):
        problem = degenerate_problem()
        config = simple_config(problem, lambda_schedule=lambda k: 0.4 + 0.1 * k)
        names = [v.name for v in validate(config, problem)]
        assert names == ["LambdaScheduleOutsideBounds"]

    def test_solves_reject_invalid_configs(self):
        problem = degenerate_problem()
        config = simple_config(problem, mu=-1.0)
        with pytest.raises(ConfigError, match="MuNotPositive"):
            weak_solve(problem, config)

    def test_config_field_validation(self):
        with pytest.raises(ValueError, match="mode"):
            SolverConfig(constant_schedule(0.4), (0.4, 0.4), mu=0.5, mode="fast")
        for tol in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="tol"):
                SolverConfig(constant_schedule(0.4), (0.4, 0.4), mu=0.5, tol=tol)

    @pytest.mark.parametrize(
        "overrides, name",
        [
            (dict(mu=math.nan), "MuNotPositive"),
            (dict(mu=math.inf, validate_mu=False), "MuNotPositive"),
            (dict(alpha_k_lower=math.nan), "AlphaKNotPositive"),
            (dict(alpha_k_lower=math.inf), "AlphaKNotPositive"),
            (dict(alpha_k_schedule=constant_schedule(math.nan)), "AlphaKBelowDeclaredBound"),
            (dict(alpha_k_schedule=constant_schedule(math.inf)), "AlphaKBelowDeclaredBound"),
        ],
    )
    def test_non_finite_values_are_named_violations(self, overrides, name):
        problem = degenerate_problem()
        config = simple_config(problem, **overrides)
        assert [v.name for v in validate(config, problem)] == [name]
        with pytest.raises(ConfigError, match=name):
            weak_solve(problem, config)

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

    def test_inner_failure_propagates_as_status(self):
        problem = sp.generate_planted(3, 3, seed=26)
        report = weak_solve(problem, default_config(problem, resolvent_max_inner=1))
        assert report.status is SolveStatus.INNER_FAILURE
        assert "resolvent" in report.message

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
        state = StrongState(anchor=np.array(problem.x1))
        record = strong_step(problem, config, state, problem.x1, 0)
        assert all(cut.is_whole_space for cut in state.cuts)
        assert np.array_equal(record.next_x, problem.x1)
        assert record.residual == 0.0

    def test_degenerate_problem_converges_immediately(self):
        problem = degenerate_problem()
        report = strong_solve(problem, simple_config(problem, mode="strong"))
        assert report.status is SolveStatus.CONVERGED
        assert report.iterations <= 2

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

    def test_ball_constraint_uses_sweep_fallback(self):
        # constraint sets without inequality rows exercise the Dykstra path;
        # a handful of iterations suffices (convergence is the exact-path job)
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


SOLVERS = {"weak": weak_solve, "strong": strong_solve}


class TestFailureRouting:
    @pytest.mark.parametrize("mode", SOLVERS)
    def test_diverging_resolvent_is_an_inner_failure(self, mode):
        problem = skew_problem()
        # the divergence is reported as a status, without numpy overflow warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = SOLVERS[mode](problem, default_config(problem, mode=mode))
        assert report.status is SolveStatus.INNER_FAILURE
        assert "resolvent" in report.message


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
                lambda_bounds=(a, b),
                alpha_k_schedule=resolvent_parameter,
                alpha_k_lower=1.0,
            )
            report = solve(problem, config)
            assert report.status is SolveStatus.CONVERGED
            assert np.linalg.norm(report.final_x - problem.planted_solution) <= 1e-4
            assert report.history[0].lambda_k != report.history[5].lambda_k


class TestSepMode:
    def test_sep_mode_trivializes_map_residuals(self):
        problem = sp.generate_planted(3, 3, seed=43).with_identity_maps()
        report = weak_solve(problem, default_config(problem))
        assert all(record.res_Sz == 0.0 for record in report.history)
        assert all(record.res_Tu == 0.0 for record in report.history)


class TestFejerAudit:
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
