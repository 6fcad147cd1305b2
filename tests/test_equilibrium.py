import warnings

import numpy as np
import pytest

from splitep.equilibrium import (
    AffineVIBifunction,
    CallableBifunction,
    InnerSolveError,
    check_assumptions,
    prox_step,
    resolvent,
    resolvent_oracle,
)
from splitep.sets import Ball, Box, Halfspace, WholeSpace


def zero_bifunction(dim):
    return AffineVIBifunction.with_default_constants(np.zeros((dim, dim)), np.zeros(dim))


def identity_vi(dim):
    return AffineVIBifunction.with_default_constants(np.eye(dim), np.zeros(dim))


def random_monotone_vi(rng, dim, center=None):
    B = rng.standard_normal((dim, dim)) / np.sqrt(dim)
    N = B.T @ B
    center = np.zeros(dim) if center is None else center
    return AffineVIBifunction.with_default_constants(N, -N @ center)


class TestBifunctionBasics:
    def test_diagonal_vanishes(self):
        rng = np.random.default_rng(0)
        f = random_monotone_vi(rng, 3)
        for _ in range(20):
            x = rng.standard_normal(3)
            assert f.evaluate(x, x) == 0.0

    def test_evaluate_many_matches_scalar(self):
        rng = np.random.default_rng(1)
        f = random_monotone_vi(rng, 3)
        x = rng.standard_normal(3)
        ys = rng.standard_normal((10, 3))
        batch = f.evaluate_many(x, ys)
        for value, y in zip(batch, ys):
            assert value == pytest.approx(f.evaluate(x, y), abs=1e-14)

    def test_metadata_validation(self):
        with pytest.raises(ValueError, match="monotonicity"):
            AffineVIBifunction(np.eye(2), np.zeros(2), "convex", 1.0, 1.0)
        with pytest.raises(ValueError, match="positive"):
            AffineVIBifunction(np.eye(2), np.zeros(2), "monotone", 0.0, 1.0)
        with pytest.raises(ValueError, match="square"):
            AffineVIBifunction(np.ones((2, 3)), np.zeros(2), "monotone", 1.0, 1.0)

    def test_default_constants_satisfy_lipschitz_bound(self):
        rng = np.random.default_rng(2)
        box = Box(-2.0 * np.ones(3), 2.0 * np.ones(3))
        for _ in range(5):
            f = random_monotone_vi(rng, 3)
            report = check_assumptions(f, box, samples=300, seed=7)
            assert report.lipschitz_type <= 1e-8


class TestProxStep:
    def test_zero_bifunction_returns_anchor(self):
        box = Box([-1.0, -1.0], [1.0, 1.0])
        x = np.array([0.3, -0.4])
        result = prox_step(zero_bifunction(2), box, x, lam=2.5)
        assert np.allclose(result.minimizer, x, atol=1e-15)
        assert result.inner_iterations == 0

    def test_identity_operator_on_box(self):
        box = Box([-10.0], [10.0])
        result = prox_step(identity_vi(1), box, [2.0], lam=0.5)
        assert np.allclose(result.minimizer, [1.0], atol=1e-15)

    def test_identity_operator_on_ball(self):
        ball = Ball([0.0], 0.5)
        result = prox_step(identity_vi(1), ball, [0.5], lam=1.0)
        assert np.allclose(result.minimizer, [0.0], atol=1e-15)

    def test_rejects_nonpositive_step(self):
        box = Box([-1.0], [1.0])
        with pytest.raises(ValueError, match="positive"):
            prox_step(zero_bifunction(1), box, [0.0], lam=0.0)

    def test_rejects_infeasible_anchor(self):
        box = Box([-1.0], [1.0])
        with pytest.raises(ValueError, match="outside"):
            prox_step(zero_bifunction(1), box, [2.0], lam=1.0)

    def test_variational_characterization(self):
        # lam * (f(x, v) - f(x, y)) >= <y - x, y - v> for all feasible v
        rng = np.random.default_rng(3)
        box = Box(-2.0 * np.ones(3), 2.0 * np.ones(3))
        for _ in range(20):
            f = random_monotone_vi(rng, 3)
            x = box.project(rng.standard_normal(3))
            lam = rng.uniform(0.1, 1.0)
            y = prox_step(f, box, x, lam).minimizer
            for _ in range(20):
                v = box.project(3.0 * rng.standard_normal(3))
                lhs = lam * (f.evaluate(x, v) - f.evaluate(x, y))
                rhs = float((y - x) @ (y - v))
                assert lhs >= rhs - 1e-6

    def test_minimizer_beats_sampled_feasible_points(self):
        # direct argmin check: no sampled feasible y has a smaller objective
        rng = np.random.default_rng(13)
        box = Box(-2.0 * np.ones(3), 2.0 * np.ones(3))
        for _ in range(10):
            f = random_monotone_vi(rng, 3)
            x = box.project(rng.standard_normal(3))
            lam = rng.uniform(0.1, 1.0)
            y_star = prox_step(f, box, x, lam).minimizer

            def objective(y):
                return lam * f.evaluate(x, y) + 0.5 * float((y - x) @ (y - x))

            best = objective(y_star)
            for _ in range(50):
                y = box.project(3.0 * rng.standard_normal(3))
                assert objective(y) >= best - 1e-10

    def test_linearization_point_splits_from_anchor(self):
        # anchored at x but linearized at w: closed form P_C(x - lam F(w))
        box = Box([-10.0], [10.0])
        f = identity_vi(1)
        result = prox_step(f, box, [2.0], lam=0.5, at=[4.0])
        assert np.allclose(result.minimizer, [0.0], atol=1e-15)

    def test_general_bifunction_matches_closed_form(self):
        box = Box([-10.0], [10.0])
        general = CallableBifunction(
            lambda x, y: float(x @ (y - x)),
            lambda x, y: np.asarray(x, dtype=float),
            "monotone",
            0.5,
            0.5,
        )
        result = prox_step(general, box, [2.0], lam=0.5, tol=1e-9)
        assert result.inner_iterations > 0
        assert np.allclose(result.minimizer, [1.0], atol=1e-6)

    def test_general_bifunction_budget_exhaustion(self):
        # l1-type bifunction whose prox solution sits at the kink, where the
        # subgradient selection never vanishes: displacement decays only like
        # the step size, so a tiny budget cannot reach the tolerance
        box = Box([-10.0], [10.0])
        general = CallableBifunction(
            lambda x, y: float(np.sum(np.abs(y)) - np.sum(np.abs(x))),
            lambda x, y: np.sign(np.asarray(y, dtype=float)),
            "monotone",
            0.5,
            0.5,
        )
        with pytest.raises(InnerSolveError) as excinfo:
            prox_step(general, box, [0.5], lam=1.0, tol=1e-12, max_inner=3)
        assert excinfo.value.residual > 0.0


class TestResolvent:
    def test_zero_bifunction_is_projection(self):
        rng = np.random.default_rng(4)
        box = Box(-np.ones(3), np.ones(3))
        for _ in range(10):
            u = 3.0 * rng.standard_normal(3)
            w = resolvent(zero_bifunction(3), box, alpha=1.7, u=u)
            assert np.allclose(w, box.project(u), atol=1e-9)

    def test_solution_point_is_fixed(self):
        rng = np.random.default_rng(5)
        box = Box(-2.0 * np.ones(3), 2.0 * np.ones(3))
        target = box.project(rng.standard_normal(3))
        g = random_monotone_vi(rng, 3, center=target)
        w = resolvent(g, box, alpha=2.0, u=target)
        assert np.linalg.norm(w - target) <= 1e-8

    def test_one_dimensional_example(self):
        # g(u, v) = (u - 0.3)(v - u) on [-1, 1], alpha = 2, u = 0.9:
        # the defining inequality has the interior solution 3w - 1.5 = 0.
        box = Box([-1.0], [1.0])
        g = AffineVIBifunction.with_default_constants(np.eye(1), np.array([-0.3]))
        w = resolvent(g, box, alpha=2.0, u=[0.9], tol=1e-12)
        assert abs(w[0] - 0.5) <= 1e-6
        oracle = resolvent_oracle(g, box, alpha=2.0, u=[0.9], grid_points=4001)
        spacing = 2.0 / 4000
        assert abs(w[0] - oracle[0]) <= spacing

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError, match="positive"):
            resolvent(zero_bifunction(1), Box([-1.0], [1.0]), alpha=0.0, u=[0.0])

    def test_non_convergence_raises(self):
        rng = np.random.default_rng(6)
        g = random_monotone_vi(rng, 2)
        with pytest.raises(InnerSolveError):
            resolvent(g, Box(-np.ones(2), np.ones(2)), alpha=1.0, u=[5.0, 5.0], max_inner=2)

    def test_divergence_raises_without_overflow_warnings(self):
        # monotone but skew: the fixed-point step expands until it overflows
        g = AffineVIBifunction(np.array([[0.0, 10.0], [-10.0, 0.0]]), np.zeros(2), "monotone", 5.0, 5.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(InnerSolveError, match="diverged"):
                resolvent(g, WholeSpace(2), alpha=1.0, u=[1.0, 2.0])

    def test_firm_nonexpansiveness_sampled(self):
        rng = np.random.default_rng(7)
        box = Box(-2.0 * np.ones(2), 2.0 * np.ones(2))
        g = random_monotone_vi(rng, 2)
        for _ in range(50):
            u = 3.0 * rng.standard_normal(2)
            v = 3.0 * rng.standard_normal(2)
            Tu = resolvent(g, box, 1.3, u)
            Tv = resolvent(g, box, 1.3, v)
            gap = np.linalg.norm(Tu - Tv) ** 2 - float((Tu - Tv) @ (u - v))
            assert gap <= 1e-6

    def test_defining_inequality_holds_at_output(self):
        # g(w, v) + (1/alpha) <v - w, w - u> >= 0 for all feasible v is the
        # definition of the resolvent; check it directly on sampled v
        rng = np.random.default_rng(12)
        box = Box(-2.0 * np.ones(3), 2.0 * np.ones(3))
        for _ in range(10):
            g = random_monotone_vi(rng, 3, center=rng.uniform(-1, 1, 3))
            alpha = rng.uniform(0.5, 3.0)
            u = 3.0 * rng.standard_normal(3)
            w = resolvent(g, box, alpha, u, tol=1e-12)
            for _ in range(50):
                v = box.project(3.0 * rng.standard_normal(3))
                value = g.evaluate(w, v) + float((v - w) @ (w - u)) / alpha
                assert value >= -1e-8

    def test_two_parameter_bound_sampled(self):
        # ||T_a(u) - T_b(v)|| <= ||v - u|| + |b - a| / b * ||T_b(v) - v||
        rng = np.random.default_rng(8)
        box = Box(-2.0 * np.ones(2), 2.0 * np.ones(2))
        g = random_monotone_vi(rng, 2)
        for _ in range(50):
            u = 3.0 * rng.standard_normal(2)
            v = 3.0 * rng.standard_normal(2)
            a = rng.uniform(0.5, 3.0)
            b = rng.uniform(0.5, 3.0)
            Ta_u = resolvent(g, box, a, u)
            Tb_v = resolvent(g, box, b, v)
            lhs = np.linalg.norm(Ta_u - Tb_v)
            rhs = np.linalg.norm(v - u) + abs(b - a) / b * np.linalg.norm(Tb_v - v)
            assert lhs <= rhs + 1e-6


class TestResolventOracle:
    def test_zero_bifunction_projects(self):
        box = Box([0.0], [1.0])
        w = resolvent_oracle(zero_bifunction(1), box, alpha=1.0, u=[2.0], grid_points=101)
        assert w[0] == 1.0

    def test_matches_resolvent_in_two_dimensions(self):
        rng = np.random.default_rng(9)
        box = Box(-np.ones(2), np.ones(2))
        g = random_monotone_vi(rng, 2, center=np.array([0.2, -0.1]))
        u = np.array([0.8, 0.5])
        w = resolvent(g, box, alpha=1.5, u=u, tol=1e-12)
        oracle = resolvent_oracle(g, box, alpha=1.5, u=u, grid_points=61)
        spacing = 2.0 / 60
        assert np.linalg.norm(w - oracle) <= np.sqrt(2.0) * spacing

    def test_large_alpha_approaches_equilibrium_solution(self):
        # as alpha grows the resolvent output approaches the equilibrium
        # point itself (here planted at 0.3)
        box = Box([-1.0], [1.0])
        g = AffineVIBifunction.with_default_constants(np.eye(1), np.array([-0.3]))
        grid_points = 2001
        w = resolvent_oracle(g, box, alpha=1e6, u=[0.9], grid_points=grid_points)
        spacing = 2.0 / (grid_points - 1)
        assert abs(w[0] - 0.3) <= 10.0 * spacing

    def test_dimension_limit(self):
        with pytest.raises(ValueError, match="dimensions"):
            resolvent_oracle(zero_bifunction(3), Box(-np.ones(3), np.ones(3)), 1.0, np.zeros(3))

    def test_requires_bounded_set(self):
        with pytest.raises(ValueError, match="bounded"):
            resolvent_oracle(zero_bifunction(2), WholeSpace(2), 1.0, np.zeros(2))
        with pytest.raises(ValueError, match="bounded"):
            resolvent_oracle(zero_bifunction(2), Halfspace([1.0, 0.0], 1.0), 1.0, np.zeros(2))


class TestCheckAssumptions:
    def test_identity_operator_is_monotone(self):
        box = Box(-3.0 * np.ones(2), 3.0 * np.ones(2))
        report = check_assumptions(identity_vi(2), box, samples=200, seed=0)
        assert report.diagonal <= 1e-12
        assert report.monotonicity <= 1e-12
        assert report.pseudomonotonicity <= 1e-12
        assert report.lipschitz_type <= 1e-8

    def test_negated_identity_violates_monotonicity(self):
        box = Box(-3.0 * np.ones(2), 3.0 * np.ones(2))
        f = AffineVIBifunction(-np.eye(2), np.zeros(2), "monotone", 0.5, 0.5)
        report = check_assumptions(f, box, samples=200, seed=0)
        assert report.monotonicity > 0.0

    def test_zero_bifunction_is_clean(self):
        box = Box(-3.0 * np.ones(2), 3.0 * np.ones(2))
        report = check_assumptions(zero_bifunction(2), box, samples=200, seed=0)
        assert report.worst() <= 1e-12

    def test_reports_are_reproducible(self):
        rng = np.random.default_rng(10)
        box = Box(-2.0 * np.ones(3), 2.0 * np.ones(3))
        f = random_monotone_vi(rng, 3)
        first = check_assumptions(f, box, samples=100, seed=3)
        second = check_assumptions(f, box, samples=100, seed=3)
        assert first == second
