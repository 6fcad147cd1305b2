import warnings

import numpy as np
import pytest

from splitep.equilibrium import (
    AffineVIBifunction,
    CallableBifunction,
    InnerSolveError,
    _exact_affine_resolvent,
    check_assumptions,
    prox_step,
    resolvent,
)
from splitep.sets import Ball, Box, Halfspace, Intersection, WholeSpace

from splitep.problems import generate_planted

from oracles import (
    clipped_soft_threshold,
    contracting_resolvent,
    grid_resolvent,
    quadratic_bifunction,
    quadratic_prox_reference,
    reference_affine_resolvent,
)


def zero_bifunction(dim):
    return AffineVIBifunction.with_default_constants(np.zeros((dim, dim)), np.zeros(dim))


def identity_vi(dim):
    return AffineVIBifunction.with_default_constants(np.eye(dim), np.zeros(dim))


def random_monotone_vi(rng, dim, center=None):
    B = rng.standard_normal((dim, dim)) / np.sqrt(dim)
    N = B.T @ B
    center = np.zeros(dim) if center is None else center
    return AffineVIBifunction.with_default_constants(N, -N @ center)


def l1_bifunction():
    # g(x, y) = ||y||_1 - ||x||_1 with the selection sign(y), which is not
    # Lipschitz: sign(0) = 0 is not the subgradient a kink needs
    return CallableBifunction(
        lambda x, y: float(np.sum(np.abs(y)) - np.sum(np.abs(x))),
        lambda x, y: np.sign(np.asarray(y, dtype=float)),
        "monotone",
        0.5,
        0.5,
    )


def skew_plus_psd_vi(rng, dim, center, psd_weight=1.0):
    B = rng.standard_normal((dim, dim)) / np.sqrt(dim)
    S = rng.standard_normal((dim, dim))
    N = psd_weight * B.T @ B + S - S.T
    return AffineVIBifunction.with_default_constants(N, -N @ center)


class TestBifunctionBasics:
    def test_diagonal_vanishes(self):
        rng = np.random.default_rng(0)
        f = random_monotone_vi(rng, 3)
        for _ in range(20):
            x = rng.standard_normal(3)
            assert f.evaluate(x, x) == 0.0

    def test_metadata_validation(self):
        with pytest.raises(ValueError, match="monotonicity"):
            AffineVIBifunction(np.eye(2), np.zeros(2), "convex", 1.0, 1.0)
        with pytest.raises(ValueError, match="positive"):
            AffineVIBifunction(np.eye(2), np.zeros(2), "monotone", 0.0, 1.0)
        with pytest.raises(ValueError, match="square"):
            AffineVIBifunction(np.ones((2, 3)), np.zeros(2), "monotone", 1.0, 1.0)

    @pytest.mark.parametrize(
        "matrix, offset", [([[1 + 2j]], [0.0]), (np.array([[1 + 0j]]), [0.0]), ([[1.0]], np.array([1j]))]
    )
    def test_complex_entries_rejected(self, matrix, offset):
        # the cast to float64 would keep [[1.]] of [[1+2j]]
        with pytest.raises(ValueError, match="complex"):
            AffineVIBifunction(matrix, offset, "monotone", 1.0, 1.0)

    @pytest.mark.parametrize("x, y", [(np.array([1 + 1j, 0.0]), np.zeros(2)), (np.zeros(2), [0.0, 2j])])
    def test_complex_points_rejected(self, x, y):
        # the cast to float64 dropped the imaginary part: evaluate([1+1j, 0], 0) gave -1.0
        f = AffineVIBifunction(np.eye(2), np.zeros(2), "monotone", 1.0, 1.0)
        with pytest.raises(ValueError, match="complex"):
            f.evaluate(x, y)
        for point in (x, y):
            if np.iscomplexobj(point):
                with pytest.raises(ValueError, match="complex"):
                    f.operator(point)
                with pytest.raises(ValueError, match="complex"):
                    f.subgradient_y(point, np.zeros(2))

    @pytest.mark.parametrize(
        "x, y",
        [([1e200, 0.0], [0.0, 0.0]), ([0.0, 0.0], [0.0, -1e200]), ([np.inf, 0.0], [0.0, 0.0]), ([np.nan, 0.0], [0.0, 0.0])],
        ids=["x-beyond-the-bound", "y-beyond-the-bound", "inf", "nan"],
    )
    def test_points_beyond_the_magnitude_bound_rejected(self, x, y):
        # evaluate([1e200, 0], 0) overflowed to -inf with a RuntimeWarning, a NaN
        # point gave nan, and operator([inf, 0]) gave [inf, nan]
        f = AffineVIBifunction(np.eye(2), np.zeros(2), "monotone", 1.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=r"finite and at most 1e\+150 in magnitude"):
                f.evaluate(x, y)
            for point in (x, y):
                if not np.abs(point).max() <= 1e150:
                    for call in (f.operator, lambda p: f.subgradient_y(p, np.zeros(2))):
                        with pytest.raises(ValueError, match=r"finite and at most 1e\+150 in magnitude"):
                            call(point)

    def test_points_of_another_dimension_rejected(self):
        f = AffineVIBifunction(np.eye(2), np.zeros(2), "monotone", 1.0, 1.0)
        with pytest.raises(ValueError, match="expected dimension 2, got 3"):
            f.operator(np.ones(3))
        with pytest.raises(ValueError, match="expected dimension 2, got 1"):
            f.evaluate(np.ones(2), [1.0])

    def test_diverging_affine_resolvent_loop_is_an_inner_failure(self):
        # declared monotone but M = -2I is not; on a halfspace the iterative
        # loop runs and its iterates pass the magnitude bound on the way to
        # overflow, where a checked product would end it in ValueError
        g = AffineVIBifunction(-2.0 * np.eye(2), np.zeros(2), "monotone", 1.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(InnerSolveError, match="diverged"):
                resolvent(g, Halfspace([1.0, 0.0], 10.0), alpha=1.0, u=[1.0, 2.0])

    def test_complex_subgradient_of_a_callable_rejected(self):
        g = CallableBifunction(lambda x, y: 0.0, lambda x, y: np.asarray(y) * (1 + 1j), "monotone", 1.0, 1.0)
        with pytest.raises(ValueError, match="complex"):
            g.subgradient_y(np.ones(2), np.ones(2))
        with pytest.raises(ValueError, match="complex"):
            resolvent(g, WholeSpace(2), 1.0, np.ones(2))

    @pytest.mark.parametrize("c1, c2", [(np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0), (1.0, -np.inf)])
    def test_non_finite_lipschitz_constants_rejected(self, c1, c2):
        with pytest.raises(ValueError, match="finite"):
            AffineVIBifunction(np.eye(2), np.zeros(2), "monotone", c1, c2)
        with pytest.raises(ValueError, match="finite"):
            CallableBifunction(lambda x, y: 0.0, lambda x, y: np.zeros(2), "monotone", c1, c2)

    @pytest.mark.parametrize("entry", [1e160, 1e200])
    def test_default_constants_of_an_overflowing_matrix_rejected(self, entry):
        # the derived constants pass the constructor's check too
        with pytest.raises(ValueError, match="finite"):
            AffineVIBifunction.with_default_constants(np.full((2, 2), entry), np.zeros(2))

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
        # l1-type bifunction whose prox solution sits at the kink: three trial
        # steps, two of them backtracking, cannot reach the tolerance
        box = Box([-10.0], [10.0])
        with pytest.raises(InnerSolveError) as excinfo:
            prox_step(l1_bifunction(), box, [0.5], lam=1.0, tol=1e-12, max_inner=3)
        assert excinfo.value.residual > 0.0

    def test_quadratic_family_lands_within_twice_the_tolerance(self):
        # f(x, y) = <P x + Q y + q, y - x> with P = Q + I/2: the prox step is a
        # strongly convex quadratic program with a Lipschitz gradient, where
        # the stop test bounds the distance to the minimizer by 1.9 tol
        rng = np.random.default_rng(20)
        tol = 1e-10
        for dim in (2, 5, 10, 20):
            for _ in range(15):
                B = rng.standard_normal((dim, dim)) / np.sqrt(dim)
                Q = B.T @ B
                P = Q + 0.5 * np.eye(dim)
                q = rng.standard_normal(dim)
                radius = rng.uniform(0.5, 2.0)
                box = Box(-radius * np.ones(dim), radius * np.ones(dim))
                lam = rng.choice([0.1, 0.45])
                x = box.project(2.0 * rng.standard_normal(dim))
                at = x if rng.random() < 0.5 else box.project(2.0 * rng.standard_normal(dim))
                result = prox_step(quadratic_bifunction(P, Q, q), box, x, lam, at=at, tol=tol)
                reference = quadratic_prox_reference(P, Q, q, box, x, lam, at)
                assert np.linalg.norm(result.minimizer - reference) <= 2.0 * tol
                assert result.inner_iterations > 0


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
        oracle = grid_resolvent(g, box, alpha=2.0, u=[0.9], grid_points=4001)
        spacing = 2.0 / 4000
        assert abs(w[0] - oracle[0]) <= spacing

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError, match="positive"):
            resolvent(zero_bifunction(1), Box([-1.0], [1.0]), alpha=0.0, u=[0.0])

    def test_non_convergence_raises(self):
        rng = np.random.default_rng(6)
        g = random_monotone_vi(rng, 2)
        with pytest.raises(InnerSolveError):
            resolvent(g, Ball(np.zeros(2), 1.0), alpha=1.0, u=[5.0, 5.0], max_inner=2)

    def test_divergence_raises_without_overflow_warnings(self):
        # declared monotone but M = -2I is not; given as callables, which
        # always run the iterative loop, whose step expands until it overflows
        M = -2.0 * np.eye(2)
        g = CallableBifunction(
            lambda x, y: float((M @ x) @ (y - x)), lambda x, y: M @ x, "monotone", 1.0, 1.0
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(InnerSolveError, match="diverged"):
                resolvent(g, WholeSpace(2), alpha=1.0, u=[1.0, 2.0])

    def test_diverging_prox_step_raises_without_overflow_warnings(self):
        # declared monotone but f(x, .) is concave: the prox objective has no
        # minimizer, and the step expands until it overflows
        f = CallableBifunction(lambda x, y: -50.0 * float(y @ y), lambda x, y: -100.0 * y, "monotone", 1.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(InnerSolveError, match="diverged"):
                prox_step(f, WholeSpace(2), [1.0, 2.0], lam=1.0)

    @pytest.mark.parametrize("sub_problem", ["resolvent", "prox step"])
    def test_l1_sub_problems_are_exact_or_raise(self, sub_problem):
        # sign(y) is not Lipschitz: near a kink the step size collapses, and
        # the stop test could pass at a wrong point; the floor on it raises
        # instead. Both exact solutions are the clipped soft threshold.
        rng = np.random.default_rng(30)
        outcomes = []
        for _ in range(30):
            dim = int(rng.integers(1, 6))
            box = Box(-np.ones(dim), np.ones(dim))
            alpha = rng.uniform(0.1, 2.0)
            u = 1.5 * rng.standard_normal(dim)
            try:
                if sub_problem == "resolvent":
                    w = resolvent(l1_bifunction(), box, alpha, u)
                else:
                    u = box.project(u)
                    w = prox_step(l1_bifunction(), box, u, alpha).minimizer
            except InnerSolveError as exc:
                assert sub_problem in str(exc)
                outcomes.append("raised")
                continue
            assert np.linalg.norm(w - clipped_soft_threshold(u, alpha, box)) <= 1e-8
            outcomes.append("exact")
        assert outcomes.count("exact") >= 5

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


class TestExactResolvent:
    def test_skew_whole_space_is_the_linear_solve(self):
        N = np.array([[0.0, 10.0], [-10.0, 0.0]])
        q = np.array([0.5, -1.0])
        g = AffineVIBifunction(N, q, "monotone", 5.0, 5.0)
        u = np.array([1.0, 2.0])
        for alpha in (0.3, 1.0, 4.0):
            w = resolvent(g, WholeSpace(2), alpha, u)
            expected = np.linalg.solve(np.eye(2) + alpha * N, u - alpha * q)
            assert np.allclose(w, expected, rtol=0.0, atol=1e-12)

    def test_overflowing_whole_space_resolvent_is_an_inner_failure(self):
        # u - alpha q overflows, so inv(K) b holds NaN; the whole space has no
        # active-set steps, and the iterative loop reports the overflow
        g = AffineVIBifunction(np.eye(2), np.array([10.0, 10.0]), "monotone", 0.5, 0.5)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(InnerSolveError, match="diverged"):
            resolvent(g, WholeSpace(2), 1e308, [0.0, 0.0])

    def test_overflowing_box_resolvent_is_an_inner_failure_or_a_point_of_the_box(self):
        # the same overflow on a box once ran the active-set steps on NaN and
        # returned [nan, nan]
        g = AffineVIBifunction(np.eye(2), np.array([10.0, 10.0]), "monotone", 0.5, 0.5)
        box = Box([-1.0, -1.0], [1.0, 1.0])
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                w = resolvent(g, box, 1e308, [0.0, 0.0])
            except InnerSolveError:
                return
        assert np.isfinite(w).all() and box.contains(w, tol=0.0)

    def test_skew_box_matches_grid_oracle(self):
        box = Box(-np.ones(2), np.ones(2))
        g = AffineVIBifunction(np.array([[0.0, 3.0], [-3.0, 0.0]]), np.array([1.0, -0.5]), "monotone", 1.5, 1.5)
        u = np.array([1.5, 0.2])
        w = resolvent(g, box, 1.0, u)
        oracle = grid_resolvent(g, box, 1.0, u, grid_points=81)
        assert np.abs(w - oracle).max() <= 2.0 * 2.0 / 80

    @pytest.mark.parametrize("family", [random_monotone_vi, skew_plus_psd_vi])
    def test_matches_the_loop_on_boxes_with_active_bounds(self, family):
        rng = np.random.default_rng(13)
        active_cases = 0
        for _ in range(20):
            dim = int(rng.integers(2, 6))
            radius = rng.choice([0.5, 1.0])
            box = Box(-radius * np.ones(dim), radius * np.ones(dim))
            g = family(rng, dim, rng.uniform(-1.0, 1.0, dim))
            alpha = rng.uniform(0.5, 3.0)
            u = 3.0 * rng.standard_normal(dim)
            w = resolvent(g, box, alpha, u)
            assert np.abs(w - contracting_resolvent(g, box, alpha, u)).max() <= 1e-8
            assert box.membership_violation(w) == 0.0
            active_cases += bool(np.any(np.abs(w) == radius))
            for _ in range(50):
                v = box.project(3.0 * rng.standard_normal(dim))
                assert g.evaluate(w, v) + float((v - w) @ (w - u)) / alpha >= -1e-10
        assert active_cases >= 15

    @pytest.mark.parametrize("seed", [161, 426, 495])
    def test_repeated_active_set_falls_back_to_the_loop(self, seed):
        # seeded so that the active-set steps revisit a set (about 1 call in
        # 200 of this family in dimension 3) and the iterative loop runs; a
        # symmetric-only fixed-point step fails on seeds 426 and 495
        rng = np.random.default_rng(seed)
        g = skew_plus_psd_vi(rng, 3, rng.uniform(-1.0, 1.0, 3))
        box = Box(-0.5 * np.ones(3), 0.5 * np.ones(3))
        alpha = rng.uniform(0.5, 3.0)
        u = 3.0 * rng.standard_normal(3)
        assert _exact_affine_resolvent(g, box, alpha, u, 10_000) is None
        w = resolvent(g, box, alpha, u)
        assert np.abs(w - contracting_resolvent(g, box, alpha, u)).max() <= 1e-8

    def test_interior_free_point_returns_what_the_full_loop_does(self):
        # a free point inside Q returns before the active-set loop; one
        # outside runs it. Both must give the loop's bytes, NaN included.
        interior = boundary = 0
        for seed, n, m in ((1, 2, 2), (5, 10, 10), (8, 20, 20)):
            problem = generate_planted(n, m, seed=seed)
            g, Q = problem.g, problem.Q
            rng = np.random.default_rng(seed)
            middle = 0.5 * (Q.lower + Q.upper)
            for scale in (0.5, 2.0, 8.0, 30.0):
                for alpha in (0.5, 1.0):
                    for _ in range(10):
                        u = middle + scale * rng.standard_normal(m)
                        w = _exact_affine_resolvent(g, Q, alpha, u, 10_000)
                        reference = reference_affine_resolvent(g, Q, alpha, u)
                        assert reference is not None and w.tobytes() == reference.tobytes()
                        free = np.linalg.solve(np.eye(m) + alpha * g.matrix, u - alpha * g.offset)
                        inside = Q.membership_violation(free) == 0.0
                        interior += inside
                        boundary += not inside
            u = middle.copy()
            u[0] = np.nan
            w = _exact_affine_resolvent(g, Q, 1.0, u, 10_000)
            assert w.tobytes() == reference_affine_resolvent(g, Q, 1.0, u).tobytes()
        assert interior >= 40 and boundary >= 40

    def test_singular_matrix_runs_the_loop(self):
        # declared monotone but I + alpha M = 0: no inverse, so the iterative
        # loop runs, and with a constant step direction it does not converge
        g = AffineVIBifunction(-np.eye(2), np.zeros(2), "monotone", 0.5, 0.5)
        with pytest.raises(InnerSolveError, match="did not converge"):
            resolvent(g, WholeSpace(2), alpha=1.0, u=[1.0, 2.0])

    def test_changing_alpha_invalidates_the_cached_inverse(self):
        rng = np.random.default_rng(14)
        matrix = rng.standard_normal((4, 4))
        matrix = matrix.T @ matrix
        offset = rng.standard_normal(4)
        u = 3.0 * rng.standard_normal(4)
        box = Box(-np.ones(4), np.ones(4))
        cached = AffineVIBifunction.with_default_constants(matrix, offset)
        for Q in (WholeSpace(4), box):
            for alpha in (1.0, 2.0, 1.0):
                fresh = AffineVIBifunction.with_default_constants(matrix, offset)
                assert np.array_equal(resolvent(cached, Q, alpha, u), resolvent(fresh, Q, alpha, u))


def skew_sets(rng, dim):
    """A ball, a halfspace and a box cut by a halfspace, all near the origin."""
    normal = rng.standard_normal(dim)
    cut = Halfspace(normal, rng.uniform(-0.5, 0.5))
    return {
        "ball": Ball(rng.uniform(-0.5, 0.5, dim), rng.uniform(0.3, 1.5)),
        "halfspace": cut,
        "intersection": Intersection([Box(-np.ones(dim), np.ones(dim)), cut]),
    }


class TestSkewResolvent:
    """A skew-dominated monotone ``g`` on the sets without an exact path."""

    @pytest.mark.parametrize("kind", ["ball", "halfspace", "intersection"])
    def test_matches_the_contracting_reference(self, kind):
        rng = np.random.default_rng(15)
        for _ in range(20):
            dim = int(rng.integers(2, 6))
            g = skew_plus_psd_vi(rng, dim, rng.uniform(-1.0, 1.0, dim), psd_weight=0.3)
            Q = skew_sets(rng, dim)[kind]
            alpha = rng.uniform(0.5, 3.0)
            u = 3.0 * rng.standard_normal(dim)
            w = resolvent(g, Q, alpha, u)
            assert np.abs(w - contracting_resolvent(g, Q, alpha, u)).max() <= 1e-8

    def test_callable_on_whole_space_is_the_linear_solve(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            dim = int(rng.integers(2, 6))
            S = rng.standard_normal((dim, dim))
            N = 3.0 * (S - S.T)
            g = CallableBifunction(
                lambda x, y, N=N: float((N @ x) @ (y - x)), lambda x, y, N=N: N @ x, "monotone", 1.0, 1.0
            )
            alpha = rng.uniform(0.5, 3.0)
            u = 3.0 * rng.standard_normal(dim)
            expected = np.linalg.solve(np.eye(dim) + alpha * N, u)
            assert np.abs(resolvent(g, WholeSpace(dim), alpha, u) - expected).max() <= 1e-8


class TestResolventOracle:
    def test_zero_bifunction_projects(self):
        box = Box([0.0], [1.0])
        w = grid_resolvent(zero_bifunction(1), box, alpha=1.0, u=[2.0], grid_points=101)
        assert w[0] == 1.0

    def test_matches_resolvent_in_two_dimensions(self):
        rng = np.random.default_rng(9)
        box = Box(-np.ones(2), np.ones(2))
        g = random_monotone_vi(rng, 2, center=np.array([0.2, -0.1]))
        u = np.array([0.8, 0.5])
        w = resolvent(g, box, alpha=1.5, u=u, tol=1e-12)
        oracle = grid_resolvent(g, box, alpha=1.5, u=u, grid_points=61)
        spacing = 2.0 / 60
        assert np.linalg.norm(w - oracle) <= np.sqrt(2.0) * spacing

    def test_large_alpha_approaches_equilibrium_solution(self):
        # as alpha grows the resolvent output approaches the equilibrium
        # point itself (here planted at 0.3)
        box = Box([-1.0], [1.0])
        g = AffineVIBifunction.with_default_constants(np.eye(1), np.array([-0.3]))
        grid_points = 2001
        w = grid_resolvent(g, box, alpha=1e6, u=[0.9], grid_points=grid_points)
        spacing = 2.0 / (grid_points - 1)
        assert abs(w[0] - 0.3) <= 10.0 * spacing


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
