"""Checks at the public boundary, unchecked kernels inside the solve loop.

The public functions validate their vectors; the loop calls kernels that do
not. These tests pin down that the kernels compute exactly what the public
functions compute, that every public entry point still rejects bad input,
and that user subclasses overriding only the public methods still solve.
"""

import dataclasses
import importlib
import pkgutil

import numpy as np
import pytest

import splitep as sp
from splitep.sets import (
    Averaged,
    Ball,
    Box,
    Composition,
    ConvexSet,
    Halfspace,
    Identity,
    Intersection,
    NonexpansiveMap,
    ProjectionOnto,
    WholeSpace,
)
from splitep.solver import _core_step, default_config


class TestKernelsMatchPublicFunctions:
    @pytest.mark.parametrize("seed, n, m", [(1, 2, 2), (5, 10, 10), (9, 5, 10)])
    def test_core_step_matches_public_reference(self, seed, n, m):
        problem = sp.generate_planted(n, m, seed=seed)
        config = default_config(problem)
        C, A = problem.C, problem.A
        x = problem.x1
        for k in range(200):
            record = _core_step(problem, config, x, k)
            lam, alpha_k = config.lambda_schedule(k), config.alpha_k_schedule(k)
            y = sp.prox_step(problem.f, C, x, lam).minimizer
            z = sp.prox_step(problem.f, C, x, lam, at=y).minimizer
            t = (1.0 - config.alpha) * z + config.alpha * problem.S.apply(z)
            At = A.apply(t)
            u = sp.resolvent(problem.g, problem.Q, alpha_k, At)
            s = C.project(t + config.mu * A.adjoint_apply(problem.T.apply(u) - At))
            for got, want in zip((record.y, record.z, record.t, record.u, record.next_x), (y, z, t, u, s)):
                assert np.array_equal(got, want)
            if record.residual <= config.tol:
                break
            x = record.next_x
        assert k > 20


def public_entry_points():
    """Every public function the loop has an unchecked kernel for, as a
    callable of one dimension-2 vector."""
    planted = sp.generate_planted(2, 2, seed=1)
    ball = Ball(np.zeros(2), 1.0)
    halfspace = Halfspace([1.0, 0.0], 0.5)
    sets = [WholeSpace(2), Box([-1.0, -1.0], [1.0, 1.0]), ball, halfspace, Intersection([ball, halfspace])]
    maps = [
        Identity(2),
        ProjectionOnto(ball),
        Averaged(0.5, ProjectionOnto(ball)),
        Composition(ProjectionOnto(ball), ProjectionOnto(halfspace)),
    ]
    points = {
        "prox_step-anchor": lambda v: sp.prox_step(planted.f, planted.C, v, 0.1),
        "prox_step-at": lambda v: sp.prox_step(planted.f, planted.C, planted.x1, 0.1, at=v),
        "resolvent": lambda v: sp.resolvent(planted.g, planted.Q, 1.0, v),
        "A.apply": planted.A.apply,
        "A.adjoint_apply": planted.A.adjoint_apply,
        "halfspace_dominates-a": lambda v: sp.halfspace_dominates(v, [0.0, 0.0]),
        "halfspace_dominates-b": lambda v: sp.halfspace_dominates([0.0, 0.0], v),
    }
    points.update({f"{type(s).__name__}.project": s.project for s in sets})
    points.update({f"{type(m).__name__}.apply": m.apply for m in maps})
    return points


ENTRY_POINTS = public_entry_points()


class TestPublicBoundary:
    @pytest.mark.parametrize("name", ENTRY_POINTS)
    @pytest.mark.parametrize(
        "bad, match",
        [([np.nan, 0.0], "finite"), ([0.0, np.inf], "finite"), ([1.0, 2.0, 3.0], "dimension")],
        ids=["nan", "inf", "wrong-dimension"],
    )
    def test_rejects_bad_vectors(self, name, bad, match):
        with pytest.raises(ValueError, match=match):
            ENTRY_POINTS[name](np.array(bad))

    def test_every_exported_name_resolves(self):
        modules = [sp] + [importlib.import_module(f"splitep.{info.name}") for info in pkgutil.iter_modules(sp.__path__)]
        stale = [f"{m.__name__}.{name}" for m in modules for name in getattr(m, "__all__", ()) if not hasattr(m, name)]
        assert stale == []

    def test_prox_step_rejects_anchor_outside_the_set(self):
        planted = sp.generate_planted(2, 2, seed=1)
        with pytest.raises(ValueError, match="outside the constraint set"):
            sp.prox_step(planted.f, planted.C, [9.0, 0.0], 0.1)


class PublicOnlySet(ConvexSet):
    """A user set that overrides only the public methods."""

    def __init__(self, inner):
        self.inner = inner
        self.dim = inner.dim

    def project(self, x):
        return self.inner.project(x)

    def membership_violation(self, x):
        return self.inner.membership_violation(x)


class PublicOnlyMap(NonexpansiveMap):
    """A user map that overrides only the public method."""

    def __init__(self, inner):
        self.inner = inner
        self.dim = inner.dim

    def apply(self, x):
        return self.inner.apply(x)


def same_iterates(a, b):
    return len(a.history) == len(b.history) and all(
        np.array_equal(r.next_x, q.next_x) and np.array_equal(r.u, q.u) for r, q in zip(a.history, b.history)
    )


class TestPublicOnlySubclasses:
    def test_weak_solve_matches_the_wrapped_classes(self):
        planted = sp.generate_planted(5, 5, seed=4)
        wrapped = dataclasses.replace(
            planted, C=PublicOnlySet(planted.C), S=PublicOnlyMap(planted.S), T=PublicOnlyMap(planted.T)
        )
        config = default_config(planted)
        built_in, user = sp.weak_solve(planted, config), sp.weak_solve(wrapped, config)
        assert user.status is built_in.status is sp.SolveStatus.CONVERGED
        assert same_iterates(user, built_in)

    def test_strong_solve_matches_the_wrapped_classes(self):
        # the shrinking-set projection reaches every C through its projection,
        # so a user's box takes the same path as the box it wraps
        planted = sp.generate_planted(5, 5, seed=4)
        wrapped = dataclasses.replace(
            planted, C=PublicOnlySet(planted.C), S=PublicOnlyMap(planted.S), T=PublicOnlyMap(planted.T)
        )
        config = default_config(planted, mode="strong", max_iter=50)
        built_in, user = sp.strong_solve(planted, config), sp.strong_solve(wrapped, config)
        assert len(user.history) == len(built_in.history)
        for r, q in zip(user.history, built_in.history):
            assert np.array_equal(r.next_x, q.next_x)
            assert np.array_equal(r.u, q.u)

    def test_user_set_inside_an_intersection(self):
        box = Box([-1.0, -1.0], [1.0, 1.0])
        halfspace = Halfspace([1.0, 1.0], 0.5)
        x = np.array([2.0, 0.3])
        user = Intersection([PublicOnlySet(box), PublicOnlySet(halfspace)]).project(x)
        assert np.array_equal(user, Intersection([box, halfspace]).project(x))

    def test_user_set_measures_membership_by_its_projection(self):
        class KernelOnlyBall(ConvexSet):
            dim = 2

            def _project(self, x):
                return Ball([0.0, 0.0], 1.0)._project(x)

        for x in ([3.0, 4.0], [0.3, -0.4], [1e308, 1e308]):
            assert KernelOnlyBall().membership_violation(x) == Ball([0.0, 0.0], 1.0).membership_violation(x)

    def test_subclass_without_a_projection_is_not_implemented(self):
        class NoProjection(ConvexSet):
            dim = 1

        class NoImage(NonexpansiveMap):
            dim = 1

        with pytest.raises(NotImplementedError):
            NoProjection().project([0.0])
        with pytest.raises(NotImplementedError):
            NoImage().apply([0.0])
