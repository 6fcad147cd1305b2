"""Checks at the public boundary, unchecked kernels inside the solve loop.

The public functions validate their vectors; the loop calls kernels that do
not. These tests pin down that the kernels compute exactly what the public
functions compute, that every public entry point still rejects bad input,
and that user subclasses overriding only the public methods still solve.
"""

import dataclasses
import importlib
import json
import pkgutil

import numpy as np
import pytest

import splitep as sp
from splitep.cli import main
from splitep.linalg import MAX_MAGNITUDE
from splitep.problems import problem_to_dict
from splitep.sets import (
    ActiveSet,
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
    project_polyhedron,
)
from splitep.solver import default_config, weak_step


class TestKernelsMatchPublicFunctions:
    @pytest.mark.parametrize("seed, n, m", [(1, 2, 2), (5, 10, 10), (9, 5, 10)])
    def test_core_step_matches_public_reference(self, seed, n, m):
        problem = sp.generate_planted(n, m, seed=seed)
        config = default_config(problem)
        C, A = problem.C, problem.A
        x = problem.x1
        for k in range(200):
            lam, alpha_k = config.lambda_schedule(k), config.alpha_k_schedule(k)
            record = weak_step(problem, config, x, k, lam=lam, alpha_k=alpha_k)
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
    points.update({f"{type(s).__name__}.membership_violation": s.membership_violation for s in sets})
    points.update({f"{type(m).__name__}.apply": m.apply for m in maps})
    return points


ENTRY_POINTS = public_entry_points()


def bounded_entry_points():
    """Every public entry point that takes a vector as a callable of one
    dimension-2 vector: those above, with the prox step on the whole space so
    that any anchor lies in its set, and the ones that fix no dimension."""
    planted = sp.generate_planted(2, 2, seed=1)
    whole = WholeSpace(2)
    points = dict(ENTRY_POINTS)
    points.update(
        {
            "prox_step-anchor": lambda v: sp.prox_step(planted.f, whole, v, 0.1),
            "prox_step-at": lambda v: sp.prox_step(planted.f, whole, planted.x1, 0.1, at=v),
            "as_vector": sp.as_vector,
            "ActiveSet": ActiveSet,
            "project_polyhedron-row": lambda v: project_polyhedron(np.array([3.0, 3.0]), v[None, :], np.ones(1)),
            "project_polyhedron-offset": lambda v: project_polyhedron(np.zeros(2), np.eye(2), np.abs(v)),
            "Box": lambda v: Box(-np.abs(v), np.abs(v)),
            "Ball": lambda v: Ball(v, 1.0),
            "Halfspace-normal": lambda v: Halfspace(v, 0.0),
            "Halfspace-offset": lambda v: Halfspace([1.0, 0.0], v[0]),
        }
    )
    return points


BOUNDED_ENTRY_POINTS = bounded_entry_points()


# splitep's public names, sorted: the union of its modules' __all__
PACKAGE_SURFACE = [
    "AffineVIBifunction", "AssumptionReport", "Averaged", "Ball", "Bifunction", "Box", "CallableBifunction",
    "Composition", "ConfigError", "ConfigViolation", "ConvexSet", "DenseOperator", "DykstraError",
    "EmptySetError", "Halfspace", "Identity", "InnerSolveError", "Intersection", "IterateRecord",
    "NonexpansiveMap", "ParseError", "PivotBudgetError", "PlantedReport", "ProblemSpec", "ProjectionOnto",
    "ProxResult", "SolveReport", "SolveStatus", "SolverConfig", "StrongState", "WholeSpace", "as_vector",
    "check_assumptions", "default_config", "fejer_audit", "generate_planted", "halfspace_dominates", "load",
    "norm", "operator_norm_sq_upper", "project_intersection", "prox_step", "resolvent", "save", "strong_solve",
    "strong_step", "validate", "verify_planted", "weak_solve", "weak_step",
]


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

    @pytest.mark.parametrize("name", BOUNDED_ENTRY_POINTS)
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_refuses_twice_the_magnitude_bound_and_takes_the_bound(self, name, sign):
        entry = BOUNDED_ENTRY_POINTS[name]
        with pytest.raises(ValueError, match=r"at most 1e\+150 in magnitude"):
            entry(np.array([sign * 2.0 * MAX_MAGNITUDE, 0.5]))
        result = entry(np.array([sign * MAX_MAGNITUDE, 0.5]))  # numpy's warnings raise here
        value = result[0] if isinstance(result, tuple) else getattr(result, "minimizer", result)
        if isinstance(value, (float, np.ndarray)):
            assert np.isfinite(value).all()

    def test_a_problem_file_with_an_entry_beyond_the_bound_fails_to_parse(self, tmp_path, capsys):
        data = problem_to_dict(sp.generate_planted(2, 2, seed=1))
        data["C"]["upper"][0] = 2.0 * MAX_MAGNITUDE
        path = tmp_path / "far.json"
        path.write_text(json.dumps(data))
        assert main(["solve", "--problem", str(path)]) == 3
        assert "C.upper: vector components must be finite and at most 1e+150 in magnitude" in capsys.readouterr().err

    def test_every_exported_name_resolves(self):
        modules = [sp] + [importlib.import_module(f"splitep.{info.name}") for info in pkgutil.iter_modules(sp.__path__)]
        stale = [f"{m.__name__}.{name}" for m in modules for name in getattr(m, "__all__", ()) if not hasattr(m, name)]
        assert stale == []

    def test_the_package_exports_the_modules_public_names_and_no_others(self):
        # splitep's surface is the union of its modules' __all__; ActiveSet and
        # project_polyhedron serve the strong solver from splitep.sets only
        assert sorted(sp.__all__) == PACKAGE_SURFACE
        assert len(sp.__all__) == len(set(sp.__all__))
        assert not hasattr(sp, "ActiveSet") and not hasattr(sp, "project_polyhedron")
        assert sp.sets.ActiveSet is ActiveSet and sp.sets.project_polyhedron is project_polyhedron
        assert all(getattr(sp, name) is getattr(sp.sets, name) for name in ("Box", "project_intersection"))

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

        for x in ([3.0, 4.0], [0.3, -0.4]):
            assert KernelOnlyBall().membership_violation(x) == Ball([0.0, 0.0], 1.0).membership_violation(x)
        # both check the point first
        for ball in (KernelOnlyBall(), Ball([0.0, 0.0], 1.0)):
            with pytest.raises(ValueError, match=r"at most 1e\+150 in magnitude"):
                ball.membership_violation([1e308, 1e308])

    def test_subclass_without_a_projection_is_not_implemented(self):
        class NoProjection(ConvexSet):
            dim = 1

        class NoImage(NonexpansiveMap):
            dim = 1

        with pytest.raises(NotImplementedError):
            NoProjection().project([0.0])
        with pytest.raises(NotImplementedError):
            NoImage().apply([0.0])
