import numpy as np
import pytest

from splitep.sets import (
    ActiveSet,
    Averaged,
    Ball,
    Box,
    Composition,
    DykstraError,
    EmptySetError,
    Halfspace,
    Identity,
    Intersection,
    ProjectionOnto,
    WholeSpace,
    halfspace_dominates,
    linear_inequality_rows,
    map_apply,
    project,
    project_intersection,
    project_polyhedron,
)


def sample_sets(rng):
    return [
        Box(rng.uniform(-3, 0, 4), rng.uniform(0.5, 3, 4)),
        Ball(rng.standard_normal(4), rng.uniform(0.5, 2.0)),
        Halfspace(rng.standard_normal(4), rng.uniform(-1, 1)),
        WholeSpace(4),
    ]


class TestClosedFormProjections:
    def test_box_clamp(self):
        box = Box([0.0, 0.0], [1.0, 1.0])
        assert np.array_equal(project(box, [2.0, -1.0]), [1.0, 0.0])

    def test_ball_radial_scaling(self):
        ball = Ball([0.0, 0.0], 1.0)
        assert np.allclose(project(ball, [3.0, 4.0]), [0.6, 0.8], atol=1e-15)

    def test_halfspace(self):
        hs = Halfspace([1.0, 0.0], 0.0)
        assert np.allclose(project(hs, [2.0, 5.0]), [0.0, 5.0], atol=1e-15)

    def test_whole_space(self):
        assert np.array_equal(project(WholeSpace(2), [7.0, -1.0]), [7.0, -1.0])

    def test_interior_points_fixed(self):
        rng = np.random.default_rng(0)
        for s in sample_sets(rng):
            inside = s.project(rng.standard_normal(4))
            assert np.allclose(s.project(inside), inside, atol=1e-12)

    def test_variational_characterization(self):
        # <x - P(x), y - P(x)> <= 0 for every member y
        rng = np.random.default_rng(1)
        for s in sample_sets(rng):
            for _ in range(100):
                x = 4.0 * rng.standard_normal(4)
                p = s.project(x)
                y = s.project(4.0 * rng.standard_normal(4))
                assert float((x - p) @ (y - p)) <= 1e-10

    def test_firm_nonexpansiveness(self):
        rng = np.random.default_rng(2)
        for s in sample_sets(rng):
            for _ in range(100):
                x = 4.0 * rng.standard_normal(4)
                y = 4.0 * rng.standard_normal(4)
                px, py = s.project(x), s.project(y)
                gap = float(np.linalg.norm(px - py) ** 2 - (px - py) @ (x - y))
                assert gap <= 1e-10

    def test_distance_decomposition_bound(self):
        # ||P(x)-P(y)||^2 <= ||x-y||^2 - ||x-P(x)-y+P(y)||^2
        rng = np.random.default_rng(3)
        for s in sample_sets(rng):
            for _ in range(100):
                x = 4.0 * rng.standard_normal(4)
                y = 4.0 * rng.standard_normal(4)
                px, py = s.project(x), s.project(y)
                lhs = np.linalg.norm(px - py) ** 2
                rhs = np.linalg.norm(x - y) ** 2 - np.linalg.norm(x - px - y + py) ** 2
                assert lhs <= rhs + 1e-10

    def test_idempotence(self):
        rng = np.random.default_rng(4)
        for s in sample_sets(rng):
            for _ in range(50):
                p = s.project(4.0 * rng.standard_normal(4))
                assert np.linalg.norm(s.project(p) - p) <= 1e-12


class TestSetValidation:
    def test_box_requires_ordered_bounds(self):
        with pytest.raises(ValueError, match="lower <= upper"):
            Box([1.0], [0.0])

    def test_ball_requires_nonnegative_radius(self):
        with pytest.raises(ValueError, match="radius"):
            Ball([0.0], -1.0)

    def test_zero_normal_negative_offset_is_empty(self):
        with pytest.raises(EmptySetError):
            Halfspace([0.0, 0.0], -1.0)

    def test_zero_normal_nonnegative_offset_is_whole_space(self):
        hs = Halfspace([0.0, 0.0], 0.0)
        assert hs.is_whole_space
        assert np.array_equal(hs.project([5.0, -3.0]), [5.0, -3.0])
        assert hs.membership_violation([5.0, -3.0]) == 0.0

    def test_intersection_dimension_agreement(self):
        with pytest.raises(ValueError, match="dimension"):
            Intersection([WholeSpace(2), WholeSpace(3)])

    def test_intersection_nonempty_members(self):
        with pytest.raises(ValueError, match="at least one"):
            Intersection([])


from oracles import random_two_halfspaces, two_halfspace_projection_oracle  # noqa: E402


class TestProjectIntersection:
    def test_nonnegative_quadrant(self):
        members = [Halfspace([-1.0, 0.0], 0.0), Halfspace([0.0, -1.0], 0.0)]
        assert np.allclose(project_intersection(members, [-1.0, -1.0]), [0.0, 0.0], atol=1e-10)

    def test_single_member_degenerates_to_project(self):
        rng = np.random.default_rng(5)
        ball = Ball(rng.standard_normal(3), 1.5)
        x = 4.0 * rng.standard_normal(3)
        assert np.allclose(project_intersection([ball], x), ball.project(x), atol=1e-10)

    def test_matches_active_set_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            h1, h2 = random_two_halfspaces(rng)
            x = 3.0 * rng.standard_normal(3)
            got = project_intersection([h1, h2], x)
            expected = two_halfspace_projection_oracle(
                h1.normal, h1.offset, h2.normal, h2.offset, x
            )
            assert np.linalg.norm(got - expected) <= 1e-6

    def test_detects_empty_intersection(self):
        members = [Halfspace([1.0], -1.0), Halfspace([-1.0], -1.0)]  # x <= -1 and x >= 1
        with pytest.raises(DykstraError) as excinfo:
            project_intersection(members, [0.0], max_sweeps=50)
        assert excinfo.value.worst_violation > 0.0

    def test_requires_members(self):
        with pytest.raises(ValueError):
            project_intersection([], [0.0])

    def test_whole_space_members_are_inert(self):
        members = [Halfspace(np.zeros(2), 0.0), Box([0.0, 0.0], [1.0, 1.0])]
        assert np.allclose(project_intersection(members, [2.0, 2.0]), [1.0, 1.0], atol=1e-12)

    def test_intersection_set_delegates_to_sweep(self):
        rng = np.random.default_rng(13)
        members = [Box(-np.ones(3), np.ones(3)), Halfspace(rng.standard_normal(3), 0.2)]
        inter = Intersection(members)
        x = 3.0 * rng.standard_normal(3)
        assert np.allclose(inter.project(x), project_intersection(members, x), atol=1e-12)


class TestHalfspaceDominates:
    def test_one_dimensional(self):
        hs = halfspace_dominates([0.0], [2.0])
        assert np.array_equal(hs.normal, [4.0])
        assert hs.offset == 4.0

    def test_equal_points_give_whole_space(self):
        hs = halfspace_dominates([1.0, 2.0], [1.0, 2.0])
        assert hs.is_whole_space

    def test_perpendicular_bisector(self):
        hs = halfspace_dominates([1.0, 0.0], [-1.0, 0.0])
        assert np.array_equal(hs.normal, [-4.0, 0.0])
        assert hs.offset == 0.0

    def test_membership_matches_distance_comparison(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = rng.standard_normal(3)
            b = rng.standard_normal(3)
            hs = halfspace_dominates(a, b)
            r = 3.0 * rng.standard_normal(3)
            closer_to_a = np.linalg.norm(a - r) <= np.linalg.norm(b - r)
            margin = hs.normal @ r - hs.offset
            if abs(margin) > 1e-10:
                assert closer_to_a == (margin < 0.0)

    def test_nearly_coincident_points_stay_consistent(self):
        # the cut's boundary must pass through the midpoint even when the
        # points agree to within 1e-9
        a = np.array([3.0, -2.0, 1.0])
        b = a + 1e-9 * np.array([1.0, 1.0, -1.0])
        hs = halfspace_dominates(a, b)
        midpoint_margin = hs.normal @ ((a + b) / 2.0) - hs.offset
        assert abs(midpoint_margin) / np.linalg.norm(hs.normal) <= 1e-12


class TestNonexpansiveMaps:
    def test_identity(self):
        assert np.array_equal(map_apply(Identity(2), [1.0, 2.0]), [1.0, 2.0])

    def test_projection_onto_ball(self):
        S = ProjectionOnto(Ball([0.0], 1.0))
        assert np.array_equal(map_apply(S, [3.0]), [1.0])

    def test_averaged(self):
        S = Averaged(0.5, ProjectionOnto(Ball([0.0], 1.0)))
        assert np.array_equal(map_apply(S, [3.0]), [2.0])

    def test_composition(self):
        S = Composition(ProjectionOnto(Box([0.0], [10.0])), ProjectionOnto(Ball([0.0], 2.0)))
        assert np.array_equal(map_apply(S, [-5.0]), [0.0])

    def test_theta_range(self):
        with pytest.raises(ValueError):
            Averaged(0.0, Identity(2))
        with pytest.raises(ValueError):
            Averaged(1.5, Identity(2))

    def test_projection_fixed_points_are_the_set(self):
        rng = np.random.default_rng(8)
        ball = Ball(rng.standard_normal(3), 1.0)
        S = ProjectionOnto(ball)
        for _ in range(50):
            member = ball.project(rng.standard_normal(3) * 3.0)
            assert np.allclose(map_apply(S, member), member, atol=1e-12)

    def test_sampled_nonexpansiveness(self):
        rng = np.random.default_rng(9)
        ball = Ball(rng.standard_normal(3), 1.5)
        maps = [
            Identity(3),
            ProjectionOnto(ball),
            Averaged(0.3, ProjectionOnto(ball)),
            Composition(Averaged(0.5, ProjectionOnto(ball)), ProjectionOnto(Box(-np.ones(3), np.ones(3)))),
        ]
        for S in maps:
            for _ in range(100):
                x = 3.0 * rng.standard_normal(3)
                y = 3.0 * rng.standard_normal(3)
                lhs = np.linalg.norm(map_apply(S, x) - map_apply(S, y))
                assert lhs <= np.linalg.norm(x - y) + 1e-10


class TestProjectPolyhedron:
    def test_matches_dykstra_on_random_instances(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            box = Box(rng.uniform(-3, -1, 3), rng.uniform(1, 3, 3))
            h1, h2 = random_two_halfspaces(rng)
            members = [box, h1, h2]
            rows = [linear_inequality_rows(m) for m in members]
            G = np.vstack([r[0] for r in rows])
            h = np.concatenate([r[1] for r in rows])
            x = 4.0 * rng.standard_normal(3)
            exact, _ = project_polyhedron(x, G, h)
            sweep = project_intersection(members, x, tol=1e-12, max_sweeps=100_000)
            assert np.linalg.norm(exact - sweep) <= 1e-8

    def test_warm_start_indices_survive_row_growth(self):
        rng = np.random.default_rng(11)
        box = Box(-np.ones(3), np.ones(3))
        G, h = linear_inequality_rows(box)
        x = np.array([2.0, 2.0, 2.0])
        r1, active = project_polyhedron(x, G, h)
        hs = Halfspace(rng.standard_normal(3), -0.5)
        G2 = np.vstack([G, hs.normal])
        h2 = np.concatenate([h, [hs.offset]])
        r2, _ = project_polyhedron(x, G2, h2, start=ActiveSet(rows=active))
        cold, _ = project_polyhedron(x, G2, h2)
        assert np.linalg.norm(r2 - cold) <= 1e-12

    @staticmethod
    def box_and_cuts(rng, dim, cuts):
        G, h = linear_inequality_rows(Box(-np.ones(dim), np.ones(dim)))
        normals = rng.standard_normal((cuts, dim))
        return np.vstack([G, normals]), np.concatenate([h, rng.uniform(0.1, 1.0, cuts)])

    def test_resumed_call_after_appending_rows_matches_a_cold_one(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            G, h = self.box_and_cuts(rng, 4, 12)
            x = 3.0 * rng.standard_normal(4)
            start = ActiveSet()
            for rows in (8, 9, 12, 12):
                point, active = project_polyhedron(x, G[:rows], h[:rows], start=start)
                cold, cold_active = project_polyhedron(x, G[:rows], h[:rows])
                assert start.checked == rows
                assert np.linalg.norm(point - cold) <= 1e-12
                assert set(active) == set(cold_active)

    def test_start_recorded_for_another_point_gives_the_cold_result(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            G, h = self.box_and_cuts(rng, 4, 6)
            start = ActiveSet()
            project_polyhedron(3.0 * rng.standard_normal(4), G[:10], h[:10], start=start)
            y = 3.0 * rng.standard_normal(4)
            point, _ = project_polyhedron(y, G, h, start=start)
            cold, _ = project_polyhedron(y, G, h)
            assert np.linalg.norm(point - cold) <= 1e-12

    def test_resumed_call_detects_rows_that_empty_the_set(self):
        rng = np.random.default_rng(15)
        G, h = self.box_and_cuts(rng, 3, 2)
        x = np.array([2.0, -3.0, 0.5])
        start = ActiveSet()
        before, _ = project_polyhedron(x, G, h, start=start)
        # a halfspace that misses the box [-1, 1]^3: <a, r> <= -||a||_1 - 1
        a = rng.standard_normal(3)
        G2, h2 = np.vstack([G, a]), np.concatenate([h, [-np.abs(a).sum() - 1.0]])
        with pytest.raises(EmptySetError):
            project_polyhedron(x, G2, h2, start=start)
        again, _ = project_polyhedron(x, G, h, start=start)
        assert np.array_equal(again, before)

    def test_detects_infeasible_rows(self):
        G = np.array([[1.0], [-1.0]])
        h = np.array([-1.0, -1.0])
        with pytest.raises(EmptySetError):
            project_polyhedron(np.array([0.0]), G, h)

    def test_rejects_zero_rows(self):
        with pytest.raises(ValueError, match="zero rows"):
            project_polyhedron(np.zeros(2), np.zeros((1, 2)), np.zeros(1))

    def test_no_rows_returns_point(self):
        r, active = project_polyhedron(np.array([1.0, 2.0]), np.zeros((0, 2)), np.zeros(0))
        assert np.array_equal(r, [1.0, 2.0])
        assert active == ()


class TestRowDescriptions:
    def test_ball_has_none(self):
        assert linear_inequality_rows(Ball([0.0], 1.0)) is None

    def test_intersection_with_ball_has_none(self):
        inter = Intersection([Box([-1.0], [1.0]), Ball([0.0], 1.0)])
        assert linear_inequality_rows(inter) is None

    def test_box_rows_roundtrip(self):
        box = Box([-1.0, 0.0], [2.0, 3.0])
        G, h = linear_inequality_rows(box)
        rng = np.random.default_rng(12)
        for _ in range(50):
            x = 4.0 * rng.standard_normal(2)
            inside_box = box.membership_violation(x) <= 1e-12
            inside_rows = bool(np.all(G @ x <= h + 1e-12))
            assert inside_box == inside_rows

    def test_intersection_bounding_box(self):
        inter = Intersection([Box([-2.0], [5.0]), Ball([0.0], 1.0)])
        lo, hi = inter.bounding_box()
        assert lo[0] == -1.0 and hi[0] == 1.0
