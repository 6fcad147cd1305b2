import copy
import itertools
import math

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from splitep.linalg import MAX_MAGNITUDE, _norm
from splitep.sets import (
    TINY_NORMAL,
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
    project_intersection,
    project_polyhedron,
)

# the message of every refusal of a value beyond MAX_MAGNITUDE
BEYOND_THE_BOUND = r"at most 1e\+150 in magnitude"


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
        assert np.array_equal(box.project([2.0, -1.0]), [1.0, 0.0])

    def test_ball_radial_scaling(self):
        ball = Ball([0.0, 0.0], 1.0)
        assert np.allclose(ball.project([3.0, 4.0]), [0.6, 0.8], atol=1e-15)

    # Points whose squared distance, or product with a normal, would overflow
    # lie beyond MAX_MAGNITUDE, and every public call refuses them.

    def test_ball_projection_of_a_point_whose_squared_distance_overflows(self):
        with pytest.raises(ValueError, match=BEYOND_THE_BOUND):
            Ball([0.0, 0.0], 1.0).project([1e160, 0.0])

    def test_ball_membership_of_a_point_whose_squared_distance_overflows(self):
        for x in ([1e160, 0.0], [1e200, 0.0]):
            with pytest.raises(ValueError, match=BEYOND_THE_BOUND):
                Ball([0.0, 0.0], 1.0).membership_violation(x)

    def test_a_map_through_a_ball_applied_to_a_point_whose_squared_distance_overflows(self):
        S = Averaged(0.5, ProjectionOnto(Ball([0.0, 0.0], 1.0)))
        with pytest.raises(ValueError, match=BEYOND_THE_BOUND):
            S.apply([1e200, 0.0])

    def test_ball_membership_of_ordinary_points_keeps_its_bytes(self):
        # the closed form keeps np.linalg.norm's bits
        rng = np.random.default_rng(5)
        for _ in range(200):
            ball = Ball(rng.standard_normal(4), rng.uniform(0.0, 2.0))
            x = 3.0 * rng.standard_normal(4)
            want = max(0.0, float(np.linalg.norm(x - ball.center)) - ball.radius)
            assert np.float64(ball.membership_violation(x)).tobytes() == np.float64(want).tobytes()

    def test_halfspace(self):
        hs = Halfspace([1.0, 0.0], 0.0)
        assert np.allclose(hs.project([2.0, 5.0]), [0.0, 5.0], atol=1e-15)

    def test_halfspace_projection_of_a_point_whose_product_with_the_normal_overflows(self):
        # the normals lie within the bound, the points beyond it
        cases = [([1e150, 0.0], [1e200, 0.0]), ([1e-13, 0.0], [1e300, 0.0]), ([1e150, 1e150], [1e200, -1e200])]
        for normal, x in cases:
            with pytest.raises(ValueError, match=BEYOND_THE_BOUND):
                Halfspace(normal, 0.0).project(x)

    def test_halfspace_membership_of_a_point_whose_product_with_the_normal_overflows(self):
        for normal, x in (([1e150, 0.0], [1e200, 0.0]), ([1e150, 1e150], [1e200, -1e200])):
            with pytest.raises(ValueError, match=BEYOND_THE_BOUND):
                Halfspace(normal, 0.0).membership_violation(x)

    def test_halfspace_projection_of_a_point_near_the_float_maximum(self):
        x = np.array([1.5e308, 1.5e308])
        with pytest.raises(ValueError, match=BEYOND_THE_BOUND):
            Halfspace([1.0, 1.0], 0.0).project(x)
        with pytest.raises(ValueError, match=BEYOND_THE_BOUND):
            Halfspace([1.0, 1.0], 1.7e308)

    def test_halfspace_kernel_passes_a_nan_through(self):
        # a NaN product steps to a NaN vector; an overflow branch once built
        # a Halfspace from a NaN offset, which raised ValueError
        r = Halfspace([1.0, 1.0, 0.0], 0.0)._project(np.array([np.nan, 1.0, 2.0]))
        assert r.shape == (3,) and np.isnan(r).any()

    def test_ball_projection_of_a_point_whose_offset_overflows(self):
        # the center lies beyond the bound, so the ball is refused
        for radius in (1.0, 1e308):
            with pytest.raises(ValueError, match=BEYOND_THE_BOUND):
                Ball([-1e308, 0.0], radius)

    def test_membership_of_a_point_near_the_float_maximum(self):
        with pytest.raises(ValueError, match=BEYOND_THE_BOUND):
            Halfspace([1.0, 1.0], 0.0).membership_violation([1.5e308, 1.5e308])
        for refused in (lambda: Halfspace([1.0, 1.0], 1.7e308), lambda: Ball([-1e308, 0.0], 1e308)):
            with pytest.raises(ValueError, match=BEYOND_THE_BOUND):
                refused()

    def test_box_membership_of_a_point_whose_squared_distance_overflows(self):
        for box in (Box([0.0, 0.0], [1.0, 1.0]), Box([-1.0, -1.0], [1.0, 1.0])):
            with pytest.raises(ValueError, match=BEYOND_THE_BOUND):
                box.membership_violation([1e200, 0.0])

    def test_whole_space(self):
        assert np.array_equal(WholeSpace(2).project([7.0, -1.0]), [7.0, -1.0])

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


def test_box_projection_is_bit_equal_to_clip():
    # every value against every box with bounds from the list, lower == upper
    # included; tobytes compares sign bits, so -0.0 and 0.0 differ
    values = np.array([0.0, -0.0, 1.0, -1.0, 0.5, np.inf, -np.inf, np.nan, -np.nan])
    bounds = [0.0, -0.0, 1.0, -1.0, 0.5]
    for lower, upper in itertools.product(bounds, repeat=2):
        if lower > upper:
            continue
        box = Box(np.full(values.size, lower), np.full(values.size, upper))
        assert box._project(values).tobytes() == np.clip(values, box.lower, box.upper).tobytes()
    rng = np.random.default_rng(7)
    for n in (1, 3, 8, 17, 64):
        for _ in range(50):
            lower = rng.choice(bounds, n)
            upper = np.maximum(lower, rng.choice(bounds, n))
            box = Box(lower, upper)
            x = rng.choice(values, n)
            assert box._project(x).tobytes() == np.clip(x, box.lower, box.upper).tobytes()
    # points inside and outside boxes of random finite bounds
    for n in (1, 3, 8, 17, 64):
        for _ in range(50):
            lower = rng.uniform(-2.0, 0.0, n)
            box = Box(lower, lower + rng.uniform(0.0, 2.0, n))
            x = 2.0 * rng.standard_normal(n)
            assert box._project(x).tobytes() == np.clip(x, box.lower, box.upper).tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n", [1, 2, 5, 50, 1000])
def test_projections_stay_finite_up_to_the_bound(n):
    # centers, normals, bounds, offsets and points log-uniform in magnitude
    # up to MAX_MAGNITUDE, a tenth of the entries at the bound itself; the
    # kernels have no overflow branch, and numpy's warnings raise here
    rng = np.random.default_rng(n)

    def draw(size=n):
        v = 10.0 ** rng.uniform(-150.0, 150.0, size)
        v[rng.random(size) < 0.1] = MAX_MAGNITUDE
        return rng.choice([-1.0, 1.0], size) * v

    for _ in range(600):
        x, a, b = draw(), draw(), draw()
        normal, offset = draw(), draw(1)[0]
        if np.linalg.norm(normal) < TINY_NORMAL:
            offset = abs(offset)  # the whole space, not the empty set
        ball = Ball(draw(), abs(draw(1)[0]))
        sets = [ball, Halfspace(normal, offset), Box(np.minimum(a, b), np.maximum(a, b))]
        for s in sets:
            assert np.isfinite(s.project(x)).all()
            assert math.isfinite(s.membership_violation(x))
        assert np.isfinite(Averaged(0.5, ProjectionOnto(ball)).apply(x)).all()


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

    @pytest.mark.parametrize("normal", [[1e160, 0.0], [0.0, -1e200], [1e154, 1e154]])
    def test_halfspace_whose_normal_exceeds_the_bound_is_refused(self, normal):
        with pytest.raises(ValueError, match=BEYOND_THE_BOUND):
            Halfspace(normal, 0.0)

    def test_intersection_dimension_agreement(self):
        with pytest.raises(ValueError, match="dimension"):
            Intersection([WholeSpace(2), WholeSpace(3)])

    @pytest.mark.parametrize("variant", [WholeSpace, Identity])
    @pytest.mark.parametrize("dim", [2.9, 2.0, True, "2", 0, np.inf])
    def test_dimension_must_be_an_integer(self, variant, dim):
        with pytest.raises(ValueError, match="integer >= 1"):
            variant(dim)

    def test_numpy_integer_dimension_accepted(self):
        assert WholeSpace(np.int64(3)).dim == 3 and type(Identity(np.int64(3)).dim) is int

    def test_intersection_nonempty_members(self):
        with pytest.raises(ValueError, match="at least one"):
            Intersection([])


from oracles import (  # noqa: E402
    inequality_rows,
    random_two_halfspaces,
    reference_project_polyhedron,
    same_record,
    two_halfspace_projection_oracle,
)


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

    def test_a_thin_wedge_runs_out_of_sweeps_and_says_so(self):
        # {x2 <= 0} and {sin(0.01) x1 - cos(0.01) x2 <= 0} hold the origin, yet
        # 10,000 sweeps end 3.7e-3 short of it; the message once called the
        # intersection possibly empty and did not say the budget ran out
        theta = 0.01
        members = [Halfspace([0.0, 1.0], 0.0), Halfspace([math.sin(theta), -math.cos(theta)], 0.0)]
        with pytest.raises(DykstraError) as excinfo:
            project_intersection(members, [1.0, 1.0])
        assert not excinfo.value.stalled and excinfo.value.sweeps == 10_000
        assert 3e-3 < excinfo.value.worst_violation < 4e-3
        assert "used up its 10000 sweeps" in str(excinfo.value)
        assert "small angle" in str(excinfo.value)

    def test_a_stall_short_of_feasibility_says_so(self):
        # a member whose projection leaves every point where it is, though its
        # membership test puts them outside: the first sweep moves nothing
        class Stuck(Box):
            def membership_violation(self, x):
                return 1.0

        members = [Stuck([-1.0], [1.0]), Box([-1.0], [1.0])]
        with pytest.raises(DykstraError) as excinfo:
            project_intersection(members, [0.5])
        assert excinfo.value.stalled and excinfo.value.sweeps == 1
        assert "stalled after 1 sweeps" in str(excinfo.value)

    def test_requires_members(self):
        with pytest.raises(ValueError):
            project_intersection([], [0.0])

    @pytest.mark.parametrize(
        "members, x",
        [
            ([Ball([0.0, 0.0], 1.0), Ball([0.0, 0.0, 0.0], 1.0)], [3.0, 0.0]),
            ([Box([0.0], [1.0]), Ball([0.0, 0.0], 1.0)], [0.5]),
        ],
    )
    def test_members_of_different_dimensions_are_rejected(self, members, x):
        # these once failed inside numpy's broadcasting or a membership test
        with pytest.raises(ValueError, match="disagree on dimension"):
            project_intersection(members, x)

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
        assert np.array_equal(Identity(2).apply([1.0, 2.0]), [1.0, 2.0])

    def test_projection_onto_ball(self):
        S = ProjectionOnto(Ball([0.0], 1.0))
        assert np.array_equal(S.apply([3.0]), [1.0])

    def test_averaged(self):
        S = Averaged(0.5, ProjectionOnto(Ball([0.0], 1.0)))
        assert np.array_equal(S.apply([3.0]), [2.0])

    def test_composition(self):
        S = Composition(ProjectionOnto(Box([0.0], [10.0])), ProjectionOnto(Ball([0.0], 2.0)))
        assert np.array_equal(S.apply([-5.0]), [0.0])

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
            assert np.allclose(S.apply(member), member, atol=1e-12)

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
                lhs = np.linalg.norm(S.apply(x) - S.apply(y))
                assert lhs <= np.linalg.norm(x - y) + 1e-10


class TestProjectPolyhedron:
    def test_matches_dykstra_on_random_instances(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            box = Box(rng.uniform(-3, -1, 3), rng.uniform(1, 3, 3))
            h1, h2 = random_two_halfspaces(rng)
            members = [box, h1, h2]
            G, h = inequality_rows(*members)
            x = 4.0 * rng.standard_normal(3)
            exact, _ = project_polyhedron(x, G, h)
            sweep = project_intersection(members, x, tol=1e-12, max_sweeps=100_000)
            assert np.linalg.norm(exact - sweep) <= 1e-8

    @staticmethod
    def box_and_cuts(rng, dim, cuts):
        G, h = inequality_rows(Box(-np.ones(dim), np.ones(dim)))
        normals = rng.standard_normal((cuts, dim))
        return np.vstack([G, normals]), np.concatenate([h, rng.uniform(0.1, 1.0, cuts)])

    def test_resumed_call_after_appending_rows_matches_a_cold_one(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            G, h = self.box_and_cuts(rng, 4, 12)
            x = 3.0 * rng.standard_normal(4)
            start = ActiveSet(x)
            for rows in (8, 9, 12, 12):
                point, active = project_polyhedron(x, G[:rows], h[:rows], start=start)
                cold, cold_active = project_polyhedron(x, G[:rows], h[:rows])
                assert start.checked == rows
                assert np.linalg.norm(point - cold) <= 1e-12
                assert set(active) == set(cold_active)

    def test_record_serves_its_own_point_and_rows_only(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            G, h = self.box_and_cuts(rng, 4, 6)
            x, y = 3.0 * rng.standard_normal(4), 3.0 * rng.standard_normal(4)
            # a new record is the cold start: its first call is a call without one
            start = ActiveSet(x)
            assert start.tol == 1e-12 * (1.0 + np.linalg.norm(x)) and start.checked == 0
            point, active = project_polyhedron(x, G[:10], h[:10], start=start)
            cold, cold_active = project_polyhedron(x, G[:10], h[:10])
            assert point.tobytes() == cold.tobytes() and active == cold_active
            # another point, or fewer rows than the record stores, is refused
            before = copy.deepcopy(start)
            for project in (project_polyhedron, reference_project_polyhedron):
                for z, rows in ((y, 10), (x, 9), (np.nextafter(x, np.inf), 10)):
                    with pytest.raises(ValueError, match="another point or for more rows"):
                        project(z, G[:rows], h[:rows], start=start)
                    assert same_record(start, before)

    def test_resumed_call_detects_rows_that_empty_the_set(self):
        rng = np.random.default_rng(15)
        G, h = self.box_and_cuts(rng, 3, 2)
        x = np.array([2.0, -3.0, 0.5])
        start = ActiveSet(x)
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
        G = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="zero rows"):
            project_polyhedron(np.array([2.0, 2.0]), G, np.ones(3), start=ActiveSet([2.0, 2.0]))

    def test_a_far_point_is_refused(self):
        # the tolerance 1e-12 (1 + ||x0||) once overflowed to inf; such a
        # point now lies beyond the bound
        x0 = np.array([1e200, 1e200])
        with pytest.raises(ValueError, match=BEYOND_THE_BOUND):
            ActiveSet(x0)
        with pytest.raises(ValueError, match=BEYOND_THE_BOUND):
            project_polyhedron(x0, np.eye(2), np.ones(2))

    @pytest.mark.parametrize("which", ["x0", "G", "h"])
    def test_rejects_complex_input(self, which):
        # the cast to float64 dropped the imaginary part: x0 = [2+5j, 0] projected to [1, 0]
        args = {"x0": np.array([2.0, 0.0]), "G": np.array([[1.0, 0.0]]), "h": np.array([1.0])}
        args[which] = args[which] + 5j
        with pytest.raises(ValueError, match="complex"):
            project_polyhedron(args["x0"], args["G"], args["h"])

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_a_non_finite_point(self, value):
        with pytest.raises(ValueError, match="finite"):
            project_polyhedron(np.array([value, 0.0]), np.eye(2), np.ones(2))

    def test_no_rows_returns_point(self):
        r, active = project_polyhedron(np.array([1.0, 2.0]), np.zeros((0, 2)), np.zeros(0))
        assert np.array_equal(r, [1.0, 2.0])
        assert active == ()

    def test_no_rows_returns_the_record_point(self):
        x = np.array([1.0, 2.0])
        start = ActiveSet(x)
        r, active = project_polyhedron(x, np.zeros((0, 2)), np.zeros(0), start=start)
        assert r is start.point and r.tobytes() == x.tobytes() and active == ()
        assert start.checked == 0 and start.rows == ()
        G, h = np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.5, 0.5])
        point, active = project_polyhedron(x, G, h, start=start)
        cold, cold_active = project_polyhedron(x, G, h)
        assert point.tobytes() == cold.tobytes() and active == cold_active

    @pytest.mark.parametrize("resumed", [False, True], ids=["cold", "resumed"])
    @pytest.mark.parametrize("where", ["G", "h"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_rows(self, resumed, where, value):
        # the added row's normal or offset is not finite
        G = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        h = np.array([1.0, 1.0, 1.5])
        x = np.array([3.0, 3.0])
        if where == "G":
            G[2, 0] = value
        else:
            h[2] = value
        start = ActiveSet(x)
        if resumed:
            project_polyhedron(x, G[:2], h[:2], start=start)
        before = copy.deepcopy(start)
        with pytest.raises(ValueError, match=BEYOND_THE_BOUND):
            project_polyhedron(x, G, h, start=start)
        assert same_record(start, before)

    @pytest.mark.parametrize("resumed", [False, True], ids=["cold", "resumed"])
    def test_rejects_a_row_whose_norm_overflows(self, resumed):
        # a finite row beyond the bound is refused like a non-finite one, before its norm is taken
        G = np.array([[1.0, 0.0], [0.0, 1.0], [1e200, 1e200]])
        h = np.array([1.0, 1.0, 1.5])
        x = np.array([3.0, 3.0])
        start = ActiveSet(x)
        if resumed:
            project_polyhedron(x, G[:2], h[:2], start=start)
        before = copy.deepcopy(start)
        with pytest.raises(ValueError, match=BEYOND_THE_BOUND):
            project_polyhedron(x, G, h, start=start)
        assert same_record(start, before)

    @pytest.mark.parametrize("resumed", [False, True], ids=["cold", "resumed"])
    @pytest.mark.parametrize(
        "G, h",
        [([[1e-100, 0.0]], [-1e100]), ([[1e-110, 0.0], [1e100, 1e100]], [-1e100, 1e100])],
        ids=["at-the-end", "in-a-pivot"],
    )
    def test_rejects_a_projection_beyond_the_bound(self, resumed, G, h):
        # admitted rows whose projection lies near 1e200: the first was
        # returned as it stood, the second overflowed a pivot's product into a
        # stray FloatingPointError
        G, h = np.vstack([[1.0, 0.0], G]), np.concatenate([[1.0], h])
        x = np.zeros(2)
        start = ActiveSet(x)
        if resumed:
            project_polyhedron(x, G[:1], h[:1], start=start)
        before = copy.deepcopy(start)
        with pytest.raises(ValueError, match=r"component beyond 1e\+150 in magnitude"):
            project_polyhedron(x, G, h, start=start)
        assert same_record(start, before)

    def test_record_stores_its_rows_and_their_norms(self):
        rng = np.random.default_rng(20)
        G, h = self.box_and_cuts(rng, 5, 12)
        x = 3.0 * rng.standard_normal(5)
        start = ActiveSet(x)
        assert start.count == start.checked == 0 and start.G.shape == (0, 5) and start.norms.size == 0
        for rows, room in ((10, 10), (11, 20), (11, 20), (16, 20), (22, 40)):
            buffers = start._G, start._h, start._norms
            project_polyhedron(x, G[:rows], h[:rows], start=start)
            assert start.count == start.checked == rows
            assert start.G.tobytes() == G[:rows].tobytes() and start.h.tobytes() == h[:rows].tobytes()
            assert start.norms.tobytes() == np.linalg.norm(G[:rows], axis=1).tobytes()
            # the three buffers grow together by doubling, so a call they have room for writes in place
            assert start._G.shape == (room, 5) and start._h.size == start._norms.size == room
            assert all((now is then) is (then.size >= rows) for now, then in zip((start._h, start._norms), buffers[1:]))
            assert (start._G is buffers[0]) is (buffers[1].size >= rows)

    def test_append_stores_a_row_for_the_next_call_to_check(self):
        # the second row repeats the first and is not stored
        x = np.array([3.0, 3.0])
        start = ActiveSet(x)
        rooms, stored = [], []
        for offset in (1.0, 1.0, 1.5, 2.0, 2.5):
            stored.append(start.append(np.array([1.0, offset]), offset))
            rooms.append(start._h.size)
        assert stored == [True, False, True, True, True]
        assert rooms == [1, 1, 2, 4, 4] and start.count == 4 and start.checked == 0
        G, h = start.G.copy(), start.h.copy()
        assert G.tobytes() == np.array([[1.0, 1.0], [1.0, 1.5], [1.0, 2.0], [1.0, 2.5]]).tobytes()
        point, active = project_polyhedron(x, start.G, start.h, start=start)
        cold, cold_active = project_polyhedron(x, G, h)
        assert point.tobytes() == cold.tobytes() and active == cold_active
        assert start.count == start.checked == 4 and start.G.tobytes() == G.tobytes()

    def test_append_stores_a_row_once_whichever_way_it_entered(self):
        # a row equal to a stored one is refused, also one stored by a projection;
        # a row that shares only the offset, or is only parallel, is stored
        x = np.array([3.0, 3.0])
        start = ActiveSet(x)
        project_polyhedron(x, np.array([[1.0, 0.0]]), np.array([1.0]), start=start)
        assert not start.append(np.array([1.0, 0.0]), 1.0)
        assert start.append(np.array([0.0, 1.0]), 1.0) and start.append(np.array([2.0, 0.0]), 2.0)
        assert not start.append(np.array([0.0, 1.0]), 1.0) and not start.append(np.array([2.0, 0.0]), 2.0)
        assert start.G.tobytes() == np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0]]).tobytes()

    @pytest.mark.parametrize("normal", [[1.0], [1.0, 0.0, 0.0], [[1.0, 0.0]]], ids=["short", "long", "matrix"])
    def test_append_refuses_a_normal_of_another_length(self, normal):
        # a one-entry normal was once broadcast into the row [1, 1]
        start = ActiveSet([3.0, 3.0])
        with pytest.raises(ValueError, match="a row of this record has 2 entries"):
            start.append(np.array(normal), 1.0)
        assert start.count == 0 and start.G.shape == (0, 2)

    @pytest.mark.parametrize("appended", [False, True], ids=["passed", "appended"])
    @pytest.mark.parametrize(
        "row, offset, error, match",
        [
            ([-1.0, 0.0, 0.0], -2.0, EmptySetError, "infeasible"),  # r_1 >= 2 misses the box [-1, 1]^3
            ([0.0, 0.0, 0.0], 1.0, ValueError, "zero rows"),
            ([1e200, 0.0, 0.0], 1.0, ValueError, BEYOND_THE_BOUND),
        ],
        ids=["empty", "zero", "beyond-the-bound"],
    )
    def test_resumed_call_that_raises_leaves_the_record_as_it_was(self, appended, row, offset, error, match):
        # a row passed past the stored ones is stored only by a call that
        # succeeds; a row appended before the call stays stored, unchecked
        rng = np.random.default_rng(21)
        G, h = self.box_and_cuts(rng, 3, 2)
        x = np.array([2.0, -3.0, 0.5])
        start = ActiveSet(x)
        project_polyhedron(x, G, h, start=start)
        if appended:
            start.append(np.array(row), offset)
            G, h = start.G, start.h
        else:
            G, h = np.vstack([G, row]), np.append(h, offset)
        before = copy.deepcopy(start)
        with pytest.raises(error, match=match):
            project_polyhedron(x, G, h, start=start)
        assert same_record(start, before)
        assert start.count == len(h) - (not appended) and start.checked == len(h) - 1

    def test_direction_gufunc_matches_numpy_solve(self):
        # project_polyhedron calls numpy's private solve gufunc; a numpy that changes it fails here
        rng = np.random.default_rng(18)
        for q in range(1, 21):
            rows = rng.standard_normal((q, 20))
            gram, rhs = rows @ rows.T, rows @ rng.standard_normal(20)
            got = _umath_linalg.solve1(gram, rhs, signature="dd->d")
            assert got.tobytes() == np.linalg.solve(gram, rhs).tobytes()
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
            _umath_linalg.solve1(np.ones((2, 2)), np.zeros(2), signature="dd->d")

    @pytest.mark.parametrize("n", [1, 2, 5, 20, 1000])
    def test_dot_gives_the_bytes_of_matmul(self, n):
        # the solve loop calls ndarray.dot where the reference wrote @, for the
        # same BLAS call with less dispatch; a numpy that routes them apart fails here
        rng = np.random.default_rng(19)
        rows = 2048 if n <= 20 else 64
        G, r = rng.standard_normal((rows, n)), rng.standard_normal(n)
        for a in (0, 1, 37, rows // 2, rows - 1):
            assert G[a:].dot(r).tobytes() == (G[a:] @ r).tobytes()
        for q in range(1, 21):
            Gw, d = G.take(rng.choice(rows, q, replace=False), 0), rng.standard_normal(q)
            assert Gw.dot(Gw.T).tobytes() == (Gw @ Gw.T).tobytes()
            assert Gw.dot(r).tobytes() == (Gw @ r).tobytes()
            assert Gw.T.dot(d).tobytes() == (Gw.T @ d).tobytes()
            assert G[q].dot(r).tobytes() == (G[q] @ r).tobytes()
        assert r.dot(r).tobytes() == (r @ r).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 20, 64])
    def test_stacked_row_products_give_the_bytes_of_each_rows_dot(self, n):
        # Halfspace._from_rows takes every cut's norm from one stacked matmul;
        # each must keep the bits of _norm(row), which a cut's norm had when
        # each was taken alone; a numpy that routes them apart fails here
        rng = np.random.default_rng(22)
        G = rng.standard_normal((500, n)) * 10.0 ** rng.uniform(-20, 20, (500, 1))
        stacked = np.matmul(G[:, None, :], G[:, :, None]).ravel()
        assert stacked.tobytes() == np.array([row.dot(row) for row in G]).tobytes()
        sizes = [cut.size for cut in Halfspace._from_rows(G, np.ones(500))]
        assert np.array(sizes).tobytes() == np.array([_norm(row) for row in G]).tobytes()


class TestProjectPolyhedronMatchesReference:
    """Edge cases of the resumed call, against the version kept in oracles.py."""

    @staticmethod
    def both(x, G, h, starts):
        """Project with the library and the reference, each on its own record, and demand the same bits."""
        start, reference_start = starts
        point, active = project_polyhedron(x, G, h, start=start)
        want, want_active = reference_project_polyhedron(x, G, h, start=reference_start)
        assert point.tobytes() == want.tobytes()
        assert active == want_active
        assert same_record(start, reference_start)

    def test_resume_with_no_appended_rows(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            G, h = TestProjectPolyhedron.box_and_cuts(rng, 4, 8)
            x = 3.0 * rng.standard_normal(4)
            starts = ActiveSet(x), ActiveSet(x)
            for rows in (6, 12, 12, 12):
                self.both(x, G[:rows], h[:rows], starts)

    def test_zero_row_appended_before_a_resume_still_raises(self):
        rng = np.random.default_rng(17)
        G, h = TestProjectPolyhedron.box_and_cuts(rng, 3, 3)
        x = np.array([2.0, -3.0, 0.5])
        starts = ActiveSet(x), ActiveSet(x)
        self.both(x, G, h, starts)
        G2, h2 = np.vstack([G, np.zeros((1, 3)), np.ones((1, 3))]), np.concatenate([h, [1.0, 1.0]])
        for project, start in zip((project_polyhedron, reference_project_polyhedron), starts):
            assert start.key == x.tobytes()  # the call would resume
            with pytest.raises(ValueError, match="zero rows"):
                project(x, G2, h2, start=start)

    @pytest.mark.parametrize("resumed", [False, True], ids=["cold", "resumed"])
    def test_zero_row_check_reads_minus_zero_as_zero_and_nan_as_nonzero(self, resumed):
        # rows of 0.0 and -0.0 both raise; a NaN row passes the check, as in
        # the reference, and fails later (which error is left open)
        h = np.array([1.0, 1.0, 1.5])
        x = np.array([3.0, 3.0])
        for last in (0.0, -0.0, np.nan):
            G = np.array([[1.0, 0.0], [0.0, 1.0], [last, last]])
            for project in (project_polyhedron, reference_project_polyhedron):
                start = ActiveSet(x)
                if resumed:
                    project(x, G[:2], h[:2], start=start)
                with pytest.raises((ZeroDivisionError, IndexError, ValueError)) as raised:
                    project(x, G, h, start=start)
                assert ("zero rows" in str(raised.value)) is (last == 0.0)

    def test_singular_working_rows_fall_back_to_least_squares(self, monkeypatch):
        # a record whose working rows are parallel makes the first direction solve exactly singular
        G = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        h = np.array([1.0, 2.0, 1.0, 1.5])
        x = np.array([3.0, 3.0])
        starts = ActiveSet(x), ActiveSet(x)
        for start in starts:
            for normal, offset in zip(G[:2], h[:2]):
                start.append(normal, offset)
            start.rows, start.multipliers, start.point, start.checked = (0, 1), [1.0, 1.0], np.array([1.0, 3.0]), 2
            start.norms[:] = np.linalg.norm(G[:2], axis=1)
        fallbacks = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq", lambda *args, **kwargs: fallbacks.append(1) or lstsq(*args, **kwargs))
        before = np.geterr()
        point, active = project_polyhedron(x, G, h, start=starts[0])
        assert fallbacks and np.geterr() == before
        want, want_active = reference_project_polyhedron(x, G, h, start=starts[1])
        assert point.tobytes() == want.tobytes()
        assert active == want_active
        assert same_record(*starts)
        with pytest.raises(EmptySetError):
            project_polyhedron(np.array([0.0]), np.array([[1.0], [-1.0]]), np.array([-1.0, -1.0]))
        assert np.geterr() == before

    def test_zero_row_on_a_cold_call_still_raises(self):
        G = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        for project in (project_polyhedron, reference_project_polyhedron):
            with pytest.raises(ValueError, match="zero rows"):
                project(np.array([2.0, 2.0]), G, np.ones(3))

