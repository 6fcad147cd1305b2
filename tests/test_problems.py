import copy
import dataclasses
import functools
import inspect
import itertools
import json
import operator
import re
from pathlib import Path

import numpy as np
import pytest

import splitep as sp
from splitep.equilibrium import AffineVIBifunction, CallableBifunction, check_assumptions
from splitep.problems import _FORMAT, ParseError, ProblemSpec, problem_from_dict, problem_to_dict
from splitep.sets import Ball, Box, Identity, ProjectionOnto, WholeSpace
from splitep.solver import default_config, weak_step


class TestGeneratePlanted:
    def test_deterministic_in_seed(self):
        assert sp.generate_planted(4, 3, seed=11) == sp.generate_planted(4, 3, seed=11)

    def test_different_seeds_differ(self):
        assert sp.generate_planted(4, 3, seed=1) != sp.generate_planted(4, 3, seed=2)

    def test_one_dimensional_solution_is_equilibrium(self):
        problem = sp.generate_planted(1, 1, seed=0)
        x_star = problem.planted_solution
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = problem.C.project(5.0 * rng.standard_normal(1))
            assert problem.f.evaluate(x_star, v) >= -1e-12

    def test_solution_is_fixed_point_of_averaging_map(self):
        problem = sp.generate_planted(6, 4, seed=2)
        x_star = problem.planted_solution
        assert np.allclose(problem.S.apply(x_star), x_star, atol=1e-12)

    def test_dimension_validation(self):
        for n, m in ((0, 3), (3, 0), (2.5, 2), ("3", 2), (2, True)):
            with pytest.raises(ValueError, match="dimension must be an integer"):
                sp.generate_planted(n, m, seed=1)

    def test_certificates_across_seeds(self):
        for seed in range(5):
            problem = sp.generate_planted(3, 5, seed=seed)
            report = sp.verify_planted(problem, samples=200, seed=seed)
            assert report.worst() <= 1e-8

    def test_declared_constants_hold_on_generated_bifunction(self):
        problem = sp.generate_planted(4, 4, seed=5)
        report = check_assumptions(problem.f, problem.C, samples=300, seed=1)
        assert report.lipschitz_type <= 1e-8
        assert report.pseudomonotonicity <= 1e-10
        g_report = check_assumptions(problem.g, problem.Q, samples=300, seed=1)
        assert g_report.monotonicity <= 1e-10

    def test_solution_is_fixed_point_of_one_solver_step(self):
        problem = sp.generate_planted(3, 3, seed=8)
        config = default_config(problem)
        record = weak_step(problem, config, problem.planted_solution, 0)
        assert np.linalg.norm(record.next_x - problem.planted_solution) <= 1e-8
        assert record.residual <= 1e-7


class TestVerifyPlanted:
    def test_requires_planted_solution(self):
        problem = sp.generate_planted(2, 2, seed=0)
        stripped = ProblemSpec(
            C=problem.C, Q=problem.Q, A=problem.A, f=problem.f, g=problem.g,
            S=problem.S, T=problem.T, x1=problem.x1, planted_solution=None,
        )
        with pytest.raises(ValueError, match="planted"):
            sp.verify_planted(stripped)

    def test_reports_solution_outside_constraint_set(self):
        problem = sp.generate_planted(2, 2, seed=3)
        broken = ProblemSpec(
            C=problem.C, Q=problem.Q, A=problem.A, f=problem.f, g=problem.g,
            S=problem.S, T=problem.T, x1=problem.x1,
            planted_solution=np.array([9.0, 9.0]),
        )
        report = sp.verify_planted(broken)
        assert report.solution_membership > 0.0

    def test_reports_broken_fixed_point_map(self):
        problem = sp.generate_planted(2, 2, seed=4)
        far_ball = Ball(problem.planted_solution + 3.0, 0.5)
        broken = ProblemSpec(
            C=problem.C, Q=problem.Q, A=problem.A, f=problem.f, g=problem.g,
            S=ProjectionOnto(far_ball), T=problem.T, x1=problem.x1,
            planted_solution=problem.planted_solution,
        )
        report = sp.verify_planted(broken)
        assert report.s_fixed_point > 0.0


class TestProblemSpecValidation:
    def test_start_point_must_be_feasible(self):
        problem = sp.generate_planted(2, 2, seed=0)
        with pytest.raises(ValueError, match="x1"):
            ProblemSpec(
                C=problem.C, Q=problem.Q, A=problem.A, f=problem.f, g=problem.g,
                S=problem.S, T=problem.T, x1=np.array([20.0, 20.0]),
            )

    def test_operator_shape_must_match(self):
        problem = sp.generate_planted(2, 3, seed=0)
        with pytest.raises(ValueError, match="operator shape"):
            ProblemSpec(
                C=problem.C, Q=problem.Q, A=sp.DenseOperator(np.eye(2)),
                f=problem.f, g=problem.g, S=problem.S, T=problem.T, x1=problem.x1,
            )

    def test_identity_map_variant(self):
        problem = sp.generate_planted(2, 3, seed=0).with_identity_maps()
        assert problem.S == Identity(2)
        assert problem.T == Identity(3)

    @pytest.mark.parametrize("which", ["f", "g"])
    def test_bifunction_dimension_must_match(self, which, tmp_path):
        problem = sp.generate_planted(3, 2, seed=1)
        wide = AffineVIBifunction(np.eye(5), np.zeros(5), "monotone", 1.0, 1.0)
        with pytest.raises(ValueError, match="bifunctions must act on their own spaces"):
            dataclasses.replace(problem, **{which: wide})
        data = problem_to_dict(problem)
        data[which].update(M=np.eye(5).tolist(), q=[0.0] * 5)
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError, match=r"^\$: bifunctions must act on their own spaces"):
            sp.load(path)


class TestSerialization:
    def test_round_trip_equality(self, tmp_path):
        problem = sp.generate_planted(4, 3, seed=9)
        path = tmp_path / "problem.json"
        sp.save(problem, path)
        assert sp.load(path) == problem

    def test_round_trip_without_planted_solution(self, tmp_path):
        problem = sp.generate_planted(2, 2, seed=1)
        data = problem_to_dict(problem)
        del data["planted_solution"]
        path = tmp_path / "anon.json"
        path.write_text(json.dumps(data))
        loaded = sp.load(path)
        assert loaded.planted_solution is None

    def test_round_trip_exotic_sets_and_maps(self, tmp_path):
        problem = sp.generate_planted(2, 2, seed=2)
        exotic = ProblemSpec(
            C=sp.Intersection([Box([-5.0, -5.0], [5.0, 5.0]), sp.Halfspace([1.0, 0.0], 4.0)]),
            Q=WholeSpace(2),
            A=problem.A,
            f=problem.f,
            g=problem.g,
            S=sp.Composition(Identity(2), sp.Averaged(0.25, ProjectionOnto(Ball([0.0, 0.0], 2.0)))),
            T=Identity(2),
            x1=np.array([0.5, 0.5]),
        )
        path = tmp_path / "exotic.json"
        sp.save(exotic, path)
        assert sp.load(path) == exotic

    def test_halfspace_whose_squared_normal_overflows_fails_to_parse(self, tmp_path):
        # a normal beyond the magnitude bound fails to parse, naming its entry
        problem = sp.generate_planted(2, 2, seed=6)
        data = problem_to_dict(problem)
        data["C"] = {"type": "halfspace", "normal": [1e160, 0.0], "offset": 0.0}
        data["x1"] = [-0.5, 0.5]
        del data["planted_solution"]
        path = tmp_path / "far.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError, match=r"^C\.normal: .*at most 1e\+150 in magnitude"):
            sp.load(path)

    def test_full_precision_floats(self, tmp_path):
        problem = sp.generate_planted(3, 3, seed=13)
        path = tmp_path / "precision.json"
        sp.save(problem, path)
        loaded = sp.load(path)
        assert np.array_equal(loaded.A.entries, problem.A.entries)
        assert np.array_equal(loaded.x1, problem.x1)

    def test_callable_bifunction_not_serializable(self, tmp_path):
        problem = sp.generate_planted(2, 2, seed=0)
        malformed = ProblemSpec(
            C=problem.C, Q=problem.Q, A=problem.A,
            f=CallableBifunction(lambda x, y: 0.0, lambda x, y: np.zeros(2), "monotone", 1.0, 1.0),
            g=problem.g, S=problem.S, T=problem.T, x1=problem.x1,
        )
        with pytest.raises(ValueError, match="serializable"):
            sp.save(malformed, tmp_path / "bad.json")


class TestParseErrors:
    def base_payload(self):
        return problem_to_dict(sp.generate_planted(2, 2, seed=6))

    def write(self, tmp_path, data):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(data))
        return path

    def test_inverted_box_bounds(self, tmp_path):
        data = self.base_payload()
        data["C"] = {"type": "box", "lower": [1.0, 1.0], "upper": [0.0, 0.0]}
        data["x1"] = [1.0, 1.0]
        with pytest.raises(ParseError, match="lower <= upper") as excinfo:
            sp.load(self.write(tmp_path, data))
        assert excinfo.value.location == "C"

    def test_unknown_set_variant_named(self, tmp_path):
        data = self.base_payload()
        data["Q"] = {"type": "simplex", "dim": 2}
        with pytest.raises(ParseError, match="simplex"):
            sp.load(self.write(tmp_path, data))

    def test_unknown_map_variant_named(self, tmp_path):
        data = self.base_payload()
        data["S"] = {"type": "reflection", "dim": 2}
        with pytest.raises(ParseError, match="reflection"):
            sp.load(self.write(tmp_path, data))

    def test_unknown_bifunction_variant(self, tmp_path):
        data = self.base_payload()
        data["f"]["type"] = "bilinear"
        with pytest.raises(ParseError, match="bilinear"):
            sp.load(self.write(tmp_path, data))

    def test_missing_top_level_key(self, tmp_path):
        data = self.base_payload()
        del data["A"]
        with pytest.raises(ParseError, match="'A'"):
            sp.load(self.write(tmp_path, data))

    def test_malformed_json_reports_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"C": [1, 2,')
        with pytest.raises(ParseError, match="line"):
            sp.load(path)

    @pytest.mark.parametrize("key", ["c1", "c2"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_lipschitz_constant(self, tmp_path, key, value):
        data = self.base_payload()
        data["f"][key] = value
        with pytest.raises(ParseError, match="finite") as excinfo:
            sp.load(self.write(tmp_path, data))
        assert excinfo.value.location == "f"

    @pytest.mark.parametrize("value", [2.9, 2.0, float("inf")])
    def test_non_integer_dimension(self, tmp_path, value):
        data = self.base_payload()
        data["Q"] = {"type": "whole", "dim": value}
        data["S"] = {"type": "identity", "dim": 2}
        with pytest.raises(ParseError, match="integer") as excinfo:
            sp.load(self.write(tmp_path, data))
        assert excinfo.value.location == "Q"
        data["Q"]["dim"] = 2
        data["S"]["dim"] = value
        with pytest.raises(ParseError, match="integer") as excinfo:
            sp.load(self.write(tmp_path, data))
        assert excinfo.value.location == "S"

    def test_nested_member_location(self, tmp_path):
        data = self.base_payload()
        data["C"] = {
            "type": "intersection",
            "members": [
                {"type": "box", "lower": [-5.0, -5.0], "upper": [5.0, 5.0]},
                {"type": "polygon"},
            ],
        }
        with pytest.raises(ParseError, match=r"members\[1\]"):
            sp.load(self.write(tmp_path, data))

    def test_problem_from_dict_requires_object(self):
        with pytest.raises(ParseError, match="top level"):
            problem_from_dict([1, 2, 3])


EVERY_VARIANT_FILE = Path(__file__).parent / "every_variant_problem.json"


def every_variant_problem():
    """A problem holding every set and mapping variant, a zero-normal halfspace included."""
    return ProblemSpec(
        C=sp.Intersection([
            Box([-5.0, -5.0], [5.0, 5.0]),
            sp.Intersection([Ball([0.0, 0.0], 8.0), sp.Halfspace([1.0, 0.0], 4.0)]),
            sp.Halfspace([0.0, 0.0], 1.0),
        ]),
        Q=WholeSpace(2),
        A=sp.DenseOperator([[1.0, -0.5], [0.25, 2.0]]),
        f=AffineVIBifunction([[2.0, 0.5], [-0.5, 1.0]], [0.25, -1.0], "pseudomonotone", 1.5, 1.5),
        g=AffineVIBifunction([[1.0, 0.0], [0.0, 0.5]], [0.0, 0.5], "monotone", 0.5, 0.5),
        S=sp.Composition(Identity(2), sp.Averaged(0.25, ProjectionOnto(Ball([0.5, -0.5], 2.0)))),
        T=sp.Averaged(0.5, ProjectionOnto(Box([-1.0, -2.0], [1.0, 2.0]))),
        x1=[0.5, 0.5],
        planted_solution=[1.0, -1.0],
    )


def value_paths(data, keys=()):
    """Yield the key path of every value in an object and of every object in a list."""
    if isinstance(data, dict):
        children = data.items()
    elif isinstance(data, list) and data and isinstance(data[0], dict):
        children = enumerate(data)
    else:
        return
    for key, value in children:
        yield keys + (key,)
        yield from value_paths(value, keys + (key,))


def location_of(keys):
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in keys).lstrip(".")


def on_one_path(a, b):
    """Whether one of two entry locations lies inside the other."""
    shorter, longer = sorted((a, b), key=len)
    return longer == shorter or longer.startswith((shorter + ".", shorter + "["))


class TestFileFormat:
    def test_every_variant_file_is_unchanged(self, tmp_path):
        path = tmp_path / "every.json"
        sp.save(every_variant_problem(), path)
        assert path.read_bytes() == EVERY_VARIANT_FILE.read_bytes()
        assert sp.load(path) == every_variant_problem()

    def test_single_faults_load_or_raise_parse_error_on_their_path(self, tmp_path):
        base = json.loads(EVERY_VARIANT_FILE.read_text())
        path = tmp_path / "mutated.json"
        replacements = ["x", None, [], {}, float("nan"), float("inf"), [0.0, 0.0, 0.0], 2.5]
        delete = object()
        wrong, count = [], 0
        for keys in value_paths(base):
            for fault in ([delete] if isinstance(keys[-1], str) else []) + replacements:
                data = copy.deepcopy(base)
                container = functools.reduce(operator.getitem, keys[:-1], data)
                if fault is delete:
                    del container[keys[-1]]
                else:
                    container[keys[-1]] = copy.deepcopy(fault)
                path.write_text(json.dumps(data))
                count += 1
                try:
                    sp.load(path)
                except ParseError as exc:
                    if exc.location != "$" and not on_one_path(exc.location, location_of(keys)):
                        wrong.append((location_of(keys), fault, str(exc)))
                except Exception as exc:
                    # any other exception type is the failure under test
                    wrong.append((location_of(keys), fault, repr(exc)))
        assert count == 580
        assert not wrong

    def test_readme_lists_every_variant_with_its_keys(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("## Problem file format", 1)[1].split("\n## ", 1)[0]
        listed = {
            tag: re.findall(r'"(\w+)":', rest)
            for tag, rest in re.findall(r'^\{"type": "(\w+)"(.*)\}$', section, flags=re.MULTILINE)
        }
        declared = {
            tag: [key for key, _ in fields]
            for variants in _FORMAT.values()
            for tag, (_, fields) in variants.items()
        }
        assert listed == declared


def values_within(value):
    """Yield ``value`` and, depth first, every value among its declared fields."""
    yield value
    for name in value.__match_args__:
        field = getattr(value, name)
        for item in field if isinstance(field, list) else [field]:
            if hasattr(item, "__match_args__"):
                yield from values_within(item)


def changed(field):
    """A different value of the same kind as ``field``."""
    if isinstance(field, np.ndarray):
        return field + 1.0
    if isinstance(field, list):
        return field[1:] + field[:1]
    if isinstance(field, str):
        return field + "!"
    if isinstance(field, (int, float)):
        return field + 1
    return altered(field, field.__match_args__[0])


def altered(value, name):
    """A shallow copy of ``value`` with the field ``name`` changed."""
    copied = copy.copy(value)
    setattr(copied, name, changed(getattr(value, name)))
    return copied


EVERY_VALUE = list(values_within(every_variant_problem()))


class TestValueEquality:
    def test_every_value_class_is_covered(self):
        classes = {type(value) for value in EVERY_VALUE}
        assert len(classes) == 12
        assert {cls for variants in _FORMAT.values() for cls, _ in variants.values()} <= classes

    @pytest.mark.parametrize("value", EVERY_VALUE, ids=lambda value: type(value).__name__)
    def test_a_copy_with_any_one_field_changed_is_unequal(self, value):
        assert copy.copy(value) == value
        for name in value.__match_args__:
            other = altered(value, name)
            assert other != value and value != other
            assert not (other == value or value == other)

    def test_different_variants_are_unequal(self):
        for a, b in itertools.combinations(EVERY_VALUE, 2):
            if type(a) is not type(b):
                assert a != b and b != a
        assert WholeSpace(2) != Identity(2)

    def test_declared_fields_are_the_constructor_parameters(self):
        # a new constructor argument cannot be left out of == or of the file format
        for cls in {type(value) for value in EVERY_VALUE}:
            assert sorted(cls.__match_args__) == sorted(inspect.signature(cls).parameters), cls
        for variants in _FORMAT.values():
            for cls, fields in variants.values():
                assert len(fields) == len(cls.__match_args__), cls

    def test_values_are_unhashable(self):
        for value in EVERY_VALUE:
            with pytest.raises(TypeError, match="unhashable"):
                hash(value)

    def test_a_set_without_declared_fields_compares_by_identity(self):
        class Slab(sp.ConvexSet):
            dim = 1

            def _project(self, x):
                return np.clip(x, 0.0, 1.0)

        a, b = Slab(), Slab()
        assert a == a and a != b
        assert {a, b} == {a, b}  # still hashable
        assert sp.Intersection([a]) != sp.Intersection([b])
        assert sp.Intersection([a]) == sp.Intersection([a])

    def test_subclass_instances_compare_by_the_declared_fields(self):
        class NamedBox(Box):
            pass

        assert NamedBox([0.0], [1.0]) == Box([0.0], [1.0]) and Box([0.0], [1.0]) == NamedBox([0.0], [1.0])
        assert NamedBox([0.0], [1.0]) != Box([0.0], [2.0])
