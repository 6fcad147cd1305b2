"""Problem instances: construction, planted solutions, and file round-trips.

A :class:`ProblemSpec` bundles the two constraint sets, the coupling
operator, both bifunctions, both nonexpansive mappings and a start point.
:func:`generate_planted` builds seeded instances around a known solution
``x*`` so that convergence can be measured against ground truth, and
:func:`verify_planted` re-checks the planted certificates numerically.

The file format is a single JSON document with top-level keys
``C, Q, A, f, g, S, T, x1, planted_solution``; sets, bifunctions and maps
are tagged by a ``type`` field. One table, ``_FORMAT``, declares each tagged
variant's keys for both :func:`save` and :func:`load`. Only affine
bifunctions are serializable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from splitep.equilibrium import MONOTONE, PSEUDOMONOTONE, AffineVIBifunction, Bifunction
from splitep.linalg import DenseOperator, _norm, as_vector, norm
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
    _dimension,
)

__all__ = [
    "ParseError",
    "PlantedReport",
    "ProblemSpec",
    "generate_planted",
    "load",
    "save",
    "verify_planted",
]


class ParseError(ValueError):
    """A problem file is malformed; ``location`` names the offending entry."""

    def __init__(self, location: str, message: str):
        self.location = location
        super().__init__(f"{location}: {message}")


@dataclass
class ProblemSpec:
    """One split equilibrium problem instance.

    ``f`` lives on ``C`` (dimension n), ``g`` on ``Q`` (dimension m), and the
    operator ``A`` maps the first space to the second. ``planted_solution``,
    when present, is a point certified to solve the instance.
    """

    C: ConvexSet
    Q: ConvexSet
    A: DenseOperator
    f: Bifunction
    g: Bifunction
    S: NonexpansiveMap
    T: NonexpansiveMap
    x1: np.ndarray
    planted_solution: np.ndarray | None = None

    def __post_init__(self):
        n, m = self.C.dim, self.Q.dim
        if self.A.entries.shape != (m, n):
            raise ValueError(f"operator shape {self.A.entries.shape} does not map dim {n} to dim {m}")
        if self.S.dim != n or self.T.dim != m:
            raise ValueError("nonexpansive mappings must act on their own spaces")
        self.x1 = as_vector(self.x1, n)
        if self.C.membership_violation(self.x1) > 1e-9:
            raise ValueError("start point x1 must belong to the constraint set C")
        if self.planted_solution is not None:
            self.planted_solution = as_vector(self.planted_solution, n)

    @property
    def n(self) -> int:
        return self.C.dim

    @property
    def m(self) -> int:
        return self.Q.dim

    def with_identity_maps(self) -> "ProblemSpec":
        return ProblemSpec(
            C=self.C,
            Q=self.Q,
            A=self.A,
            f=self.f,
            g=self.g,
            S=Identity(self.n),
            T=Identity(self.m),
            x1=self.x1,
            planted_solution=self.planted_solution,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProblemSpec):
            return NotImplemented
        planted_equal = (
            self.planted_solution is None
            and other.planted_solution is None
            or (
                self.planted_solution is not None
                and other.planted_solution is not None
                and bool(np.array_equal(self.planted_solution, other.planted_solution))
            )
        )
        return (
            self.C == other.C
            and self.Q == other.Q
            and self.A == other.A
            and self.f == other.f
            and self.g == other.g
            and self.S == other.S
            and self.T == other.T
            and bool(np.array_equal(self.x1, other.x1))
            and planted_equal
        )


def generate_planted(n: int, m: int, seed: int) -> ProblemSpec:
    """Seeded instance with a known unique solution in the interior of a box.

    Construction: ``x*`` is drawn in the interior of ``C = [-5, 5]^n``; the
    coupling operator has entries in ``[-1, 1]``; ``Q`` is a box of halfwidth
    5 centered at ``A x*``. The first bifunction uses the strongly monotone
    affine operator ``F(x) = M (x - x*)`` with ``M = R^T R + 0.1 I``, which
    makes ``x*`` the unique equilibrium point on ``C``; the second uses
    ``G(u) = N (u - A x*)`` with ``N`` symmetric positive semidefinite, so
    ``A x*`` is an equilibrium point on ``Q``. Both nonexpansive mappings
    average the identity with the projection onto a unit ball centered at the
    respective solution point, whose fixed-point set is that ball. The start
    point is ``x*`` pushed a distance 2 in a random direction and projected
    back onto ``C``.
    """
    n, m = _dimension(n), _dimension(m)
    rng = np.random.default_rng(seed)

    x_star = rng.uniform(-4.0, 4.0, size=n)
    C = Box(-5.0 * np.ones(n), 5.0 * np.ones(n))
    A = DenseOperator(rng.uniform(-1.0, 1.0, size=(m, n)))
    image = A.apply(x_star)
    Q = Box(image - 5.0, image + 5.0)

    R = rng.standard_normal((n, n)) / np.sqrt(n)
    M = R.T @ R + 0.1 * np.eye(n)
    f = AffineVIBifunction.with_default_constants(M, -M @ x_star, PSEUDOMONOTONE)

    B = rng.standard_normal((m, m)) / np.sqrt(m)
    N = B.T @ B
    g = AffineVIBifunction.with_default_constants(N, -N @ image, MONOTONE)

    S = Averaged(0.5, ProjectionOnto(Ball(x_star, 1.0)))
    T = Averaged(0.5, ProjectionOnto(Ball(image, 1.0)))

    direction = rng.standard_normal(n)
    direction /= _norm(direction)
    x1 = C.project(x_star + 2.0 * direction)

    return ProblemSpec(C=C, Q=Q, A=A, f=f, g=g, S=S, T=T, x1=x1, planted_solution=x_star)


@dataclass
class PlantedReport:
    """Numerical violations of the planted-solution certificates."""

    x1_membership: float
    solution_membership: float
    image_membership: float
    s_fixed_point: float
    t_fixed_point: float
    f_equilibrium: float
    g_equilibrium: float

    def worst(self) -> float:
        return max(
            self.x1_membership,
            self.solution_membership,
            self.image_membership,
            self.s_fixed_point,
            self.t_fixed_point,
            self.f_equilibrium,
            self.g_equilibrium,
        )


def verify_planted(problem: ProblemSpec, samples: int = 100, seed: int = 0) -> PlantedReport:
    """Re-check the planted solution's certificates numerically.

    Memberships and fixed-point equations are checked directly; the
    equilibrium conditions are probed as ``f(x*, v) >= 0`` on sampled
    feasible ``v`` (and likewise for ``g`` at ``A x*``), with samples drawn by
    projecting seeded Gaussian probes onto the respective set. Raises
    ``ValueError`` without a planted solution or for ``samples < 1``.
    """
    if problem.planted_solution is None:
        raise ValueError("verify_planted requires a problem with a planted solution")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    x_star = problem.planted_solution
    image = problem.A.apply(x_star)
    rng = np.random.default_rng(seed)

    f_violation = 0.0
    g_violation = 0.0
    for _ in range(samples):
        v = problem.C.project(3.0 * rng.standard_normal(problem.n))
        f_violation = max(f_violation, -problem.f.evaluate(x_star, v))
        w = problem.Q.project(3.0 * rng.standard_normal(problem.m))
        g_violation = max(g_violation, -problem.g.evaluate(image, w))

    return PlantedReport(
        x1_membership=problem.C.membership_violation(problem.x1),
        solution_membership=problem.C.membership_violation(x_star),
        image_membership=problem.Q.membership_violation(image),
        s_fixed_point=norm(problem.S.apply(x_star) - x_star),
        t_fixed_point=norm(problem.T.apply(image) - image),
        f_equilibrium=max(0.0, f_violation),
        g_equilibrium=max(0.0, g_violation),
    )


# ---------------------------------------------------------------------------
# Serialization


# The file form of each tagged family: type tag -> (class, fields), in file
# order. A field is (file key, constructor keyword and attribute, kind). Kind
# None passes the value to the constructor, which checks it; a callable
# converts it first, and its errors name the key; a family name reads a nested
# entry, and [family] a nonempty list of them.
_FORMAT = {
    "set": {
        "whole": (WholeSpace, [("dim", "dim", None)]),
        "box": (Box, [("lower", "lower", as_vector), ("upper", "upper", as_vector)]),
        "ball": (Ball, [("center", "center", as_vector), ("radius", "radius", None)]),
        "halfspace": (Halfspace, [("normal", "normal", as_vector), ("offset", "offset", None)]),
        "intersection": (Intersection, [("members", "members", ["set"])]),
    },
    "mapping": {
        "identity": (Identity, [("dim", "dim", None)]),
        "projection": (ProjectionOnto, [("set", "target", "set")]),
        "averaged": (Averaged, [("theta", "theta", None), ("base", "base", "mapping")]),
        "composition": (Composition, [("outer", "outer", "mapping"), ("inner", "inner", "mapping")]),
    },
    "bifunction": {
        "vi_affine": (AffineVIBifunction, [
            ("M", "matrix", None), ("q", "offset", as_vector), ("c1", "c1", None), ("c2", "c2", None),
            ("monotonicity", "monotonicity", str),
        ]),
    },
}


def _encode(value, family: str) -> dict:
    """The file entry of a set, mapping or bifunction of one of ``family``'s variants."""
    for tag, (cls, fields) in _FORMAT[family].items():
        if isinstance(value, cls):
            break
    else:
        raise ValueError(f"cannot serialize {family} {value!r}; serializable variants: {', '.join(_FORMAT[family])}")
    entry = {"type": tag}
    for key, attribute, kind in fields:
        item = getattr(value, attribute)
        if isinstance(kind, list):
            item = [_encode(member, kind[0]) for member in item]
        elif kind in _FORMAT:
            item = _encode(item, kind)
        elif isinstance(item, np.ndarray):
            item = item.tolist()
        entry[key] = item
    return entry


def _require(entry: dict, key: str, location: str):
    if not isinstance(entry, dict):
        raise ParseError(location, f"expected an object, got {type(entry).__name__}")
    if key not in entry:
        raise ParseError(location, f"missing required key {key!r}")
    return entry[key]


def _convert(convert, value, location: str):
    try:
        return convert(value)
    except (ValueError, TypeError) as exc:
        raise ParseError(location, str(exc)) from None


def _decode(entry, location: str, family: str):
    """Read the entry at ``location`` as one of ``family``'s variants."""
    tag = _require(entry, "type", location)
    # a list or object tag is unhashable, and unknown all the same
    variant = _FORMAT[family].get(tag) if isinstance(tag, str) else None
    if variant is None:
        raise ParseError(location, f"unknown {family} variant {tag!r}")
    cls, fields = variant
    arguments = {}
    for key, attribute, kind in fields:
        item, item_location = _require(entry, key, location), f"{location}.{key}"
        if isinstance(kind, list):
            if not isinstance(item, list) or not item:
                raise ParseError(item_location, "expected a nonempty list")
            item = [_decode(member, f"{item_location}[{i}]", kind[0]) for i, member in enumerate(item)]
        elif kind in _FORMAT:
            item = _decode(item, item_location, kind)
        elif kind is not None:
            item = _convert(kind, item, item_location)
        arguments[attribute] = item
    try:
        return cls(**arguments)
    except (ValueError, TypeError) as exc:
        raise ParseError(location, str(exc)) from None


def problem_to_dict(problem: ProblemSpec) -> dict:
    return {
        "C": _encode(problem.C, "set"),
        "Q": _encode(problem.Q, "set"),
        "A": problem.A.entries.tolist(),
        "f": _encode(problem.f, "bifunction"),
        "g": _encode(problem.g, "bifunction"),
        "S": _encode(problem.S, "mapping"),
        "T": _encode(problem.T, "mapping"),
        "x1": problem.x1.tolist(),
        "planted_solution": None if problem.planted_solution is None else problem.planted_solution.tolist(),
    }


def problem_from_dict(data: dict) -> ProblemSpec:
    if not isinstance(data, dict):
        raise ParseError("$", "expected a JSON object at the top level")
    for key in ("C", "Q", "A", "f", "g", "S", "T", "x1"):
        if key not in data:
            raise ParseError("$", f"missing required key {key!r}")
    planted = data.get("planted_solution")
    parts = dict(
        C=_decode(data["C"], "C", "set"),
        Q=_decode(data["Q"], "Q", "set"),
        A=_convert(DenseOperator, data["A"], "A"),
        f=_decode(data["f"], "f", "bifunction"),
        g=_decode(data["g"], "g", "bifunction"),
        S=_decode(data["S"], "S", "mapping"),
        T=_decode(data["T"], "T", "mapping"),
        x1=_convert(as_vector, data["x1"], "x1"),
        planted_solution=None if planted is None else _convert(as_vector, planted, "planted_solution"),
    )
    try:
        return ProblemSpec(**parts)
    except ValueError as exc:
        raise ParseError("$", str(exc)) from None


def save(problem: ProblemSpec, path) -> None:
    """Write a problem to ``path`` as JSON with full-precision decimals."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(problem_to_dict(problem), handle, indent=2)
        handle.write("\n")


def load(path) -> ProblemSpec:
    """Read a problem from ``path``; malformed files raise :class:`ParseError`."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ParseError(f"line {exc.lineno}, column {exc.colno}", exc.msg) from None
    return problem_from_dict(data)
