"""Solvers for split equilibrium problems with nonexpansive mappings.

The library provides the convex-analytic building blocks (projections onto
simple sets, proximal sub-steps, resolvents of monotone bifunctions) and two
solvers built on them: an extragradient iteration and a hybrid
shrinking-projection iteration, both for problems of the form

    find x in C with  x in Sol(C, f) & Fix(S)  and  A x in Sol(Q, g) & Fix(T),

where A is a bounded linear operator between two finite-dimensional real
Hilbert spaces, f is pseudomonotone, g is monotone and S, T are nonexpansive.
"""

from splitep.linalg import (
    DenseOperator,
    as_vector,
    norm,
    operator_norm_sq_upper,
)
from splitep.sets import (
    Averaged,
    Ball,
    Box,
    Composition,
    ConvexSet,
    DykstraError,
    EmptySetError,
    Halfspace,
    Identity,
    Intersection,
    NonexpansiveMap,
    PivotBudgetError,
    ProjectionOnto,
    WholeSpace,
    halfspace_dominates,
    project_intersection,
)
from splitep.equilibrium import (
    AffineVIBifunction,
    AssumptionReport,
    Bifunction,
    CallableBifunction,
    InnerSolveError,
    ProxResult,
    check_assumptions,
    prox_step,
    resolvent,
)
from splitep.solver import (
    ConfigError,
    ConfigViolation,
    IterateRecord,
    SolveReport,
    SolveStatus,
    SolverConfig,
    StrongState,
    default_config,
    fejer_audit,
    strong_solve,
    strong_step,
    validate,
    weak_solve,
    weak_step,
)
from splitep.problems import (
    ParseError,
    PlantedReport,
    ProblemSpec,
    generate_planted,
    load,
    save,
    verify_planted,
)

__version__ = "0.1.0"

__all__ = [
    "AffineVIBifunction",
    "AssumptionReport",
    "Averaged",
    "Ball",
    "Bifunction",
    "Box",
    "CallableBifunction",
    "Composition",
    "ConfigError",
    "ConfigViolation",
    "ConvexSet",
    "DenseOperator",
    "DykstraError",
    "EmptySetError",
    "Halfspace",
    "Identity",
    "InnerSolveError",
    "Intersection",
    "IterateRecord",
    "NonexpansiveMap",
    "ParseError",
    "PivotBudgetError",
    "PlantedReport",
    "ProblemSpec",
    "ProjectionOnto",
    "ProxResult",
    "SolveReport",
    "SolveStatus",
    "SolverConfig",
    "StrongState",
    "WholeSpace",
    "as_vector",
    "check_assumptions",
    "default_config",
    "fejer_audit",
    "generate_planted",
    "halfspace_dominates",
    "load",
    "norm",
    "operator_norm_sq_upper",
    "project_intersection",
    "prox_step",
    "resolvent",
    "save",
    "strong_solve",
    "strong_step",
    "validate",
    "verify_planted",
    "weak_solve",
    "weak_step",
]
