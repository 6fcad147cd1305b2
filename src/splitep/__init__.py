"""Solvers for split equilibrium problems with nonexpansive mappings.

The library provides the convex-analytic building blocks (projections onto
simple sets, proximal sub-steps, resolvents of monotone bifunctions) and two
solvers built on them: an extragradient iteration and a hybrid
shrinking-projection iteration, both for problems of the form

    find x in C with  x in Sol(C, f) & Fix(S)  and  A x in Sol(Q, g) & Fix(T),

where A is a bounded linear operator between two finite-dimensional real
Hilbert spaces, f is pseudomonotone, g is monotone and S, T are nonexpansive.
"""

# Each module declares its public names once, in its __all__; the package re-exports them all.
from splitep.linalg import *  # noqa: F403
from splitep.sets import *  # noqa: F403
from splitep.equilibrium import *  # noqa: F403
from splitep.solver import *  # noqa: F403
from splitep.problems import *  # noqa: F403
from splitep import equilibrium, linalg, problems, sets, solver

__version__ = "0.1.0"

__all__ = [name for module in (linalg, sets, equilibrium, solver, problems) for name in module.__all__]
