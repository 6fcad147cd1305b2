"""Finite-dimensional real Hilbert-space primitives.

Points are plain 1-D ``numpy`` arrays of ``float64``; :func:`as_vector` is the
validating constructor used at API boundaries. Linear operators between the
two spaces are dense matrices wrapped in :class:`DenseOperator`, whose adjoint
is exactly the transpose action. The solve loop's products, like :func:`_norm`,
call ``ndarray.dot`` rather than ``@``: for float64 operands it makes the same
BLAS call with less dispatch, so the bits agree, and a test pins them.

An operator's entries never change after construction. Its one mutable slot
is the lazily filled squared-norm bound of :func:`operator_norm_sq_upper`,
replaced by a single assignment, so threads sharing an operator at worst
compute the bound twice.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "DenseOperator",
    "as_vector",
    "norm",
    "operator_norm_sq_upper",
]

# as_vector's bound: the squared norm of a difference of admitted vectors, 4 n 1e300 at most, is finite for n < 44,000.
MAX_MAGNITUDE = 1e150


_FLOAT = np.dtype(float)


def _real_array(x) -> np.ndarray:
    """``np.asarray(x, dtype=float)``, refusing complex input rather than dropping its imaginary part."""
    if type(x) is np.ndarray and x.dtype is _FLOAT:
        return x  # as np.asarray returns it
    if np.iscomplexobj(x):
        raise ValueError("expected real numbers, got complex ones")
    return np.asarray(x, dtype=float)


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Validate ``x`` as a 1-D real vector of components at most ``MAX_MAGNITUDE`` in magnitude; return float64."""
    v = _real_array(x)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got array of shape {v.shape}")
    if v.size < 1:
        raise ValueError("vectors must have dimension >= 1")
    if not np.abs(v).max() <= MAX_MAGNITUDE:
        raise ValueError(f"vector components must be finite and at most {MAX_MAGNITUDE:g} in magnitude")
    if dim is not None and v.size != dim:
        raise ValueError(f"expected dimension {dim}, got {v.size}")
    return v


def norm(u) -> float:
    """Euclidean norm of a vector as a float, with ``np.linalg.norm``'s bits and no guard against overflow."""
    return float(np.linalg.norm(u))


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm`` of a contiguous 1-D float array, unchecked, for the solve loop.

    Bit-equal to ``np.linalg.norm``, which takes ``sqrt(v.dot(v))`` of a
    contiguous copy; a strided view's dot product may round differently.
    """
    return math.sqrt(v.dot(v))


def _same(a, b) -> bool:
    """Equality of two fields: arrays by ``np.array_equal``, anything else by ``==`` (lists member by member)."""
    return bool(np.array_equal(a, b)) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray) else a == b


class Value:
    """Equality of the package's value types over their fields, named once in ``__match_args__`` in file order.

    An instance equals one of its class or a subclass whose fields are equal
    (see :func:`_same`); against another class ``__eq__`` returns
    ``NotImplemented``. Pattern matching reads the same tuple, and a dataclass
    generates it. Values are unhashable.
    """

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return all(_same(getattr(self, name), getattr(other, name)) for name in self.__match_args__)


class DenseOperator(Value):
    """Dense linear operator mapping dim-n vectors to dim-m vectors.

    The adjoint is the transpose action, so ``<A x, y> == <x, A* y>`` holds
    exactly up to floating-point rounding.
    """

    __match_args__ = ("entries",)

    def __init__(self, entries):
        entries = _real_array(entries)
        if entries.ndim != 2 or entries.size == 0:
            raise ValueError(f"operator entries must be a nonempty 2-D matrix, got shape {entries.shape}")
        if not np.all(np.isfinite(entries)):
            raise ValueError("operator entries must be finite")
        self.entries = entries
        self._norm_sq_upper: float | None = None

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    @property
    def n(self) -> int:
        return self.entries.shape[1]

    def apply(self, x) -> np.ndarray:
        """``A x`` for a vector ``x`` of dimension ``n``, checked by :func:`as_vector`."""
        return self.entries @ as_vector(x, self.n)

    def adjoint_apply(self, y) -> np.ndarray:
        """``A* y`` for a vector ``y`` of dimension ``m``, checked by :func:`as_vector`."""
        return self.entries.T @ as_vector(y, self.m)

    def __repr__(self) -> str:
        return f"DenseOperator(shape={self.entries.shape})"


def operator_norm_sq_upper(A: DenseOperator) -> float:
    """Certified upper bound ``U >= ||A||^2`` on the squared spectral norm.

    ``U`` is 1.01 times the largest eigenvalue of the smaller Gram matrix,
    ``A A^T`` or ``A^T A``, from a symmetric eigensolver, so step sizes below
    ``1 / U`` stay below ``1 / ||A||^2``; the factor absorbs the solver's
    rounding. A zero operator gets the floor ``1.01 * tiny`` for the smallest
    positive normal float, so that ``1 / U`` remains finite. A Gram matrix
    that overflows gives ``U = inf``, a true bound: every Gram entry, and
    every partial sum of one, is at most ``||A||^2`` in magnitude. The bound
    is computed once per operator and cached on it.
    """
    if A._norm_sq_upper is None:
        entries = A.entries
        with np.errstate(over="ignore", invalid="ignore"):
            gram = entries @ entries.T if A.m <= A.n else entries.T @ entries
        top = float(np.linalg.eigvalsh(gram)[-1]) if np.isfinite(gram).all() else math.inf
        A._norm_sq_upper = 1.01 * max(top, float(np.finfo(float).tiny))
    return A._norm_sq_upper
