import math

import numpy as np
import pytest

from splitep.linalg import (
    MAX_MAGNITUDE,
    DenseOperator,
    _norm,
    as_vector,
    norm,
    operator_norm_sq_upper,
)


class TestInner:
    """``norm`` against the Euclidean inner product ``u @ v``."""

    def test_norm_is_induced(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            u = rng.standard_normal(rng.integers(1, 8))
            assert u @ u == pytest.approx(norm(u) ** 2, abs=1e-12)

    def test_cauchy_schwarz_sampled(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            u = rng.standard_normal(5)
            v = rng.standard_normal(5)
            assert abs(u @ v) <= norm(u) * norm(v) + 1e-12


class TestNormKernel:
    """``_norm`` and ``norm`` give ``np.linalg.norm``'s bits, not just its value."""

    @staticmethod
    def same_float(a, b) -> bool:
        return np.float64(a).tobytes() == np.float64(b).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 5, 20, 200, 1000])
    def test_bit_equal_to_numpy_across_scales(self, n):
        rng = np.random.default_rng(n)
        for scale in (1e-150, 1e-20, 1.0, 1e20, 1e150):
            for _ in range(20):
                v = scale * rng.standard_normal(n)
                expected = np.linalg.norm(v)
                assert self.same_float(_norm(v), expected)
                assert self.same_float(norm(v), expected)

    @pytest.mark.parametrize("n", [1, 2, 5, 20, 200, 1000])
    def test_bit_equal_to_numpy_with_inf_and_nan(self, n):
        rng = np.random.default_rng(100 + n)
        for special in (np.inf, -np.inf, np.nan):
            v = rng.standard_normal(n)
            v[rng.integers(n)] = special
            assert self.same_float(_norm(v), np.linalg.norm(v))
            assert self.same_float(norm(v), np.linalg.norm(v))

    def test_public_norm_where_the_sum_of_squares_overflows(self):
        # like np.linalg.norm it gives inf there, and numpy warns of the
        # overflow; such entries lie beyond the bound that as_vector admits
        for u in ([1e200, 0.0], [3e200, -4e200], np.full((2, 2), 1e200)):
            with pytest.warns(RuntimeWarning, match="overflow"):
                assert norm(u) == math.inf

    @pytest.mark.parametrize(
        "u",
        [[3.0, 4.0], [1, 2, 2], 5.0, -2, np.arange(12.0).reshape(3, 4), np.arange(20.0)[::3]],
        ids=["list", "int-list", "scalar", "int-scalar", "matrix", "strided-view"],
    )
    def test_public_norm_of_other_inputs_is_unchanged(self, u):
        result = norm(u)
        assert type(result) is float
        assert self.same_float(result, np.linalg.norm(np.asarray(u, dtype=float)))


class TestAsVector:
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_magnitude_bound(self, sign):
        assert as_vector([sign * MAX_MAGNITUDE, 0.0])[0] == sign * 1e150
        for beyond in (np.nextafter(MAX_MAGNITUDE, np.inf), 1e300, np.inf):
            with pytest.raises(ValueError, match=r"finite and at most 1e\+150 in magnitude"):
                as_vector([0.0, sign * beyond])

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            as_vector([1.0, np.nan])

    def test_rejects_matrix(self):
        with pytest.raises(ValueError, match="1-D"):
            as_vector([[1.0, 2.0]])

    def test_dim_check(self):
        with pytest.raises(ValueError, match="dimension 3"):
            as_vector([1.0, 2.0], dim=3)

    def test_scalar_promotes(self):
        assert as_vector(2.0).shape == (1,)

    @pytest.mark.parametrize(
        "x",
        [np.array([3 + 4j, 1]), [1 + 2j, 1.0], [np.complex128(1 + 2j), 1.0], np.complex128(1 + 0j), 1 + 2j],
        ids=["array", "python-complex", "numpy-scalar-in-list", "numpy-scalar", "python-scalar"],
    )
    def test_refuses_complex_input(self, x):
        # the cast to float64 would drop the imaginary part or raise a TypeError
        with pytest.raises(ValueError, match="complex"):
            as_vector(x)
        with pytest.raises(ValueError, match="complex"):
            DenseOperator(np.reshape(x, (1, -1)) if np.ndim(x) else [[x]])

    def test_real_input_converts_as_before(self):
        for x in ([1, True, "2.5"], np.array([1, 2], dtype=np.int32), [np.float32(0.5)]):
            assert np.array_equal(as_vector(x), np.asarray(x, dtype=float))
            assert np.array_equal(DenseOperator([x]).entries, np.asarray([x], dtype=float))


class TestApply:
    def test_identity(self):
        A = DenseOperator(np.eye(2))
        assert np.array_equal(A.apply([3.0, 4.0]), [3.0, 4.0])

    def test_coordinate_swap(self):
        A = DenseOperator([[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(A.apply([3.0, 4.0]), [4.0, 3.0])

    def test_zero_annihilates(self):
        A = DenseOperator(np.zeros((3, 2)))
        assert np.array_equal(A.apply([5.0, -7.0]), np.zeros(3))

    def test_linearity_sampled(self):
        rng = np.random.default_rng(2)
        A = DenseOperator(rng.standard_normal((4, 3)))
        for _ in range(20):
            x, y = rng.standard_normal(3), rng.standard_normal(3)
            a, b = rng.standard_normal(2)
            lhs = A.apply(a * x + b * y)
            rhs = a * A.apply(x) + b * A.apply(y)
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_dimension_mismatch(self):
        A = DenseOperator(np.eye(2))
        with pytest.raises(ValueError, match="dimension 2"):
            A.apply([1.0, 2.0, 3.0])

    def test_rejects_nonfinite_entries(self):
        with pytest.raises(ValueError, match="finite"):
            DenseOperator([[np.inf, 0.0]])

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_rejects_empty_matrix(self, shape):
        # vectors have dimension >= 1, so an operator maps between such spaces
        with pytest.raises(ValueError, match="nonempty"):
            DenseOperator(np.zeros(shape))


class TestAdjoint:
    def test_identity_self_adjoint(self):
        A = DenseOperator(np.eye(2))
        assert np.array_equal(A.adjoint_apply([1.0, 2.0]), [1.0, 2.0])

    def test_first_row_as_column(self):
        A = DenseOperator([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(A.adjoint_apply([1.0, 0.0]), [1.0, 2.0])

    def test_adjoint_identity_sampled(self):
        rng = np.random.default_rng(3)
        A = DenseOperator(rng.standard_normal((4, 3)))
        for _ in range(100):
            x = rng.standard_normal(3)
            y = rng.standard_normal(4)
            lhs = A.apply(x) @ y
            rhs = x @ A.adjoint_apply(y)
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + norm(x) * norm(y))

    def test_dimension_mismatch(self):
        A = DenseOperator(np.ones((4, 3)))
        with pytest.raises(ValueError, match="dimension 4"):
            A.adjoint_apply([1.0, 2.0, 3.0])


def test_combination_norm_identity_sampled():
    # ||a x + (1-a) y||^2 == a ||x||^2 + (1-a) ||y||^2 - a (1-a) ||x-y||^2
    rng = np.random.default_rng(4)
    for _ in range(200):
        x = rng.standard_normal(6)
        y = rng.standard_normal(6)
        a = rng.uniform(0.0, 1.0)
        lhs = norm(a * x + (1.0 - a) * y) ** 2
        rhs = a * norm(x) ** 2 + (1.0 - a) * norm(y) ** 2 - a * (1.0 - a) * norm(x - y) ** 2
        assert abs(lhs - rhs) <= 1e-10


class TestOperatorNormBound:
    def test_identity(self):
        A = DenseOperator(np.eye(3))
        assert operator_norm_sq_upper(A) == pytest.approx(1.01, rel=1e-12)

    def test_diagonal(self):
        A = DenseOperator(np.diag([2.0, 1.0]))
        assert operator_norm_sq_upper(A) == pytest.approx(4.0 * 1.01, rel=1e-12)

    def test_matches_svd_oracle(self):
        rng = np.random.default_rng(5)
        for shape in [(5, 5), (3, 7), (7, 3)] * 4:
            A = DenseOperator(rng.standard_normal(shape))
            sigma_max = np.linalg.svd(A.entries, compute_uv=False)[0]
            assert operator_norm_sq_upper(A) == pytest.approx(1.01 * sigma_max**2, rel=1e-12)

    def test_zero_operator_keeps_reciprocal_finite(self):
        A = DenseOperator(np.zeros((3, 2)))
        U = operator_norm_sq_upper(A)
        assert U > 0.0
        assert np.isfinite(1.0 / U)

    def test_dominates_sampled_rayleigh_quotients(self):
        rng = np.random.default_rng(6)
        A = DenseOperator(rng.standard_normal((6, 4)))
        U = operator_norm_sq_upper(A)
        for _ in range(100):
            x = rng.standard_normal(4)
            quotient = norm(A.apply(x)) ** 2 / norm(x) ** 2
            assert U >= quotient

    def test_symmetric_structure_not_trapped(self):
        # gram [[2,-1],[-1,2]] has its top eigenvector orthogonal to all-ones;
        # the bound must still reach the true squared norm 3
        entries = np.linalg.cholesky(np.array([[2.0, -1.0], [-1.0, 2.0]])).T
        U = operator_norm_sq_upper(DenseOperator(entries))
        assert U == pytest.approx(1.01 * 3.0, rel=1e-12)

    @pytest.mark.parametrize("entry", [1e160, 1e200, -1e200])
    def test_overflowing_gram_gives_an_infinite_bound(self, entry):
        # every Gram entry, and every partial sum of one, is at most ||A||^2,
        # so an overflowing product bounds it by inf: not NaN, and no warning
        assert operator_norm_sq_upper(DenseOperator(np.full((2, 2), entry))) == math.inf
        assert operator_norm_sq_upper(DenseOperator(np.full((2, 3), entry))) == math.inf
        # off the diagonal inf - inf is NaN
        assert operator_norm_sq_upper(DenseOperator(entry * np.array([[1.0, 1.0], [1.0, -1.0]]))) == math.inf
