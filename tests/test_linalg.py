import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import I2, SM, SX, SY, SZ, random_complex, random_hermitian, taylor_exp
from lindscope import (
    DimensionError,
    LindbladModel,
    ModelError,
    NumericalError,
    RangeError,
    commutator,
    dagger,
    dephasing,
    eigenvalues_general,
    hermitian_norm,
    hs_inner,
    hs_norm,
    liouvillian,
    matrix_exp,
    pauli_channel,
    spectral_norm,
)
from lindscope.linalg import (
    _PADE_THETA_13,
    _pade_exp,
    as_complex_matrix,
    hermiticity_defect,
    hermiticity_tolerance,
)

complex_entries = st.complex_numbers(
    allow_nan=False, allow_infinity=False, max_magnitude=10.0
)
small_matrices = arrays(np.complex128, (3, 3), elements=complex_entries)


class TestDagger:
    def test_identity(self):
        np.testing.assert_array_equal(dagger(I2), I2)

    def test_pauli_y_hermitian(self):
        np.testing.assert_array_equal(dagger(SY), SY)

    def test_lowering_to_raising(self):
        np.testing.assert_array_equal(dagger(SM), (SX + 1j * SY) / 2)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(small_matrices)
    def test_involution(self, m):
        np.testing.assert_array_equal(dagger(dagger(m)), m)


class TestHsInner:
    def test_pauli_normalization(self):
        assert hs_inner(SX, SX) == pytest.approx(2.0)

    def test_pauli_orthogonality(self):
        assert hs_inner(SX, SZ) == 0

    def test_identity_with_lowering(self):
        # trace of the lowering operator vanishes
        assert hs_inner(I2, SM) == 0

    def test_conjugate_symmetry_and_linearity(self):
        rng = np.random.default_rng(3)
        a, b, c = (random_complex(rng, 3) for _ in range(3))
        assert hs_inner(a, b) == pytest.approx(np.conj(hs_inner(b, a)))
        lhs = hs_inner(a, 0.7 * b + 2j * c)
        rhs = 0.7 * hs_inner(a, b) + 2j * hs_inner(a, c)
        assert lhs == pytest.approx(rhs)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            hs_inner(I2, np.eye(3))


class TestHsNorm:
    def test_zero(self):
        assert hs_norm(np.zeros((2, 2))) == 0.0

    def test_pauli(self):
        assert hs_norm(SZ) == pytest.approx(np.sqrt(2))

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_identity(self, d):
        assert hs_norm(np.eye(d)) == pytest.approx(np.sqrt(d))

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(small_matrices)
    def test_frobenius_identity(self, m):
        expected = np.sum(np.abs(m) ** 2)
        assert hs_norm(m) ** 2 == pytest.approx(expected, rel=1e-12, abs=1e-300)


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(4)) == 1.0

    def test_dephasing_diagonal(self):
        assert spectral_norm(np.diag([0.0, -2.0, -2.0, 0.0])) == 2.0

    def test_homogeneity(self):
        rng = np.random.default_rng(5)
        m = random_complex(rng, 4)
        for c in (0.3, -2.0, 1.5j):
            assert spectral_norm(c * m) == pytest.approx(
                abs(c) * spectral_norm(m), rel=1e-12
            )

    def test_submultiplicative(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a, b = random_complex(rng, 4), random_complex(rng, 4)
            assert spectral_norm(a @ b) <= spectral_norm(a) * spectral_norm(b) * (1 + 1e-12)

    def test_dagger_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = random_complex(rng, 5)
            assert spectral_norm(dagger(m)) == pytest.approx(
                spectral_norm(m), rel=1e-12
            )


class TestHermitianEigenvalues:
    """hermitian_norm, the largest Hermitian eigenvalue magnitude, and the
    Hermiticity check that guards the matrices a user supplies."""

    def test_pauli_z(self):
        assert hermitian_norm(SZ) == 1.0

    def test_identity(self):
        assert hermitian_norm(I2) == 1.0

    def test_dephasing_generator(self):
        s = liouvillian(dephasing(1.0))
        assert hermitian_norm(s.matrix) == pytest.approx(2.0, abs=1e-12)

    def test_rejects_non_hermitian(self):
        # hermitian_norm trusts its caller; user input goes through the
        # defect test at model build, which rejects a skewed Hamiltonian
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert hermiticity_defect(m) == pytest.approx(1.0, rel=1e-15)
        assert hermiticity_defect(m) > hermiticity_tolerance(m)
        with pytest.raises(ModelError):
            LindbladModel(2, m)

    def test_matches_spectral_norm(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            h = random_hermitian(rng, 5)
            assert hermitian_norm(h) == pytest.approx(spectral_norm(h), rel=1e-13)

    def test_negative_dominant_eigenvalue(self):
        assert hermitian_norm(np.diag([-3.0, 1.0, 2.0])) == 3.0

    def test_defect_of_anti_hermitian(self):
        rng = np.random.default_rng(12)
        h = random_hermitian(rng, 4)
        assert hermiticity_defect(1j * h) == pytest.approx(
            2.0 * spectral_norm(h), rel=1e-13
        )
        assert hermiticity_defect(h) == 0.0


class TestEigenvaluesGeneral:
    def test_diagonal(self):
        ev = eigenvalues_general(np.diag([2.0 + 1j, -1.0]))
        np.testing.assert_allclose(ev, [-1.0, 2.0 + 1j])

    def test_nilpotent_degenerate(self):
        ev = eigenvalues_general(np.array([[0.0, 1.0], [0.0, 0.0]]))
        np.testing.assert_allclose(ev, [0.0, 0.0])

    def test_pauli_channel_spectrum(self):
        s = liouvillian(pauli_channel(1.0, 2.0, 3.0))
        np.testing.assert_allclose(
            eigenvalues_general(s.matrix), [-10.0, -8.0, -6.0, 0.0], atol=1e-9
        )

    def test_sum_equals_trace(self):
        rng = np.random.default_rng(9)
        m = random_complex(rng, 6)
        assert np.sum(eigenvalues_general(m)) == pytest.approx(
            np.trace(m), rel=1e-10, abs=1e-12
        )

    def test_sorted_by_real_then_imag(self):
        ev = eigenvalues_general(np.diag([1.0 + 2j, 1.0 - 2j, -3.0]))
        np.testing.assert_allclose(ev, [-3.0, 1.0 - 2j, 1.0 + 2j])


class TestMatrixExp:
    def test_zero(self):
        np.testing.assert_array_equal(matrix_exp(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        out = matrix_exp(np.diag([1.0, -2.0 + 1j]))
        np.testing.assert_allclose(out, np.diag(np.exp([1.0, -2.0 + 1j])), rtol=1e-14)

    def test_rotation_identity_vs_taylor(self):
        arg = 1j * (np.pi / 2) * SX
        expected = taylor_exp(arg)
        np.testing.assert_allclose(matrix_exp(arg), expected, atol=1e-14)
        np.testing.assert_allclose(expected, 1j * SX, atol=1e-15)

    def test_group_property(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            m = random_complex(rng, 8)
            m *= 2.0 / spectral_norm(m) * rng.uniform(0.2, 1.0)
            lhs = matrix_exp(m) @ matrix_exp(m)
            rhs = matrix_exp(2 * m)
            assert spectral_norm(lhs - rhs) <= 1e-8

    def test_range_error(self):
        with pytest.raises(RangeError):
            matrix_exp(100.0 * np.eye(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(NumericalError, match="NaN or Inf"):
            matrix_exp(np.array([[bad, 0.0], [0.0, 1.0]]))

    def test_range_check_decided_by_exact_norm(self):
        # a scaled Hadamard matrix: ||m||_2 = c sqrt(2), while the O(n^2)
        # bound sqrt(||m||_1 ||m||_inf) = 2c exceeds the range already
        hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
        matrix_exp(49.9 * hadamard)
        with pytest.raises(RangeError):
            matrix_exp(50.1 * hadamard)

    def test_range_check_skips_svd_under_bound(self, monkeypatch):
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        matrix_exp(np.diag([49.0, -49.0j]))
        assert calls == []
        with pytest.raises(RangeError):
            matrix_exp(np.diag([51.0, 1.0]))
        assert calls == [1]


EXP_KINDS = ("general", "diagonal", "upper_triangular", "nilpotent", "anti_hermitian", "real")
# error bound in units of eps * max(1, ||arg||_1) * max(1, ||exp(arg)||_2);
# the measured worst case over these inputs is about 6
EXP_TOL_EPS = 16


def _exp_input(kind, rng, n):
    m = random_complex(rng, n)
    if kind == "diagonal":
        return np.diag(np.diag(m))
    if kind == "upper_triangular":
        return np.triu(m)
    if kind == "nilpotent":
        return np.triu(m, 1)
    if kind == "anti_hermitian":
        return 1j * random_hermitian(rng, n)
    if kind == "real":
        return np.ascontiguousarray(m.real)
    return m


def _exp_arguments(base):
    """``base`` scaled to 1-norms from 1e-8 to 2, to just below and just
    above theta_13 and 2 theta_13 (where the number of squarings steps up),
    then to spectral norms 10, 20 and 49."""
    norm_1 = np.abs(base).sum(axis=0).max()
    for target in (1e-8, 1e-3, 0.1, 0.5, 2.0):
        yield base * (target / norm_1)
    for theta in (_PADE_THETA_13, 2 * _PADE_THETA_13):
        for side in (0.999, 1.001):
            yield base * (theta * side / norm_1)
    for norm in (10.0, 20.0, 49.0):
        yield base * (norm / spectral_norm(base))


def _assert_close_exp(got, want, arg):
    err = spectral_norm(got - want) / max(1.0, spectral_norm(want))
    scale = max(1.0, np.abs(arg).sum(axis=0).max())
    assert err <= EXP_TOL_EPS * np.finfo(float).eps * scale


class TestPadeExp:
    """The numpy-only exponential against scipy.linalg.expm and a Taylor sum."""

    @pytest.mark.parametrize(
        "kind,n",
        [(k, n) for k in EXP_KINDS for n in (1, 2, 9, 64) if (k, n) != ("nilpotent", 1)],
    )
    def test_against_references(self, kind, n):
        base = _exp_input(kind, np.random.default_rng(100 + n), n)
        for arg in _exp_arguments(base):
            got = matrix_exp(arg)
            assert got.dtype == arg.dtype  # a real argument runs in real arithmetic
            # scipy's reference takes a complex argument: its real 2 x 2 path
            # is off by up to 1e-13 relative against a 50-digit exponential
            _assert_close_exp(got, scipy.linalg.expm(arg.astype(complex)), arg)
            # the Taylor sum is accurate up to a 1-norm of 2, and a
            # nilpotent argument makes it a finite sum
            if kind == "nilpotent" or np.abs(arg).sum(axis=0).max() <= 2.0:
                _assert_close_exp(got, taylor_exp(arg), arg)
            if kind == "diagonal":
                _assert_close_exp(got, np.diag(np.exp(np.diag(arg))), arg)
            if kind == "anti_hermitian":
                sv = np.linalg.svd(got, compute_uv=False)
                assert np.abs(sv - 1.0).max() <= 1e-14

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_stack_equals_per_matrix(self, dtype):
        # the exponentials of a stack, bit for bit those of its matrices
        # taken one at a time with the stack's 1-norm (so the same squarings)
        rng = np.random.default_rng(120)
        stack = np.stack([_exp_input(kind, rng, 6) for kind in EXP_KINDS])
        stack = np.ascontiguousarray(stack.real if dtype is float else stack)
        stack *= np.array([1e-8, 0.1, 1.0, 2.0, 4.0, 8.0])[:, None, None]
        norm_1 = float(np.abs(stack).sum(axis=-2).max())
        got = _pade_exp(stack, norm_1)
        assert got.dtype == dtype
        for m, g in zip(stack, got):
            assert g.tobytes() == _pade_exp(m, norm_1).tobytes()
        assert matrix_exp(stack).tobytes() == got.tobytes()

    def test_stack_range_is_the_largest(self):
        # the range test of a stack fails when one matrix is out of range
        hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
        matrix_exp(np.stack([np.eye(2), 49.9 * hadamard]))
        with pytest.raises(RangeError):
            matrix_exp(np.stack([np.eye(2), 50.1 * hadamard]))
        with pytest.raises(DimensionError):
            matrix_exp(np.zeros((3, 2, 3)))

    @pytest.mark.parametrize("n", [1, 2, 9, 64])
    def test_zero_is_identity(self, n):
        # the exponential keeps its input's dtype: real stays real
        for dtype in (float, complex):
            out = matrix_exp(np.zeros((n, n), dtype=dtype))
            assert out.dtype == dtype
            assert (out == np.eye(n)).all()


class TestCommutator:
    def test_self(self):
        rng = np.random.default_rng(13)
        m = random_complex(rng, 4)
        np.testing.assert_array_equal(commutator(m, m), np.zeros((4, 4)))

    def test_pauli_algebra(self):
        np.testing.assert_allclose(commutator(SX, SY), 2j * SZ)

    def test_identity_commutes(self):
        rng = np.random.default_rng(14)
        m = random_complex(rng, 3)
        np.testing.assert_array_equal(commutator(np.eye(3), m), np.zeros((3, 3)))

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(small_matrices, small_matrices)
    def test_antisymmetry(self, a, b):
        np.testing.assert_array_equal(commutator(a, b), -commutator(b, a))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            commutator(I2, np.eye(3))


class TestAsComplexMatrix:
    def test_rejects_non_finite(self):
        from lindscope import NumericalError

        with pytest.raises(NumericalError):
            as_complex_matrix([[np.nan, 0.0], [0.0, 0.0]])

    def test_rejects_wrong_shape(self):
        with pytest.raises(DimensionError):
            as_complex_matrix([1.0, 2.0])
        with pytest.raises(DimensionError):
            as_complex_matrix(np.eye(2), rows=3)

    def test_copies_input(self):
        src = np.eye(2, dtype=complex)
        out = as_complex_matrix(src)
        out[0, 0] = 5.0
        assert src[0, 0] == 1.0
