import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    SM,
    SX,
    SZ,
    damped_jaynes_cummings,
    random_complex,
    random_density,
    random_hermitian,
    random_model,
    random_models,
    random_unitary,
    superop_columns,
)
from lindscope import (
    DimensionError,
    LindbladModel,
    ModelError,
    Superoperator,
    adjoint,
    apply,
    compute_metrics,
    decompose,
    dephasing,
    devectorize,
    driven_dephasing,
    hamiltonian_only,
    hs_inner,
    hs_norm,
    jaynes_cummings,
    liouvillian,
    multi_qubit_dephasing,
    spectral_norm,
    vectorize,
)
from lindscope.cli import main
from lindscope.errors import RangeError
from lindscope.models import ModelSpec, _stack
from lindscope.superop import (
    _OVERFLOW,
    _hermitian_coords,
    _liouvillians,
    _sector_blocks,
    _sector_form,
)
from test_cli import _SWEEPABLE


class TestVectorize:
    def test_identity_column_stacking(self):
        np.testing.assert_array_equal(vectorize(np.eye(2)), [1, 0, 0, 1])

    def test_convention(self):
        a = np.array([[1, 2], [3, 4]], dtype=complex)
        v = vectorize(a)
        for i in range(2):
            for j in range(2):
                assert v[i + 2 * j] == a[i, j]

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        m = random_complex(rng, 4)
        np.testing.assert_array_equal(devectorize(vectorize(m), 4), m)

    def test_isometry(self):
        assert np.vdot(vectorize(SX), vectorize(SX)) == hs_inner(SX, SX)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            devectorize(np.zeros(5), 2)
        with pytest.raises(DimensionError):
            vectorize(np.zeros((2, 3)))


class TestLindbladModel:
    def test_rejects_non_hermitian_hamiltonian(self):
        with pytest.raises(ModelError):
            LindbladModel(dim=2, hamiltonian=np.array([[0, 1], [0, 0]]))

    def test_rejects_overflowing_hermiticity_defect(self):
        # H - H^dag overflows; the defect is inf, not a nan that passes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelError, match="defect inf"):
                LindbladModel(dim=2, hamiltonian=np.array([[0, 1e308], [-1e308, 0]]))

    def test_near_hermitian_hamiltonian_symmetrized(self):
        # a defect within tolerance is averaged away, so the generator
        # preserves Hermiticity and rotates to a real matrix
        rng = np.random.default_rng(18)
        base = random_model(rng, d=4)
        h = np.array(base.hamiltonian)
        h[0, 1] += 1e-12
        model = LindbladModel(4, h, base.jumps)
        assert np.array_equal(model.hamiltonian, model.hamiltonian.conj().T)
        assert np.abs(model.hamiltonian - h).max() <= 1e-12
        assert _sector_form(liouvillian(model).matrix[None])[0].dtype == np.float64

    def test_hermitian_hamiltonian_keeps_its_bits(self):
        # subnormal and near-overflow entries included: nothing is averaged
        rng = np.random.default_rng(19)
        for peak in (1.0, 1e-320, 1.5e308):
            upper = np.triu(random_complex(rng, 4), 1)
            h = upper + upper.conj().T + np.diag(rng.normal(size=4))
            h = peak * (h / np.abs(h).max())
            assert np.array_equal(h, h.conj().T)
            assert LindbladModel(4, h).hamiltonian.tobytes() == h.tobytes()

    def test_hermiticity_checked_only_when_not_exact(self, monkeypatch):
        # an exactly Hermitian H has defect 0: no eigensolve, no SVD
        import lindscope.superop

        calls = []
        for name in ("hermiticity_defect", "hermiticity_tolerance"):
            fn = getattr(lindscope.superop, name)
            monkeypatch.setattr(
                lindscope.superop, name, lambda m, fn=fn, name=name: calls.append(name) or fn(m)
            )
        rng = np.random.default_rng(24)
        h = random_hermitian(rng, 3)
        LindbladModel(3, h)
        assert calls == []
        h[0, 1] += 1e-12
        LindbladModel(3, h)
        assert calls == ["hermiticity_defect", "hermiticity_tolerance"]

    def test_rejects_wrong_jump_shape(self):
        with pytest.raises(DimensionError):
            LindbladModel(dim=2, hamiltonian=np.zeros((2, 2)), jumps=(np.eye(3),))

    def test_dimension_cap(self):
        with pytest.raises(ModelError):
            LindbladModel(dim=33, hamiltonian=np.zeros((33, 33)))

    def test_cap_override(self, monkeypatch):
        monkeypatch.setenv("LINDSCOPE_DIM_CAP", "40")
        model = LindbladModel(dim=33, hamiltonian=np.zeros((33, 33)))
        assert model.dim == 33

    def test_arrays_frozen(self):
        model = dephasing(1.0)
        with pytest.raises(ValueError):
            model.hamiltonian[0, 0] = 1.0


class TestLiouvillian:
    def test_dephasing_eigenvalues(self):
        s = liouvillian(dephasing(1.0))
        np.testing.assert_allclose(
            np.linalg.eigvalsh(s.matrix), [-2, -2, 0, 0], atol=1e-12
        )

    def test_empty_model_is_zero(self):
        s = liouvillian(LindbladModel(dim=3, hamiltonian=np.zeros((3, 3))))
        np.testing.assert_array_equal(s.matrix, np.zeros((9, 9)))

    def test_hamiltonian_action_matches_direct_commutator(self):
        # oracle: plain d x d commutator arithmetic, no vectorization
        omega = 0.7
        h = 0.5 * omega * SZ
        s = liouvillian(hamiltonian_only(h))
        got = apply(s, SX)
        expected = -1j * (h @ SX - SX @ h)
        np.testing.assert_allclose(got, expected, atol=1e-14)

    def test_matches_column_built_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            model = random_model(rng)
            expected = superop_columns(model.hamiltonian, model.jumps)
            np.testing.assert_allclose(
                liouvillian(model).matrix, expected, atol=1e-13
            )

    def test_equals_kron_formula_bit_for_bit(self):
        # the docstring's formula with np.kron, in the same order of operations
        rng = np.random.default_rng(3)
        for d in (1, 2, 3, 5):
            model = random_model(rng, d=d)
            h, eye = model.hamiltonian, np.eye(d, dtype=complex)
            m = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
            for jump in model.jumps:
                jdj = jump.conj().T @ jump
                m = m + np.kron(jump.conj(), jump)
                m = m - 0.5 * np.kron(eye, jdj) - 0.5 * np.kron(jdj.T, eye)
            assert liouvillian(model).matrix.tobytes() == m.tobytes()

    def test_trace_row_annihilated(self):
        rng = np.random.default_rng(2)
        model = random_model(rng, d=3)
        s = liouvillian(model)
        row = vectorize(np.eye(3)).conj() @ s.matrix
        assert np.abs(row).max() <= 1e-10 * max(spectral_norm(s.matrix), 1.0)


class TestAdjoint:
    def test_dephasing_self_adjoint(self):
        s = liouvillian(dephasing(0.8))
        np.testing.assert_allclose(adjoint(s).matrix, s.matrix, atol=1e-14)

    def test_hamiltonian_anti_selfadjoint(self):
        rng = np.random.default_rng(3)
        s = liouvillian(hamiltonian_only(random_hermitian(rng, 3)))
        np.testing.assert_allclose(adjoint(s).matrix, -s.matrix, atol=1e-14)

    def test_zero(self):
        s = Superoperator(2, np.zeros((4, 4)))
        np.testing.assert_array_equal(adjoint(s).matrix, np.zeros((4, 4)))

    def test_involution(self):
        rng = np.random.default_rng(4)
        s = liouvillian(random_model(rng))
        np.testing.assert_array_equal(adjoint(adjoint(s)).matrix, s.matrix)

    def test_adjoint_property_against_inner_products(self):
        rng = np.random.default_rng(5)
        model = random_model(rng, d=3)
        s = liouvillian(model)
        for _ in range(10):
            a, b = random_complex(rng, 3), random_complex(rng, 3)
            lhs = hs_inner(a, apply(s, b))
            rhs = hs_inner(apply(adjoint(s), a), b)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


class TestDecompose:
    def test_dephasing_is_purely_hermitian(self):
        s = liouvillian(dephasing(1.0))
        herm, skew = decompose(s)
        np.testing.assert_allclose(herm.matrix, s.matrix, atol=1e-14)
        assert spectral_norm(skew.matrix) <= 1e-14

    def test_hamiltonian_is_purely_antihermitian(self):
        rng = np.random.default_rng(6)
        s = liouvillian(hamiltonian_only(random_hermitian(rng, 3)))
        herm, skew = decompose(s)
        assert spectral_norm(herm.matrix) <= 1e-14
        np.testing.assert_allclose(skew.matrix, s.matrix, atol=1e-14)

    def test_recombination(self):
        for model in random_models(7, 10):
            s = liouvillian(model)
            herm, skew = decompose(s)
            scale = max(np.abs(s.matrix).max(), 1.0)
            assert np.abs(herm.matrix + skew.matrix - s.matrix).max() <= 1e-14 * scale

    def test_parts_are_hermitian_and_antihermitian(self):
        rng = np.random.default_rng(8)
        s = liouvillian(random_model(rng))
        herm, skew = decompose(s)
        np.testing.assert_array_equal(herm.matrix, herm.matrix.conj().T)
        np.testing.assert_array_equal(skew.matrix, -skew.matrix.conj().T)


class TestApply:
    def test_dephasing_on_coherence(self):
        gamma = 0.9
        s = liouvillian(dephasing(gamma))
        np.testing.assert_allclose(apply(s, SX), -2 * gamma * SX, atol=1e-12)

    def test_trace_preservation(self):
        rng = np.random.default_rng(9)
        model = random_model(rng, d=3)
        s = liouvillian(model)
        for _ in range(50):
            rho = random_hermitian(rng, 3)
            assert abs(np.trace(apply(s, rho))) <= 1e-10 * hs_norm(rho)

    def test_hermiticity_preservation(self):
        rng = np.random.default_rng(10)
        model = random_model(rng, d=4)
        s = liouvillian(model)
        for _ in range(20):
            rho = random_hermitian(rng, 4)
            out = apply(s, rho)
            assert np.abs(out - out.conj().T).max() <= 1e-10 * max(hs_norm(out), 1.0)

    def test_zero_superoperator(self):
        s = Superoperator(2, np.zeros((4, 4)))
        np.testing.assert_array_equal(apply(s, SX), np.zeros((2, 2)))

    def test_linear(self):
        rng = np.random.default_rng(11)
        s = liouvillian(random_model(rng, d=2))
        a, b = random_complex(rng, 2), random_complex(rng, 2)
        np.testing.assert_allclose(
            apply(s, 2.0 * a + 1j * b),
            2.0 * apply(s, a) + 1j * apply(s, b),
            atol=1e-12,
        )

    def test_dimension_mismatch(self):
        s = liouvillian(dephasing(1.0))
        with pytest.raises(DimensionError):
            apply(s, np.eye(3))


class TestStructuralInvariants:
    def test_skew_part_inner_product_purely_imaginary(self):
        rng = np.random.default_rng(12)
        model = random_model(rng, d=3)
        _, skew = decompose(liouvillian(model))
        for _ in range(50):
            x = random_complex(rng, 3)
            val = hs_inner(x, apply(skew, x))
            assert abs(val.real) <= 1e-10 * hs_norm(x) ** 2

    def test_norm_change_rate_matches_hermitian_part(self):
        # finite-difference slope of ||rho + h L(rho)||^2 against 2 Re <rho, L_d rho>
        rng = np.random.default_rng(13)
        model = random_model(rng, d=3)
        s = liouvillian(model)
        herm, _ = decompose(s)
        rho = random_density(rng, 3)
        target = 2.0 * hs_inner(rho, apply(herm, rho)).real
        lrho = apply(s, rho)
        for h in (1e-5, 1e-6):
            fd = (hs_norm(rho + h * lrho) ** 2 - hs_norm(rho) ** 2) / h
            # exact expansion leaves h*||L rho||^2; cancellation adds ~eps/h
            assert abs(fd - target) <= h * hs_norm(lrho) ** 2 * (1 + 1e-6) + 1e-14 / h

    def test_norm_invariant_under_unitary_operator_basis_change(self):
        rng = np.random.default_rng(14)
        model = random_model(rng, d=3)
        s = liouvillian(model)
        u = random_unitary(rng, 3)
        transformed = LindbladModel(
            dim=3,
            hamiltonian=u @ model.hamiltonian @ u.conj().T,
            jumps=tuple(u @ j @ u.conj().T for j in model.jumps),
        )
        st = liouvillian(transformed)
        w = np.kron(u.conj(), u)
        np.testing.assert_allclose(
            st.matrix, w @ s.matrix @ w.conj().T, atol=1e-12
        )
        assert spectral_norm(st.matrix) == pytest.approx(
            spectral_norm(s.matrix), rel=1e-10
        )

    def test_oracle_agreement_for_canonical_qubit_channels(self):
        for jumps in ([SZ], [SM], [SZ, SM]):
            model = LindbladModel(dim=2, hamiltonian=np.zeros((2, 2)), jumps=tuple(jumps))
            np.testing.assert_allclose(
                liouvillian(model).matrix,
                superop_columns(model.hamiltonian, model.jumps),
                atol=1e-14,
            )


def _dense_basis(dim):
    """Columns vec(E_ii), then vec((E_ij + E_ji)/sqrt2), then vec(i (E_ij - E_ji)/sqrt2), i < j."""
    def unit(i, j):
        e = np.zeros((dim, dim), dtype=complex)
        e[i, j] = 1.0
        return e

    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    ops = [unit(i, i) for i in range(dim)]
    ops += [(unit(i, j) + unit(j, i)) / np.sqrt(2) for i, j in pairs]
    ops += [1j * (unit(i, j) - unit(j, i)) / np.sqrt(2) for i, j in pairs]
    return np.column_stack([vectorize(op) for op in ops])


def _scattered(a, table):
    """The whole real forms ``(k, n, n)`` whose sector blocks ``a`` has, placed by ``table``."""
    count, size = table.shape
    n = int((table >= 0).sum())
    blocks = a.reshape(-1, count, size, size)
    out = np.zeros((len(blocks), n, n), dtype=a.dtype)
    for sector, row in enumerate(table):
        live = row[row >= 0]
        out[:, live[:, None], live] = blocks[:, sector, : len(live), : len(live)]
    return out


class TestHermitianForm:
    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_basis_orthonormal_and_hermitian(self, dim):
        u = _dense_basis(dim)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(dim * dim), atol=1e-15)
        for k in range(dim * dim):
            op = devectorize(u[:, k], dim)
            assert np.array_equal(op, op.conj().T)

    def test_hermitian_operator_has_real_coordinates(self):
        rng = np.random.default_rng(15)
        u = _dense_basis(4)
        for _ in range(5):
            coords = u.conj().T @ vectorize(random_hermitian(rng, 4))
            assert np.max(np.abs(coords.imag)) <= 1e-15

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_matches_dense_rotation(self, dim):
        # a Lindbladian comes out real, a raw complex matrix complex; both
        # are 2^-e U^dag S U with the largest entry of 2^-e S in [1/2, 1)
        rng = np.random.default_rng(16 + dim)
        u = _dense_basis(dim)
        for m, dtype in [
            (liouvillian(random_model(rng, d=dim)).matrix, np.float64),
            (Superoperator(dim, random_complex(rng, dim * dim, scale=300.0)).matrix, complex),
        ]:
            a, e, table = _sector_form(m[None])
            a, e = _scattered(a, table)[0], int(e[0])
            assert a.dtype == dtype
            peak = np.max(np.abs(m.view(np.float64)))
            assert 0.5 <= np.ldexp(peak, -e) < 1.0
            dense = np.ldexp(1.0, -e) * (u.conj().T @ m @ u)
            np.testing.assert_allclose(a, dense, rtol=0, atol=4e-16)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_stack_rotates_each_matrix_alone(self, dim):
        # each matrix of a stack takes its own power of two, and the result
        # is that of the matrix alone, bit for bit
        rng = np.random.default_rng(25 + dim)
        ms = [liouvillian(random_model(rng, d=dim)).matrix * 10.0**k for k in (-200, 0, 200)]
        a, e, _ = _sector_form(np.stack(ms))
        assert a.dtype == np.float64 and len(set(e.tolist())) == 3
        for m, ak, ek in zip(ms, a, e):
            one, e_one, _ = _sector_form(m[None])
            assert e_one.dtype.kind == "i" and e_one.tolist() == [ek]
            assert np.array_equal(ak, one[0])

    def test_exact_symmetry_survives_rotation(self):
        # an anti-Hermitian generator rotates to an exactly skew-symmetric
        # real matrix, a Hermitian one to an exactly symmetric one
        rng = np.random.default_rng(17)
        m = liouvillian(hamiltonian_only(random_hermitian(rng, 4))).matrix
        a, _, table = _sector_form(m[None])
        a = _scattered(a, table)[0]
        assert a.dtype == np.float64 and np.array_equal(a, -a.T)
        a, _, table = _sector_form(liouvillian(dephasing(0.3)).matrix[None])
        a = _scattered(a, table)[0]
        assert a.dtype == np.float64 and np.array_equal(a, a.T)

    @pytest.mark.parametrize(
        "name", ["complex-diagonal", "jaynes_cummings", "multi_qubit_dephasing", "damped-jc"]
    )
    def test_split_blocks_match_dense_rotation(self, name):
        # the blocks of a generator that splits, placed back by their table,
        # are its whole rotation: a raw complex one, and real ones of each
        # kind of symmetry
        rng = np.random.default_rng(33)
        s = {
            "complex-diagonal": lambda: Superoperator(3, np.diag(random_complex(rng, 3).ravel())),
            "jaynes_cummings": lambda: liouvillian(jaynes_cummings(g=0.3, n_max=3)),
            "multi_qubit_dephasing": lambda: liouvillian(multi_qubit_dephasing([0.1, 0.2, 0.3])),
            "damped-jc": lambda: liouvillian(damped_jaynes_cummings(7)),
        }[name]()
        a, e, table = _sector_form(s.matrix[None])
        assert len(table) > 1
        assert a.dtype == (complex if name == "complex-diagonal" else np.float64)
        if name == "complex-diagonal":
            assert a.shape == (6, 2, 2)
        u = _dense_basis(s.dim)
        dense = np.ldexp(1.0, -int(e[0])) * (u.conj().T @ s.matrix @ u)
        np.testing.assert_allclose(_scattered(a, table)[0], dense, rtol=0, atol=4e-16)

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_coordinates_match_dense_basis(self, dim):
        # U^dag vec(rho), real for a Hermitian rho, complex otherwise
        rng = np.random.default_rng(20 + dim)
        u = _dense_basis(dim)
        for rho in (random_hermitian(rng, dim), random_complex(rng, dim)):
            np.testing.assert_allclose(
                _hermitian_coords(rho), u.conj().T @ vectorize(rho), rtol=0, atol=1e-15
            )
        upper = np.triu(random_complex(rng, dim), 1)
        coords = _hermitian_coords(upper + upper.conj().T + np.diag(rng.normal(size=dim)))
        assert np.array_equal(coords.imag, np.zeros(dim * dim))


def _dense_route(h, jumps):
    """The sector form of the dense generators, as sweeps took it before ``_sector_blocks``."""
    m = _liouvillians(h, jumps)
    if not np.isfinite(m).all():
        raise RangeError(_OVERFLOW)
    return _sector_form(m)


def _assert_same_blocks(h, jumps):
    """``_sector_blocks`` gives the dense route's blocks, exponents and table bit for bit,
    signs of zeros included, or raises its error; so does each point alone."""
    for lo, hi in [(0, len(h)), *((i, i + 1) for i in range(len(h)))]:
        try:
            want = _dense_route(h[lo:hi], jumps[lo:hi])
        except RangeError as exc:
            with pytest.raises(RangeError) as got:
                _sector_blocks(h[lo:hi], jumps[lo:hi])
            assert str(got.value) == str(exc)
            continue
        got = _sector_blocks(h[lo:hi], jumps[lo:hi])
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert np.array_equal(g, w) and g.tobytes() == w.tobytes()


def _sweep_stack(kind, params, param, values):
    h, jumps, _ = _stack(ModelSpec(kind, {**params, param: np.asarray(values, dtype=float)}))
    return h, jumps


class TestSectorBlocks:
    """The sector blocks straight from H and the jumps are those of the dense
    generators, rotated and split, bit for bit."""

    @pytest.mark.parametrize(
        "kind, param",
        [(kind, param) for kind, (_, params) in _SWEEPABLE.items() for param in params],
    )
    def test_sweepable_parameters(self, kind, param):
        # an exact zero first, then values over six decades
        values = [0.0, *np.geomspace(1e-3, 1e3, 7)]
        _assert_same_blocks(*_sweep_stack(kind, _SWEEPABLE[kind][0], param, values))

    @pytest.mark.parametrize("n_max", range(1, 8))
    def test_jaynes_cummings_sizes(self, n_max):
        values = [0.0, 0.05, 0.3]
        _assert_same_blocks(*_sweep_stack("jaynes_cummings", {"n_max": n_max}, "g", values))

    @pytest.mark.parametrize("k", range(1, 6))
    def test_multi_qubit_dephasing_sizes(self, k):
        rates = {f"gamma_{j + 1}": 0.1 * (j + 1) for j in range(k)}
        values = [0.0, 0.7]
        _assert_same_blocks(*_sweep_stack("multi_qubit_dephasing", {"k": k, **rates},
                                          "gamma_1", values))

    def test_exact_zero_coefficients(self):
        # zero rates and drives cut couplings: alone, and next to points
        # where they are not zero
        for kind, params in [
            ("pauli_channel", {"gamma_x": 0.0, "gamma_y": 0.0, "gamma_z": 0.4}),
            ("dephasing_relaxation", {"gamma_z": 0.0, "gamma_minus": 0.0}),
            ("jaynes_cummings", {"omega_a": 0.0, "omega_c": 0.0, "g": 0.0}),
            ("driven_dephasing", {"gamma_z": 0.0, "omega": 0.0}),
        ]:
            for param in params:
                _assert_same_blocks(*_sweep_stack(kind, params, param, [0.0, 0.5, 0.0]))

    def test_degenerate_frequencies(self):
        # at g = 0 with omega_a == omega_c exactly, dressed frequencies
        # cancel to 0 and the crossing point splits finer than its neighbours
        h, jumps = _sweep_stack("jaynes_cummings", {"omega_c": 1.0, "g": 0.0}, "omega_a",
                                [0.75, 1.0, 1.25])
        _assert_same_blocks(h, jumps)
        tables = [_sector_blocks(h[i : i + 1], jumps[i : i + 1])[2].shape for i in range(3)]
        assert tables[0] == tables[2] != tables[1]

    def test_overflow_raises_as_dense(self):
        # the generator's entries overflow; or L^dag L does, a term of the
        # identity products that no entry of the pattern holds
        for kind, params, param, values in [
            ("dephasing_relaxation", {"gamma_z": 1.0}, "gamma_minus", [1e308, 1.7e308]),
            ("dephasing_relaxation", {"gamma_minus": 1.0}, "gamma_z", [1.0, 1.7e308]),
            ("pauli_channel", {}, "gamma_y", [1e308]),
        ]:
            _assert_same_blocks(*_sweep_stack(kind, params, param, values))
        jumps = np.zeros((1, 1, 3, 3), dtype=complex)
        jumps[0, 0, 0, 2] = 1e200
        with pytest.raises(RangeError, match="overflows"):
            _sector_blocks(np.zeros((1, 3, 3), dtype=complex), jumps)
        _assert_same_blocks(np.zeros((1, 3, 3), dtype=complex), jumps)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_dense_and_complex_models(self, dim):
        # random models are one sector; a non-Hermitian H makes the
        # rotation complex
        rng = np.random.default_rng(40 + dim)
        h = np.stack([random_hermitian(rng, dim) for _ in range(3)])
        jumps = np.stack([[random_complex(rng, dim) for _ in range(2)] for _ in range(3)])
        _assert_same_blocks(h, jumps)
        _assert_same_blocks(h + 1e-3j * random_hermitian(rng, dim), jumps)
        _assert_same_blocks(h, jumps[:, :0])

    def test_finer_split_that_does_not_pay(self):
        # the patterns of H and L split the real form into sectors that pay;
        # the entries that cancel split it further, into more blocks of the
        # same largest size, which do not pay: one block of every entry
        h = np.diag([-1.0, 0.0, 0.0, 0.0]).astype(complex)[None]
        jumps = np.zeros((1, 1, 4, 4), dtype=complex)
        jumps[0, 0, 0, 1], jumps[0, 0, 2, 2] = -2.0, -1.0
        _assert_same_blocks(h, jumps)
        assert _sector_blocks(h, jumps)[2].shape == (1, 16)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        target=st.sampled_from(
            [(kind, param) for kind, (_, params) in _SWEEPABLE.items() for param in params]
        ),
        values=st.lists(
            st.sampled_from([0.0, 5e-324, 1e-300, 1e-160, 1e150, 1e300])
            | st.floats(0.0, 1e3, allow_subnormal=False),
            min_size=1,
            max_size=5,
        ),
    )
    def test_drawn_values(self, target, values):
        kind, param = target
        _assert_same_blocks(*_sweep_stack(kind, _SWEEPABLE[kind][0], param, values))

    def test_sweep_forms_no_dense_generator(self, tmp_path, monkeypatch, capsys):
        def refused(*args):
            raise AssertionError("a sweep formed a dense generator")

        import lindscope.superop

        # a failing sweep takes its points again one at a time, and names
        # the first failing one with the error of the dense route
        with pytest.raises(RangeError) as dense:
            compute_metrics(liouvillian(driven_dephasing(1e300, 1e10)))
        monkeypatch.setattr(lindscope.superop, "_liouvillians", refused)
        monkeypatch.setattr(lindscope.superop, "_sector_form", refused)
        path = tmp_path / "jc.json"
        path.write_text('{"model": {"type": "jaynes_cummings", "n_max": 3}}', encoding="utf-8")
        argv = ["sweep", str(path), "--param", "g", "--from", "0", "--to", "1", "--points", "30"]
        assert main(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == 31
        path = tmp_path / "dd.json"
        path.write_text('{"model": {"type": "driven_dephasing", "gamma_z": 1.0, "omega": 1e10}}',
                        encoding="utf-8")
        argv = ["sweep", str(path), "--param", "gamma_z", "--from", "1e300", "--to=-1e300",
                "--points", "3"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: gamma_z = 1e+300: {dense.value}\n"
        assert captured.err.startswith("error: gamma_z = 1e+300: eta is about")
