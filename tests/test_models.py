import itertools

import numpy as np
import pytest

from helpers import (
    I2,
    SX,
    SY,
    SZ,
    random_hermitian,
    random_symmetric_spectrum_hermitian,
)
from lindscope import (
    ConfigError,
    ModelError,
    ModelSpec,
    Regime,
    apply,
    build,
    compute_metrics,
    dagger,
    dephasing,
    dephasing_relaxation,
    driven_dephasing,
    eigenvalues_general,
    hamiltonian_only,
    hs_inner,
    jaynes_cummings,
    liouvillian,
    lowering,
    multi_qubit_dephasing,
    nonnormality,
    pauli,
    pauli_channel,
    relaxation,
    spectral_norm,
    tensor_site,
)
from lindscope.metrics import eta_tolerance, zero_tolerance


class TestPauli:
    def test_z_diagonal(self):
        np.testing.assert_array_equal(pauli("z"), np.diag([1.0, -1.0]))

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_squares_to_identity(self, axis):
        np.testing.assert_allclose(pauli(axis) @ pauli(axis), I2)

    def test_lowering_nilpotent(self):
        low = lowering()
        np.testing.assert_array_equal(low @ low, np.zeros((2, 2)))

    def test_lowering_matches_definition(self):
        np.testing.assert_allclose(lowering(), (SX - 1j * SY) / 2)

    def test_ladder_completeness(self):
        low = lowering()
        raise_ = dagger(low)
        np.testing.assert_allclose(low @ raise_ + raise_ @ low, I2)

    def test_unknown_axis(self):
        with pytest.raises(ConfigError):
            pauli("w")


class TestTensorSite:
    def test_single_site(self):
        np.testing.assert_array_equal(tensor_site(SZ, 0, 1), SZ)

    def test_rightmost_site(self):
        np.testing.assert_array_equal(tensor_site(SZ, 1, 2), np.kron(I2, SZ))

    def test_leftmost_site(self):
        np.testing.assert_array_equal(tensor_site(SZ, 0, 2), np.kron(SZ, I2))

    def test_different_sites_commute(self):
        a = tensor_site(SZ, 0, 2)
        b = tensor_site(SZ, 1, 2)
        np.testing.assert_array_equal(a @ b - b @ a, np.zeros((4, 4)))

    def test_site_out_of_range(self):
        with pytest.raises(ConfigError):
            tensor_site(SZ, 2, 2)

    def test_cap_exceeded(self):
        with pytest.raises(ModelError):
            tensor_site(SZ, 0, 6)


class TestBuilders:
    def test_dephasing_metrics(self):
        m = compute_metrics(liouvillian(dephasing(1.0)))
        assert m.delta == pytest.approx(2.0, abs=1e-12)
        assert m.eta <= 1e-12

    def test_pauli_channel_spectrum(self):
        s = liouvillian(pauli_channel(1.0, 2.0, 3.0))
        np.testing.assert_allclose(
            eigenvalues_general(s.matrix), [-10, -8, -6, 0], atol=1e-9
        )

    def test_jaynes_cummings_is_hamiltonian_class(self):
        model = jaynes_cummings(1.0, 1.0, 0.1, 3)
        assert model.dim == 8
        s = liouvillian(model)
        m = compute_metrics(s)
        assert m.delta <= zero_tolerance(m.generator_norm)
        assert m.eta <= eta_tolerance(m.generator_norm)
        assert m.regime is Regime.HAMILTONIAN

    def test_jaynes_cummings_truncation_dimension(self):
        assert jaynes_cummings(n_max=1).dim == 4
        with pytest.raises(ConfigError):
            jaynes_cummings(n_max=0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigError):
            dephasing(-1.0)
        with pytest.raises(ConfigError):
            pauli_channel(1.0, -0.1, 0.0)

    def test_zero_rate_degenerates_to_hamiltonian_class(self):
        model = driven_dephasing(gamma_z=0.0, omega=0.7)
        m = compute_metrics(liouvillian(model))
        assert m.regime is Regime.HAMILTONIAN

    def test_relaxation_jump(self):
        model = relaxation(4.0)
        np.testing.assert_allclose(model.jumps[0], 2.0 * lowering())


class TestBuildFromSpec:
    def test_named_dephasing(self):
        model = build(ModelSpec("dephasing", {"gamma_z": 0.7}))
        m = compute_metrics(liouvillian(model))
        assert m.delta == pytest.approx(1.4, abs=1e-10)

    def test_multi_qubit_param_collection(self):
        model = build(
            ModelSpec(
                "multi_qubit_dephasing",
                {"k": 3, "gamma_1": 0.1, "gamma_2": 0.2, "gamma_3": 0.3},
            )
        )
        assert model.dim == 8
        assert len(model.jumps) == 3

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            build(ModelSpec("squeezed_cat", {}))

    def test_unknown_parameter(self):
        with pytest.raises(ConfigError):
            build(ModelSpec("dephasing", {"gamma_q": 1.0}))

    def test_missing_parameter(self):
        with pytest.raises(ConfigError):
            build(ModelSpec("multi_qubit_dephasing", {"k": 2, "gamma_1": 0.1}))

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), -float("inf"), 10**400],
        ids=["nan", "inf", "-inf", "huge-int"],
    )
    def test_non_finite_parameter_named(self, value):
        with pytest.raises(ConfigError, match=r"^driven_dephasing: parameter 'omega' must be a finite"):
            build(ModelSpec("driven_dephasing", {"gamma_z": 1.0, "omega": value}))

    def test_integer_parameter_validation(self):
        with pytest.raises(ConfigError):
            build(ModelSpec("jaynes_cummings", {"n_max": 2.5}))
        model = build(ModelSpec("jaynes_cummings", {"n_max": 2.0}))
        assert model.dim == 6

    def test_hamiltonian_only_named_form(self):
        model = build(ModelSpec("hamiltonian_only", {"omega": 2.0}))
        np.testing.assert_allclose(model.hamiltonian, SZ)
        assert model.jumps == ()


class TestMultiQubitDephasing:
    def test_delta_additivity(self):
        s = liouvillian(multi_qubit_dephasing([0.1, 0.2, 0.3]))
        m = compute_metrics(s)
        assert m.delta == pytest.approx(1.2, abs=1e-9)
        assert m.eta <= 1e-9

    def test_every_two_qubit_pauli_string_is_eigenoperator(self):
        gammas = [0.1, 0.2]
        s = liouvillian(multi_qubit_dephasing(gammas))
        paulis = {"i": I2, "x": SX, "y": SY, "z": SZ}
        for a, b in itertools.product("ixyz", repeat=2):
            string = np.kron(paulis[a], paulis[b])
            expected = -2.0 * sum(
                g for g, axis in zip(gammas, (a, b)) if axis in ("x", "y")
            )
            out = apply(s, string)
            np.testing.assert_allclose(out, expected * string, atol=1e-10)


class TestPauliChannelDiagonality:
    def test_diagonal_in_normalized_pauli_basis(self):
        s = liouvillian(pauli_channel(1.0, 2.0, 3.0))
        basis = np.column_stack(
            [np.asarray(p).flatten(order="F") / np.sqrt(2) for p in (I2, SX, SY, SZ)]
        )
        transformed = basis.conj().T @ s.matrix @ basis
        off_diag = transformed - np.diag(np.diag(transformed))
        assert np.abs(off_diag).max() <= 1e-12


class TestDephasingRelaxation:
    def test_coherence_decay_rate(self):
        for gamma_z, gamma_minus in ((1.0, 1.0), (0.3, 0.9), (2.0, 0.5)):
            s = liouvillian(dephasing_relaxation(gamma_z, gamma_minus))
            rate = 2 * gamma_z + gamma_minus / 2
            np.testing.assert_allclose(apply(s, SX), -rate * SX, atol=1e-10)

    def test_eta_homogeneity(self):
        base = nonnormality(liouvillian(dephasing_relaxation(1.0, 1.0)))
        for c in (2.0, 5.0):
            scaled = nonnormality(liouvillian(dephasing_relaxation(c, c)))
            assert scaled == pytest.approx(c**2 * base, rel=1e-8)

    def test_delta_at_least_coherence_rate(self):
        for gamma_z, gamma_minus in ((1.0, 1.0), (0.2, 1.5)):
            s = liouvillian(dephasing_relaxation(gamma_z, gamma_minus))
            m = compute_metrics(s)
            assert m.delta >= 2 * gamma_z + gamma_minus / 2 - 1e-9


class TestDriveScaling:
    def test_kappa_linear_in_drive(self):
        kappas = {}
        for omega in (0.001, 0.002, 0.004):
            m = compute_metrics(liouvillian(driven_dephasing(1.0, omega)))
            kappas[omega] = m.kappa
        slopes = [kappas[w] / w for w in kappas]
        mean = sum(slopes) / len(slopes)
        for slope in slopes:
            assert abs(slope - mean) <= 0.02 * mean


class TestHamiltonianNormIdentity:
    def test_symmetric_spectrum_equality(self):
        rng = np.random.default_rng(0)
        for d in (2, 3, 4):
            for _ in range(5):
                h = random_symmetric_spectrum_hermitian(rng, d)
                s = liouvillian(hamiltonian_only(h))
                assert spectral_norm(s.matrix) == pytest.approx(
                    2 * spectral_norm(h), rel=1e-9
                )

    def test_general_traceless_is_spectral_spread(self):
        rng = np.random.default_rng(1)
        for d in (3, 4):
            h = random_hermitian(rng, d, traceless=True)
            s = liouvillian(hamiltonian_only(h))
            levels = np.linalg.eigvalsh(h)
            spread = float(levels[-1] - levels[0])
            assert spectral_norm(s.matrix) == pytest.approx(spread, rel=1e-9)
            assert spectral_norm(s.matrix) <= 2 * spectral_norm(h) * (1 + 1e-12)


class TestLabels:
    def test_labels_are_deterministic(self):
        assert dephasing(1.0).label == "dephasing(gamma_z=1)"
        assert build(ModelSpec("dephasing", {"gamma_z": 1.0})).label == "dephasing(gamma_z=1)"


class TestJaynesCummingsStructure:
    def test_excitation_conserving_coupling(self):
        # rotating-wave form: total excitation (excited-state projector plus
        # photon number) commutes with the Hamiltonian
        model = jaynes_cummings(1.0, 1.0, 0.1, 2)
        h = model.hamiltonian
        nf = 3
        excitation = np.kron(np.diag([1.0, 0.0]), np.eye(nf)) + np.kron(
            np.eye(2), np.diag([0.0, 1.0, 2.0])
        )
        comm = h @ excitation - excitation @ h
        assert np.abs(comm).max() <= 1e-12
        assert hs_inner(h, h).real > 0  # nontrivial Hamiltonian
