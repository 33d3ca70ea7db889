import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    LindscopeError,
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
from lindscope.models import MODEL_KINDS, _stack


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
        # 2**20000 has 6021 digits, more than Python formats: the error
        # names num_sites and the cap instead
        for num_sites in (6, 20000):
            with pytest.raises(ModelError) as raised:
                tensor_site(SZ, 0, num_sites)
            assert str(raised.value) == (
                "num_sites makes the dimension 2**num_sites exceed the cap 32 "
                "(set LINDSCOPE_DIM_CAP to raise it at your own risk)"
            )


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

    @pytest.mark.parametrize("n_max", [16, 10**300, 1e300], ids=["16", "int", "float"])
    def test_jaynes_cummings_over_cap_names_n_max(self, n_max):
        # the dimension of n_max = 1e300 has 301 digits; the error names
        # the parameter and the cap instead
        with pytest.raises(ModelError) as raised:
            build(ModelSpec("jaynes_cummings", {"n_max": n_max}))
        assert str(raised.value) == (
            "jaynes_cummings: n_max makes the dimension 2 (n_max + 1) exceed the cap 32 "
            "(set LINDSCOPE_DIM_CAP to raise it at your own risk)"
        )

    @pytest.mark.parametrize("k", [6, 200, 15000])
    def test_multi_qubit_over_cap_names_k(self, k):
        # with every rate given, 2**15000 would have 4516 digits
        with pytest.raises(ModelError) as raised:
            multi_qubit_dephasing([1.0] * k)
        assert str(raised.value) == (
            "multi_qubit_dephasing: k makes the dimension 2**k exceed the cap 32 "
            "(set LINDSCOPE_DIM_CAP to raise it at your own risk)"
        )

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

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: build(ModelSpec("dephasing", {"gamma_z": 10**5000})),
             "dephasing: parameter 'gamma_z' must be a finite double, "
             "got an integer of about 1.0e5000"),
            (lambda: build(ModelSpec("jaynes_cummings", {"n_max": -10**5000})),
             "n_max must be at least 1, got an integer of about -1.0e5000"),
            (lambda: build(ModelSpec("multi_qubit_dephasing", {"k": -10**5000})),
             "multi_qubit_dephasing: k must be at least 1, got an integer of about -1.0e5000"),
            (lambda: dephasing(10**5000),
             "dephasing: parameter 'gamma_z' must be a finite double, "
             "got an integer of about 1.0e5000"),
            (lambda: driven_dephasing(omega=-10**5000),
             "driven_dephasing: parameter 'omega' must be a finite double, "
             "got an integer of about -1.0e5000"),
            (lambda: jaynes_cummings(g=3 * 10**400),
             "jaynes_cummings: parameter 'g' must be a finite double, "
             "got an integer of about 3.0e400"),
            (lambda: jaynes_cummings(n_max=-10**5000),
             "n_max must be at least 1, got an integer of about -1.0e5000"),
            (lambda: multi_qubit_dephasing([1.0, 10**5000]),
             "multi_qubit_dephasing: parameter 'gamma_2' must be a finite double, "
             "got an integer of about 1.0e5000"),
            (lambda: relaxation(10**400 - 10**397),
             "relaxation: parameter 'gamma_minus' must be a finite double, "
             "got an integer of about 1.0e400"),
        ],
        ids=["build-rate", "build-n_max", "build-k", "dephasing", "driven_dephasing",
             "jaynes_cummings-g", "jaynes_cummings-n_max", "multi_qubit_dephasing",
             "relaxation-rounded-up"],
    )
    def test_huge_integer_named_briefly(self, make, message):
        # Python prints no integer of more than 4300 digits; the error names
        # the parameter and the integer's order of magnitude
        with pytest.raises(ConfigError) as raised:
            make()
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "make, spec",
        [
            (lambda: dephasing(True), ModelSpec("dephasing", {"gamma_z": True})),
            (lambda: dephasing("2"), ModelSpec("dephasing", {"gamma_z": "2"})),
            (lambda: dephasing(None), ModelSpec("dephasing", {"gamma_z": None})),
            (lambda: relaxation(1 + 0j), ModelSpec("relaxation", {"gamma_minus": 1 + 0j})),
            (lambda: relaxation(np.bool_(True)),
             ModelSpec("relaxation", {"gamma_minus": np.bool_(True)})),
            (lambda: driven_dephasing(omega=[0.5]),
             ModelSpec("driven_dephasing", {"omega": [0.5]})),
            (lambda: multi_qubit_dephasing([1.0, True]),
             ModelSpec("multi_qubit_dephasing", {"k": 2, "gamma_1": 1.0, "gamma_2": True})),
        ],
        ids=["bool", "str", "none", "complex", "numpy-bool", "list", "bool-in-list"],
    )
    def test_builder_refuses_what_build_refuses(self, make, spec):
        # a public builder passes on what is not a number, and build names it
        with pytest.raises(ConfigError) as built:
            build(spec)
        with pytest.raises(ConfigError) as raised:
            make()
        assert str(raised.value) == str(built.value)
        assert str(raised.value).endswith("must be a number")

    def test_builder_refuses_an_array(self):
        # build takes a vector as a stack of points; a builder makes one model
        with pytest.raises(ConfigError, match="^driven_dephasing: parameter 'omega' must be a number$"):
            driven_dephasing(omega=np.array([0.5, 0.6]))
        assert driven_dephasing(omega=np.array(0.5)).label == driven_dephasing(omega=0.5).label

    def test_integer_parameter_validation(self):
        with pytest.raises(ConfigError):
            build(ModelSpec("jaynes_cummings", {"n_max": 2.5}))
        model = build(ModelSpec("jaynes_cummings", {"n_max": 2.0}))
        assert model.dim == 6
        # the builder takes n_max as build does: an integer-valued number,
        # a numpy one too, and no bool, string or NaN
        for n_max in (2.5, True, "3", float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="parameter 'n_max' must be an integer"):
                jaynes_cummings(n_max=n_max)
            with pytest.raises(ConfigError, match="parameter 'n_max' must be an integer"):
                build(ModelSpec("jaynes_cummings", {"n_max": n_max}))
        for n_max in (2, 2.0, np.int64(2), np.float32(2.0), np.array(2)):
            assert jaynes_cummings(n_max=n_max).dim == 6
        assert dephasing(np.float32(0.5)).label == dephasing(0.5).label
        assert multi_qubit_dephasing(np.array([0.1, 0.2])).dim == 4

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


# Parameters of each named kind with their defaults (None: required).
KIND_PARAMS = {
    "dephasing": {"gamma_z": 1.0},
    "driven_dephasing": {"gamma_z": 1.0, "omega": 0.1},
    "relaxation": {"gamma_minus": 1.0},
    "dephasing_relaxation": {"gamma_z": 1.0, "gamma_minus": 1.0},
    "pauli_channel": {"gamma_x": 1.0, "gamma_y": 1.0, "gamma_z": 1.0},
    "multi_qubit_dephasing": {"k": None},
    "hamiltonian_only": {"omega": 1.0},
    "jaynes_cummings": {"omega_a": 1.0, "omega_c": 1.0, "g": 0.1, "n_max": 3},
}
SHAPES = ("k", "n_max")


def _reference(kind, params):
    """H and jumps of one point, by the formulas of a one-model-at-a-time build."""
    p = {**KIND_PARAMS[kind], **params}
    z, zeros = pauli("z"), np.zeros((2, 2), dtype=complex)
    if kind == "multi_qubit_dephasing":
        k = int(p["k"])
        sites = [tensor_site(z, j, k) for j in range(k)]
        return np.zeros((2**k, 2**k), dtype=complex), [
            np.sqrt(p[f"gamma_{j + 1}"]) * site for j, site in enumerate(sites)
        ]
    if kind == "jaynes_cummings":
        nf = int(p["n_max"]) + 1
        destroy = np.zeros((nf, nf), dtype=complex)
        for n in range(1, nf):
            destroy[n - 1, n] = np.sqrt(n)
        create = destroy.conj().T
        low = lowering()
        with np.errstate(over="ignore", invalid="ignore"):
            h = (
                p["omega_c"] * np.kron(np.eye(2, dtype=complex), create @ destroy)
                + 0.5 * p["omega_a"] * np.kron(z, np.eye(nf, dtype=complex))
                + p["g"] * (np.kron(low, create) + np.kron(low.conj().T, destroy))
            )
        return h, []
    h = {"driven_dephasing": 0.5 * p.get("omega", 0.0) * pauli("x"),
         "hamiltonian_only": 0.5 * p.get("omega", 0.0) * z}.get(kind, zeros)
    ops = {"gamma_x": pauli("x"), "gamma_y": pauli("y"), "gamma_z": z, "gamma_minus": lowering()}
    return h, [np.sqrt(p[name]) * ops[name] for name in KIND_PARAMS[kind] if name in ops]


def _bits(a) -> tuple:
    a = np.asarray(a, dtype=complex)
    return a.shape, a.tobytes()


FINITE = st.sampled_from([
    0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 0.1, 1.0, 3.0, 1e300, 1.7e308,
])
REAL = FINITE | st.floats(min_value=0.0) | st.floats()
INTEGER = st.sampled_from([1, 2, 3, 1.0, 2.0, 3.0, 15.0]) | st.sampled_from(
    [16.0, 0.0, -1.0, 1.5, 1e300, math.nan, math.inf]
)


class TestStackedBuild:
    """A stack of points gives, bit for bit, each point's build alone, or it
    raises an error, type and message, that one of its points raises alone."""

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_stack_equals_single_builds(self, data):
        kind = data.draw(st.sampled_from(MODEL_KINDS), label="kind")
        count = data.draw(st.integers(1, 5), label="count")
        names = list(KIND_PARAMS[kind])
        if kind == "multi_qubit_dephasing":
            rates = data.draw(st.integers(1, 4), label="rates")
            names = ["k", *(f"gamma_{j + 1}" for j in range(rates))]
        params = {}
        for name in names:
            if data.draw(st.integers(0, 9), label=f"omit {name}") == 0:
                continue
            values = INTEGER if name in SHAPES else REAL
            if name == "k":  # most often the number of rates given
                values = st.sampled_from([rates, float(rates)]) | values
            if data.draw(st.booleans(), label=f"vector {name}"):
                vector = data.draw(st.lists(values, min_size=count, max_size=count), label=name)
                params[name] = np.array(vector, dtype=float)
            else:
                params[name] = data.draw(values, label=name)
        if data.draw(st.integers(0, 9), label="extra") == 0:
            params["extra"] = 1.0
        max_entries = data.draw(st.sampled_from([None, 4, 64, 4096]), label="max_entries")

        def point(i):
            return {name: float(v[i]) if isinstance(v, np.ndarray) else v
                    for name, v in params.items()}

        def alone(i):
            """The type and message of the error point ``i`` raises alone, or None."""
            try:
                build(ModelSpec(kind, point(i)))
            except LindscopeError as exc:
                return type(exc), str(exc)
            return None

        start = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            while start < count:
                rest = {name: v[start:] if isinstance(v, np.ndarray) else v
                        for name, v in params.items()}
                try:
                    h, jumps, _ = _stack(ModelSpec(kind, rest), max_entries)
                except LindscopeError as exc:
                    errors = {alone(i) for i in range(start, count)}
                    assert (type(exc), str(exc)) in errors
                    break
                assert len(h)
                for j in range(len(h)):
                    model = build(ModelSpec(kind, point(start + j)))
                    assert _bits(h[j]) == _bits(model.hamiltonian)
                    assert _bits(jumps[j]) == _bits(
                        np.array(model.jumps).reshape(jumps[j].shape)
                    )
                    ref_h, ref_jumps = _reference(kind, point(start + j))
                    assert _bits(h[j]) == _bits(ref_h)
                    assert _bits(jumps[j]) == _bits(np.array(ref_jumps).reshape(jumps[j].shape))
                start += len(h)

    def test_sweep_of_shapes_splits_stacks(self):
        # n_max 1, 1, 2: a stack of two points at d=4, then one at d=6
        spec = ModelSpec("jaynes_cummings", {"n_max": np.array([1.0, 1.0, 2.0])})
        h, jumps, params = _stack(spec)
        assert (h.shape, jumps.shape) == ((2, 4, 4), (2, 0, 4, 4))
        assert params[-1] == ("n_max", 1)

    def test_max_entries_bounds_the_stack(self):
        spec = ModelSpec("driven_dephasing", {"omega": np.linspace(0.0, 1.0, 10)})
        assert _stack(spec, 16)[0].shape == (4, 2, 2)
        assert _stack(spec, 1)[0].shape == (1, 2, 2)
        assert _stack(spec)[0].shape == (10, 2, 2)
