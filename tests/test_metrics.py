import functools
import math
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    SM,
    SZ,
    damped_jaynes_cummings,
    dense_structured_report,
    power_norm,
    random_complex,
    random_density,
    random_hermitian,
    random_model,
    random_models,
    random_unitary,
    superop_columns,
)
from lindscope import (
    ConfigError,
    LindbladModel,
    NumericalError,
    RangeError,
    Regime,
    RegimeThresholds,
    Superoperator,
    TimeGrid,
    adjoint,
    amplification_series,
    bound_check,
    classify,
    compute_metrics,
    default_grid,
    dephasing,
    dephasing_relaxation,
    dissipative_strength,
    driven_dephasing,
    eigenvalues_general,
    gronwall_check,
    hamiltonian_only,
    jaynes_cummings,
    kappa,
    liouvillian,
    multi_qubit_dephasing,
    nonnormality,
    pauli_channel,
    relaxation,
    spectral_abscissa,
    spectral_norm,
    structured_dissipator_report,
)
from lindscope.cli import parse_model_file
from lindscope.metrics import _block_pass, _matched_distance, eta_tolerance, zero_tolerance
from lindscope.superop import _OVERFLOW, _jump_squares, _liouvillians, _sector_form, decompose


def metrics_of(model):
    return compute_metrics(liouvillian(model))


def _dissipative_generator(seed):
    rng = np.random.default_rng(seed)
    model = LindbladModel(3, random_hermitian(rng, 3), (random_complex(rng, 3),))
    return liouvillian(model)


class TestDissipativeStrength:
    def test_dephasing_doubles_the_rate(self):
        s = liouvillian(dephasing(0.7))
        assert dissipative_strength(s) == pytest.approx(1.4, abs=1e-12)

    def test_multi_qubit_additivity(self):
        s = liouvillian(multi_qubit_dephasing([0.1, 0.2, 0.3]))
        assert dissipative_strength(s) == pytest.approx(1.2, abs=1e-12)

    def test_hamiltonian_only_vanishes(self):
        rng = np.random.default_rng(0)
        for d in (2, 3, 4):
            s = liouvillian(hamiltonian_only(random_hermitian(rng, d)))
            assert dissipative_strength(s) <= zero_tolerance(spectral_norm(s.matrix))

    def test_normal_generator_matches_spectral_real_parts(self):
        for model in (dephasing(0.9), pauli_channel(1.0, 2.0, 3.0),
                      multi_qubit_dephasing([0.4, 0.7])):
            s = liouvillian(model)
            expected = np.max(np.abs(eigenvalues_general(s.matrix).real))
            assert dissipative_strength(s) == pytest.approx(expected, rel=1e-9)


class TestNonnormality:
    def test_normal_generators_vanish(self):
        for model in (dephasing(1.0), pauli_channel(0.5, 1.5, 2.5),
                      multi_qubit_dephasing([0.3, 0.6])):
            s = liouvillian(model)
            assert nonnormality(s) <= 1e-10 * max(spectral_norm(s.matrix) ** 2, 1.0)

    def test_hamiltonian_only_vanishes(self):
        rng = np.random.default_rng(1)
        s = liouvillian(hamiltonian_only(random_hermitian(rng, 3)))
        assert nonnormality(s) == 0.0

    def test_dephasing_relaxation_value_vs_oracle(self):
        # oracle: column-built 4x4 matrix, commutator by hand, power iteration
        m = superop_columns(np.zeros((2, 2), dtype=complex), [SZ, SM])
        comm = m @ m.conj().T - m.conj().T @ m
        oracle = power_norm(comm)
        s = liouvillian(dephasing_relaxation(1.0, 1.0))
        assert nonnormality(s) == pytest.approx(oracle, abs=1e-9)
        assert nonnormality(s) == pytest.approx(np.sqrt(2), abs=1e-12)

    def test_commutator_identity_between_parts(self):
        from lindscope import commutator

        for model in random_models(2, 20) + [dephasing_relaxation(1, 1)]:
            s = liouvillian(model)
            herm, skew = decompose(s)
            via_parts = 2.0 * spectral_norm(commutator(herm.matrix, skew.matrix))
            eta = nonnormality(s)
            scale = max(eta, spectral_norm(s.matrix) ** 2 * 1e-12)
            if eta > 0:
                assert abs(eta - via_parts) <= 1e-9 * scale

    def test_forced_route_disagreement(self, monkeypatch):
        import lindscope.metrics

        s = _dissipative_generator(41)
        compute_metrics(Superoperator(s.dim, s.matrix))  # agrees unperturbed
        cross_term = lindscope.metrics._cross_term
        monkeypatch.setattr(
            lindscope.metrics, "_cross_term", lambda h, k: (1 + 1e-6) * cross_term(h, k)
        )
        with pytest.raises(NumericalError, match="routes disagree"):
            compute_metrics(Superoperator(s.dim, s.matrix))


class TestKappa:
    def test_dephasing_zero(self):
        assert kappa(liouvillian(dephasing(1.0))) == 0.0

    def test_hamiltonian_only_undefined(self):
        rng = np.random.default_rng(3)
        assert kappa(liouvillian(hamiltonian_only(random_hermitian(rng, 2)))) is None

    def test_zero_generator_undefined(self):
        s = Superoperator(2, np.zeros((4, 4)))
        assert kappa(s) is None

    def test_doubles_with_weak_drive(self):
        k1 = kappa(liouvillian(driven_dephasing(1.0, 0.01)))
        k2 = kappa(liouvillian(driven_dephasing(1.0, 0.02)))
        assert k2 / k1 == pytest.approx(2.0, rel=0.05)


class TestBoundCheck:
    def test_normal_margin_equals_upper_side(self):
        s = liouvillian(dephasing(1.3))
        herm, skew = decompose(s)
        expected = 2 * dissipative_strength(s) * spectral_norm(skew.matrix)
        assert bound_check(s) == pytest.approx(expected, abs=1e-10)
        assert bound_check(s) >= -1e-12

    def test_hamiltonian_only_margin_zero(self):
        rng = np.random.default_rng(4)
        s = liouvillian(hamiltonian_only(random_hermitian(rng, 3)))
        assert bound_check(s) == pytest.approx(0.0, abs=1e-12)

    def test_random_sweep_respects_provable_bound(self):
        # eta = 2||[herm, skew]|| <= 4*delta*||skew|| is what submultiplicativity
        # proves, so the reported margin 2*delta*||skew|| - eta has the floor
        # -2*delta*||skew||; every seeded model must respect that floor.
        for model in random_models(5, 100):
            s = liouvillian(model)
            _, skew = decompose(s)
            bulk = 2 * dissipative_strength(s) * spectral_norm(skew.matrix)
            assert bound_check(s) >= -bulk - 1e-9 * (1.0 + 2 * bulk)

    def test_constant_two_variant_is_violated(self):
        # the tighter margin with constant 2 genuinely goes negative for part
        # of the seeded sweep; worst value frozen from the independent oracle
        # (column-built superoperators, numpy eigh/svd only)
        worst = min(bound_check(liouvillian(m)) for m in random_models(5, 100))
        assert worst == pytest.approx(-0.8584536951006214, abs=1e-6)


def _spread(s):
    """``lmax - lmin`` of the Hermitian part of ``s``, and ``lmax``, by numpy."""
    eigenvalues = np.linalg.eigvalsh((s.matrix + s.matrix.conj().T) / 2)
    return eigenvalues[-1] - eigenvalues[0], eigenvalues[-1]


class TestSpreadBound:
    """eta <= 2 (lmax - lmin)(S_h) nd_norm, since [S, S^dag] = -2 [S_h - cI, S_skew]
    for every real c, and ||S_h - cI|| is (lmax - lmin) / 2 at the midpoint c."""

    def test_criterion_06_models(self):
        # the 200 seeded models of test_criterion_06, which violate the
        # constant-2 form for 8 of them; the spread form holds for all, with
        # eta / ((lmax - lmin) nd_norm) up to 1.94
        rng = np.random.default_rng(20240817)
        ratios = []
        for model in (random_model(rng) for _ in range(200)):
            s = liouvillian(model)
            m = compute_metrics(s)
            spread, _ = _spread(s)
            assert m.eta <= 2.0 * spread * m.nd_norm + 1e-13 * m.generator_norm**2
            if model.jumps:
                ratios.append(m.eta / (spread * m.nd_norm))
        assert len(ratios) == 150
        assert 1.94 < max(ratios) < 1.942

    def test_amplitude_damping_attains_bound(self):
        # relaxation.json: eta = sqrt 2 = 2 (lmax - lmin) nd_norm, where the
        # constant-2 form falls short by 0.207; equal within 8 ulps of eta
        # (3 measured)
        s = liouvillian(parse_model_file(str(MODELS_DIR / "relaxation.json")))
        m = compute_metrics(s)
        spread, _ = _spread(s)
        assert m.eta == pytest.approx(math.sqrt(2.0), rel=4 * np.finfo(float).eps)
        assert abs(m.eta - 2.0 * spread * m.nd_norm) <= 8 * np.spacing(m.eta)
        assert m.bound_margin == pytest.approx(-0.2071067811865475, rel=1e-12)

    def test_constant_two_when_semidefinite(self):
        # Hermitian jumps make S_h = sum_k D[L_k], negative semidefinite, so
        # lmax - lmin <= delta and the paper's constant 2 holds; driven
        # dephasing attains it. Within 8 ulps of 2 delta nd_norm.
        rng = np.random.default_rng(606)
        models = [driven_dephasing(1.0, omega) for omega in (0.1, 1.0, 30.0)]
        models += [dephasing(0.7), pauli_channel(0.2, 0.5, 1.0),
                   multi_qubit_dephasing([0.1, 0.2, 0.3])]
        for _ in range(60):
            d = int(rng.integers(2, 5))
            jumps = tuple(random_hermitian(rng, d) for _ in range(int(rng.integers(1, 4))))
            models.append(LindbladModel(d, random_hermitian(rng, d), jumps))
        attained = 0
        for model in models:
            s = liouvillian(model)
            m = compute_metrics(s)
            spread, top = _spread(s)
            assert top <= 1e-14 * m.delta
            bound = 2.0 * m.delta * m.nd_norm
            assert m.eta <= bound + 8 * np.spacing(bound)
            attained += m.eta >= bound - 8 * np.spacing(bound) > 0
        assert attained >= 3


class TestProp1:
    def test_no_directional_flow_without_dissipation(self):
        for model in random_models(6, 100):
            s = liouvillian(model)
            norm = spectral_norm(s.matrix)
            if dissipative_strength(s) <= zero_tolerance(norm):
                assert nonnormality(s) <= eta_tolerance(norm)


class TestScaleCovariance:
    def test_metrics_scale_as_expected(self):
        rng = np.random.default_rng(7)
        model = random_model(rng, d=3)
        s = liouvillian(model)
        m1 = compute_metrics(s)
        for c in (0.25, 3.0):
            m2 = compute_metrics(Superoperator(s.dim, c * s.matrix))
            assert m2.delta == pytest.approx(c * m1.delta, rel=1e-10)
            assert m2.eta == pytest.approx(c**2 * m1.eta, rel=1e-9, abs=1e-14)
            if m1.kappa is not None:
                assert m2.kappa == pytest.approx(m1.kappa, rel=1e-9)
            assert m2.regime == m1.regime

    @pytest.mark.parametrize("k", [-600, -300, 300, 500])
    def test_power_of_two_scaling_is_exact(self, k):
        # the pass runs on a power-of-two prescaled generator, so every
        # scalar scales exactly and the dimensionless ones do not move
        s = _dissipative_generator(40)
        base = compute_metrics(s)
        assert base.regime is Regime.CROSSOVER
        scaled = compute_metrics(Superoperator(s.dim, math.ldexp(1.0, k) * s.matrix))
        assert scaled.generator_norm == math.ldexp(base.generator_norm, k)
        assert scaled.delta == math.ldexp(base.delta, k)
        assert scaled.nd_norm == math.ldexp(base.nd_norm, k)
        if k > -500:  # below that, eta ~ 2^(2k) underflows
            assert scaled.eta == math.ldexp(base.eta, 2 * k)
            assert scaled.bound_margin == math.ldexp(base.bound_margin, 2 * k)
        assert scaled.kappa == base.kappa
        assert scaled.regime is base.regime

    def test_squared_overflow_is_range_error(self):
        # ||S|| ~ 2^520 is representable, eta ~ 2^1040 is not
        s = _dissipative_generator(40)
        with pytest.raises(RangeError, match="eta"):
            compute_metrics(Superoperator(s.dim, math.ldexp(1.0, 520) * s.matrix))

    @pytest.mark.parametrize("omega", [1.0, 1e-150, 1e-300])
    def test_small_skew_part_keeps_its_norm(self, omega):
        # S_skew is omega/gamma times S here; squared at the prescale of S
        # alone, S_skew^dag S_skew would underflow below about 1e-154
        m = metrics_of(driven_dephasing(1.0, omega))
        assert m.nd_norm == pytest.approx(omega, rel=1e-13)
        assert m.eta == pytest.approx(4.0 * omega, rel=1e-13)
        assert abs(m.bound_margin) <= 1e-13 * m.eta

    def test_subnormal_generator(self):
        # delta**2 underflows here; the prescaled pass still gives kappa
        s = liouvillian(driven_dephasing(1e-320, 1e-320))
        m = compute_metrics(s)
        assert m.delta > 0 and m.kappa is not None and math.isfinite(m.kappa)


class TestClassify:
    def test_origin_is_hamiltonian(self):
        rng = np.random.default_rng(8)
        m = metrics_of(hamiltonian_only(random_hermitian(rng, 3)))
        assert m.regime is Regime.HAMILTONIAN

    def test_dephasing_is_normal_dissipative(self):
        assert metrics_of(dephasing(0.7)).regime is Regime.NORMAL_DISSIPATIVE

    def test_dephasing_relaxation_is_crossover(self):
        assert metrics_of(dephasing_relaxation(1.0, 1.0)).regime is Regime.CROSSOVER

    def test_weak_drive_is_weakly_nonnormal(self):
        assert metrics_of(driven_dephasing(1.0, 0.004)).regime is Regime.WEAKLY_NONNORMAL

    def test_strong_drive_is_strongly_nonnormal(self):
        assert metrics_of(driven_dephasing(1.0, 20.0)).regime is Regime.STRONGLY_NONNORMAL

    def test_threshold_override(self):
        m = metrics_of(dephasing_relaxation(1.0, 1.0))  # kappa ~ 0.226
        tight = RegimeThresholds(kappa_lo=0.3, kappa_hi=10.0)
        assert classify(m, tight) is Regime.WEAKLY_NONNORMAL
        loose = RegimeThresholds(kappa_lo=0.01, kappa_hi=0.1)
        assert classify(m, loose) is Regime.STRONGLY_NONNORMAL

    def test_hamiltonian_precedence_over_eta(self):
        # delta below tolerance must classify as Hamiltonian even before
        # looking at eta; zero generator exercises the degenerate corner
        m = compute_metrics(Superoperator(2, np.zeros((4, 4))))
        assert m.regime is Regime.HAMILTONIAN
        assert m.kappa is None


def _unitary_jump(d):
    u = random_unitary(np.random.default_rng(6), d)
    return LindbladModel(d, np.zeros((d, d)), (np.sqrt(0.7) * u,))


# Models to compare the structured report with its dense reference on, by
# name: every shipped model file (every named kind, named and explicit),
# a damped Jaynes-Cummings model, unitary jumps, jump-free models and
# Pauli channels at extreme rates.
_REPORT_MODELS = {
    **{path.stem: functools.partial(parse_model_file, str(path))
       for path in sorted((Path(__file__).resolve().parent.parent / "models").glob("*.json"))},
    "damped_jaynes_cummings-3": functools.partial(damped_jaynes_cummings, 3),
    **{f"unitary_jump-{d}": functools.partial(_unitary_jump, d) for d in (2, 3, 5, 8)},
    "jaynes_cummings-3": functools.partial(jaynes_cummings, n_max=3),
    "hamiltonian_only-3": lambda: hamiltonian_only(random_hermitian(np.random.default_rng(9), 3)),
    **{f"pauli_channel-{rate:g}": functools.partial(pauli_channel, rate, rate, rate)
       for rate in (1e-300, 1e300)},
}


class TestStructuredDissipator:
    def test_uniform_pauli_channel(self):
        g = 0.8
        report = structured_dissipator_report(pauli_channel(g, g, g))
        assert report.is_structured
        assert report.gamma == pytest.approx(3 * g, abs=1e-12)
        assert report.shift_max_error <= 1e-9

    def test_relaxation_not_structured(self):
        report = structured_dissipator_report(relaxation(1.0))
        assert not report.is_structured
        assert report.gamma is None

    def test_dephasing_structured(self):
        report = structured_dissipator_report(dephasing(0.6))
        assert report.is_structured
        assert report.gamma == pytest.approx(0.6, abs=1e-12)

    def test_pauli_channel_123_shift(self):
        report = structured_dissipator_report(pauli_channel(1.0, 2.0, 3.0))
        assert report.is_structured
        assert report.gamma == pytest.approx(6.0, abs=1e-10)
        np.testing.assert_allclose(
            report.jump_map_spectrum, [-4.0, -2.0, 0.0, 6.0], atol=1e-9
        )
        assert report.shift_max_error <= 1e-9

    def test_random_unitary_jump_shift(self):
        # complex-conjugate pairs share a real part, so pairing the two
        # spectra by sort order would mismatch them; matching as multisets
        # must not
        u = random_unitary(np.random.default_rng(6), 3)
        model = LindbladModel(3, np.zeros((3, 3)), (np.sqrt(0.7) * u,))
        report = structured_dissipator_report(model)
        assert report.is_structured
        assert report.gamma == pytest.approx(0.7, abs=1e-12)
        assert report.shift_max_error <= 1e-12

    @pytest.mark.parametrize("rate", [1.0, 1e-6, 1e-11, 1e-200, 5e-324])
    def test_structure_independent_of_rate_scale(self, rate):
        # the test is relative to the size of sum_k L_k^dag L_k, so a
        # rescaled model keeps its answer down to the smallest subnormal
        assert not structured_dissipator_report(relaxation(rate)).is_structured
        assert structured_dissipator_report(dephasing(rate)).is_structured
        assert structured_dissipator_report(pauli_channel(rate, rate, rate)).is_structured

    def test_no_jumps_trivially_structured(self):
        rng = np.random.default_rng(9)
        report = structured_dissipator_report(hamiltonian_only(random_hermitian(rng, 2)))
        assert report.is_structured
        assert report.gamma == 0.0

    @pytest.mark.parametrize("name", sorted(_REPORT_MODELS))
    def test_matches_dense_reference(self, name):
        # is_structured and gamma bit for bit; the spectrum, as a multiset,
        # and shift_max_error within 2e-14 of the spectrum's largest
        # magnitude (the worst seen on 60 seeded unitary jumps at d = 8 was
        # 8.1e-15): blocks round differently from the whole matrix
        model = _REPORT_MODELS[name]()
        got, want = structured_dissipator_report(model), dense_structured_report(model)
        assert got.is_structured is want.is_structured
        assert got.gamma == want.gamma
        if not want.is_structured:
            assert got.jump_map_spectrum is None and got.shift_max_error is None
            return
        bound = 2e-14 * float(np.abs(want.jump_map_spectrum).max())
        assert len(got.jump_map_spectrum) == model.dim**2
        assert _matched_distance(want.jump_map_spectrum, got.jump_map_spectrum) <= bound
        assert abs(got.shift_max_error - want.shift_max_error) <= bound

    @pytest.mark.filterwarnings("error")
    def test_overflowing_squares_raise_range_error(self):
        # L^dag L of 1e160 sigma_z is 1e320: a RangeError before any sum,
        # with no numpy warning; at 1e150 it is 1e300 and the report holds
        with pytest.raises(RangeError) as caught:
            structured_dissipator_report(LindbladModel(2, np.zeros((2, 2)), (1e160 * SZ,)))
        assert str(caught.value) == _OVERFLOW
        report = structured_dissipator_report(LindbladModel(2, np.zeros((2, 2)), (1e150 * SZ,)))
        assert report.is_structured
        assert report.gamma == 1e150 * 1e150

    @pytest.mark.filterwarnings("error")
    def test_overflowing_sum_is_prescaled(self):
        # each L^dag L is 1e308 |0><0|, finite, and their sum 2e308 |0><0|
        # is not: the prescaled test runs with no numpy warning and finds
        # it far from gamma I. Two jumps 1e154 I are gamma I, with a gamma of
        # 2e308 that no double holds: a RangeError that names gamma
        corner = np.diag([1e154, 0.0]).astype(complex)
        report = structured_dissipator_report(LindbladModel(2, np.zeros((2, 2)), (corner,) * 2))
        assert report.is_structured is False
        identity = 1e154 * np.eye(2, dtype=complex)
        with pytest.raises(RangeError) as caught:
            structured_dissipator_report(LindbladModel(2, np.zeros((2, 2)), (identity,) * 2))
        assert str(caught.value) == "gamma overflows double precision; rescale the model"

    @pytest.mark.parametrize(
        "model", [multi_qubit_dephasing([0.1, 0.3, 0.6]), jaynes_cummings(n_max=3)],
        ids=["mqd", "jc"],
    )
    def test_spectra_on_blocks(self, monkeypatch, model):
        # every eigensolve of the report takes a stack of blocks smaller
        # than the n x n whole
        import lindscope.superop

        shapes = []
        eigenvalues = lindscope.superop._eigenvalues
        monkeypatch.setattr(
            lindscope.superop, "_eigenvalues", lambda m: shapes.append(m.shape) or eigenvalues(m)
        )
        assert structured_dissipator_report(model).is_structured
        assert shapes
        n = model.dim**2
        assert all(len(shape) == 3 and shape[-1] < n for shape in shapes)


class TestRegimeThresholds:
    @pytest.mark.parametrize(
        "bands", [(5.0, 1.0), (math.nan, 10.0), (-1.0, 0.5), (0.1, math.nan)],
        ids=["reversed", "nan-lo", "negative-lo", "nan-hi"],
    )
    def test_bad_bands_refused(self, bands):
        lo, hi = bands
        with pytest.raises(ConfigError) as caught:
            RegimeThresholds(lo, hi)
        assert str(caught.value) == f"need 0 < kappa-lo < kappa-hi, got {lo} and {hi}"

    def test_reversed_bands_never_label(self):
        # kappa = 3 is below kappa_lo and above kappa_hi of reversed bands
        s = liouvillian(driven_dephasing(1.0, 3.0))
        with pytest.raises(ConfigError):
            compute_metrics(s, RegimeThresholds(5.0, 1.0))


class TestStructuralMetricsInvariants:
    def test_fields_nonnegative_and_margin_bounded(self):
        for model in random_models(10, 30):
            m = metrics_of(model)
            assert m.delta >= 0 and m.eta >= 0 and m.nd_norm >= 0
            # provable floor: eta <= 4*delta*nd_norm
            bulk = 2 * m.delta * m.nd_norm
            assert m.bound_margin >= -bulk - 1e-9 * (1 + 2 * bulk)
            if m.kappa is None:
                assert m.delta <= zero_tolerance(m.generator_norm)
            else:
                assert m.kappa >= 0


def _counting(calls, name, fn):
    """Wrap ``fn`` so each call increments ``calls[name]``."""

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


class TestOnePass:
    def test_kernel_counts(self, monkeypatch):
        # no SVD: four Hermitian eigensolves (||S||^2, eta, delta, nd_norm),
        # and no Hermiticity check of a part Hermitian by construction
        import lindscope.linalg
        import lindscope.superop

        calls = {"svd": 0, "eigvalsh": 0, "hermiticity_defect": 0}
        counting = functools.partial(_counting, calls)
        monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
        monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
        for module in (lindscope.linalg, lindscope.superop):
            monkeypatch.setattr(
                module,
                "hermiticity_defect",
                counting("hermiticity_defect", module.hermiticity_defect),
            )
        s = Superoperator(4, random_complex(np.random.default_rng(21), 16))
        compute_metrics(s)
        assert calls == {"svd": 0, "eigvalsh": 4, "hermiticity_defect": 0}

    def test_series_kernel_counts(self, monkeypatch):
        # the pass's four eigensolves, the two exponentials (start and step),
        # whose range the step check has proven, so they go to the Pade
        # kernel with no range check of their own, then one Gram eigensolve
        # per grid point, all on float64 matrices; no SVD, and no eigvals,
        # since a model's abscissa is exactly 0
        import lindscope.dynamics

        s = liouvillian(random_model(np.random.default_rng(22), d=2))
        dtypes = {"svd": [], "expm": [], "eigvalsh": [], "eigvals": []}

        def recording(name, fn):
            def wrapper(a, *args, **kwargs):
                dtypes[name].append(a.dtype)
                return fn(a, *args, **kwargs)

            return wrapper

        monkeypatch.setattr(np.linalg, "svd", recording("svd", np.linalg.svd))
        monkeypatch.setattr(np.linalg, "eigvalsh", recording("eigvalsh", np.linalg.eigvalsh))
        monkeypatch.setattr(np.linalg, "eigvals", recording("eigvals", np.linalg.eigvals))
        monkeypatch.setattr(
            lindscope.dynamics, "_pade_exp", recording("expm", lindscope.dynamics._pade_exp)
        )
        amplification_series(s, TimeGrid(0.0, 1.0, 40))
        assert {k: len(v) for k, v in dtypes.items()} == {
            "svd": 0, "expm": 2, "eigvalsh": 4 + 41, "eigvals": 0,
        }
        assert all(d == np.float64 for v in dtypes.values() for d in v)

    def test_repeat_calls_share_one_pass(self, monkeypatch):
        # the threshold-free scalars are kept on the generator, while the
        # regime is banded by each call's thresholds
        s = liouvillian(dephasing_relaxation(1.0, 1.0))  # kappa ~ 0.226
        calls = {"eigvalsh": 0}
        counting = functools.partial(_counting, calls)
        monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
        first = compute_metrics(s)
        tight = compute_metrics(s, RegimeThresholds(kappa_lo=0.3, kappa_hi=10.0))
        assert calls == {"eigvalsh": 4}
        assert first.regime is Regime.CROSSOVER
        assert tight.regime is Regime.WEAKLY_NONNORMAL
        assert (tight.delta, tight.eta, tight.kappa) == (first.delta, first.eta, first.kappa)

    def test_series_shares_one_pass(self, monkeypatch):
        from lindscope import default_grid

        s = liouvillian(random_model(np.random.default_rng(23), d=2))
        calls = {"eigvalsh": 0}
        counting = functools.partial(_counting, calls)
        monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
        amplification_series(s, default_grid(s, 20))
        # the pass's four, then one Gram eigensolve per grid point
        assert calls == {"eigvalsh": 4 + 21}


def _stacked(models):
    """The Hamiltonians, jumps and ``L_k^dag L_k`` of models of one shape, as the
    stacks of ``_liouvillians``."""
    d, k = models[0].dim, len(models[0].jumps)
    h = np.array([model.hamiltonian for model in models])
    jumps = np.array([model.jumps for model in models]).reshape(len(models), k, d, d)
    return h, jumps, _jump_squares(jumps)


def _bits(m):
    """Every field of one generator's metrics, each float as its exact hex form."""
    return {
        name: value.hex() if isinstance(value, float) else value for name, value in vars(m).items()
    }


def _row_bits(columns, i):
    """Row ``i`` of the pass's columns in the form of ``_bits``: NaN kappa is None."""
    row = {}
    for name in ("delta", "eta", "nd_norm", "kappa", "bound_margin", "generator_norm"):
        column = columns[name]
        assert column.dtype == np.float64
        value = float(column[i])
        row[name] = None if name == "kappa" and math.isnan(value) else value.hex()
    row["regime"] = Regime(columns["regime"][i])
    return row


def _column_bits(columns):
    """Every row of the pass's columns in the form of ``_bits``."""
    (size,) = {len(column) for column in columns.values()}
    assert list(columns) == [
        "delta", "eta", "nd_norm", "bound_margin", "generator_norm", "kappa", "regime"
    ]
    return [_row_bits(columns, i) for i in range(size)]


class TestStackedPass:
    """The pass on a stack of generators gives, bit for bit, what it gives
    on each generator alone (compute_metrics is the stack of one, read at
    row 0), in columns."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("jumps", [0, 1, 3])
    def test_stack_equals_per_point(self, d, jumps):
        rng = np.random.default_rng(70 + 10 * d + jumps)
        models = []
        for k in range(6):
            # magnitudes over many decades, so each matrix takes its own prescale
            scale = 10.0 ** rng.uniform(-150, 150)
            h = random_hermitian(rng, d, scale=scale)
            ls = tuple(random_complex(rng, d, scale=math.sqrt(scale)) for _ in range(jumps))
            models.append(LindbladModel(d, h, ls))
        stack = _liouvillians(*_stacked(models))
        for model, m in zip(models, stack):
            assert np.array_equal(m, liouvillian(model).matrix)
        for thresholds in (None, RegimeThresholds(0.5, 2.0)):
            got = _column_bits(_block_pass(*_sector_form(stack)[:2], thresholds))
            assert got == [
                _bits(compute_metrics(liouvillian(model), thresholds)) for model in models
            ]
        assert len({_sector_form(m[None])[1][0] for m in stack}) > 1

    def test_every_regime_in_one_stack(self):
        # Hamiltonian (kappa NaN), normal and all three kappa bands side by
        # side, under the default bands and under custom ones
        models = [
            hamiltonian_only(np.diag([1.0, -1.0])),
            dephasing(1.0),
            driven_dephasing(1.0, 0.01),
            driven_dephasing(1.0, 1.0),
            driven_dephasing(1.0, 100.0),
        ]
        stack = np.stack([liouvillian(model).matrix for model in models])
        for thresholds in (None, RegimeThresholds(0.001, 0.002), RegimeThresholds(1e3, 1e4)):
            got = _column_bits(_block_pass(*_sector_form(stack)[:2], thresholds))
            want = [_bits(compute_metrics(liouvillian(m), thresholds)) for m in models]
            assert got == want
        got = _block_pass(*_sector_form(stack)[:2])
        assert got["regime"].tolist() == [
            "Hamiltonian", "NormalDissipative", "WeaklyNonnormal", "Crossover",
            "StronglyNonnormal",
        ]
        assert np.isnan(got["kappa"]).tolist() == [True, False, False, False, False]

    def test_raw_complex_stack_equals_per_point(self):
        rng = np.random.default_rng(80)
        ss = [Superoperator(3, random_complex(rng, 9, scale=10.0**k)) for k in (-3, 0, 5)]
        got = _column_bits(_block_pass(*_sector_form(np.stack([s.matrix for s in ss]))[:2]))
        assert got == [_bits(compute_metrics(s)) for s in ss]

    def test_mixed_stack_runs_complex(self):
        # one matrix that does not preserve Hermiticity turns the whole
        # stack complex; the Lindbladian's metrics agree to roundoff
        rng = np.random.default_rng(81)
        lindblad = liouvillian(random_model(rng, d=2))
        raw = Superoperator(2, random_complex(rng, 4))
        stack = np.stack([lindblad.matrix, raw.matrix])
        assert _sector_form(stack)[0].dtype == np.complex128
        got, want = _block_pass(*_sector_form(stack)[:2]), compute_metrics(lindblad)
        for name in ("generator_norm", "delta", "eta", "nd_norm"):
            assert got[name][0] == pytest.approx(getattr(want, name), rel=1e-13)
        assert got["regime"][0] == want.regime.value

    # The messages the one-generator pass has always given for these
    # generators: the first failing test of each, the routes first, then the
    # values in field order (delta, eta, nd_norm, bound_margin, generator_norm).
    ETA = "eta is about 1e310.6, beyond double precision; rescale the model"
    DELTA = "delta is about 1e308.6, beyond double precision; rescale the model"
    MARGIN = "bound_margin is about 1e320.3, beyond double precision; rescale the model"

    @staticmethod
    def _failing():
        return {
            TestStackedPass.ETA: liouvillian(driven_dephasing(1e10, 1e300)),
            TestStackedPass.DELTA: Superoperator(2, np.full((4, 4), 1e308, dtype=complex)),
            # normal, so eta is 0, but 2 delta nd_norm overflows
            TestStackedPass.MARGIN: Superoperator(2, np.diag([1e160 + 1e160j, 0, 0, 0])),
        }

    def test_failure_is_the_failing_generators(self):
        # a stack passes or fails as a whole, with the error its first
        # failing generator raises alone, whatever later generators fail
        good = liouvillian(dephasing_relaxation(1.0, 1.0))
        failing = self._failing()
        for message, s in failing.items():
            with pytest.raises(RangeError) as alone:
                compute_metrics(s)
            assert str(alone.value) == message
            for order in ([good, s, good], [s, *failing.values()]):
                with pytest.raises(RangeError) as stacked:
                    _block_pass(*_sector_form(np.stack([m.matrix for m in order]))[:2])
                assert str(stacked.value) == message

    def test_route_failure_is_the_failing_generators(self, monkeypatch):
        # the routes are checked before any value, for the first failing
        # generator, with the residual it gives alone
        import lindscope.metrics

        s = _dissipative_generator(41)
        cross_term = lindscope.metrics._cross_term

        def perturbed(h, k):  # only the stack's last generator disagrees
            x = cross_term(h, k)
            x[-1] *= 1 + 1e-6
            return x

        monkeypatch.setattr(lindscope.metrics, "_cross_term", perturbed)
        message = (
            "nonnormality routes disagree: ||[S, S^dag] + 2 [S_herm, S_skew]||_F = "
            "9.514e-07 ||S||^2 exceeds 1e-8 ||S||^2"
        )
        with pytest.raises(NumericalError) as alone:
            compute_metrics(Superoperator(s.dim, s.matrix))
        assert str(alone.value) == message
        good = _dissipative_generator(40).matrix
        # normal, and fails a value, which is checked after the routes
        late = np.diag([1e160 + 1e160j, *[0.0] * 8])
        with pytest.raises(NumericalError) as stacked:
            _block_pass(*_sector_form(np.stack([good, s.matrix]))[:2])
        assert str(stacked.value) == message
        with pytest.raises(RangeError, match="^bound_margin"):
            _block_pass(*_sector_form(np.stack([late, s.matrix]))[:2])

    def test_four_eigensolves_per_stack(self, monkeypatch):
        models = [random_model(np.random.default_rng(82 + k), d=3, force_hamiltonian_only=True)
                  for k in range(50)]
        stack = _liouvillians(*_stacked(models))
        calls = {"eigvalsh": 0}
        counting = functools.partial(_counting, calls)
        monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
        assert len(_column_bits(_block_pass(*_sector_form(stack)[:2]))) == 50
        assert calls == {"eigvalsh": 4}


MODELS_DIR = Path(__file__).resolve().parent.parent / "models"


def _form_dtype(s):
    return _sector_form(s.matrix[None])[0].dtype


class TestRealForm:
    """A Lindbladian preserves Hermiticity, so the pass runs on a real matrix;
    a raw superoperator that does not runs on the complex rotation."""

    @pytest.mark.parametrize("path", sorted(MODELS_DIR.glob("*.json")), ids=lambda p: p.stem)
    def test_shipped_models_real(self, path):
        assert _form_dtype(liouvillian(parse_model_file(str(path)))) == np.float64

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8])
    def test_random_lindbladians_real(self, d):
        rng = np.random.default_rng(50 + d)
        for _ in range(5):
            assert _form_dtype(liouvillian(random_model(rng, d=d))) == np.float64

    def test_cap_dimension_real(self):
        assert _form_dtype(liouvillian(random_model(np.random.default_rng(57), d=32))) == np.float64

    def test_non_hermiticity_preserving_complex(self):
        s = Superoperator(4, random_complex(np.random.default_rng(58), 16))
        assert _form_dtype(s) == np.complex128
        norm, delta, eta, nd_norm = _oracle(s)
        m = compute_metrics(s)
        assert m.generator_norm == pytest.approx(norm, rel=1e-13)
        assert m.delta == pytest.approx(delta, rel=1e-13)
        assert m.eta == pytest.approx(eta, rel=1e-13)
        assert m.nd_norm == pytest.approx(nd_norm, rel=1e-13)

    def test_matrix_layout_and_adjoint(self):
        # a Fortran-ordered matrix gives the same pass; the adjoint, stored
        # as a transposed view, shares every norm
        s = liouvillian(random_model(np.random.default_rng(60), d=3))
        base = compute_metrics(s)
        assert compute_metrics(Superoperator(s.dim, np.asfortranarray(s.matrix))) == base
        adj = compute_metrics(adjoint(s))
        for name in ("generator_norm", "delta", "eta", "nd_norm", "kappa", "bound_margin"):
            assert getattr(adj, name) == pytest.approx(getattr(base, name), rel=1e-13)
        assert adj.regime is base.regime

    def test_lindblad_kernels_real(self, monkeypatch):
        # four eigensolves, each on a float64 matrix, and no SVD
        s = liouvillian(random_model(np.random.default_rng(59), d=4))
        calls = {"svd": 0}
        dtypes = []
        solver = np.linalg.eigvalsh

        def eigvalsh(a, *args, **kwargs):
            dtypes.append(a.dtype)
            return solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", _counting(calls, "svd", np.linalg.svd))
        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        compute_metrics(s)
        assert calls == {"svd": 0}
        assert dtypes == [np.float64] * 4


def _oracle(s):
    """The scalars from general SVDs of matrices built here, not by metrics."""
    m = s.matrix
    md = m.conj().T
    norm = np.linalg.norm(m, 2)
    delta = np.linalg.norm((m + md) / 2, 2)
    eta = np.linalg.norm(m @ md - md @ m, 2)
    nd_norm = np.linalg.norm((m - md) / 2, 2)
    return norm, delta, eta, nd_norm


ORACLE_MODELS = [
    *(random_model(np.random.default_rng(30 + d), d=d) for d in (2, 3, 4, 6, 8)),
    *random_models(31, 10),
    dephasing(0.7),
    driven_dephasing(1.0, 0.3),
    driven_dephasing(1.0, 20.0),
    hamiltonian_only(random_hermitian(np.random.default_rng(32), 3)),
    pauli_channel(1.0, 2.0, 3.0),
    LindbladModel(3, np.zeros((3, 3)), (np.sqrt(0.7) * random_unitary(np.random.default_rng(33), 3),)),
]


class TestAgainstSvd:
    @pytest.mark.parametrize("index", range(len(ORACLE_MODELS)))
    def test_scalars_match_svd(self, index):
        s = liouvillian(ORACLE_MODELS[index])
        norm, delta, eta, nd_norm = _oracle(s)
        m = compute_metrics(s)
        # relative 1e-13; a value that is zero in arithmetic is held to the
        # same bound relative to the generator's scale
        rel = 1e-13
        assert m.generator_norm == pytest.approx(norm, rel=rel)
        assert m.delta == pytest.approx(delta, rel=rel, abs=rel * norm)
        assert m.nd_norm == pytest.approx(nd_norm, rel=rel, abs=rel * norm)
        assert m.eta == pytest.approx(eta, rel=rel, abs=rel * norm**2)
        bulk = 2 * delta * nd_norm
        assert m.bound_margin == pytest.approx(bulk - eta, abs=rel * (bulk + eta + norm**2))
        if m.kappa is not None:
            assert m.kappa == pytest.approx(eta / delta**2, rel=rel, abs=rel)


def _planted(seed):
    """A random Lindbladian with a weak U(1) symmetry, its charges in random basis order.

    Each basis state takes a random charge; H and the charge-keeping jumps
    couple only states of one charge, and a hopping jump, when present,
    lowers the charge by one. Every such generator keeps the charge
    difference of ``|i><j|``, so its real form is block diagonal once its
    basis is permuted into sectors, which the random charges scatter.
    """
    rng = np.random.default_rng(seed)
    d = int(rng.integers(6, 11))
    charge = rng.integers(0, rng.integers(3, 6), size=d)
    same = charge[:, None] == charge[None, :]
    h = random_hermitian(rng, d) * same
    jumps = [random_complex(rng, d) * same for _ in range(int(rng.integers(1, 3)))]
    if rng.random() < 0.25:
        jumps.append(random_complex(rng, d) * (charge[:, None] == charge[None, :] - 1))
    return LindbladModel(d, h, tuple(jumps), label=f"planted({seed})")


def _dephased_jaynes_cummings(n_max):
    """jaynes_cummings with atomic and cavity dephasing: nonnormal, with the sectors
    of the excitation numbers of both sides of ``|i><j|``."""
    jc = jaynes_cummings(omega_a=1.0, omega_c=1.1, g=0.3, n_max=n_max)
    cavity = np.kron(np.eye(2), np.diag(np.arange(n_max + 1.0)))
    atom = np.kron(SZ, np.eye(n_max + 1))
    return LindbladModel(jc.dim, jc.hamiltonian, (0.5 * cavity, 0.2 * atom), label="dephased")


SECTOR_MODELS = {
    **{p.stem: parse_model_file(str(p)) for p in sorted(MODELS_DIR.glob("*.json"))},
    "jaynes_cummings-7": jaynes_cummings(omega_a=1.0, omega_c=1.1, g=0.1, n_max=7),
    "multi_qubit_dephasing-4": multi_qubit_dephasing([0.1, 0.2, 0.3, 0.4]),
    "dephased_jaynes_cummings-3": _dephased_jaynes_cummings(3),
    "dephased_jaynes_cummings-5": _dephased_jaynes_cummings(5),
    **{f"planted-{seed}": _planted(seed) for seed in range(12)},
}


def _unsplit(monkeypatch):
    """From here on, the pass and the series run on the whole generator."""
    import lindscope.superop

    monkeypatch.setattr(lindscope.superop, "_sector_table", lambda packed, n: None)
    # jaynes_cummings splits into 16 blocks; now each generator is one
    m = liouvillian(SECTOR_MODELS["jaynes_cummings"]).matrix
    a, e, table = _sector_form(np.stack([m, m]))
    assert a.shape == (2, 64, 64) and len(e) == 2 and table.tolist() == [list(range(64))]


def _assert_relative(got, want, rel=1e-14):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert (np.abs(got - want) <= rel * np.maximum(np.abs(got), np.abs(want))).all()


def _assert_metrics_close(got, want):
    assert got.regime is want.regime
    assert (got.kappa is None) is (want.kappa is None)
    for name in ("delta", "eta", "nd_norm", "generator_norm", *(["kappa"] * (got.kappa is not None))):
        _assert_relative(getattr(got, name), getattr(want, name))
    # a difference that cancels: relative to its terms, as scripts/cli_drift.py takes it
    terms = 2.0 * want.delta * want.nd_norm + want.eta
    assert abs(got.bound_margin - want.bound_margin) <= 1e-14 * terms


class TestSectors:
    """The pass and the series on the decoupled blocks of the real form give
    what they give on the whole generator, within 1e-14 relative."""

    @pytest.mark.parametrize("name", sorted(SECTOR_MODELS))
    def test_sectored_equals_whole(self, name, monkeypatch):
        s = liouvillian(SECTOR_MODELS[name])
        grid = default_grid(s)
        got = compute_metrics(s)
        series = amplification_series(s, grid)
        _unsplit(monkeypatch)
        want = compute_metrics(Superoperator(s.dim, s.matrix))
        reference = amplification_series(Superoperator(s.dim, s.matrix), grid)
        _assert_metrics_close(got, want)
        for field in ("prop_norm", "a_spectral"):
            _assert_relative(getattr(series, field), getattr(reference, field))
        # an envelope exp(x t) turns the relative drift of its rate into x t
        # times as much: delta moves by a few ulps, and delta t reaches 5
        t = grid.times
        for field, exponent in (
            ("a_paper", want.delta * t),
            ("gronwall_env", want.delta * t),
            ("appg_env", (want.delta + want.nd_norm) * t + want.eta * t**2 / 4),
        ):
            rel = 1e-14 * (1.0 + exponent)
            _assert_relative(getattr(series, field), getattr(reference, field), rel)
        assert (series.appg_satisfied == reference.appg_satisfied).all()
        # the abscissa, an eigenvalue, moves by a few ulps of ||S||
        assert abs(series.alpha - reference.alpha) <= 1e-14 * want.generator_norm

    @pytest.mark.parametrize(
        "name", ["jaynes_cummings", "jaynes_cummings-7", "multi_qubit_dephasing-4", "shifted"]
    )
    def test_abscissa_on_blocks_equals_whole(self, name, monkeypatch):
        # the blocks' padding is cut off: "shifted", jaynes_cummings minus
        # the identity as a raw Superoperator, has its spectrum at Re <= -1,
        # and a padded zero row would read alpha = 0
        if name == "shifted":
            m = liouvillian(SECTOR_MODELS["jaynes_cummings"]).matrix - np.eye(64)
            s = Superoperator(8, m)
        else:
            s = liouvillian(SECTOR_MODELS[name])
        table = _sector_form(s.matrix[None])[2]
        # blocks of several sizes, so padded, except the equal blocks of 1
        # of multi_qubit_dephasing
        assert bool((table < 0).any()) is not name.startswith("multi_qubit")
        got = spectral_abscissa(s)
        assert amplification_series(s, TimeGrid(0.0, 1.0, 4)).alpha == got
        _unsplit(monkeypatch)
        want = spectral_abscissa(Superoperator(s.dim, s.matrix))
        assert abs(got - want) <= 1e-14 * compute_metrics(s).generator_norm
        if name == "shifted":
            assert got == pytest.approx(-1.0, abs=1e-13)

    @pytest.mark.parametrize("name", sorted(SECTOR_MODELS))
    def test_gronwall_on_blocks_equals_whole(self, name, monkeypatch):
        # a density matrix, whose coordinates are real, and a general
        # operator, whose real and imaginary parts step apart
        s = liouvillian(SECTOR_MODELS[name])
        rng = np.random.default_rng(7)
        grid = default_grid(s, steps=60)
        operators = [random_density(rng, s.dim), random_complex(rng, s.dim)]
        got = [gronwall_check(s, rho0, grid) for rho0 in operators]
        _unsplit(monkeypatch)
        whole = Superoperator(s.dim, s.matrix)
        want = [gronwall_check(whole, rho0, grid) for rho0 in operators]
        # each margin is a difference of terms up to exp(delta t) ||rho0||
        envelope = math.exp(compute_metrics(s).delta * grid.t_end)
        for rho0, g, w in zip(operators, got, want):
            assert abs(g - w) <= 1e-14 * envelope * np.linalg.norm(rho0)

    def test_models_split(self):
        # the comparison above runs on split generators: the named models
        # with many sectors, the damped ones and most planted ones
        def blocks(name):
            m = liouvillian(SECTOR_MODELS[name]).matrix
            # the form every kernel runs on has the table of its sectors,
            # or of one sector when it finds none
            a, e, table = _sector_form(m[None])
            assert len(e) == 1 and len(a) == len(table)
            if len(table) == 1:
                assert table.tolist() == [list(range(len(m)))]
                return None
            return table.shape

        assert blocks("jaynes_cummings") == (16, 8)
        assert blocks("jaynes_cummings-7") == (45, 8)
        assert blocks("multi_qubit_dephasing-4") == (256, 1)
        assert blocks("dephased_jaynes_cummings-3") is not None
        assert blocks("dephased_jaynes_cummings-5") is not None
        assert sum(blocks(f"planted-{seed}") is not None for seed in range(12)) >= 6
        # d = 2 splits would not pay: they stay whole
        for name in ("driven_dephasing", "dephasing_relaxation", "pauli_channel"):
            assert blocks(name) is None

    def test_dense_random_model_one_block(self, monkeypatch):
        # decided by the first basis element's couplings alone: the pattern
        # is never formed
        import lindscope.superop

        def unexpected(*args):
            raise AssertionError("the pattern of a dense generator was formed")

        monkeypatch.setattr(lindscope.superop, "_sector_table", unexpected)
        for d in (2, 4, 8, 16):
            rng = np.random.default_rng(90 + d)
            s = liouvillian(LindbladModel(d, random_hermitian(rng, d), (random_complex(rng, d),)))
            # one block, the whole rotation, in a read-only table of one sector
            a, e, table = _sector_form(s.matrix[None])
            assert a.shape == (1, d * d, d * d) and a.dtype == np.float64
            assert e.shape == (1,)
            assert table.tolist() == [list(range(d * d))] and not table.flags.writeable
            compute_metrics(s)

    def test_dense_hamiltonian_one_block(self):
        # -i[H, .] does not couple E_00 to the other E_jj, so the pattern
        # decides, and finds one sector
        for d in (2, 3, 8):
            h = random_hermitian(np.random.default_rng(100 + d), d)
            a, _, table = _sector_form(liouvillian(hamiltonian_only(h)).matrix[None])
            assert a[0, 0, 1:d].tolist() == [0.0] * (d - 1)
            assert table.shape == (1, d * d)

    def test_sector_table_components(self):
        # eight chains of eight, scattered over the basis, take several
        # rounds of propagation; the table lists each sector's elements in
        # ascending order, the sectors by their least elements
        from lindscope.superop import _sector_table

        n = 64
        chains = np.random.default_rng(96).permutation(n).reshape(8, 8)
        pattern = np.zeros((n, n), dtype=bool)
        pattern[chains[:, :-1], chains[:, 1:]] = True
        pattern |= pattern.T
        table = _sector_table.__wrapped__(np.packbits(pattern).tobytes(), n)
        assert table.tolist() == sorted(sorted(chain) for chain in chains.tolist())
        # joined end to end, they are one sector
        pattern[chains[:-1, -1], chains[1:, 0]] = True
        pattern |= pattern.T
        assert _sector_table.__wrapped__(np.packbits(pattern).tobytes(), n) is None

    def test_permutation_changes_nothing(self):
        # a random permutation of the Hilbert basis permutes the real form's
        # basis (up to signs) and scatters its sectors; every value is kept
        rng = np.random.default_rng(95)
        for name in ("dephased_jaynes_cummings-3", "planted-1", "planted-4", "multi_qubit_dephasing"):
            model = SECTOR_MODELS[name]
            p = np.eye(model.dim)[rng.permutation(model.dim)]
            moved = LindbladModel(
                model.dim, p @ model.hamiltonian @ p.T, tuple(p @ j @ p.T for j in model.jumps)
            )
            a = liouvillian(model)
            b = liouvillian(moved)
            assert not np.array_equal(a.matrix, b.matrix)
            _assert_metrics_close(compute_metrics(b), compute_metrics(a))
            grid = TimeGrid(0.0, 2.0, 50)
            _assert_relative(
                amplification_series(b, grid).prop_norm, amplification_series(a, grid).prop_norm
            )

    def test_padding_adds_no_norm(self):
        # exp of a padded zero block is the identity; unless the padding is
        # zeroed, ||P|| of a decaying generator would read 1
        s = Superoperator(2, -700.0 * np.eye(4))
        series = amplification_series(s, TimeGrid(0.0, 1.0, 20))
        # 20 steps of exp(-35): a few ulps each
        _assert_relative(series.prop_norm[-1], math.exp(-700.0), rel=1e-12)
        assert series.prop_norm[-1] < 1e-303
        # two elements coupled, seven alone: padded blocks of 2
        m = -700.0 * np.eye(9, dtype=complex)
        m[0, 4] = m[4, 0] = -1.0  # E_00 <-> E_11, which keeps Hermiticity
        table = _sector_form(m[None])[2]
        assert len(table) > 1 and (table < 0).any()
        series = amplification_series(Superoperator(3, m), TimeGrid(0.0, 1.0, 20))
        _assert_relative(series.prop_norm[-1], math.exp(-699.0), rel=1e-12)

    def test_sectored_stack_four_eigensolves(self, monkeypatch):
        models = [_dephased_jaynes_cummings(3), hamiltonian_only(np.zeros((8, 8)))]
        models += [jaynes_cummings(g=g, n_max=3) for g in (0.1, 0.2, 0.3)]
        stack = np.stack([liouvillian(model).matrix for model in models])
        assert len(_sector_form(stack)[2]) > 1
        # one exponent per generator, and its blocks in turn
        a, e, table = _sector_form(stack)
        assert len(e) == len(models) and len(a) == len(models) * len(table)
        calls = {"eigvalsh": 0}
        counting = functools.partial(_counting, calls)
        monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
        got = _column_bits(_block_pass(*_sector_form(stack)[:2]))
        assert calls == {"eigvalsh": 4}
        monkeypatch.undo()
        for row, model in zip(got, models):
            want = compute_metrics(liouvillian(model))
            assert row["regime"] is want.regime
            for name in ("delta", "eta", "nd_norm", "generator_norm"):
                _assert_relative(float.fromhex(row[name]), getattr(want, name))
