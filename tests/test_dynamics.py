import math

import numpy as np
import pytest
import scipy.linalg

from helpers import (
    SX,
    damped_jaynes_cummings,
    random_complex,
    random_density,
    random_hermitian,
    random_model,
    random_models,
)
from lindscope import (
    ConfigError,
    LindbladModel,
    RangeError,
    Regime,
    Superoperator,
    TimeGrid,
    adjoint,
    amplification_series,
    apply,
    compute_metrics,
    cost_estimate,
    decompose,
    default_grid,
    dephasing,
    dephasing_relaxation,
    dissipative_strength,
    driven_dephasing,
    error_amplification,
    gronwall_check,
    hamiltonian_only,
    hs_norm,
    jaynes_cummings,
    liouvillian,
    matrix_exp,
    multi_qubit_dephasing,
    normal_factorization_residual,
    pauli_channel,
    propagator,
    relaxation,
    spectral_abscissa,
    spectral_norm,
    truncated_appg_bound,
)
from lindscope.linalg import EXP_SAFE_NORM
from lindscope.superop import _block_spectrum, _form

SHIPPED_NORMAL_MODELS = [
    dephasing(1.0),
    pauli_channel(1.0, 2.0, 3.0),
    multi_qubit_dephasing([0.1, 0.2, 0.3]),
    hamiltonian_only(0.5 * np.array([[1.0, 0.0], [0.0, -1.0]])),
    jaynes_cummings(),
]


class TestTimeGrid:
    def test_times_are_uniform(self):
        grid = TimeGrid(0.0, 2.0, 4)
        np.testing.assert_allclose(grid.times, [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_invalid_grids_rejected(self):
        with pytest.raises(ConfigError):
            TimeGrid(-1.0, 2.0, 10)
        with pytest.raises(ConfigError):
            TimeGrid(1.0, 1.0, 10)
        with pytest.raises(ConfigError):
            TimeGrid(0.0, 1.0, 0)

    def test_default_grid_tracks_dissipative_timescale(self):
        grid = default_grid(liouvillian(dephasing_relaxation(1.0, 1.0)))
        assert grid.t_end == pytest.approx(5.0 / 2.5)
        assert grid.steps == 200

    def test_default_grid_hamiltonian_case(self):
        s = liouvillian(hamiltonian_only(np.array([[0.5, 0], [0, -0.5]])))
        grid = default_grid(s)
        assert grid.t_end == pytest.approx(10.0 / spectral_norm(s.matrix))

    def test_default_grid_zero_generator(self):
        grid = default_grid(Superoperator(2, np.zeros((4, 4))))
        assert grid.t_end == 10.0

    def test_infinite_end_rejected(self):
        with pytest.raises(ConfigError, match="finite"):
            TimeGrid(0.0, math.inf, 10)

    @pytest.mark.parametrize("t_start", [math.nan, math.inf, -math.inf])
    def test_non_finite_start_named(self, t_start):
        # the start is what is wrong, not the order of the ends
        with pytest.raises(ConfigError, match="^t_start must be"):
            TimeGrid(t_start, 1.0, 3)

    @pytest.mark.parametrize("steps", [2.5, 3.0, True, "3", None])
    def test_non_integer_steps_rejected(self, steps):
        # a float count would reach np.linspace as an untyped TypeError
        with pytest.raises(ConfigError, match="steps must be an integer"):
            TimeGrid(0.0, 1.0, steps)

    def test_numpy_integer_steps(self):
        np.testing.assert_array_equal(TimeGrid(0.0, 1.0, np.int64(2)).times, [0.0, 0.5, 1.0])

    @pytest.mark.parametrize(
        "t_start, t_end, name",
        [(0.0, "1", "t_end"), ("0", 1.0, "t_start"), (None, 1.0, "t_start"),
         (0.0, None, "t_end"), (0.0, 1j, "t_end"), (0.0, np.complex128(1.0), "t_end"),
         (True, 2.0, "t_start"), (0.0, True, "t_end"), (np.bool_(False), 1.0, "t_start")],
    )
    def test_non_number_times_rejected(self, t_start, t_end, name):
        # a str, None or complex time would reach a comparison or
        # math.isfinite as an untyped TypeError, and a bool passed as 0 or 1
        value = t_start if name == "t_start" else t_end
        with pytest.raises(ConfigError) as caught:
            TimeGrid(t_start, t_end, 3)
        assert str(caught.value) == f"{name} must be a real number, got {value!r}"

    def test_numpy_and_int_times(self):
        for t_start, t_end in [(0, 2), (np.int64(0), np.float32(2.0)), (np.float64(0.0), 2)]:
            np.testing.assert_array_equal(TimeGrid(t_start, t_end, 2).times, [0.0, 1.0, 2.0])

    def test_default_grid_overflowing_timescale(self):
        # delta ~ 2e-320 is dissipative at its own scale, but 5/delta overflows
        with pytest.raises(RangeError, match="timescale"):
            default_grid(liouvillian(dephasing(1e-320)))

    def test_default_grid_delta_underflows(self):
        # S_herm's entries are 2^-1075, half the smallest subnormal: the pass
        # labels the generator dissipative at its own scale, and delta
        # scaled back rounds to 0, so the timescale overflows
        m = np.zeros((4, 4), dtype=complex)
        m[0, 1] = 5e-324
        s = Superoperator(2, m)
        metrics = compute_metrics(s)
        assert metrics.regime is not Regime.HAMILTONIAN and metrics.delta == 0.0
        with pytest.raises(RangeError, match="timescale"):
            default_grid(s)


class TestPropagator:
    def test_identity_at_time_zero(self):
        s = liouvillian(dephasing_relaxation(1.0, 1.0))
        np.testing.assert_allclose(propagator(s, 0.0).matrix, np.eye(4), atol=1e-15)

    def test_hamiltonian_propagator_is_norm_one(self):
        rng = np.random.default_rng(0)
        s = liouvillian(hamiltonian_only(random_hermitian(rng, 3)))
        for t in (0.5, 1.0, 3.0):
            assert spectral_norm(propagator(s, t).matrix) == pytest.approx(1.0, abs=1e-10)

    def test_dephasing_coherence_decay(self):
        gamma = 1.0
        s = liouvillian(dephasing(gamma))
        for t in (0.3, 1.0, 2.0):
            out = apply(propagator(s, t), SX)
            np.testing.assert_allclose(out, math.exp(-2 * gamma * t) * SX, atol=1e-12)

    def test_semigroup(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            model = random_model(rng, d=3)
            s = liouvillian(model)
            norm = spectral_norm(s.matrix)
            total = 10.0 / max(norm, 1.0)
            t = 0.6 * total
            u = 0.4 * total
            lhs = propagator(s, t).matrix @ propagator(s, u).matrix
            rhs = propagator(s, t + u).matrix
            assert spectral_norm(lhs - rhs) <= 1e-8

    def test_range_error(self):
        s = liouvillian(dephasing(1.0))  # ||S|| = 2
        with pytest.raises(RangeError):
            propagator(s, 100.0)
        with pytest.raises(RangeError):
            propagator(s, -1.0)

    def test_trace_preserving_direction_is_fixed(self):
        rng = np.random.default_rng(2)
        model = random_model(rng, d=3)
        s = liouvillian(model)
        t = 1.0 / max(spectral_norm(s.matrix), 1.0)
        out = apply(adjoint(propagator(s, t)), np.eye(3))
        np.testing.assert_allclose(out, np.eye(3), atol=1e-10)


class TestAmplificationSeries:
    def test_dephasing_norm_stays_one(self):
        # oracle: the generator is diagonal, so exp(t S) has norm exp(0) = 1
        s = liouvillian(dephasing(1.0))
        series = amplification_series(s, TimeGrid(0.0, 2.0, 50))
        np.testing.assert_allclose(series.prop_norm, 1.0, atol=1e-12)
        np.testing.assert_allclose(series.a_spectral, 1.0, atol=1e-10)
        assert series.prop_norm[0] == 1.0

    def test_hamiltonian_all_ones(self):
        rng = np.random.default_rng(3)
        s = liouvillian(hamiltonian_only(random_hermitian(rng, 2)))
        series = amplification_series(s, default_grid(s))
        np.testing.assert_allclose(series.prop_norm, 1.0, atol=1e-8)
        np.testing.assert_allclose(series.a_paper, 1.0, atol=1e-8)
        np.testing.assert_allclose(series.gronwall_env, 1.0, atol=1e-8)

    def test_transient_amplification_exists_and_matches_oracle(self):
        # frozen from the independent oracle: column-built superoperator,
        # dense expm over the same grid
        s = liouvillian(dephasing_relaxation(1.0, 1.0))
        series = amplification_series(s, default_grid(s))
        top = float(series.a_spectral.max())
        assert top > 1.0
        assert top == pytest.approx(1.324963239574627, abs=1e-6)

    def test_normal_models_have_unit_spectral_amplification(self):
        for model in SHIPPED_NORMAL_MODELS:
            s = liouvillian(model)
            series = amplification_series(s, default_grid(s))
            np.testing.assert_allclose(series.a_spectral, 1.0, atol=1e-8)

    def test_grid_refinement_stable(self):
        from lindscope import relaxation

        for model in SHIPPED_NORMAL_MODELS + [
            dephasing_relaxation(1.0, 1.0),
            driven_dephasing(1.0, 0.1),
            relaxation(1.0),
        ]:
            s = liouvillian(model)
            coarse = amplification_series(s, default_grid(s, steps=200))
            fine = amplification_series(s, default_grid(s, steps=400))
            a, b = coarse.a_spectral.max(), fine.a_spectral.max()
            assert abs(a - b) <= 0.01 * max(a, b)

    def test_series_lengths_and_envelopes(self):
        s = liouvillian(driven_dephasing(1.0, 0.5))
        grid = TimeGrid(0.0, 1.0, 20)
        series = amplification_series(s, grid)
        for arr in (series.prop_norm, series.a_paper, series.a_spectral,
                    series.gronwall_env, series.appg_env, series.appg_satisfied):
            assert len(arr) == 21
        np.testing.assert_allclose(
            series.gronwall_env, np.exp(series.delta * series.times), rtol=1e-12
        )

    def test_strongly_nonnormal_default_grid(self):
        # t_end * ||S|| = 77.5 on the default grid; only the step must stay
        # in the exponential's safe range
        s = liouvillian(driven_dephasing(1.0, 30.0))
        assert compute_metrics(s).regime is Regime.STRONGLY_NONNORMAL
        series = amplification_series(s, default_grid(s))
        assert len(series.prop_norm) == 201
        for i in (0, 100, 200):
            want = np.linalg.norm(scipy.linalg.expm(series.times[i] * s.matrix), 2)
            assert series.prop_norm[i] == pytest.approx(want, rel=1e-12)

    def test_oversized_step_names_steps(self):
        s = liouvillian(dephasing(1.0))  # ||S|| = 2
        with pytest.raises(RangeError, match=r"step h = 100.*--steps"):
            amplification_series(s, TimeGrid(0.0, 1000.0, 10))
        with pytest.raises(RangeError):
            amplification_series(s, TimeGrid(100.0, 101.0, 10))

    def test_interval_beyond_max_steps(self):
        s = liouvillian(dephasing(1.0))
        with pytest.raises(RangeError, match="more than 1000000 steps"):
            amplification_series(s, TimeGrid(0.0, 1e300, 10))

    def test_zero_eta_envelope_at_huge_times(self):
        # times**2 overflows; a normal generator's envelope must not turn NaN
        series = amplification_series(liouvillian(dephasing(1e-320)), TimeGrid(0.0, 1e300, 4))
        assert np.all(series.appg_env == 1.0)

    def test_overflow_is_range_error(self):
        s = Superoperator(2, 10.0 * np.eye(4))
        with pytest.raises(RangeError, match="overflows"):
            amplification_series(s, TimeGrid(0.0, 100.0, 100))


class TestSteppingDrift:
    @pytest.mark.parametrize("steps", [200, 2000, 20000])
    def test_drift_against_direct_exponential(self, steps):
        rng = np.random.default_rng(31)
        for _ in range(3):
            s = liouvillian(random_model(rng, d=3))
            norm = spectral_norm(s.matrix)
            series = amplification_series(s, TimeGrid(0.0, 40.0 / norm, steps))
            for k in (0, steps // 4, steps // 2, steps):
                want = np.linalg.norm(scipy.linalg.expm(series.times[k] * s.matrix), 2)
                assert abs(series.prop_norm[k] - want) <= steps * 1e-16 * want

    def test_long_horizon(self):
        s = liouvillian(dephasing_relaxation(1.0, 1.0))
        t_end = 1000.0 / spectral_norm(s.matrix)
        series = amplification_series(s, TimeGrid(0.0, t_end, 2000))
        want = np.linalg.norm(scipy.linalg.expm(t_end * s.matrix), 2)
        assert series.prop_norm[-1] == pytest.approx(want, rel=1e-12)


def _real_form_generators():
    """Seeded Lindbladians at d = 2..8, which step in float64, and one raw
    complex superoperator, which does not preserve Hermiticity."""
    rng = np.random.default_rng(40)
    gens = [liouvillian(random_model(rng, d=d)) for d in range(2, 9)]
    gens.append(Superoperator(3, random_complex(rng, 9)))
    return gens


REAL_FORM_GENERATORS = _real_form_generators()


class TestRealFormSeries:
    """The series in the Hermitian operator basis against complex dense routes."""

    @pytest.mark.parametrize("index", range(len(REAL_FORM_GENERATORS)))
    def test_prop_norm_matches_svd(self, index):
        s = REAL_FORM_GENERATORS[index]
        series = amplification_series(s, default_grid(s))
        for k in (0, 100, 200):
            p = scipy.linalg.expm(series.times[k] * s.matrix)
            want = np.linalg.svd(p, compute_uv=False)[0]
            assert series.prop_norm[k] == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("index", range(len(REAL_FORM_GENERATORS)))
    def test_alpha_matches_complex_eigvals(self, index):
        s = REAL_FORM_GENERATORS[index]
        want = np.linalg.eigvals(s.matrix).real.max()
        norm = compute_metrics(s).generator_norm
        assert abs(spectral_abscissa(s) - want) <= 1e-14 * norm
        series = amplification_series(s, TimeGrid(0.0, 1.0 / norm, 4))
        assert series.alpha == spectral_abscissa(s)

    @pytest.mark.parametrize("index", range(len(REAL_FORM_GENERATORS)))
    def test_gronwall_matches_direct(self, index):
        # a density matrix, whose coordinates are real, and a general
        # operator, whose real and imaginary parts step apart
        s = REAL_FORM_GENERATORS[index]
        rng = np.random.default_rng(41 + index)
        grid = default_grid(s, steps=40)
        delta = compute_metrics(s).delta
        for rho0 in (random_density(rng, s.dim), random_complex(rng, s.dim)):
            vec0 = rho0.flatten(order="F")
            direct = min(
                math.exp(delta * t) * hs_norm(rho0)
                - np.linalg.norm(scipy.linalg.expm(t * s.matrix) @ vec0)
                for t in grid.times
            )
            assert gronwall_check(s, rho0, grid) == pytest.approx(direct, abs=1e-12)

    def test_huge_and_tiny_propagators(self):
        # the Gram matrix of exp(t S) would over- or underflow without the
        # power of two taken from the propagator's largest entry; the
        # propagator is the k-th power of the step, a multiple of I
        for rate in (700.0, -700.0):
            s = Superoperator(2, rate * np.eye(4))
            series = amplification_series(s, TimeGrid(0.0, 1.0, 200))
            assert series.prop_norm[1] == pytest.approx(math.exp(0.005 * rate), rel=1e-14)
            want = series.prop_norm[1] ** np.arange(201)
            assert want[-1] > 1e300 or want[-1] < 1e-300
            np.testing.assert_allclose(series.prop_norm, want, rtol=1e-13)


class TestGronwall:
    def test_hamiltonian_bound_saturated(self):
        rng = np.random.default_rng(4)
        s = liouvillian(hamiltonian_only(random_hermitian(rng, 2)))
        rho0 = random_density(rng, 2)
        margin = gronwall_check(s, rho0, default_grid(s))
        assert margin == pytest.approx(0.0, abs=1e-10)

    def test_dephasing_margin_grows(self):
        s = liouvillian(dephasing(1.0))
        rho0 = SX / np.sqrt(2)
        grid = TimeGrid(0.0, 2.0, 20)
        delta = dissipative_strength(s)
        margins = [
            math.exp(delta * t) * hs_norm(rho0)
            - hs_norm(apply(propagator(s, t), rho0))
            for t in grid.times
        ]
        assert all(b > a for a, b in zip(margins, margins[1:]))
        assert gronwall_check(s, rho0, grid) == pytest.approx(0.0, abs=1e-12)

    def test_random_sweep_nonnegative(self):
        rng = np.random.default_rng(5)
        for model in random_models(6, 50):
            s = liouvillian(model)
            rho0 = random_density(rng, model.dim)
            grid = default_grid(s, steps=40)
            margin = gronwall_check(s, rho0, grid)
            scale = math.exp(dissipative_strength(s) * grid.t_end) * hs_norm(rho0)
            assert margin >= -1e-9 * scale

    def test_long_horizon_envelope_overflow(self):
        # exp(t * delta) overflows past t * delta ~ 709 while the propagator
        # stays bounded; the minimum margin, at t = 0, is still exact
        s = liouvillian(dephasing_relaxation(1.0, 1.0))
        rho0 = random_density(np.random.default_rng(6), 2)
        grid = TimeGrid(0.0, 400.0, 2000)
        assert dissipative_strength(s) * grid.t_end > 709
        assert gronwall_check(s, rho0, grid) == pytest.approx(0.0, abs=1e-12)


class TestNormalFactorization:
    def test_commuting_hamiltonian_residual_vanishes(self):
        # dephasing along z commutes with a z-axis drive; the commutator of
        # the two parts vanishes, so the exponential factorizes
        from lindscope import LindbladModel, commutator
        from lindscope.superop import decompose

        model = LindbladModel(
            dim=2,
            hamiltonian=0.25 * np.array([[1, 0], [0, -1]], dtype=complex),
            jumps=(np.array([[1, 0], [0, -1]], dtype=complex),),
        )
        s = liouvillian(model)
        herm, skew = decompose(s)
        assert spectral_norm(commutator(herm.matrix, skew.matrix)) <= 1e-12
        for t in (0.5, 1.0, 2.0):
            assert normal_factorization_residual(s, t) <= 1e-8

    def test_hamiltonian_only_residual_zero(self):
        rng = np.random.default_rng(7)
        s = liouvillian(hamiltonian_only(random_hermitian(rng, 2)))
        assert normal_factorization_residual(s, 1.0) <= 1e-12

    def test_driven_dephasing_residual_positive(self):
        s = liouvillian(driven_dephasing(1.0, 1.0))
        residual = normal_factorization_residual(s, 1.0)
        assert residual > 1e-3
        assert residual == pytest.approx(0.5134741440931387, abs=1e-9)


class TestErrorAmplification:
    def test_hamiltonian_passthrough(self):
        rng = np.random.default_rng(8)
        s = liouvillian(hamiltonian_only(random_hermitian(rng, 2)))
        assert error_amplification(s, 2.0, 1e-3) == pytest.approx(1e-3, rel=1e-8)

    def test_dephasing_passthrough(self):
        s = liouvillian(dephasing(1.0))
        assert error_amplification(s, 1.0, 1e-2) == pytest.approx(1e-2, rel=1e-10)

    def test_zero_eps(self):
        s = liouvillian(dephasing(1.0))
        assert error_amplification(s, 1.0, 0.0) == 0.0

    def test_monotone_in_eps(self):
        s = liouvillian(dephasing_relaxation(1.0, 1.0))
        values = [error_amplification(s, 1.0, e) for e in (1e-4, 1e-3, 1e-2)]
        assert values[0] < values[1] < values[2]

    def test_negative_eps_rejected(self):
        s = liouvillian(dephasing(1.0))
        with pytest.raises(ConfigError):
            error_amplification(s, 1.0, -1e-3)

    def test_nan_eps_rejected(self):
        s = liouvillian(dephasing(1.0))
        with pytest.raises(ConfigError, match="eps must be nonnegative, got nan"):
            error_amplification(s, 1.0, math.nan)


class TestTruncatedEnvelope:
    def test_normal_generator_satisfied(self):
        s = liouvillian(pauli_channel(1.0, 1.0, 1.0))
        bound, satisfied = truncated_appg_bound(s, 0.5)
        assert satisfied
        assert bound >= 1.0

    def test_hamiltonian_only_satisfied(self):
        rng = np.random.default_rng(9)
        s = liouvillian(hamiltonian_only(random_hermitian(rng, 2)))
        bound, satisfied = truncated_appg_bound(s, 1.0)
        assert satisfied
        assert bound >= 1.0

    def test_crossover_example_flag_recorded(self):
        # diagnostic value computed once by the oracle and frozen: the
        # envelope exp(2.5 + 0.5 + sqrt(2)/4) comfortably clears the norm
        s = liouvillian(dephasing_relaxation(1.0, 1.0))
        bound, satisfied = truncated_appg_bound(s, 1.0)
        assert bound == pytest.approx(math.exp(3.0 + math.sqrt(2) / 4), rel=1e-10)
        assert satisfied is True


class TestCostEstimate:
    def test_hamiltonian_arithmetic(self):
        s = liouvillian(hamiltonian_only(np.array([[1.0, 0], [0, -1.0]])))
        base, overhead = cost_estimate(s, 10.0, 1e-6)
        assert base == pytest.approx(10.0 + math.log(1e6), rel=1e-12)
        assert overhead == 0.0

    def test_dephasing_arithmetic(self):
        s = liouvillian(dephasing(1.0))
        base, overhead = cost_estimate(s, 5.0, 1e-3)
        assert base == pytest.approx(10.0 + math.log(1e3), rel=1e-12)
        assert overhead == 0.0

    def test_strongly_nonnormal_overhead_is_kappa(self):
        s = liouvillian(driven_dephasing(1.0, 20.0))
        metrics = compute_metrics(s)
        assert metrics.regime is Regime.STRONGLY_NONNORMAL
        _, overhead = cost_estimate(s, 1.0, 1e-3)
        assert overhead == pytest.approx(metrics.kappa, rel=1e-12)

    def test_crossover_overhead_is_unit(self):
        s = liouvillian(dephasing_relaxation(1.0, 1.0))
        _, overhead = cost_estimate(s, 1.0, 1e-3)
        assert overhead == 1.0

    def test_eps_star_validation(self):
        s = liouvillian(dephasing(1.0))
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ConfigError):
                cost_estimate(s, 1.0, bad)

    def test_nan_time_rejected(self):
        s = liouvillian(dephasing(1.0))
        with pytest.raises(RangeError, match="time must be nonnegative, got nan"):
            cost_estimate(s, math.nan, 0.5)

    @pytest.mark.filterwarnings("error")
    def test_infinite_time_rejected(self):
        # the rate of a zero generator is 0, and inf * 0 is NaN
        s = liouvillian(hamiltonian_only(np.zeros((2, 2))))
        with pytest.raises(RangeError, match="time must be finite, got inf"):
            cost_estimate(s, math.inf, 0.5)


class TestSvdFreeHelpers:
    """propagator, error_amplification, truncated_appg_bound and
    normal_factorization_residual range-check with the memoized ||S|| and
    take their norms from a Gram eigensolve: no SVD."""

    @staticmethod
    def _generator():
        return liouvillian(random_model(np.random.default_rng(90), d=12))

    def test_no_svd(self, monkeypatch):
        s = self._generator()
        compute_metrics(s)
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        propagator(s, 0.01)
        error_amplification(s, 0.01, 1e-3)
        truncated_appg_bound(s, 0.01)
        normal_factorization_residual(s, 0.01)
        assert calls == []

    def test_no_svd_near_range_end(self, monkeypatch):
        # at t ||S|| = 45 a 1-norm bound no longer proves the range, so a
        # second range check would take an SVD; the pass's ||S|| proves it
        s = liouvillian(random_model(np.random.default_rng(91), d=8))
        t = 45.0 / compute_metrics(s).generator_norm
        grid = TimeGrid(0.0, t, 1)
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        for name, call in (
            ("propagator", lambda: propagator(s, t)),
            ("error_amplification", lambda: error_amplification(s, t, 1e-3)),
            ("truncated_appg_bound", lambda: truncated_appg_bound(s, t)),
            ("normal_factorization_residual", lambda: normal_factorization_residual(s, t)),
            ("amplification_series", lambda: amplification_series(s, grid)),
            ("gronwall_check", lambda: gronwall_check(s, np.eye(8) / 8, grid)),
        ):
            call()
            assert calls == [], name

    def test_values_match_svd(self):
        s = self._generator()
        t = 0.01
        full = scipy.linalg.expm(t * s.matrix)
        herm = (s.matrix + s.matrix.conj().T) / 2
        skew = (s.matrix - s.matrix.conj().T) / 2
        residual = full - scipy.linalg.expm(t * herm) @ scipy.linalg.expm(t * skew)
        prop = spectral_norm(full)
        assert error_amplification(s, t, 1e-3) == pytest.approx(1e-3 * prop, rel=1e-13)
        bound, satisfied = truncated_appg_bound(s, t)
        assert satisfied == bool(prop <= bound * (1.0 + 1e-9))
        assert normal_factorization_residual(s, t) == pytest.approx(
            spectral_norm(residual), rel=1e-11
        )

    def test_gram_norms_match_svd_of_same_matrices(self):
        # the norms alone, on the exact matrices the helpers form
        from lindscope.dynamics import _propagator_norm
        from lindscope.linalg import matrix_exp
        from lindscope.superop import decompose

        s = self._generator()
        t = 0.01
        herm, skew = decompose(s)
        full = matrix_exp(t * s.matrix)
        residual = full - matrix_exp(t * herm.matrix) @ matrix_exp(t * skew.matrix)
        for p in (full, residual):
            assert _propagator_norm(p) == pytest.approx(spectral_norm(p), rel=1e-13)
        assert normal_factorization_residual(s, t) == _propagator_norm(residual)

    def test_range_check_uses_generator_norm(self):
        s = self._generator()
        norm = compute_metrics(s).generator_norm
        assert norm == pytest.approx(spectral_norm(s.matrix), rel=1e-13)
        t = 1.01 * 50.0 / norm
        for call in (
            lambda: propagator(s, t),
            lambda: error_amplification(s, t, 1e-3),
            lambda: normal_factorization_residual(s, t),
        ):
            with pytest.raises(RangeError, match="exceeds safe range"):
                call()

    def test_nan_time_rejected(self):
        # NaN fails the range check itself, which names the time, before
        # any exponential could meet it
        s = self._generator()
        for call in (
            lambda: propagator(s, math.nan),
            lambda: error_amplification(s, math.nan, 1e-3),
            lambda: truncated_appg_bound(s, math.nan),
            lambda: normal_factorization_residual(s, math.nan),
        ):
            with pytest.raises(RangeError, match="time must be nonnegative, got nan"):
                call()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "call",
        [
            propagator,
            lambda s, t: error_amplification(s, t, 1e-3),
            truncated_appg_bound,
            normal_factorization_residual,
        ],
        ids=["propagator", "error_amplification", "truncated_appg_bound",
             "normal_factorization_residual"],
    )
    def test_infinite_time_rejected(self, call):
        # on a zero generator t * ||S|| is inf * 0 = NaN, which no
        # comparison with the safe range catches, so the time is refused
        # before any exponential could meet it
        s = liouvillian(hamiltonian_only(np.zeros((2, 2))))
        with pytest.raises(RangeError, match="time must be finite, got inf"):
            call(s, math.inf)


def _boundary_time(norm):
    """The largest double t with t * norm <= EXP_SAFE_NORM."""
    t = EXP_SAFE_NORM / norm
    while t * norm > EXP_SAFE_NORM:
        t = math.nextafter(t, 0.0)
    while math.nextafter(t, math.inf) * norm <= EXP_SAFE_NORM:
        t = math.nextafter(t, math.inf)
    return t


class TestSafeRangeBoundary:
    """At the largest t the range check accepts, every entry point that takes
    an exponential returns a result: no second check refuses it."""

    @staticmethod
    def _generators():
        rng = np.random.default_rng(95)
        models = [relaxation(1.0)]
        for d in (2, 3, 4, 6, 8):
            for _ in range(8):
                jump = random_complex(rng, d)
                models.append(LindbladModel(d, random_hermitian(rng, d), (jump,)))
        return [liouvillian(model) for model in models]

    def test_every_entry_point_runs(self):
        for s in self._generators():
            t = _boundary_time(compute_metrics(s).generator_norm)
            grid = TimeGrid(0.0, t, 1)
            assert math.isfinite(spectral_norm(propagator(s, t).matrix))
            assert math.isfinite(error_amplification(s, t, 1.0))
            assert math.isfinite(truncated_appg_bound(s, t).bound)
            assert math.isfinite(normal_factorization_residual(s, t))
            assert np.isfinite(amplification_series(s, grid).prop_norm).all()
            assert math.isfinite(gronwall_check(s, np.eye(s.dim) / s.dim, grid))

    def test_one_step_past_is_refused(self):
        # the check that accepts the boundary still refuses the next double
        for s in self._generators()[:6]:
            t = math.nextafter(_boundary_time(compute_metrics(s).generator_norm), math.inf)
            with pytest.raises(RangeError, match=r"t \* \|\|S\|\| = .* exceeds safe range"):
                error_amplification(s, t, 1.0)
            with pytest.raises(RangeError, match="raise --steps to at least 2"):
                amplification_series(s, TimeGrid(0.0, t, 1))


class TestOneEnvelope:
    """truncated_appg_bound and the series' appg_env are one computation."""

    @staticmethod
    def _generators():
        models = [
            dephasing(0.7),
            driven_dephasing(1.0, 3.0),
            driven_dephasing(1.0, 30.0),
            relaxation(0.5),
            dephasing_relaxation(1.0, 0.4),
            pauli_channel(0.2, 0.5, 0.9),
            multi_qubit_dephasing([0.1, 0.3, 0.6]),
            hamiltonian_only(np.array([[0.5, 0.2], [0.2, -0.5]])),
            jaynes_cummings(n_max=2),
            *random_models(96, 12),
        ]
        return [liouvillian(model) for model in models]

    def test_bound_is_series_envelope(self):
        for s in self._generators():
            norm = compute_metrics(s).generator_norm
            series = amplification_series(s, default_grid(s, 40))
            for i, t in enumerate(series.times):
                if t * norm > EXP_SAFE_NORM:
                    continue
                bound, satisfied = truncated_appg_bound(s, float(t))
                assert bound == series.appg_env[i]
                assert satisfied == series.appg_satisfied[i]


def _block_route_generators():
    """Every named kind, damped Jaynes-Cummings, random Lindbladians and raw
    complex matrices, all at d <= 8: split, whole, real and complex forms."""
    rng = np.random.default_rng(21)
    models = [
        dephasing(0.7),
        driven_dephasing(1.0, 3.0),
        relaxation(0.5),
        dephasing_relaxation(1.0, 0.4),
        pauli_channel(0.2, 0.5, 0.9),
        multi_qubit_dephasing([0.1, 0.3, 0.6]),
        hamiltonian_only(random_hermitian(rng, 3)),
        jaynes_cummings(n_max=3),
        damped_jaynes_cummings(3),
        *(random_model(rng, d=d) for d in (2, 3, 5, 8)),
    ]
    generators = [liouvillian(model) for model in models]
    return generators + [Superoperator(d, random_complex(rng, d * d)) for d in (2, 3)]


class TestModelRoute:
    """A model's generator reaches the pass and the dynamics with no dense
    generator: the named kinds that split form their blocks from H and the
    jumps."""

    @pytest.mark.parametrize(
        "model", [jaynes_cummings(n_max=3), multi_qubit_dephasing([0.1, 0.3, 0.6])],
        ids=["jc", "mqd"],
    )
    def test_no_dense_generator(self, monkeypatch, model):
        import lindscope.superop

        def refused(*args):
            raise AssertionError("a dense generator was formed")

        monkeypatch.setattr(lindscope.superop, "_liouvillians", refused)
        monkeypatch.setattr(lindscope.superop, "_sector_form", refused)
        s = liouvillian(model)
        m = compute_metrics(s)
        t = 1.0 / m.generator_norm
        grid = TimeGrid(0.0, t, 4)
        assert amplification_series(s, grid).prop_norm[0] == 1.0
        assert spectral_abscissa(s) <= 1e-12 * m.generator_norm
        assert gronwall_check(s, np.eye(s.dim) / s.dim, grid) >= -1e-12
        assert error_amplification(s, t, 1.0) >= 1.0 - 1e-12
        assert "matrix" not in vars(s)


def _abscissa_models():
    """Every named kind, damped jaynes_cummings and seeded random models at
    d = 2-8, by name; the last one's generator overflows."""
    rng = np.random.default_rng(44)
    models = {
        "dephasing": dephasing(1.0),
        "driven_dephasing": driven_dephasing(1.0, 30.0),
        "relaxation": relaxation(0.7),
        "dephasing_relaxation": dephasing_relaxation(1.0, 1.0),
        "pauli_channel": pauli_channel(1.0, 2.0, 3.0),
        "multi_qubit_dephasing": multi_qubit_dephasing([0.1, 0.3, 0.6]),
        "hamiltonian_only": hamiltonian_only(random_hermitian(rng, 3)),
        "jaynes_cummings": jaynes_cummings(n_max=3),
        "damped_jaynes_cummings": damped_jaynes_cummings(3),
        **{f"random-{d}": random_model(rng, d=d) for d in range(2, 9)},
        **{f"seeded-{i}": model for i, model in enumerate(random_models(45, 8))},
    }
    jump = np.zeros((3, 3), dtype=complex)
    jump[0, 2] = 1e200
    models["overflow"] = LindbladModel(3, np.zeros((3, 3)), (jump,))
    return models


ABSCISSA_MODELS = _abscissa_models()
FINITE_ABSCISSA_MODELS = sorted(set(ABSCISSA_MODELS) - {"overflow"})


class TestModelAbscissa:
    """The spectral abscissa of a model's generator is exactly 0 (trace
    preservation and contractivity), kept on the generator: no form and no
    eigensolve."""

    @pytest.mark.parametrize("name", sorted(ABSCISSA_MODELS))
    def test_zero_with_no_form_or_eigensolve(self, monkeypatch, name):
        import lindscope.dynamics
        import lindscope.superop

        def refused(*args):
            raise AssertionError("the abscissa formed or eigensolved the generator")

        for module, attr in [
            (lindscope.superop, "_form"),
            (lindscope.dynamics, "_form"),
            (lindscope.superop, "_liouvillians"),
            (lindscope.dynamics, "_block_spectrum"),
            (np.linalg, "eigvals"),
        ]:
            monkeypatch.setattr(module, attr, refused)
        s = liouvillian(ABSCISSA_MODELS[name])
        alpha = spectral_abscissa(s)
        assert alpha == 0.0 and type(alpha) is float
        if name == "overflow":
            # every call that forms this generator raises; the abscissa,
            # which forms nothing, reads its exact value
            monkeypatch.undo()
            with pytest.raises(RangeError, match="overflows"):
                compute_metrics(s)
            assert spectral_abscissa(s) == 0.0

    @pytest.mark.parametrize("name", FINITE_ABSCISSA_MODELS)
    def test_a_spectral_is_prop_norm(self, name):
        s = liouvillian(ABSCISSA_MODELS[name])
        series = amplification_series(s, default_grid(s, steps=40))
        assert series.alpha == 0.0
        assert series.a_spectral.tobytes() == series.prop_norm.tobytes()

    @pytest.mark.parametrize("name", FINITE_ABSCISSA_MODELS)
    def test_computed_abscissa_is_roundoff(self, name):
        # the eigensolve that the exact value replaces, kept as the oracle
        s = liouvillian(ABSCISSA_MODELS[name])
        computed = float(_block_spectrum(*_form(s)).real.max())
        assert abs(computed) <= 1e-14 * compute_metrics(s).generator_norm


class TestBlockRoute:
    """error_amplification, truncated_appg_bound and
    normal_factorization_residual take their exponentials on the sector
    blocks of the generator; ``propagator`` is the one dense exponential."""

    def test_match_dense_reference(self):
        # The dense route is the oracle: matrix_exp of the whole matrix and
        # of its decompose parts, and an SVD. Both routes' exponentials err
        # by about t ||S|| eps, so the norm is held to 8 eps max(1, t ||S||)
        # relative, and the residual, a difference of products, to the same
        # times max(1, ||exp(t S)||, ||exp(t S_herm)||) absolute (measured:
        # at most 5e-15 relative, and 4.3e-15 of that scale, at t ||S|| = 40)
        eps = np.finfo(float).eps
        for s in _block_route_generators():
            norm = spectral_norm(s.matrix)
            herm, skew = decompose(s)
            for scaled in (0.1, 1.0, 10.0, 40.0):
                t = scaled / norm
                full = matrix_exp(t * s.matrix)
                part = matrix_exp(t * herm.matrix)
                prop = spectral_norm(full)
                residual = spectral_norm(full - part @ matrix_exp(t * skew.matrix))
                tol = 8 * eps * max(1.0, scaled)
                assert abs(error_amplification(s, t, 1.0) - prop) <= tol * prop
                bound, satisfied = truncated_appg_bound(s, t)
                assert satisfied == bool(prop <= bound * (1.0 + 1e-9))
                scale = max(1.0, prop, spectral_norm(part))
                assert abs(normal_factorization_residual(s, t) - residual) <= tol * scale

    def test_norm_is_first_series_point(self):
        # one exponential route: the norm at t is, bit for bit, the first
        # point of a series that starts at t
        for s in _block_route_generators():
            t = 2.0 / spectral_norm(s.matrix)
            series = amplification_series(s, TimeGrid(t, 2 * t, 1))
            assert error_amplification(s, t, 1.0) == series.prop_norm[0]

    @pytest.mark.parametrize(
        "model", [jaynes_cummings(n_max=3), multi_qubit_dephasing([0.1, 0.3, 0.6])],
        ids=["jc", "mqd"],
    )
    def test_no_whole_exponential(self, monkeypatch, model):
        from lindscope import dynamics

        s = liouvillian(model)
        n = s.matrix.shape[0]
        shapes = []
        exp = dynamics._pade_exp
        monkeypatch.setattr(
            dynamics, "_pade_exp", lambda m, norm_1: shapes.append(m.shape) or exp(m, norm_1)
        )
        t = 1.0 / spectral_norm(s.matrix)
        error_amplification(s, t, 1e-3)
        truncated_appg_bound(s, t)
        normal_factorization_residual(s, t)
        amplification_series(s, TimeGrid(0.0, t, 4))
        gronwall_check(s, np.eye(s.dim) / s.dim, TimeGrid(0.0, t, 4))
        # jc splits into 16 blocks of 8, mqd into 64 of 1
        assert len(shapes) == 9
        assert all(shape[-1] < n and len(shape) == 3 for shape in shapes)
        shapes.clear()
        propagator(s, t)
        assert shapes == [(n, n)]
