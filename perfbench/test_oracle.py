"""Tests of the benchmark's own oracle: ``python3 -m pytest perfbench``.

The oracle judges lindscope's outputs on random models, so it is first
held to closed forms and to a brute-force exponential. None of this
imports lindscope.
"""

import numpy as np
import pytest

import oracle


def test_self_check_passes():
    assert oracle.self_check() == []


@pytest.mark.parametrize("gamma", [0.5, 2.0])
@pytest.mark.parametrize("omega", [0.01, 1.0, 30.0])
def test_driven_dephasing_closed_forms(gamma, omega):
    ref = oracle.Reference(*oracle.named_model({"type": "driven_dephasing", "gamma_z": gamma, "omega": omega}))
    assert ref.delta == pytest.approx(2 * gamma, rel=1e-12)
    assert ref.eta == pytest.approx(4 * gamma * omega, rel=1e-10)
    assert ref.kappa == pytest.approx(omega / gamma, rel=1e-10)
    assert ref.regime == oracle.regime(2 * gamma, 4 * gamma * omega, 1.0)


def test_dephasing_is_normal_and_hamiltonian_has_no_kappa():
    ref = oracle.Reference(*oracle.named_model({"type": "dephasing", "gamma_z": 0.7}))
    assert ref.delta == pytest.approx(1.4, rel=1e-12) and ref.normal
    ham = oracle.Reference(*oracle.named_model({"type": "hamiltonian_only", "omega": 1.0}))
    assert ham.delta == 0.0 and ham.kappa is None and ham.regime == "Hamiltonian"


def test_superop_is_trace_preserving_and_matches_rhs():
    rng = np.random.default_rng(3)
    d = 3
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (h + h.conj().T) / 2
    jumps = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))]
    s = oracle.superop(h, jumps)
    rho = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    out = (s @ rho.ravel(order="F")).reshape((d, d), order="F")
    assert np.allclose(out, oracle.rhs(h, jumps, rho), atol=1e-12)
    # The trace functional is invariant: vec(I)^dag S = 0.
    assert np.allclose(np.eye(d).ravel(order="F") @ s, 0.0, atol=1e-12)


def test_expm_matches_eigendecomposition_of_a_normal_matrix():
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    w = rng.normal(size=6) * 4 + 1j * rng.normal(size=6) * 6
    a = (q * w) @ q.conj().T
    assert np.allclose(oracle.expm(a), (q * np.exp(w)) @ q.conj().T, rtol=1e-12, atol=1e-12)


def test_checks_report_a_wrong_value():
    ref = oracle.Reference(*oracle.named_model({"type": "driven_dephasing", "gamma_z": 1.0, "omega": 1.0}))
    good = {"delta": ref.delta, "eta": ref.eta, "kappa": ref.kappa, "regime": ref.regime}
    assert oracle.check_metrics("x", good, ref) == []
    assert oracle.check_metrics("x", dict(good, eta=ref.eta * (1 + 1e-8)), ref)
    assert oracle.check_metrics("x", dict(good, regime="WeaklyNonnormal"), ref)
