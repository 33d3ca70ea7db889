"""Shared test helpers: independent oracles and seeded random generators.

The oracle functions deliberately avoid the package's construction paths:
the superoperator oracle applies the dense master-equation right-hand side
to basis matrices column by column (no Kronecker products), and the norm
oracle runs power iteration (no library SVD call). The one exception is
``dense_structured_report``, the structured-dissipator report on dense
``n x n`` matrices, kept as the reference for its sector-block route.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np

from lindscope import LindbladModel, eigenvalues_general, jaynes_cummings, liouvillian
from lindscope.linalg import dagger, hermitian_norm
from lindscope.metrics import STRUCTURED_ATOL, StructuredDissipatorReport, _matched_distance
from lindscope.superop import _kron

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SM = (SX - 1j * SY) / 2
I2 = np.eye(2, dtype=complex)


def lindblad_rhs(h, jumps, rho):
    """Dense master-equation right-hand side, plain matrix arithmetic."""
    out = -1j * (h @ rho - rho @ h)
    for jump in jumps:
        jdj = jump.conj().T @ jump
        out = out + jump @ rho @ jump.conj().T - 0.5 * (jdj @ rho + rho @ jdj)
    return out


def superop_columns(h, jumps):
    """Superoperator matrix built column by column from the dense RHS."""
    d = h.shape[0]
    out = np.zeros((d * d, d * d), dtype=complex)
    for j in range(d):
        for i in range(d):
            basis = np.zeros((d, d), dtype=complex)
            basis[i, j] = 1.0
            out[:, i + d * j] = lindblad_rhs(h, jumps, basis).flatten(order="F")
    return out


def taylor_exp(m, terms=80):
    """Matrix exponential by plain Taylor summation."""
    m = np.asarray(m, dtype=complex)
    total = np.zeros_like(m)
    term = np.eye(m.shape[0], dtype=complex)
    for n in range(1, terms + 1):
        total = total + term
        term = term @ m / n
    return total


def power_norm(m, iters=5000, seed=11):
    """Largest singular value via power iteration on m^dag m."""
    m = np.asarray(m, dtype=complex)
    rng = np.random.default_rng(seed)
    v = rng.normal(size=m.shape[1]) + 1j * rng.normal(size=m.shape[1])
    v = v / np.linalg.norm(v)
    gram = m.conj().T @ m
    lam = 0.0
    for _ in range(iters):
        w = gram @ v
        lam_new = np.linalg.norm(w)
        if lam_new == 0.0:
            return 0.0
        v = w / lam_new
        if abs(lam_new - lam) < 1e-14 * max(lam_new, 1.0):
            lam = lam_new
            break
        lam = lam_new
    return float(np.sqrt(lam))


def times_power_of_two(x, e: int):
    """``x * 2^e`` of a float, complex or float64/complex128 array, exactly,
    rounded once where it falls below the normal range."""
    if isinstance(x, np.ndarray):
        return np.ldexp(np.ascontiguousarray(x).view(np.float64), e).view(x.dtype)
    if isinstance(x, complex):
        return complex(math.ldexp(x.real, e), math.ldexp(x.imag, e))
    return math.ldexp(x, e)


def top_exponent(x) -> int:
    """The ``e`` that brings the largest real or imaginary part of ``x``
    into ``[2^1022, 2^1023)``: ``x * 2^e`` is near overflow."""
    return 1023 - math.frexp(float(np.abs(np.ascontiguousarray(x).view(np.float64)).max()))[1]


def random_complex(rng, d, scale=1.0):
    return scale * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / np.sqrt(2)


def random_hermitian(rng, d, scale=1.0, traceless=False):
    a = random_complex(rng, d, scale)
    h = (a + a.conj().T) / 2
    if traceless:
        h = h - (np.trace(h) / d) * np.eye(d)
    return h


def random_symmetric_spectrum_hermitian(rng, d, scale=1.0):
    """Hermitian matrix whose spectrum is symmetric about zero."""
    levels = np.sort(rng.uniform(0.1, 1.0, size=d // 2)) * scale
    spectrum = np.concatenate([levels, -levels] + ([[0.0]] if d % 2 else []))
    u = random_unitary(rng, d)
    return u @ np.diag(spectrum.astype(complex)) @ u.conj().T


def random_unitary(rng, d):
    q, r = np.linalg.qr(random_complex(rng, d))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng, d):
    a = random_complex(rng, d)
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_model(rng, d=None, force_hamiltonian_only=False):
    """A random model; about a quarter are Hamiltonian-only unless forced."""
    if d is None:
        d = int(rng.integers(2, 5))
    h = random_hermitian(rng, d)
    if force_hamiltonian_only or rng.random() < 0.25:
        jumps = ()
    else:
        jumps = tuple(random_complex(rng, d) for _ in range(int(rng.integers(1, 4))))
    return LindbladModel(dim=d, hamiltonian=h, jumps=jumps, label=f"random(d={d})")


def unsplit_model(seed, d=16):
    """A random model with two jumps whose entries are all nonzero, so its
    generator is one sector: it is formed from its dense matrix."""
    rng = np.random.default_rng(seed)
    jumps = (random_complex(rng, d), random_complex(rng, d))
    return LindbladModel(dim=d, hamiltonian=random_hermitian(rng, d), jumps=jumps)


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the memory that tracemalloc traces
    during the call, above what is traced when it starts."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def random_models(seed, count):
    rng = np.random.default_rng(seed)
    return [random_model(rng) for _ in range(count)]


def damped_jaynes_cummings(n_max, kappa=0.3, gamma=0.1):
    """jaynes_cummings with jumps sqrt(kappa) a and sqrt(gamma) sigma_-: field and atom damped."""
    base = jaynes_cummings(g=0.2, n_max=n_max)
    a = np.kron(np.eye(2), np.diag(np.sqrt(np.arange(1.0, n_max + 1)), 1))
    sigma = np.kron(np.array([[0.0, 0.0], [1.0, 0.0]]), np.eye(n_max + 1))
    return LindbladModel(base.dim, base.hamiltonian, (np.sqrt(kappa) * a, np.sqrt(gamma) * sigma))


def dense_structured_report(model):
    """``structured_dissipator_report`` on dense ``n x n`` matrices.

    The jump map is summed from Kronecker products, the dissipator is the
    generator of the jumps alone, and each spectrum is one eigensolve of the
    whole matrix.
    """
    d = model.dim
    total = np.zeros((d, d), dtype=complex)
    for jump in model.jumps:
        total = total + dagger(jump) @ jump
    gamma = float(np.trace(total).real) / d
    deviation = hermitian_norm(total - gamma * np.eye(d))
    if gamma < 0 or deviation > STRUCTURED_ATOL * gamma:
        return StructuredDissipatorReport(is_structured=False)
    jump_map = np.zeros((d * d, d * d), dtype=complex)
    for jump in model.jumps:
        jump_map += _kron(jump.conj(), jump)
    spectrum = eigenvalues_general(jump_map)
    dissipator = liouvillian(LindbladModel(d, np.zeros((d, d)), model.jumps))
    shift = _matched_distance(eigenvalues_general(dissipator.matrix), spectrum - gamma)
    return StructuredDissipatorReport(True, gamma, spectrum, shift)
