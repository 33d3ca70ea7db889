"""Scalar structure metrics of a generator and its dynamical regime.

Two numbers organize the behavior of a Markovian generator:

* dissipative strength ``delta`` -- the operator norm of its Hermitian
  part, i.e. the worst-case exponential rate of Hilbert-Schmidt norm
  change over all operator directions;
* nonnormality ``eta`` -- the norm of the commutator of the generator
  with its adjoint, which vanishes exactly for normal generators and
  measures directional mixing in operator space.

Their dimensionless ratio ``kappa = eta / delta**2`` separates weakly
nonnormal, crossover and strongly nonnormal regimes; it is undefined when
``delta`` vanishes (an anti-Hermitian generator is normal, so a diverging
ratio there would be a normalization artifact, not physics).

Zero tests are relative: ``delta`` counts as zero below
``ZERO_RTOL * ||S||`` and ``eta`` below ``ETA_RTOL * ||S||**2``, which
makes every classification invariant under rescaling the generator.

``compute_metrics`` computes them all in one pass, including the two-route
cross-check of ``eta``; the single-number functions read its result.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .linalg import commutator, dagger, eigenvalues_general, spectral_norm
from .superop import LindbladModel, Superoperator, decompose, liouvillian

__all__ = [
    "ZERO_RTOL",
    "ETA_RTOL",
    "STRUCTURED_ATOL",
    "Regime",
    "RegimeThresholds",
    "StructuralMetrics",
    "zero_tolerance",
    "eta_tolerance",
    "dissipative_strength",
    "nonnormality",
    "kappa",
    "bound_check",
    "classify",
    "compute_metrics",
    "StructuredDissipatorReport",
    "structured_dissipator_report",
]

ZERO_RTOL = 1e-10
ETA_RTOL = 1e-10
STRUCTURED_ATOL = 1e-10


class Regime(str, enum.Enum):
    HAMILTONIAN = "Hamiltonian"
    NORMAL_DISSIPATIVE = "NormalDissipative"
    WEAKLY_NONNORMAL = "WeaklyNonnormal"
    CROSSOVER = "Crossover"
    STRONGLY_NONNORMAL = "StronglyNonnormal"


@dataclass(frozen=True)
class RegimeThresholds:
    """Bands of kappa delimiting the nonnormal regimes.

    Defaults give one decade of crossover on each side of kappa = 1.
    """

    kappa_lo: float = 0.1
    kappa_hi: float = 10.0


@dataclass(frozen=True)
class StructuralMetrics:
    delta: float
    eta: float
    nd_norm: float
    kappa: float | None
    bound_margin: float
    generator_norm: float
    regime: Regime


def zero_tolerance(generator_norm: float) -> float:
    """Below this, delta counts as zero (relative test survives rescaling)."""
    return ZERO_RTOL * generator_norm


def eta_tolerance(generator_norm: float) -> float:
    """Below this, eta counts as zero; scales with the squared norm."""
    return ETA_RTOL * generator_norm**2


def dissipative_strength(s: Superoperator) -> float:
    """Operator norm of the Hermitian part of the generator (see compute_metrics)."""
    return compute_metrics(s).delta


def nonnormality(s: Superoperator) -> float:
    """Norm of [S, S^dag]; zero exactly when the generator is normal.

    compute_metrics cross-checks it against the second route
    ``2 ||[S_herm, S_skew]||``.
    """
    return compute_metrics(s).eta


def kappa(s: Superoperator) -> float | None:
    """eta / delta**2, or None when delta is (relatively) zero."""
    return compute_metrics(s).kappa


def bound_check(s: Superoperator) -> float:
    """Signed margin 2 * delta * ||S_skew|| - eta.

    The margin is reported signed, never clamped. Note that what
    submultiplicativity actually proves is the weaker
    ``eta = 2 ||[S_herm, S_skew]|| <= 4 * delta * ||S_skew||``,
    so this margin can legitimately go negative, down to
    ``-2 * delta * ||S_skew||``; roughly 3% of generic random generators
    land below zero. A margin below that provable floor would signal an
    implementation bug.
    """
    return compute_metrics(s).bound_margin


def _classify_values(
    delta: float,
    eta: float,
    k: float | None,
    generator_norm: float,
    thresholds: RegimeThresholds | None,
) -> Regime:
    th = thresholds if thresholds is not None else RegimeThresholds()
    if delta <= zero_tolerance(generator_norm):
        return Regime.HAMILTONIAN
    if eta <= eta_tolerance(generator_norm):
        return Regime.NORMAL_DISSIPATIVE
    if k is None:
        k = eta / delta**2
    if k < th.kappa_lo:
        return Regime.WEAKLY_NONNORMAL
    if k > th.kappa_hi:
        return Regime.STRONGLY_NONNORMAL
    return Regime.CROSSOVER


def classify(m: StructuralMetrics, thresholds: RegimeThresholds | None = None) -> Regime:
    """Assign the dynamical regime.

    Precedence follows the strict inclusions of the classes: the
    Hamiltonian test runs before the normality test, which runs before the
    kappa bands.
    """
    return _classify_values(m.delta, m.eta, m.kappa, m.generator_norm, thresholds)


def compute_metrics(
    s: Superoperator, thresholds: RegimeThresholds | None = None
) -> StructuralMetrics:
    """All structure metrics of one generator, with its regime label, in one pass.

    The Hermitian part is Hermitian by construction, so its eigenvalues are
    taken unchecked. ``eta`` is cross-checked against the identity
    ``||[S, S^dag]|| = 2 ||[S_herm, S_skew]||`` (exact in arithmetic), so a
    construction bug cannot slip through as a plausible-looking number.
    """
    m = s.matrix
    herm, skew = decompose(s)
    norm = spectral_norm(m)
    delta = float(np.max(np.abs(np.linalg.eigvalsh(herm.matrix))))
    eta = spectral_norm(commutator(m, dagger(m)))
    eta_parts = 2.0 * spectral_norm(commutator(herm.matrix, skew.matrix))
    if abs(eta - eta_parts) > 1e-8 * norm**2:
        raise NumericalError(
            f"nonnormality routes disagree: {eta:.6e} vs {eta_parts:.6e}"
        )
    nd_norm = spectral_norm(skew.matrix)
    k = None if delta <= zero_tolerance(norm) else eta / delta**2
    return StructuralMetrics(
        delta=delta,
        eta=eta,
        nd_norm=nd_norm,
        kappa=k,
        bound_margin=2.0 * delta * nd_norm - eta,
        generator_norm=norm,
        regime=_classify_values(delta, eta, k, norm, thresholds),
    )


@dataclass(frozen=True, eq=False)
class StructuredDissipatorReport:
    """Result of testing whether sum_k L_k^dag L_k is proportional to the identity.

    When it is, the dissipative part of the generator equals the jump map
    ``rho -> sum_k L_k rho L_k^dag`` minus ``gamma`` times the identity, so
    its spectrum is a uniform shift of the jump-map spectrum;
    ``shift_max_error`` records how well that holds numerically.
    """

    is_structured: bool
    gamma: float | None = None
    jump_map_spectrum: np.ndarray | None = None
    shift_max_error: float | None = None


def _matched_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Largest |a_i - b_j| when each a_i takes a distinct nearest b_j.

    Matching the spectra as multisets, not by sort order, keeps
    complex-conjugate pairs (equal real parts) with their true partners.
    """
    free = np.ones(len(b), dtype=bool)
    worst = 0.0
    for z in a:
        dist = np.where(free, np.abs(b - z), np.inf)
        i = int(np.argmin(dist))
        free[i] = False
        worst = max(worst, float(dist[i]))
    return worst


def structured_dissipator_report(model: LindbladModel) -> StructuredDissipatorReport:
    """Detect structured dissipators and verify the uniform spectral shift.

    Only the jump operators enter: a Hamiltonian term, if any, is ignored
    here because the identity concerns the dissipative part alone.
    """
    d = model.dim
    total = np.zeros((d, d), dtype=complex)
    for jump in model.jumps:
        total = total + dagger(jump) @ jump
    gamma = float(np.trace(total).real) / d
    deviation = spectral_norm(total - gamma * np.eye(d))
    if gamma < 0 or deviation > STRUCTURED_ATOL * max(1.0, gamma):
        return StructuredDissipatorReport(is_structured=False)

    jump_map = np.zeros((d * d, d * d), dtype=complex)
    for jump in model.jumps:
        jump_map = jump_map + np.kron(jump.conj(), jump)
    jump_spectrum = eigenvalues_general(jump_map)

    dissipator = liouvillian(
        LindbladModel(d, np.zeros((d, d), dtype=complex), model.jumps, label="dissipator")
    )
    shift_error = _matched_distance(
        eigenvalues_general(dissipator.matrix), jump_spectrum - gamma
    )
    return StructuredDissipatorReport(
        is_structured=True,
        gamma=gamma,
        jump_map_spectrum=jump_spectrum,
        shift_max_error=shift_error,
    )
