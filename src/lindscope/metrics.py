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
makes every classification invariant under rescaling the generator. The
structured-dissipator report counts ``sum_k L_k^dag L_k`` as ``gamma I``,
``gamma`` its mean eigenvalue, when it is within ``STRUCTURED_ATOL * gamma``
of it, so it too is the same at every rate scale; it runs on the
``L_k^dag L_k`` prescaled by one exact power of two, so their sum cannot
overflow.

``compute_metrics`` computes them all in one pass, including the two-route
cross-check of ``eta``; the single-number functions read its result. Every
quantity in the pass is the norm of a Hermitian matrix (``S^dag S``,
``[S, S^dag]``, ``S_herm``, ``S_skew^dag S_skew``), taken as its largest
eigenvalue magnitude with no SVD. The pass runs on the generator prescaled
by an exact power of two, so it holds from subnormal to near-overflow
magnitudes, and rotated into an orthonormal basis of Hermitian operators,
where a Lindbladian is a real matrix, so all of its arithmetic is real. Its
result is kept on the Superoperator, so every caller shares one pass.

The pass (``_block_pass``) takes the sector blocks of a stack of
generators, with one prescale per generator and one batched call per step:
four Hermitian eigensolve calls for the whole stack. It returns columns,
one array per metric over the stack, and runs its checks and kappa bands
on whole columns. ``compute_metrics`` runs it on ``superop._form`` of one
generator and reads row 0. A sweep runs it on ``superop._sector_blocks`` of
a chunk of points. The generator of a model and those of a sweep are
formed by ``superop._operator_form`` from H and the jumps, and never
built whole; its docstring says which route it takes for which stack.
Every step works on each block alone, so a generator takes the
values it takes in its own block's pass, bit for bit, whatever blocks
share the call. A stack passes or fails as a whole, with the error of its
first failing generator. The pass holds at most three arrays of its
stack's size at a time, numpy's eigensolver copy among them, besides a
band of an eighth of their rows (and, for a complex stack, its conjugate
and, early on, the adjoint of the stack).

Every norm of a block-diagonal matrix is the largest of its blocks', so
each generator takes the largest value over its blocks (a padded row of
zeros adds a zero eigenvalue), and the square root of the sum of their
squared residuals for the route check. A generator that does not split is
one block. Blocks round differently from the whole matrix, so a generator
that weak symmetry splits (``jaynes_cummings``, ``multi_qubit_dephasing``)
moves by a few ulps (1.3e-15 relative at most on the tests' models). A
stack's points take the same results bit for bit as alone when they share
one pattern of zeros, as the points of a sweep do unless a parameter is
exactly 0.

The structured-dissipator report runs on the same layout: the sector
blocks of the dissipator and of the jump map, formed from the jumps by
the rule that forms a model's generator (``superop._operator_form``), and
their spectra taken one eigensolve per group of blocks of one size
(``superop._block_spectrum``).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, NumericalError, RangeError
from .linalg import _hermitian_norms, _solver_room, hermitian_norm
from .superop import (LindbladModel, Superoperator, _block_spectrum, _form, _jump_squares,
                      _operator_form)

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


def _check_real(name: str, value) -> float:
    """``value`` as a Python float, or a ConfigError that names ``name``.

    ``value`` must be a Python or numpy int or float (not a bool), and an
    int within double precision. The float keeps a numpy float32 from
    carrying single precision into what it takes part in.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(
            f"{name} is beyond double precision, got an integer of {abs(value).bit_length()} bits"
        ) from None


@dataclass(frozen=True)
class RegimeThresholds:
    """Bands of kappa delimiting the nonnormal regimes.

    Defaults give one decade of crossover on each side of kappa = 1. The
    bands are kept as Python floats; bands that are not real numbers, or
    other than ``0 < kappa_lo < kappa_hi``, are a ConfigError.
    """

    kappa_lo: float = 0.1
    kappa_hi: float = 10.0

    def __post_init__(self):
        for name in ("kappa_lo", "kappa_hi"):
            object.__setattr__(self, name, _check_real(name, getattr(self, name)))
        if not 0 < self.kappa_lo < self.kappa_hi:
            raise ConfigError(
                f"need 0 < kappa-lo < kappa-hi, got {self.kappa_lo} and {self.kappa_hi}"
            )


@dataclass(frozen=True)
class StructuralMetrics:
    delta: float
    eta: float
    nd_norm: float
    kappa: float | None
    bound_margin: float
    generator_norm: float
    regime: Regime


_FLOAT_FIELDS = ("delta", "eta", "nd_norm", "bound_margin", "generator_norm")


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

    compute_metrics cross-checks it at matrix level against the second
    route ``[S, S^dag] = -2 [S_herm, S_skew]``.
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

    The spread of ``S_herm`` gives a sharper bound. For every real ``c``,
    ``[S, S^dag] = -2 [S_herm - cI, S_skew]``, and at the midpoint ``c``
    ``||S_herm - cI|| = (lmax - lmin) / 2``, so
    ``eta <= 2 * (lmax - lmin) * ||S_skew||`` with ``lmin`` and ``lmax``
    the extreme eigenvalues of ``S_herm``. When ``S_herm`` is semidefinite,
    ``lmax - lmin <= delta`` and the margin is nonnegative; amplitude
    damping attains the spread bound with an indefinite ``S_herm``, and
    its margin is about -0.207.
    """
    return compute_metrics(s).bound_margin


# The regimes in the order of the codes the pass assigns them, and their labels.
_REGIMES = tuple(Regime)
_REGIME_VALUES = np.array([r.value for r in _REGIMES])
_HAMILTONIAN, _NORMAL, _WEAK, _CROSSOVER, _STRONG = range(len(_REGIMES))


def _kappa_bands(k: np.ndarray, thresholds: RegimeThresholds | None) -> np.ndarray:
    """The regime code of each kappa of a column under the given bands (the default for None)."""
    th = thresholds if thresholds is not None else RegimeThresholds()
    return np.where(k < th.kappa_lo, _WEAK, np.where(k > th.kappa_hi, _STRONG, _CROSSOVER))


def classify(m: StructuralMetrics, thresholds: RegimeThresholds | None = None) -> Regime:
    """Assign the dynamical regime under the given kappa bands.

    Precedence follows the strict inclusions of the classes: the
    Hamiltonian test runs before the normality test, which runs before the
    kappa bands. The first two tests use no threshold, so those labels are
    taken from ``m`` as compute_metrics assigned them; only the nonnormal
    labels are re-banded by ``m.kappa``.
    """
    if m.regime in (Regime.HAMILTONIAN, Regime.NORMAL_DISSIPATIVE):
        return m.regime
    return _REGIMES[_kappa_bands(np.array([m.kappa]), thresholds)[0]]


def _cross_term(herm: np.ndarray, skew: np.ndarray) -> np.ndarray:
    """X = S_herm @ S_skew; the second eta route is [S_herm, S_skew] = X + X^dag."""
    return herm @ skew


def _squares(x: np.ndarray) -> np.ndarray:
    """``v ** 2`` of each value as a Python float: libm's ``pow``, which can
    differ by an ulp from numpy's exact square."""
    return np.array([v**2 for v in x.tolist()])


# Bands per matrix of the pass's blockwise steps: a band of S_herm S_skew
# is an eighth of a matrix (128 rows at the cap, n = 1024).
_BANDS = 8


def _bands(n: int) -> list[slice]:
    """The bands of rows of an ``n x n`` matrix: ``_BANDS`` of ``ceil(n / _BANDS)``
    rows, fewer where ``n < _BANDS``."""
    rows = -(-n // _BANDS)
    return [slice(i, i + rows) for i in range(0, n, rows)]


def _skew_in_place(a: np.ndarray, bands: list[slice]) -> np.ndarray:
    """``a - a^dag`` of a stack ``a``, written into ``a`` a band of rows at a time.

    Band ``I`` writes its rows from its diagonal tile rightward and its
    columns below that tile. Both read only entries that no earlier band
    wrote, and the rows are computed before the columns are written, so
    each entry is the same subtraction ``a_ij - conj(a_ji)`` that numpy's
    whole-matrix ``a - a^dag`` takes, and the result is that one bit for
    bit, signs of zeros included. One band of rows is alive at a time (and
    its conjugate, when ``a`` is complex) where numpy would buffer a whole
    copy of ``a^dag``.
    """
    for rows in bands:
        right, below = slice(rows.start, None), slice(rows.stop, None)
        upper = a[:, rows, right] - a[:, right, rows].conj().swapaxes(-1, -2)
        a[:, below, rows] -= a[:, rows, below].conj().swapaxes(-1, -2)
        a[:, rows, right] = upper
        del upper
    return a


def _block_pass(a: np.ndarray, e: np.ndarray, thresholds: RegimeThresholds | None = None) -> dict:
    """The metrics of each generator of a stack whose blocks are ``a``, as columns.

    ``(a, e)`` is the blocks and exponents of a stack, from
    ``superop._sector_form`` or ``superop._sector_blocks``: generator ``i``
    is the ``B`` blocks ``a[i B : (i + 1) B]``, ``B = len(a) // len(e)``,
    at exponent ``e[i]``. Every step works on each block alone, so a
    generator takes the same values bit for bit whatever blocks share its
    call. ``a`` is overwritten.

    Returns one length-``k`` float64 array per ``StructuralMetrics`` field,
    by name, with ``kappa`` NaN where it is undefined (the Hamiltonian
    points), and under ``"regime"`` a string array of the regime labels,
    banded by ``thresholds`` (the default bands for None). Every step runs
    once on the whole stack: four batched Hermitian eigensolves in all,
    whatever ``k``, and the checks and bands on whole columns.

    The pass is all or nothing: a stack with a generator whose pass fails
    (routes that disagree, a value beyond double precision) raises the
    error of its first such generator, which is the error that generator
    raises alone, and a failed batched eigensolve raises for the whole
    stack.

    At most three arrays of the size of ``a`` are alive at any time, ``a``
    and numpy's eigensolver copy counted, besides one band of ``ceil(n / 8)``
    of ``a``'s rows (two, when ``a`` is complex; ``a^dag`` too, early on)
    and numpy's fixed-size iterator buffers: ``S_skew`` is written over
    ``a`` a band at a time, the route residual is summed by bands and freed
    before the ``delta`` eigensolve, and the work arrays have room for the
    eigensolver's copy (``linalg._solver_room``). The band height follows
    ``n`` (``_bands``), so this holds at every size. Every value is that of
    the whole-matrix steps bit for bit; only the rounding of the residual,
    which feeds the route check alone, follows the bands.
    """
    # a = 2^-e U^dag S U, with U unitary and its largest entry O(1): no
    # product of a with itself can under- or overflow, and every norm is
    # that of 2^-e S. a is real when S preserves Hermiticity, and then so is
    # every product and eigensolve of the pass.

    # At most three arrays of the stack's size are alive at a time, S (then
    # S_skew in its place) and the eigensolver's copy counted: S and the two
    # Gram products, then S, S_herm and the commutator, and each eigensolve
    # beside S or S_skew and one work array. The work arrays come from
    # _solver_room, so each eigensolve reuses the memory of one freed before
    # it; S_skew and the route residual, which would take a fourth, go by
    # bands of an eighth of the rows. A complex stack also holds S^dag until
    # S_herm is formed.
    ad = a.conj().swapaxes(-1, -2)  # a view of a when a is real
    c = np.matmul(ad, a, out=_solver_room(a))
    norm = np.sqrt(_hermitian_norms(c))
    c = np.subtract(np.matmul(a, ad, out=_solver_room(a)), c, out=c)  # [S, S^dag]
    eta = _hermitian_norms(c)
    herm = np.add(a, ad, out=_solver_room(a))
    herm *= 0.5
    del ad
    # S_skew takes the place of a, so the caller's reference to a keeps no
    # matrix alive besides these
    bands = _bands(a.shape[-1])
    skew = _skew_in_place(a, bands)
    skew *= 0.5
    del a
    # [S, S^dag] = -2 [S_herm, S_skew] = -2 (X + X^dag), so the residual is
    # r = c + 2X + 2X^dag; add each band of rows of 2X to the rows of c and
    # its adjoint to the columns, then sum the squares of r's entries, real
    # and imaginary parts alike. It is freed before the next eigensolve.
    for rows in bands:
        x = _cross_term(herm[:, rows], skew)
        x *= 2.0
        c[:, rows] += x
        c[:, :, rows] += x.conj().swapaxes(-1, -2)
        del x
    parts = c.view(np.float64)
    gap_sq = np.einsum("kij,kij->k", parts, parts)
    del c, parts
    delta = _hermitian_norms(herm)
    del herm
    # ||S_skew|| from the Hermitian S_skew^dag S_skew, which stays real.
    # S_skew can be smaller than S by any factor (a weak drive next to strong
    # dissipation), so it takes its own exact power of two, 2^-f, before it
    # is squared; otherwise S_skew^dag S_skew could underflow to zero.
    f = np.frexp(np.abs(skew).max(axis=(-2, -1)))[1]
    parts = skew.view(np.float64)
    np.ldexp(parts, -f[:, None, None], out=parts)
    gram = np.matmul(skew.conj().swapaxes(-1, -2), skew, out=_solver_room(skew))
    del skew, parts
    nd_norm = np.ldexp(np.sqrt(_hermitian_norms(gram)), f)
    del gram
    per = (len(e), -1)
    norm, eta, delta, nd_norm = (v.reshape(per).max(axis=1) for v in (norm, eta, delta, nd_norm))
    gap = np.sqrt(gap_sq.reshape(per).sum(axis=1))

    # Every test is relative, so it reads the prescaled values; the scaled
    # back ones follow. A failing generator is named by its first failing
    # test: the routes, then each value in field order.
    norm_sq = _squares(norm)
    hamiltonian = delta <= zero_tolerance(norm)
    k = np.divide(eta, _squares(delta), out=np.full(len(eta), np.nan), where=~hamiltonian)
    code = np.where(
        hamiltonian,
        _HAMILTONIAN,
        np.where(eta <= ETA_RTOL * norm_sq, _NORMAL, _kappa_bands(k, thresholds)),
    )
    scaled = (
        ("delta", delta, e),
        ("eta", eta, 2 * e),
        ("nd_norm", nd_norm, e),
        ("bound_margin", 2.0 * delta * nd_norm - eta, 2 * e),
        ("generator_norm", norm, e),
    )
    with np.errstate(over="ignore"):
        columns = {name: np.ldexp(value, exponent) for name, value, exponent in scaled}
    disagree = gap > 1e-8 * norm_sq
    overflow = [np.isinf(columns[name]) & np.isfinite(value) for name, value, _ in scaled]
    failed = np.logical_or.reduce([disagree, *overflow])
    if failed.any():
        i = int(failed.argmax())
        if disagree[i]:
            raise NumericalError(
                "nonnormality routes disagree: ||[S, S^dag] + 2 [S_herm, S_skew]||_F = "
                f"{float(gap[i]) / float(norm[i]) ** 2:.3e} ||S||^2 exceeds 1e-8 ||S||^2"
            )
        for (name, value, exponent), bad in zip(scaled, overflow):
            if bad[i]:
                magnitude = math.log10(abs(float(value[i]))) + int(exponent[i]) * math.log10(2.0)
                raise RangeError(
                    f"{name} is about 1e{magnitude:.1f}, beyond double precision; "
                    "rescale the model"
                )
    columns["kappa"] = k
    columns["regime"] = _REGIME_VALUES[code]
    return columns


def compute_metrics(
    s: Superoperator, thresholds: RegimeThresholds | None = None
) -> StructuralMetrics:
    """All structure metrics of one generator, with its regime label, in one pass.

    Every norm is the largest eigenvalue magnitude of a Hermitian matrix
    (``hermitian_norm``); no SVD is taken. Four Hermitian eigensolves:
    ``||S||^2`` from ``S^dag S``, ``eta`` from ``[S, S^dag]``, ``delta``
    from ``S_herm`` and ``nd_norm^2`` from ``S_skew^dag S_skew``.

    The pass runs on ``2^-e U^dag S U``, with the power of two chosen so
    that the largest entry is of order one, and scales each result back
    exactly; ``S_skew``, which can be far smaller than ``S``, takes its own
    power of two before it is squared. Squared quantities therefore neither
    under- nor overflow, ``kappa`` and the regime (dimensionless) are the
    same at every magnitude, and a reported value that overflows on the way
    back is a RangeError. ``U`` is the orthonormal basis of Hermitian
    operators ``E_ii``, ``(E_ij + E_ji)/sqrt2``, ``i (E_ij - E_ji)/sqrt2``;
    it is unitary, so every norm is that of ``S``. A generator that preserves
    Hermiticity, as every Lindbladian does, is real in that basis, and the
    whole pass then runs in float64; one that does not (a raw
    Superoperator) runs the same steps on the complex rotation.

    ``eta`` is cross-checked at matrix level against the identity
    ``[S, S^dag] = -2 [S_herm, S_skew]`` (exact in arithmetic): a Frobenius
    residual above ``1e-8 ||S||^2`` is a NumericalError, so a construction
    bug cannot slip through as a plausible-looking number. Since
    ``| ||A|| - ||B|| | <= ||A - B||_F``, this is at least as strict as
    comparing the two norms.

    The pass itself (``_block_pass``) takes the blocks of a stack of
    generators and returns columns; this runs it on ``superop._form`` of
    ``s``, a stack of one, and reads row 0. The generator of a model
    (``liouvillian``) is formed from its H and jumps, so this builds no
    matrix that it keeps, and the pass holds at most three arrays of the
    form's size at a time, the form and the eigensolver's copy among them,
    besides a band of an eighth of their rows.
    A sweep runs the pass on a chunk of points at a time and writes its
    columns as they are. The threshold-free values are
    computed once per Superoperator and kept on it (its operators and
    matrix are frozen); the regime is banded by ``thresholds`` on every
    call.
    """
    base = getattr(s, "_metrics", None)
    if base is None:
        a, e, _ = _form(s)
        columns = _block_pass(a, np.array([e]))
        k = float(columns["kappa"][0])
        base = StructuralMetrics(
            **{name: float(columns[name][0]) for name in _FLOAT_FIELDS},
            kappa=None if math.isnan(k) else k,
            regime=Regime(columns["regime"][0]),
        )
        object.__setattr__(s, "_metrics", base)
    if thresholds is None:
        return base
    return replace(base, regime=classify(base, thresholds))


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
    here because the identity concerns the dissipative part alone. The sum
    ``sum_k L_k^dag L_k`` is taken as ``gamma I``, ``gamma`` its mean
    eigenvalue, when its distance from it is at most
    ``STRUCTURED_ATOL * gamma``, a relative test; a model without jumps is
    structured with ``gamma = 0``. The test runs on the ``L_k^dag L_k``
    prescaled by the exact power of two that brings their largest real or
    imaginary part into [1/2, 1), so the sum of the ``K`` of them is at
    most ``K`` in each part and cannot overflow; ``gamma`` is then scaled
    back exactly. The test is relative, so the prescale changes no answer.
    An ``L_k^dag L_k``, or the ``gamma`` of a structured model, beyond
    double precision is a RangeError.

    Both spectra come from sector blocks (``superop._operator_form``): the
    dissipator's from the jumps and the same ``L_k^dag L_k`` that ``gamma``
    sums, the jump map's from the jumps with zeros in their place, each by
    the rule that forms a model's generator, with no dense map kept. Each
    is formed on its own, not one from the other, so ``shift_max_error``
    checks the shift. Both are sorted by real part, then imaginary part.
    """
    d = model.dim
    jumps = np.array(model.jumps).reshape(1, len(model.jumps), d, d)
    jdj = _jump_squares(jumps)
    f = math.frexp(float(np.abs(jdj.view(np.float64)).max(initial=0.0)))[1]
    total = sum(np.ldexp(jdj.view(np.float64), -f).view(jdj.dtype)[0],
                np.zeros((d, d), dtype=complex))
    gamma = float(np.trace(total).real) / d
    deviation = hermitian_norm(total - gamma * np.eye(d))
    if gamma < 0 or deviation > STRUCTURED_ATOL * gamma:
        return StructuredDissipatorReport(is_structured=False)
    try:
        gamma = math.ldexp(gamma, f)
    except OverflowError:
        raise RangeError("gamma overflows double precision; rescale the model") from None
    zero = np.zeros((1, d, d), dtype=complex)
    jump_spectrum, dissipator_spectrum = (
        np.sort_complex(_block_spectrum(*_operator_form(zero, jumps, squares)))
        for squares in (np.zeros_like(jdj), jdj)
    )
    return StructuredDissipatorReport(
        is_structured=True,
        gamma=gamma,
        jump_map_spectrum=jump_spectrum,
        shift_max_error=_matched_distance(dissipator_spectrum, jump_spectrum - gamma),
    )
