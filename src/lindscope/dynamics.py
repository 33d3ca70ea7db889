"""Propagator norms over time, amplification factors and envelopes.

The propagator norm ``||exp(t S)||`` bounds how much a perturbation of the
initial operator can grow by time t. Two normalized amplification factors
are reported side by side:

* ``a_paper``    = ||exp(t S)|| * exp(-t * delta), normalized by the
  dissipative-strength envelope;
* ``a_spectral`` = ||exp(t S)|| * exp(-t * alpha), normalized by the
  spectral abscissa alpha = max Re eigenvalue.

For a normal generator the spectral variant is identically 1, which is the
provable invariant asserted in tests; the dissipative-strength variant is
then exp(t * (alpha - delta)) <= 1. Keeping both makes transient growth
visible relative to either baseline.

For the generator of a model, alpha is exactly 0 (Lindblad 1976): trace
preservation puts 0 in the spectrum, and a CPTP semigroup has no eigenvalue
with a positive real part. ``liouvillian`` keeps that value on the
generator, so ``spectral_abscissa`` runs no eigensolve for it, and
``a_spectral`` is ``prop_norm`` bit for bit. A computed abscissa would be
roundoff of either sign, positive (unphysical) for about half of random
models. Only a raw ``Superoperator`` has its spectrum taken.

Along a uniform time grid the propagators are built by stepping: two
exponentials per grid, ``P_0 = exp(t_start S)`` and ``E = exp(h S)`` with
``h = (t_end - t_start) / steps``, then ``P_{k+1} = E @ P_k``. Only
``t_start * ||S||`` and ``h * ||S||`` have to stay within the exponential's
safe range, ``EXP_SAFE_NORM``, so long horizons need only enough steps.
Each product adds a relative rounding error of order machine epsilon, so
the drift from a direct exponential at step k stays below about ``k *
1e-16`` relative; tests hold it to that bound up to 20 000 steps.

Every exponential here is range-checked once, exactly, against ``||S||``
from the analysis pass: a time by ``_check_range``, a step by the step
check of ``_stepped_propagators``. It then goes straight to the Pade kernel
(``_exp``). ``linalg.matrix_exp`` takes a check of its own, a 1-norm bound
and, above the range, an SVD; as a second check it would cost an SVD per
call near the end of the range, and its rounding could refuse a time at
``t * ||S||`` exactly 50 that the exact check accepts.

The stepping runs in the orthonormal Hermitian operator basis, on the
generator as ``superop._sector_form`` gives it, ``2^-e U^dag S U``, with
each time scaled by the exact ``2^e``. ``U`` is unitary, so every norm and
eigenvalue is that of ``S`` and ``exp(t S)``; a Lindbladian preserves
Hermiticity, so there it is a real matrix, and so are both exponentials
and every product. Each norm is exact, not an estimate: the square root of
the largest eigenvalue of the Gram matrix ``P^dag P`` of the propagator
(one product and one Hermitian eigensolve, no SVD), after an exact power of
two brings the largest entry of ``P`` to order one. The top eigenvalue of a
positive semidefinite matrix is perfectly conditioned, so this holds the
accuracy of an SVD, as in the analysis pass of ``metrics``. A generator
that does not preserve Hermiticity runs the same steps on the complex
rotation.

Every kernel here but ``propagator`` takes the generator as
``superop._form`` gives it, as the analysis pass does: the blocks of its
exact symmetry sectors, zero-padded into one stack, with their table of
sectors, or one block when it does not split. The generator of a model
is formed anew by each call, from its H and jumps, and keeps no dense
matrix: one that does not split is built as a dense matrix for its form
and dropped before any step. ``propagator`` reads the dense matrix, which
the generator then builds and keeps. ``exp(t S)`` and its Gram
matrix are block diagonal too, so the series steps the blocks, and each
norm is the largest over them: one batched exponential, product and Gram
eigensolve per step, on ``b x b`` blocks instead of the ``n x n`` whole.
The exponential of a padded zero block is the identity, so the padded rows
of every exponential at a time ``t`` are zeroed (``_exp_blocks``); they
then stay zero in every product. ``error_amplification``,
``truncated_appg_bound`` and ``normal_factorization_residual`` take the
same exponential as the series' first point, and the residual takes those
of ``S_herm`` and ``S_skew`` from the blocks ``(a + a^dag)/2`` and ``(a -
a^dag)/2``, which the unitary basis allows. The spectral abscissa of a raw
``Superoperator`` is taken on its blocks with the padding cut off, since a
padded row would add a zero eigenvalue: one batched eigensolve per group of
blocks of one true size (``superop._block_spectrum``, which the
structured-dissipator report shares). ``gronwall_check`` steps the blocks
as well, with the coordinates of ``rho0`` gathered by the table. Against
the whole matrix, the norms move by a few ulps (3.5e-15 relative at most
for ``jaynes_cummings`` at ``n_max = 7``). ``propagator`` alone
exponentiates the whole ``n x n`` matrix, since it returns ``exp(t S)`` as
a dense ``Superoperator``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .errors import ConfigError, RangeError
from .linalg import EXP_SAFE_NORM, _hermitian_norms, _pade_exp, as_complex_matrix, hs_norm
from .metrics import Regime, StructuralMetrics, compute_metrics
from .superop import Superoperator, _block_spectrum, _form, _hermitian_coords

__all__ = [
    "MAX_STEPS",
    "DEFAULT_STEPS",
    "TimeGrid",
    "AmplificationSeries",
    "AppgBound",
    "CostEstimate",
    "default_grid",
    "propagator",
    "spectral_abscissa",
    "amplification_series",
    "gronwall_check",
    "normal_factorization_residual",
    "error_amplification",
    "truncated_appg_bound",
    "cost_estimate",
]

MAX_STEPS = 10**6
DEFAULT_STEPS = 200


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of steps+1 points on [t_start, t_end].

    The times are Python or numpy ints or floats, and ``steps`` an integer;
    anything else is a ConfigError that names the field.
    """

    t_start: float
    t_end: float
    steps: int

    def __post_init__(self):
        for name, value in (("t_start", self.t_start), ("t_end", self.t_end)):
            if isinstance(value, bool) or not isinstance(value, (int, float, np.integer,
                                                                 np.floating)):
                raise ConfigError(f"{name} must be a real number, got {value!r}")
        if not self.t_start >= 0:
            raise ConfigError(f"t_start must be nonnegative, got {self.t_start}")
        for name, value in (("t_start", self.t_start), ("t_end", self.t_end)):
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if not self.t_end > self.t_start:
            raise ConfigError(
                f"t_end must exceed t_start, got [{self.t_start}, {self.t_end}]"
            )
        if isinstance(self.steps, bool) or not isinstance(self.steps, (int, np.integer)):
            raise ConfigError(f"steps must be an integer, got {self.steps!r}")
        if not 1 <= self.steps <= MAX_STEPS:
            raise ConfigError(f"steps must be in 1..{MAX_STEPS}, got {self.steps}")

    @property
    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.steps + 1)


@dataclass(frozen=True, eq=False)
class AmplificationSeries:
    """Propagator norm and its envelopes sampled on a time grid.

    ``gronwall_env`` is exp(t * delta); ``appg_env`` adds the
    skew-part norm and the leading commutator term,
    exp(t*delta + t*nd_norm + t^2*eta/4). The latter comes from a
    truncated expansion, so ``appg_satisfied`` is diagnostic output,
    never an asserted invariant.
    """

    times: np.ndarray
    prop_norm: np.ndarray
    a_paper: np.ndarray
    a_spectral: np.ndarray
    gronwall_env: np.ndarray
    appg_env: np.ndarray
    appg_satisfied: np.ndarray
    delta: float
    alpha: float


class AppgBound(NamedTuple):
    bound: float
    satisfied: bool


class CostEstimate(NamedTuple):
    base_cost: float
    kappa_overhead: float


def _check_time(t: float) -> None:
    """Reject t < 0 or NaN, and an infinite t, whose ``t * 0`` is NaN."""
    if not t >= 0:
        raise RangeError(f"time must be nonnegative, got {t}")
    if t == math.inf:
        raise RangeError(f"time must be finite, got {t}")


def _check_range(norm: float, t: float) -> None:
    """Reject t < 0, NaN or inf and t * norm beyond the exponential's safe range.

    ``norm`` is ``||S||`` from the analysis pass, so this is the exact range
    test of every exponential of ``t S`` taken here: ``_exp`` takes none of
    its own.
    """
    _check_time(t)
    scaled = t * norm
    if scaled > EXP_SAFE_NORM:
        raise RangeError(
            f"t * ||S|| = {scaled:.6g} exceeds safe range {EXP_SAFE_NORM:g}; "
            "subdivide the interval"
        )


def _exp(m: np.ndarray) -> np.ndarray:
    """exp(m) of a matrix or a stack whose range its caller has checked: the Pade kernel alone."""
    return _pade_exp(m, float(np.abs(m).sum(axis=-2).max()))


def _exp_blocks(a: np.ndarray, e: int, table: np.ndarray, t: float) -> np.ndarray:
    """The blocks of ``U^dag exp(t S) U``, with 0 on every padding row.

    ``(a, e, table)`` is ``_form`` of ``S``, so the exponential is taken of
    ``(t 2^e) a``, and is real when ``a`` is. The caller has checked ``t``
    against ``||S||`` (``_check_range`` or the step check of
    ``_stepped_propagators``), which is the exact test of this range, so no
    second one runs. In range, ``t 2^e <= EXP_SAFE_NORM / ||a||``, and
    ``||a|| = ||2^-e S|| >= 1/2`` (the largest entry of ``2^-e S`` is), so
    the scaled time cannot overflow.
    """
    p = _exp(math.ldexp(t, e) * a)
    # the exponential of a padded zero block is the identity; as zeros, the
    # padding stays zero in every product and adds no norm
    p *= (table >= 0)[..., None]
    return p


def _stepped_propagators(
    a: np.ndarray, e: int, table: np.ndarray, grid: TimeGrid, norm: float
) -> Iterator[np.ndarray]:
    """Yield the blocks of ``U^dag exp(t S) U`` at each grid time: P_{k+1} = exp(h S) @ P_k.

    ``(a, e, table)`` is ``_form`` of the generator: ``a`` is the blocks of
    ``2^-e U^dag S U``, and every row that ``table`` marks as padding (-1)
    is 0 in every propagator. ``norm`` is ||S||; the start time and the
    step must each stay in the exponential's safe range. Overflow of a
    growing propagator is an error.
    """
    _check_range(norm, grid.t_start)
    h = (grid.t_end - grid.t_start) / grid.steps
    if h * norm > EXP_SAFE_NORM:
        needed = (grid.t_end - grid.t_start) * norm / EXP_SAFE_NORM
        advice = (
            f"raise --steps to at least {math.ceil(needed)}"
            if needed <= MAX_STEPS
            else f"the interval needs more than {MAX_STEPS} steps"
        )
        raise RangeError(
            f"step h = {h:.6g} gives h * ||S|| = {h * norm:.6g}, beyond safe range "
            f"{EXP_SAFE_NORM:g}; {advice}"
        )
    step = _exp_blocks(a, e, table, h)
    p = _exp_blocks(a, e, table, grid.t_start)
    yield p
    for t in grid.times[1:]:
        with np.errstate(over="ignore", invalid="ignore"):
            p = step @ p
        if not np.isfinite(p).all():
            raise RangeError(f"propagator overflows by t = {t:.6g}")
        yield p


def _propagator_norm(p: np.ndarray) -> float:
    """``||p||_2`` as the square root of the largest eigenvalue of ``p^dag p``.

    ``p`` is one matrix, or the blocks of a block-diagonal one as a stack,
    whose norm is the largest of theirs. It is first scaled by the exact
    power of two that brings its largest entry into [1/2, 1), so the Gram
    matrices can neither over- nor underflow. ``p`` is C-contiguous, as
    every product and exponential is, so its real and imaginary parts can
    be scaled as one float64 view.
    """
    f = math.frexp(float(np.abs(p).max()))[1]
    q = np.ldexp(p.view(np.float64), -f).view(p.dtype)
    gram = q.conj().swapaxes(-1, -2) @ q
    return math.ldexp(math.sqrt(float(_hermitian_norms(gram).max())), f)


def default_grid(s: Superoperator, steps: int = DEFAULT_STEPS) -> TimeGrid:
    """Grid covering the intrinsic timescale: [0, 5/delta] for dissipative
    generators, [0, 10/||S||] for those the pass labels Hamiltonian, [0, 10]
    for the zero generator. A delta that underflows to 0 when scaled back
    makes the timescale overflow."""
    m = compute_metrics(s)
    if m.regime is not Regime.HAMILTONIAN:
        t_end = 5.0 / m.delta if m.delta else math.inf
    elif m.generator_norm > 0.0:
        t_end = 10.0 / m.generator_norm
    else:
        t_end = 10.0
    if not math.isfinite(t_end):
        raise RangeError("the intrinsic timescale overflows double precision; give --t-end")
    return TimeGrid(0.0, t_end, steps)


def propagator(s: Superoperator, t: float) -> Superoperator:
    """exp(t S) as a superoperator; t * ||S|| must stay in the safe range."""
    _check_range(compute_metrics(s).generator_norm, t)
    return Superoperator(s.dim, _exp(t * s.matrix))


def spectral_abscissa(s: Superoperator) -> float:
    """Largest real part over the generator's eigenvalues.

    For the generator of a model (``liouvillian``) it is exactly 0.0, which
    that generator keeps: the trace is preserved, so 0 is an eigenvalue,
    and a CPTP semigroup has no eigenvalue with a positive real part. So no
    form is taken and no eigensolve runs, and a generator with an entry
    beyond double precision gives 0.0 here too, where every call that
    forms it is a RangeError.

    For any other Superoperator the spectrum is taken in the Hermitian
    operator basis; the basis is unitary, so the spectrum is that of
    ``S``. It is ``superop._block_spectrum`` of ``_form(s)``, one batched
    eigensolve per size of block, and is computed on every call.
    """
    alpha = getattr(s, "_abscissa", None)
    return float(_block_spectrum(*_form(s)).real.max()) if alpha is None else alpha


def _appg(m: StructuralMetrics, times: np.ndarray, prop: np.ndarray) -> tuple:
    """The truncated APPG envelope exp(t delta + t nd_norm + t^2 eta/4) at
    ``times``, for the metrics ``m``, and whether each norm of ``prop`` sits
    under it, with a relative slack of 1e-9."""
    with np.errstate(over="ignore"):
        # a zero eta adds nothing, even where times**2 overflows
        quadratic = m.eta * times**2 / 4.0 if m.eta else 0.0
        env = np.exp(m.delta * times + m.nd_norm * times + quadratic)
    return env, prop <= env * (1.0 + 1e-9)


def amplification_series(s: Superoperator, grid: TimeGrid) -> AmplificationSeries:
    """Propagator norms, both amplification factors and both envelopes.

    The whole pass runs on one rotation of the generator into the
    Hermitian operator basis (see the module docstring), in float64 for a
    Lindbladian: two exponentials per call, then per point one step product,
    one Gram product and one Hermitian eigensolve, and no SVD. The norms are
    taken one point at a time, so no more than a few n x n matrices are
    alive at once. The drift from direct exponentials stays below about
    ``steps * 1e-16`` relative. ``alpha`` is ``spectral_abscissa(s)``: 0.0
    for the generator of a model, whose ``a_spectral`` is then
    ``prop_norm`` bit for bit, and the spectrum of a raw Superoperator,
    which forms it a second time. Raises RangeError when ``t_start *
    ||S||`` or the step ``h * ||S||`` exceeds EXP_SAFE_NORM.
    """
    m = compute_metrics(s)
    a, e, table = _form(s)
    propagators = _stepped_propagators(a, e, table, grid, m.generator_norm)
    prop = np.array([_propagator_norm(p) for p in propagators])
    alpha = spectral_abscissa(s)

    times = grid.times
    with np.errstate(over="ignore"):
        a_paper = prop * np.exp(-m.delta * times)
        a_spectral = prop * np.exp(-alpha * times)
        gronwall_env = np.exp(m.delta * times)
    appg_env, satisfied = _appg(m, times, prop)
    return AmplificationSeries(
        times=times,
        prop_norm=prop,
        a_paper=a_paper,
        a_spectral=a_spectral,
        gronwall_env=gronwall_env,
        appg_env=appg_env,
        appg_satisfied=satisfied,
        delta=m.delta,
        alpha=alpha,
    )


def gronwall_check(s: Superoperator, rho0, grid: TimeGrid) -> float:
    """Minimum over the grid of exp(t*delta)*||rho0|| - ||rho(t)||.

    The envelope bounds the evolved Hilbert-Schmidt norm for every
    generator, so the result is nonnegative up to roundoff.
    """
    rho0 = as_complex_matrix(rho0, s.dim, s.dim)
    m = compute_metrics(s)
    a, e, table = _form(s)
    # rho0 in the basis of the propagators; a real propagator maps the real
    # and imaginary parts of its coordinates, as two real columns, apart
    x = _hermitian_coords(rho0)
    x = x.view(np.float64).reshape(-1, 2) if a.dtype == np.float64 else x[:, None]
    # the coordinates of each sector's elements, in its rows' order, and 0
    # on the padding rows, which every propagator block zeroes
    x = np.where((table >= 0)[..., None], x[table], 0.0)
    propagators = _stepped_propagators(a, e, table, grid, m.generator_norm)
    norms = [np.linalg.norm(p @ x) for p in propagators]
    with np.errstate(over="ignore"):
        margins = np.exp(m.delta * grid.times) * hs_norm(rho0) - np.array(norms)
    return float(margins.min())


def normal_factorization_residual(s: Superoperator, t: float) -> float:
    """||exp(t S) - exp(t S_herm) exp(t S_skew)||.

    Vanishes (to roundoff) exactly when the generator is normal, because
    then the Hermitian and anti-Hermitian parts commute; generically
    positive otherwise, so it witnesses nonnormality dynamically. All
    three exponentials are taken on the sector blocks ``a`` of ``_form``:
    ``U`` is unitary, so the blocks of ``S_herm`` and ``S_skew`` are
    ``(a + a^dag)/2`` and ``(a - a^dag)/2``, and the residual is block
    diagonal, its norm the largest over the blocks.
    """
    _check_range(compute_metrics(s).generator_norm, t)
    a, e, table = _form(s)
    adj = a.conj().swapaxes(-1, -2)
    full, herm, skew = (_exp_blocks(x, e, table, t) for x in (a, (a + adj) / 2, (a - adj) / 2))
    return _propagator_norm(full - herm @ skew)


def error_amplification(s: Superoperator, t: float, eps: float) -> float:
    """Worst-case state error eps * ||exp(t S)|| from a propagator error eps."""
    if not eps >= 0:
        raise ConfigError(f"eps must be nonnegative, got {eps}")
    _check_range(compute_metrics(s).generator_norm, t)
    return eps * _propagator_norm(_exp_blocks(*_form(s), t))


def truncated_appg_bound(s: Superoperator, t: float) -> AppgBound:
    """Truncated interaction-picture envelope and whether the norm sits under it.

    bound = exp(t*delta + t*||S_skew|| + t^2*eta/4). Higher-order
    nested-commutator terms are dropped, so this is a diagnostic, not a
    proven upper bound; the flag is reported, never asserted. Both come from
    the code that gives ``amplification_series`` its ``appg_env`` and
    ``appg_satisfied``, so at a grid time the bound is the series' envelope
    bit for bit; the flag tests the norm of one exponential, which can
    differ by ulps from the series' stepped norm.
    """
    m = compute_metrics(s)
    _check_range(m.generator_norm, t)
    prop = _propagator_norm(_exp_blocks(*_form(s), t))
    bound, satisfied = _appg(m, np.array(t), prop)
    return AppgBound(bound=float(bound), satisfied=bool(satisfied))


def cost_estimate(s: Superoperator, t: float, eps_star: float) -> CostEstimate:
    """Heuristic simulation cost with unit big-O constants and natural log.

    base_cost = t * rate + log(1/eps_star), where rate is the dissipative
    strength, or half the generator norm for (relatively) zero dissipation.
    kappa_overhead adds kappa in the strongly nonnormal regime and a unit
    constant in the crossover regime. Constants are arbitrary by
    construction; the estimate is reported, never asserted against any
    external algorithm.
    """
    if not 0.0 < eps_star < 1.0:
        raise ConfigError(f"eps_star must lie in (0, 1), got {eps_star}")
    _check_time(t)
    m = compute_metrics(s)
    rate = 0.5 * m.generator_norm if m.regime is Regime.HAMILTONIAN else m.delta
    base = t * rate + math.log(1.0 / eps_star)
    overhead = {Regime.STRONGLY_NONNORMAL: m.kappa, Regime.CROSSOVER: 1.0}.get(m.regime, 0.0)
    return CostEstimate(base_cost=base, kappa_overhead=overhead)
