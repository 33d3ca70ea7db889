"""Dense linear-algebra kernel.

All operations take plain numpy arrays. A float64 array stays real, so a
real matrix goes to numpy's real LAPACK kernels, which are about three
times faster than the complex ones at the same size; every other input is
taken as complex128. They are pure functions: arguments are never mutated.
A NaN or Inf entry is a NumericalError, and an empty matrix has norm 0.
Every argument is converted in one place, ``_numbers``: a ragged array is a
DimensionError, an entry that is not a number a ConfigError.
``hs_norm``, ``hs_inner`` and ``commutator`` take their operands scaled by
exact powers of two (``_prescaled``), so a result within double precision
is exact at every magnitude; a matrix or complex result beyond it is a
RangeError, and a norm beyond it ``inf``.
Everything is dense; desk-scale dimensions keep eigendecomposition, SVD and
the matrix exponential cheap and exact, so no sparse or iterative paths
exist.

The norm of a matrix that is Hermitian by construction is its largest
eigenvalue magnitude, ``hermitian_norm``, from a Hermitian eigensolver at
about half the cost of an SVD. The norm of a general matrix ``P`` is then
exactly ``sqrt(hermitian_norm(P^dag P))``: the top eigenvalue of a positive
semidefinite matrix is perfectly conditioned. The analysis pass in
``metrics`` and the propagator norms in ``dynamics`` take every norm that
way. ``spectral_norm`` (SVD) is for the remaining one-off general norms.

Every kernel is numpy's. The matrix exponential is the scaling-and-squaring
Pade method of Higham (2005), written here on numpy's matmul and solve, so
the package needs numpy alone; it too stays real for a float64 matrix.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import ConfigError, DimensionError, NumericalError, RangeError

__all__ = [
    "HERM_RTOL",
    "HERM_FLOOR",
    "EXP_SAFE_NORM",
    "as_complex_matrix",
    "dagger",
    "hs_inner",
    "hs_norm",
    "spectral_norm",
    "hermitian_norm",
    "hermiticity_defect",
    "hermiticity_tolerance",
    "eigenvalues_general",
    "matrix_exp",
    "commutator",
]

# Hermiticity test: ||M - M^dag||_2 <= max(HERM_RTOL * ||M||_2, HERM_FLOOR).
HERM_RTOL = 1e-10
HERM_FLOOR = 1e-14

# matrix_exp guarantees <= 1e-10 relative accuracy only up to this norm;
# callers with larger arguments must rescale their time grid.
EXP_SAFE_NORM = 50.0


def as_complex_matrix(a, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Copy ``a`` into a fresh 2-D complex128 array, checking shape and finiteness."""
    m = _numbers(a).astype(complex)
    if m.ndim != 2:
        raise DimensionError(f"expected a matrix, got an array of rank {m.ndim}")
    if rows is not None and m.shape[0] != rows:
        raise DimensionError(f"expected {rows} rows, got {m.shape[0]}")
    if cols is not None and m.shape[1] != cols:
        raise DimensionError(f"expected {cols} columns, got {m.shape[1]}")
    return _finite(m)


def _finite(m: np.ndarray) -> np.ndarray:
    """``m`` itself, or a NumericalError if an entry is NaN or Inf."""
    if not np.isfinite(m).all():
        raise NumericalError("matrix contains NaN or Inf entries")
    return m


def _numbers(a) -> np.ndarray:
    """``a`` as an array, not copied where it is one: float64 stays float64,
    all else is complex128.

    Where numpy would raise an untyped error or take None as NaN, a ragged
    ``a`` is a DimensionError, an entry that is not a number a ConfigError
    and an integer beyond double precision a RangeError.
    """
    try:
        m = np.asarray(a)
    except ValueError:
        raise DimensionError("expected an array, got nested sequences of unequal lengths") from None
    if m.dtype == np.float64:
        return m
    if m.dtype.kind not in "biufc":
        for x in np.asarray(a, dtype=object).ravel().tolist():
            if not isinstance(x, numbers.Number):
                raise ConfigError(f"matrix entries must be numbers, got {x!r}")
    try:
        return np.asarray(m, dtype=complex)
    except OverflowError:
        raise RangeError("a matrix entry is beyond double precision") from None


def _operand(a) -> np.ndarray:
    """``a`` as an array with finite entries: float64 stays float64, all else is complex128."""
    return _finite(_numbers(a))


def _prescaled(m: np.ndarray) -> tuple[np.ndarray, int]:
    """``(2^-f m, f)``, a new array: the float64 or complex128 ``m`` scaled
    by the exact power of two that brings its largest real or imaginary
    part into [1/2, 1), as ``dynamics._propagator_norm`` scales; ``f`` is
    0 for a zero or empty ``m``."""
    x = np.ascontiguousarray(m).view(np.float64)
    f = math.frexp(float(np.abs(x).max(initial=0.0)))[1]
    return np.ldexp(x, -f).view(m.dtype), f


def _scaled_back(m: np.ndarray, f: int) -> np.ndarray:
    """``2^f m`` in place, for a C-contiguous float64 or complex128 ``m``: a
    RangeError, with no numpy warning, where an entry goes beyond double
    precision."""
    x = m.view(np.float64)
    with np.errstate(over="ignore"):
        np.ldexp(x, f, out=x)
    if not np.isfinite(x).all():
        raise RangeError("the result is beyond double precision")
    return m


def _as2d(a) -> np.ndarray:
    m = _operand(a)
    if m.ndim != 2:
        raise DimensionError(f"expected a matrix, got an array of rank {m.ndim}")
    return m


def _square(a) -> np.ndarray:
    m = _as2d(a)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    return m


def _square_stack(a) -> np.ndarray:
    """``a`` as a square matrix or a stack of them, ``(..., n, n)``, typed as by ``_operand``."""
    m = _operand(a)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise DimensionError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    return m


def dagger(m) -> np.ndarray:
    """Conjugate transpose."""
    return _as2d(m).conj().T


def hs_inner(a, b) -> complex:
    """Hilbert-Schmidt inner product Tr[a^dag b] of two square matrices.

    It is taken on ``a`` and ``b`` prescaled by exact powers of two
    (``_prescaled``), so no product over- or underflows; a result beyond
    double precision is a RangeError.
    """
    a = _square(a)
    b = _square(b)
    if a.shape != b.shape:
        raise DimensionError(f"dimension mismatch: {a.shape} vs {b.shape}")
    (a, fa), (b, fb) = _prescaled(a), _prescaled(b)
    return complex(_scaled_back(np.array([np.vdot(a, b)], dtype=complex), fa + fb)[0])


def hs_norm(a) -> float:
    """Hilbert-Schmidt (Frobenius) norm sqrt(Tr[a^dag a]).

    It is taken on ``a`` prescaled by an exact power of two, so no square
    over- or underflows; a norm beyond double precision is ``inf``.
    """
    m, f = _prescaled(_as2d(a))
    with np.errstate(over="ignore"):
        return float(np.ldexp(np.linalg.norm(m), f))


def spectral_norm(m) -> float:
    """Largest singular value of ``m``."""
    return float(np.linalg.svd(_as2d(m), compute_uv=False).max(initial=0.0))


def hermitian_norm(m) -> float:
    """Spectral norm of a Hermitian matrix: its largest eigenvalue magnitude.

    Only the lower triangle is read and nothing is checked, so ``m`` must
    be Hermitian by construction.
    """
    return float(_hermitian_norms(_square(m)))


def _hermitian_norms(m: np.ndarray) -> np.ndarray:
    """``hermitian_norm`` of each matrix of a stack ``(..., n, n)``, in one eigensolve call."""
    try:
        ev = np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Hermitian eigensolver failed to converge: {exc}") from exc
    return np.abs(ev).max(axis=-1, initial=0.0)


def _solver_room(like: np.ndarray) -> np.ndarray:
    """An uninitialized array of the shape ``(..., n, n)`` and dtype of
    ``like``, whose memory has room for the copy ``_hermitian_norms`` takes
    of one ``n x n`` matrix.

    ``np.linalg.eigvalsh`` copies its input and its ``n`` eigenvalues into
    one malloc block of ``n (n + 1)`` entries. A freed ``n x n`` array
    leaves a chunk that this block never fits, so an eigensolve after the
    free takes fresh pages and the resident set grows by a matrix. An array
    made here holds ``n`` spare entries, as many bytes as the eigenvalues at
    least, so the chunk it leaves once freed takes the next eigensolve's
    copy, and a pass that frees an array before each eigensolve stays at
    the peak of the arrays it holds.
    """
    return np.empty(like.size + like.shape[-1], like.dtype)[: like.size].reshape(like.shape)


def hermiticity_defect(m) -> float:
    """Spectral norm of ``m - m^dag``; zero iff ``m`` is Hermitian.

    It is twice the norm of ``h + h^dag`` with ``h = (i/2) m``, which is
    ``i (m - m^dag) / 2``: exactly Hermitian, because IEEE addition
    commutes, so its norm comes from the Hermitian eigensolver. A sum of
    halves cannot overflow; a defect beyond double precision is ``inf``.
    """
    half = 0.5j * _square(m)
    return 2.0 * hermitian_norm(half + half.conj().T)


def hermiticity_tolerance(m) -> float:
    """Largest Hermiticity defect treated as roundoff for this matrix."""
    return max(HERM_RTOL * spectral_norm(m), HERM_FLOOR)


def eigenvalues_general(m) -> np.ndarray:
    """Full spectrum of a general (possibly nonnormal) matrix.

    Sorted ascending by real part, ties broken by imaginary part, so output
    is deterministic and directly comparable across runs. The spectrum is
    complex128 also for a real matrix. LAPACK scales a matrix of very large
    or very small entries itself; an eigenvalue beyond double precision is
    a RangeError.
    """
    ev = _eigenvalues(_square(m))
    if not np.isfinite(ev).all():
        raise RangeError("an eigenvalue is beyond double precision")
    order = np.lexsort((ev.imag, ev.real))
    return ev[order]


def _eigenvalues(m: np.ndarray) -> np.ndarray:
    """The spectra of a stack ``(..., n, n)`` in one eigensolve call: unsorted, complex128."""
    try:
        return np.linalg.eigvals(m).astype(complex, copy=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed to converge: {exc}") from exc


def matrix_exp(m) -> np.ndarray:
    """Matrix exponential exp(m), by scaling-and-squaring with a Pade approximant.

    ``m`` is a square matrix or a stack of them, ``(..., n, n)``, whose
    exponentials are taken together. Accuracy is guaranteed only for
    spectral norm up to EXP_SAFE_NORM; beyond that a RangeError tells the
    caller to rescale its time grid. The range test first takes the O(n^2)
    bound ``sqrt(||m||_1 ||m||_inf) >= ||m||_2``, the largest of each over a
    stack, and runs the exact SVD only when that bound exceeds the range,
    so the error is raised exactly when some ``||m||_2 > EXP_SAFE_NORM``.
    The test is for callers that do not know ``||m||_2``: ``dynamics``
    checks each time against the generator norm it already holds and calls
    the kernel, ``_pade_exp``, directly.

    The exponential itself is Algorithm 2.3 of N. J. Higham, "The scaling
    and squaring method for the matrix exponential revisited", SIAM J.
    Matrix Anal. Appl. 26(4), 2005, at its top degree only: the degree-13
    Pade approximant, after scaling by a power of two that brings
    ``||m||_1`` under theta_13, then squaring back. The approximant is
    formed as ``I + 2 (V - U)^-1 U``, so a zero matrix, whose ``U`` is
    exactly zero, gives the identity exactly.
    """
    m = _square_stack(m)
    # a finite matrix whose sums overflow is out of range: inf goes on to the SVD
    with np.errstate(over="ignore"):
        mag = np.abs(m)
        norm_1 = float(mag.sum(axis=-2).max(initial=0.0))
        bound = math.sqrt(norm_1 * float(mag.sum(axis=-1).max(initial=0.0)))
    # the margin covers the rounding of the sums, so skipping the SVD below
    # it never changes the outcome
    if not bound <= EXP_SAFE_NORM * (1.0 - 2.0 * m.shape[-1] * np.finfo(float).eps):
        norm = float(np.linalg.svd(m, compute_uv=False)[..., 0].max())
        if norm > EXP_SAFE_NORM:
            raise RangeError(
                f"matrix norm {norm:.6g} exceeds safe range {EXP_SAFE_NORM:g}; "
                "rescale the time grid and compose shorter steps"
            )
    return _pade_exp(m, norm_1)


# Higham (2005), Table 2.3: the largest ||A||_1 for which the degree-13
# Pade approximant r_13(A) meets unit roundoff in double precision.
_PADE_THETA_13 = 5.371920351148152
# Numerator coefficients b_0..b_13 of the diagonal degree-13 Pade
# approximant to e^x.
_PADE_COEF_13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)


def _pade_exp(a: np.ndarray, norm_1: float) -> np.ndarray:
    """exp(a) for a square ``a`` with 1-norm ``norm_1`` (Higham 2005, Alg. 2.3).

    The identity takes the dtype of ``a``, so a float64 ``a`` runs in real
    arithmetic and gives a real exponential; a complex128 one, a complex one.
    ``a`` may be a stack ``(..., n, n)``, with ``norm_1`` the largest 1-norm
    in it; every matrix then takes the same number of squarings.
    """
    ident = np.eye(a.shape[-1], dtype=a.dtype)
    squarings = 0
    if norm_1 > _PADE_THETA_13:
        squarings = math.ceil(math.log2(norm_1 / _PADE_THETA_13))
        a = a * 2.0 ** -squarings  # exact: a power of two
    b = _PADE_COEF_13
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    # r = (v - u)^-1 (v + u), formed as I + 2 (v - u)^-1 u: the solve
    # rounds relative to the correction, not to r. A step with
    # h ||S|| = 0.02 then lands within ~4e-18 of the correctly rounded
    # exponential, where the direct form is an ulp (~3e-16) off, and a
    # product of thousands of steps compounds that.
    r = ident + 2.0 * np.linalg.solve(v - u, u)
    for _ in range(squarings):
        r = r @ r
    return r


def commutator(a, b) -> np.ndarray:
    """Commutator a@b - b@a of two equal-size square matrices.

    It is taken on ``a`` and ``b`` prescaled by exact powers of two
    (``_prescaled``), so no product or sum over- or underflows; an entry
    beyond double precision is a RangeError.
    """
    a = _square(a)
    b = _square(b)
    if a.shape != b.shape:
        raise DimensionError(f"dimension mismatch: {a.shape} vs {b.shape}")
    (a, fa), (b, fb) = _prescaled(a), _prescaled(b)
    return _scaled_back(a @ b - b @ a, fa + fb)
