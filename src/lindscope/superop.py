"""Generators of Markovian open-system dynamics and their matrices.

Operators on a d-dimensional Hilbert space are vectorized by column
stacking, ``vec(A)[i + d*j] = A[i, j]``, so a map ``rho -> A rho B`` has
matrix ``kron(B.T, A)``. Column stacking makes vectorization an isometry
from the Hilbert-Schmidt inner product to the ordinary complex inner
product, which in turn makes the Hilbert-Schmidt adjoint of a
superoperator the plain conjugate transpose of its matrix.

In the orthonormal basis of Hermitian operators ``E_ii``,
``(E_ij + E_ji)/sqrt2`` and ``i (E_ij - E_ji)/sqrt2`` (``i < j``), the
coordinates of a Hermitian operator are real, so a map that preserves
Hermiticity, ``L(X)^dag = L(X^dag)`` as every Lindbladian does, is a real
matrix there. The analysis pass in ``metrics`` works in that form.

The generator build takes stacks: ``_liouvillian_rows`` builds the dense
generators of many points of one shape in one pass, from their stacked
Hamiltonians, jump operators and ``L_k^dag L_k``, in row chunks of a few
blocks of ``d`` rows (``_chunk_rows``). A ``Superoperator`` is stored as
its dense ``d^2 x d^2`` matrix, except the generator of a model:
``liouvillian`` keeps the model's ``H`` and jumps, as a stack of one, and
its ``matrix`` is filled from those chunks (``_liouvillians``) on the
first read, then kept.
The analysis pass and the dynamics form it without reading its matrix
(``_form``); only ``dynamics.propagator`` reads it.

Every kernel runs on one layout (``_sector_form``): the real form
``2^-e U^dag M U`` of each generator of a stack, split into the exact
symmetry sectors of the stack where that pays, as blocks with their table
of sectors; a generator that does not split is one block, so every kernel
takes one form. It has two inputs. ``_slot_entries`` gathers the four
entries that the real form combines for every pair of basis slots from
row chunks of dense ``n x n`` generators: row views of a matrix
(``_sector_form``) or the chunks of a build, each gathered before the
next is built. ``_generator_entries`` forms those entries from the ``d x
d`` entries of ``H``, ``L_k`` and ``L_k^dag L_k`` of a stack, with no ``n
x n`` matrix, for the slot pairs of an entry plan. ``_operator_form`` is
the one function that turns a stack of operators into its form, and the
one that picks a route, from the stack alone: where the ``d x d``
patterns split the maps, it forms the entries of only the slot pairs
inside the sectors that they allow; a stack that is one block forms every
pair so up to ``_ENTRY_DIM``, and above it gathers the row chunks of its
dense build. It serves models, the structured report and sweeps
(``_sector_blocks``, a chunk of points).
``_form`` is the one form that the analysis pass and the dynamics take of
a Superoperator: ``_operator_form`` of a model's generator, whose matrix
is then never built, and ``_sector_form`` of any other's matrix. The
structured report takes ``_operator_form`` of the dissipator, with ``H =
0``, and of the jump map, with zeros in place of ``L_k^dag L_k`` too. Both
inputs go to one tail, ``_form_blocks`` (the prescale, the sums with
conjugates, the real-form test, the pattern and its sectors, and the fill
of the blocks), so every route agrees bit for bit. ``_block_spectrum``
takes the eigenvalues of a form, one eigensolve per size of block.

All values are immutable after construction (arrays are frozen), so they
are safe to share across threads. Two attributes of a Superoperator are
set lazily, on first use: the matrix of a model's generator, a
``functools.cached_property``, and the metrics of the analysis pass
(``metrics.compute_metrics``). The metrics take no lock: threads that
race to set them each compute them, from the same frozen inputs to the
same bits, and any one result may be kept. The matrix takes the lock of
``cached_property`` on Python 3.11, one for all generators, so racing
threads wait for the first build; from Python 3.12 it takes none and
races as the metrics do. Either way a reader sees no value or a whole
one.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, ModelError, RangeError
from .linalg import (_eigenvalues, _numbers, _operand, _prescaled, _scaled_back,
                     as_complex_matrix, dagger, hermiticity_defect, hermiticity_tolerance)

__all__ = [
    "DEFAULT_DIM_CAP",
    "dim_cap",
    "LindbladModel",
    "Superoperator",
    "vectorize",
    "devectorize",
    "liouvillian",
    "adjoint",
    "decompose",
    "apply",
]

# At the cap a generator is (32^2) x (32^2), 16 MB as a complex matrix. The
# analysis pass and the dynamics work on its sector blocks (_form), and a
# model's generator builds that matrix only when it is read, as
# dynamics.propagator does for its dense complex exponential of the whole,
# which costs about 2 s there.
DEFAULT_DIM_CAP = 32


def dim_cap() -> int:
    """Hilbert-space dimension cap; LINDSCOPE_DIM_CAP overrides it (at your own risk)."""
    raw = os.environ.get("LINDSCOPE_DIM_CAP")
    if raw is None:
        return DEFAULT_DIM_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ConfigError(f"LINDSCOPE_DIM_CAP must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ConfigError(f"LINDSCOPE_DIM_CAP must be positive, got {cap}")
    return cap


def _check_dim(dim) -> None:
    """A ModelError unless ``dim`` is a positive Python or numpy int (not a bool)."""
    if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)):
        raise ModelError(f"dimension must be an integer, got {dim!r}")
    if dim < 1:
        raise ModelError(f"dimension must be positive, got {dim}")


def _frozen(m: np.ndarray) -> np.ndarray:
    m.setflags(write=False)
    return m


@dataclass(frozen=True, eq=False)
class LindbladModel:
    """Hamiltonian plus weighted jump operators, hbar = 1.

    Rates are absorbed into the jump operators (store sqrt(rate) * op), so
    there is no separate rate array that could fall out of sync. ``jumps``
    is any iterable of matrices and ``label`` a string; anything else is a
    ModelError.
    """

    dim: int
    hamiltonian: np.ndarray
    jumps: tuple[np.ndarray, ...] = ()
    label: str = ""

    def __post_init__(self):
        _check_dim(self.dim)
        cap = dim_cap()
        if self.dim > cap:
            raise ModelError(
                f"dimension {self.dim} exceeds the cap {cap} "
                "(set LINDSCOPE_DIM_CAP to raise it at your own risk)"
            )
        if not isinstance(self.label, str):
            raise ModelError(f"label must be a string, got {self.label!r}")
        h = as_complex_matrix(self.hamiltonian, self.dim, self.dim)
        _make_hermitian(h)
        try:
            jumps = tuple(self.jumps)
        except TypeError:
            raise ModelError(f"jumps must be a sequence of matrices, got {self.jumps!r}") from None
        jumps = tuple(as_complex_matrix(j, self.dim, self.dim) for j in jumps)
        object.__setattr__(self, "hamiltonian", _frozen(h))
        object.__setattr__(self, "jumps", tuple(_frozen(j) for j in jumps))


def _make_hermitian(h: np.ndarray) -> None:
    """Make a Hamiltonian that is Hermitian within tolerance exactly Hermitian, in place.

    Another H is a ModelError. An exactly Hermitian H has defect 0 and
    keeps its bits, so only another H pays for the defect (an eigensolve)
    and its tolerance (an SVD).
    """
    if np.array_equal(h, h.conj().T):
        return
    defect = hermiticity_defect(h)
    if defect > hermiticity_tolerance(h):
        raise ModelError(f"hamiltonian is not Hermitian: defect {defect:.3e} exceeds tolerance")
    if defect > 0.0:
        # Keep (H + H^dag)/2, so that the generator preserves Hermiticity
        # and is real in the Hermitian operator basis. The sum of halves
        # cannot overflow, and it is exactly Hermitian, since IEEE
        # addition commutes.
        h[...] = 0.5 * h + 0.5 * h.conj().T


@dataclass(frozen=True, eq=False)
class Superoperator:
    """A linear map on operators, with its dense d^2 x d^2 ``matrix``.

    ``Superoperator(dim, matrix)`` stores a frozen complex copy of
    ``matrix``. The generator that ``liouvillian`` returns stores the
    model's ``H`` and jumps instead, and builds ``matrix`` on its first
    read, then keeps it, frozen; an entry beyond double precision makes
    that read a RangeError. The analysis pass and the dynamics form that
    generator from its operators (``_form``), so they never build it, and
    its spectral abscissa is exactly 0 (``liouvillian``).
    """

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        _check_dim(self.dim)
        m = as_complex_matrix(self.matrix, self.dim**2, self.dim**2)
        object.__setattr__(self, "matrix", _frozen(m))


@dataclass(frozen=True, eq=False)
class _Generator(Superoperator):
    """The generator of a model, as ``liouvillian`` returns it.

    It holds the model's ``H`` and jumps as a stack of one,
    ``operators``, and builds ``matrix`` from them (``_liouvillians``) on
    its first read. The type tells the generator of a model apart, whose
    spectral abscissa is exactly 0 and whose form is taken from its
    operators (``_form``).
    """

    def __init__(self, model: LindbladModel):
        jumps = np.array(model.jumps).reshape(1, len(model.jumps), model.dim, model.dim)
        vars(self).update(dim=model.dim, operators=(model.hamiltonian[None], _frozen(jumps)))

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        h, jumps = self.operators
        return _frozen(_liouvillians(h, jumps, _jump_squares(jumps)))[0]

    def __repr__(self) -> str:
        # the dataclass repr would read, and so build, the matrix
        shown = repr(vars(self)["matrix"]) if "matrix" in vars(self) else "<built on first read>"
        return f"Superoperator(dim={self.dim!r}, matrix={shown})"


def vectorize(a) -> np.ndarray:
    """Column-stack a square matrix into a vector: vec(A)[i + d*j] = A[i, j]."""
    a = np.asarray(_operand(a), dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    return a.flatten(order="F")


def devectorize(v, dim: int) -> np.ndarray:
    """Inverse of vectorize: reshape a length-d^2 vector back into a d x d matrix."""
    _check_dim(dim)
    v = np.asarray(_operand(v), dtype=complex)
    if v.ndim != 1 or v.shape[0] != dim * dim:
        raise DimensionError(f"expected a vector of length {dim * dim}, got shape {v.shape}")
    return v.reshape((dim, dim), order="F")


# The generator preserves Hermiticity, and its rotation is taken as real,
# when a bound on the imaginary part of the rotation stays within this many
# ulps of the prescaled largest entry of the generator.
_REAL_FORM_ULPS = 16
_EPS = float(np.finfo(float).eps)


@functools.lru_cache(maxsize=None)
def _basis_index(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather indices and row weights of the orthonormal Hermitian basis.

    ``rows`` and ``cols`` pick ``[M[p,p], M[q,q], M[p,q], M[q,p]]`` in one
    step, for vectorized positions ``p`` and ``q``. Entry ``k < dim`` is
    the position of ``E_kk`` in both. Each later entry is a pair ``i < j``,
    with ``p`` the position of ``E_ij`` and ``q`` that of ``E_ji``; the
    pair gives two basis elements, ``(E_ij + E_ji)/sqrt2`` and, after all
    pairs, ``i (E_ij - E_ji)/sqrt2``. ``weight`` is 1/sqrt2 on the
    ``dim`` diagonal elements and 1 on the others.
    """
    i, j = np.triu_indices(dim, 1)
    diag = np.arange(dim) * (dim + 1)
    p = np.concatenate([diag, i + dim * j])
    q = np.concatenate([diag, j + dim * i])
    rows = np.stack([p, q, p, q])[:, :, None]
    cols = np.stack([p, q, q, p])[:, None, :]
    weight = np.ones(dim * dim)
    weight[:dim] = math.sqrt(0.5)
    return _frozen(rows), _frozen(cols), _frozen(weight)


def _place(out: np.ndarray, parts, dim: int) -> None:
    """Write the real form ``out`` from the parts of every slot pair, each ``(..., r, r)``.

    ``parts`` is ``[Re u, Im u, Re v, -Im v]`` of the sums ``u`` and ``v``
    of ``_form_blocks``: symmetric rows and columns (the first ``r``) take
    ``Re u``, anti-symmetric ones ``Re v``, and the mixed blocks ``-Im v``
    (symmetric rows) and ``Im u``; anti-symmetric elements exist only for
    the pairs, which follow the ``dim`` diagonal entries. Leading axes are
    a stack.
    """
    r = parts[0].shape[-1]
    out[..., :r, :r] = parts[0]
    out[..., r:, :r] = parts[1][..., dim:, :]
    out[..., r:, r:] = parts[2][..., dim:, dim:]
    out[..., :r, r:] = parts[3][..., :, dim:]


def _quadrants(p: np.ndarray, r: int) -> tuple:
    """``[Re u, Im u, Re v, -Im v]`` of every slot pair, as ``(..., r, r)`` views of ``p``.

    ``p`` holds the floats of ``u`` and of ``conj(v)`` over the ``r^2``
    slot pairs in order, ``(..., 2, 2 r^2)``.
    """
    q = p.reshape(*p.shape[:-1], r, r, 2)
    return q[..., 0, :, :, 0], q[..., 0, :, :, 1], q[..., 1, :, :, 0], q[..., 1, :, :, 1]


def _table_of(parts, dim: int) -> np.ndarray | None:
    """The table of sectors of a real form whose nonzero ``parts`` of every slot pair are given.

    ``parts`` is as ``_place`` takes it, for one ``n x n`` pattern. None
    when the first basis element is coupled to every other, which makes
    one sector, or when ``_sector_table`` finds the split not paying.
    """
    pattern = np.zeros((dim * dim, dim * dim), dtype=bool)
    _place(pattern, parts, dim)
    pattern |= pattern.T
    if pattern[0, 1:].all():
        return None
    return _sector_table(np.packbits(pattern).tobytes(), dim * dim)


# A split into sectors pays when its padded blocks, weighed as B * b^3
# against the n^3 of the whole, cost at most this share of it. Per matrix,
# the pass took (one BLAS thread, stacks of 256) 0.5, 2.0, 4.4, 6.4, 18 and
# 67 us at b = 1, 2, 3, 4, 8 and 16, about b^2 at small sizes. So at d = 2
# a split into 2 blocks of 3 (share 0.84) or 3 of 2 (0.38) costs 1.3-1.7x
# the whole, one into 4 blocks of 1 (0.06) saves a fifth, and at d = 8 the
# split of jaynes_cummings into 16 blocks of at most 8 (0.03) halves it.
_SECTOR_SHARE = 1 / 8


@functools.lru_cache(maxsize=16)
def _sector_table(packed: bytes, n: int) -> np.ndarray | None:
    """The sectors of the symmetric ``n x n`` pattern that ``np.packbits`` packed.

    Returns the ``(B, b)`` table of each sector's elements in ascending
    order, padded with -1, or None when the pattern is one sector or when
    ``B * b^3`` exceeds ``_SECTOR_SHARE * n^3``, the split then not paying
    (see ``_SECTOR_SHARE``). The pattern is the key, so a hit is exact; a
    sweep hits it at every point of one pattern. Besides its key of
    ``n^2`` bits, an entry holds ``B b`` integers.
    """
    pattern = np.unpackbits(np.frombuffer(packed, np.uint8), count=n * n).reshape(n, n)
    # the entries of B blocks of b cover at most b n of the pattern, and
    # B b^3 >= n b^2, so a pattern denser than sqrt(share) n^2 cannot pay;
    # it is turned down before any index of its entries is formed
    if np.count_nonzero(pattern) > math.sqrt(_SECTOR_SHARE) * n * n:
        return None
    np.fill_diagonal(pattern, 1)
    rows, cols = np.nonzero(pattern)
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    # each element takes the least label among its neighbours and then its
    # label's label, until the labels settle: then every sector is labeled
    # by its least element
    label = np.arange(n)
    while True:
        new = np.minimum.reduceat(label[cols], starts)
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    # the sectors in the order of their least elements
    sector = np.cumsum(label == np.arange(n))[label] - 1
    counts = np.bincount(sector)
    count, size = len(counts), int(counts.max())
    if count == 1 or count * size**3 > _SECTOR_SHARE * n**3:
        return None
    # each sector's elements in ascending order, padded with -1
    order = np.argsort(sector, kind="stable")
    first = np.cumsum(counts) - counts
    table = np.full((count, size), -1)
    table[sector[order], np.arange(n) - first[sector[order]]] = order
    return _frozen(table)


def _block_entries(table: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``(B, b, b)`` mask of the block entries of ``table`` that are not
    padding, and the real-form row and column of each of them, in order."""
    live = table >= 0
    inside = live[:, :, None] & live[:, None, :]
    x, y = np.divmod((table[:, :, None] * n + table[:, None, :])[inside], n)
    return inside, x, y


def _pair_of(x: np.ndarray, y: np.ndarray, dim: int) -> np.ndarray:
    """The slot pair ``a r + b`` whose parts hold the real-form entry ``(x, y)``."""
    r = dim * (dim + 1) // 2
    return np.where(x < r, x, x - r + dim) * r + np.where(y < r, y, y - r + dim)


def _exponents(m: np.ndarray) -> np.ndarray:
    """The exponent ``e`` of the largest entry magnitude of each ``m[i]``,
    ``|m| < 2^e``; 0 for a zero ``m[i]``."""
    return np.frexp(np.abs(m).reshape(len(m), -1).max(axis=1, initial=0.0))[1]


def _form_blocks(g: np.ndarray, e: np.ndarray, dim: int, key: bytes | None) -> tuple | None:
    """``_sector_form`` of a stack of generators, from the entries of its slot pairs.

    A slot is an entry of ``_basis_index``: ``a < dim`` the diagonal
    element ``E_aa``, a later one a pair ``i < j``. ``g`` is ``(4, k, c)``:
    for each of the ``c`` slot pairs ``(a, b)`` of ``_candidates(dim,
    key)``, every pair in order for ``key`` None, the entries
    ``M[p_a, p_b]``, ``M[q_a, q_b]``, ``M[p_a, q_b]`` and ``M[q_a, p_b]``
    of each of the ``k`` generators, four blocks that each sum below runs
    over whole. The pairs hold every nonzero entry, and ``g`` is
    overwritten. ``e`` is the ``_exponents`` of the entries that ``g`` was
    gathered from, which set the power of two of each generator. Returns
    None when the stack is one block but the pairs are not all of them.
    The nonzero pattern of the stack decides its sectors (``_table_of``);
    a stack whose first basis element is coupled to every other is one
    sector, which row 0 of the pattern tells before any sector is traced,
    and a split stack gathers its blocks by ``_block_plan``.
    """
    k, c = g.shape[1:]
    n, r = dim * dim, dim * (dim + 1) // 2
    # 2^-(e+1) is exact; the extra 1/2 is the weight 2 |w_l w_k| = 1 of the
    # pair-pair entries, and diagonal rows and columns take 1/sqrt2 below
    floats = g.view(np.float64)
    np.ldexp(floats, (-1 - e)[:, None], out=floats)
    # The real part of the rotation comes from h = [Mpp + conj(Mqq),
    # Mpq + conj(Mqp)], the imaginary part from the rest, [Mpp - conj(Mqq),
    # Mpq - conj(Mqp)], which vanishes when the generator preserves
    # Hermiticity, that is when its conjugate is itself with rows and
    # columns permuted by transposition.
    np.conjugate(g[1::2], out=g[1::2])
    rest = g[0::2] - g[1::2]
    g[0::2] += g[1::2]
    parts = [g]
    # an imaginary entry is a weighted sum of two entries of rest, no weight
    # is above 1, and an ulp of the largest entry of 2^-(e+1) M is eps/4;
    # the largest entry of rest over the stack passes only if each one does
    if 2.0 * float(np.abs(rest).max(initial=0.0)) > _REAL_FORM_ULPS * _EPS / 4:
        # the imaginary part's h, -i rest, in the layout of g; the product
        # with -i is exact, however numpy orders it
        parts.append(np.empty_like(g))
        np.multiply(-1j, rest, out=parts[1][0::2])
    del rest
    # Each part of the form holds u = h0 + h1 and conj(v), v = h0 - h1, of
    # its h = [h0, h1], in the two slots that the sums have freed or never
    # filled. Each entry of the form is a sum in an order that
    # transposition maps onto itself, so a (skew-)symmetric result comes
    # out exactly (skew-)symmetric.
    for p in parts:
        np.subtract(p[0], p[2], out=p[1])
        np.conjugate(p[1], out=p[1])
        p[0] += p[2]
    # the floats of u and conj(v) of each part, (k, 2, 2 c); the weights,
    # at least 1/sqrt2, take no nonzero double to 0
    parts = [p[:2].view(np.float64).swapaxes(0, 1) for p in parts]
    nonzero = np.logical_or.reduce([(p != 0).any(axis=0) for p in parts])
    if c < r * r:
        held = np.zeros((2, r * r, 2), dtype=bool)
        held[:, _candidates(dim, key)[0]] = nonzero.reshape(2, c, 2)
        nonzero = held.reshape(2, -1)
    table = _table_of(_quadrants(nonzero, r), dim)
    e = e.astype(int)
    dtype = complex if len(parts) > 1 else np.float64
    if table is None:
        if c < r * r:
            return None
        out = np.empty((k, n, n), dtype=dtype)
        # .imag of a real array would be a new array of zeros
        for i, p in enumerate(parts):
            _place(out.imag if i else out.real, _quadrants(p, r), dim)
        weight = _basis_index(dim)[2]
        out *= weight[:, None]
        out *= weight
        return out, e, _frozen(np.arange(n)[None])
    inside, index, row, col = _block_plan(dim, key, table.tobytes(), table.shape)
    values = np.empty((k, len(index)), dtype=dtype)
    for i, p in enumerate(parts):
        np.take(p.reshape(k, -1), index, axis=1, out=values.imag if i else values.real)
    values *= row
    values *= col
    blocks = np.zeros((k, *inside.shape), dtype=dtype)
    blocks[:, inside] = values
    return blocks.reshape(k * len(table), *inside.shape[1:]), e, table


def _sector_form(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A stack of generators ``(k, n, n)`` as the blocks every kernel runs on.

    Returns ``(a, e, table)``. ``a`` is ``2^-e U^dag m U`` of each
    generator, with ``U`` the orthonormal Hermitian operator basis
    ``E_ii``, ``(E_ij + E_ji)/sqrt2``, ``i (E_ij - E_ji)/sqrt2``
    (``i < j``) and the power of two bringing its largest entry magnitude
    into ``[1/2, 1)``, split into the exact symmetry sectors of the stack,
    as a ``(k B, b, b)`` stack of the ``B`` blocks of each generator in
    turn. ``e`` is the length-``k`` array of exponents, and ``table`` the
    ``(B, b)`` table of the basis elements of each block's rows, -1 on the
    padding rows. ``a`` is float64 when every generator preserves
    Hermiticity up to roundoff, when no entry of the imaginary part of its
    rotation can exceed ``_REAL_FORM_ULPS`` ulps of its largest entry, and
    complex for the whole stack otherwise. Two basis elements are in one
    sector when a path of nonzero entries of ``a + a^T``, taken over the
    stack, joins them. The split is exact: a zero computed as exactly 0
    makes the matrix exactly block diagonal, and a spurious nonzero only
    merges blocks. A stack that does not split, or whose split would not
    pay (``_sector_table``), is one block per generator, its rotation as it
    is, with the table ``arange(n)[None]``. The work is one O(n^2) gather
    of the entries of every slot pair from row views of ``m``
    (``_slot_entries``) and ``_form_blocks``, which runs without ``m``.
    """
    dim = math.isqrt(m.shape[-1])
    step = _chunk_rows(dim)
    g, e = _slot_entries((start, m[:, start:start + step]) for start in range(0, dim * dim, step))
    return _form_blocks(g, e, dim, None)


# A row chunk of a generator holds at most this many entries (64 KiB of
# complex ones) of each generator of a stack, and at least one block of d
# rows. A chunk and its temporaries stay small next to the gathered entries
# of every slot pair, 1.06 n^2 of them, so a form never holds a whole n x n
# build; and below d = 16 a chunk holds several blocks, fewer Python steps
# (one chunk up to d = 8). Each broadcast product of _kron also takes
# three iteration buffers of up to 8192 entries, so at d = 16 a larger
# chunk would take the build's traced peak to 1.6 times its result.
_CHUNK_ENTRIES = 2**12


def _chunk_rows(dim: int) -> int:
    """The rows of a row chunk of a ``d^2 x d^2`` generator: whole blocks of
    ``d`` rows, as many as ``_CHUNK_ENTRIES`` holds, and at least one."""
    return dim * max(1, _CHUNK_ENTRIES // dim**3)


@functools.lru_cache(maxsize=None)
def _chunk_plan(dim: int, start: int, stop: int) -> tuple:
    """For each of the four slots of ``_basis_index``, the basis slots ``a``
    whose row lies in rows ``start .. stop - 1`` of a generator, and those
    rows less ``start``, the rows of a chunk."""
    rows = _basis_index(dim)[0][:, :, 0]
    plan = []
    for slot in rows:
        inside = np.flatnonzero((slot >= start) & (slot < stop))
        plan.append((_frozen(inside), _frozen(slot[inside] - start)))
    return tuple(plan)


def _slot_entries(chunks) -> tuple[np.ndarray, np.ndarray]:
    """The ``(4, k, c)`` entries of every slot pair of a stack of ``k``
    generators, as ``_form_blocks`` takes them, and the ``_exponents`` of
    the stack.

    ``chunks`` yields ``(start, rows)`` in turn, ``rows`` the ``(k, c,
    n)`` rows ``start .. start + c - 1`` of every generator, until they
    cover the stack: the chunks of a build (``_liouvillian_rows``) or row
    views of a matrix (``_sector_form``). Each chunk is gathered into one
    preallocated array before the next is read, so besides the result only
    a chunk and the flat index of its entries are alive; the exponents are
    those of the largest entry magnitude over the chunks.
    """
    g = top = None
    for start, rows in chunks:
        k, c, n = rows.shape
        dim = math.isqrt(n)
        if g is None:
            r, cols = dim * (dim + 1) // 2, _basis_index(dim)[1][:, 0]
            g, top = np.empty((4, k, r, r), dtype=rows.dtype), np.zeros(k)
        np.maximum(top, np.abs(rows).reshape(k, -1).max(axis=1, initial=0.0), out=top)
        flat = rows.reshape(k, -1)
        for slot, (inside, offset) in enumerate(_chunk_plan(dim, start, start + c)):
            g[slot][:, inside] = np.take(flat, offset[:, None] * n + cols[slot], axis=1)
    return g.reshape(4, k, -1), np.frexp(top)[1]


def _form(s: Superoperator) -> tuple[np.ndarray, int, np.ndarray]:
    """``_sector_form`` of the generator ``s``, with ``e`` as an int: the one
    form that the pass and the dynamics take of a Superoperator.

    The generator of a model (``liouvillian``) is formed from its ``H``
    and jumps by ``_sector_blocks``, bit for bit as from its matrix, which
    is not built; a generator with an entry beyond double precision is a
    RangeError here. Any other Superoperator is formed from its matrix.
    """
    if isinstance(s, _Generator):
        a, e, table = _sector_blocks(*s.operators)
    else:
        a, e, table = _sector_form(s.matrix[None])
    return a, int(e[0]), table


def _block_spectrum(a: np.ndarray, e: int | np.ndarray, table: np.ndarray) -> np.ndarray:
    """The eigenvalues of the map whose form is ``(a, e, table)``, unsorted, complex128.

    ``(a, e, table)`` is a form of one map (``_form``, or
    ``_operator_form`` of a stack of one), ``e`` an int or a length-1
    array. A padded row would add a zero eigenvalue, so the blocks with
    ``s`` rows that are not padding are cut to ``s x s`` and take one
    batched eigensolve, one for each such size; the eigenvalues are then
    scaled by the exact ``2^e``.
    """
    sizes = np.count_nonzero(table >= 0, axis=1)
    # a set, not np.unique, which imports numpy.ma on its first call
    spectra = [_eigenvalues(a[sizes == size, :size, :size]).ravel()
               for size in set(sizes.tolist())]
    ev = np.concatenate(spectra)
    np.ldexp(ev.view(np.float64), e, out=ev.view(np.float64))
    return ev


def _entry_plan(dim: int, pairs: np.ndarray) -> tuple:
    """How to form the generator entries of the slot pairs ``pairs``.

    A slot pair ``(a, b)``, given as ``a r + b``, has the four generator
    entries of ``_form_blocks``. Returns, for each distinct generator entry
    ``M[(i, j), (k, l)]`` among them, the flat ``d x d`` positions ``ik``,
    ``lj`` and ``jl`` and the identity entries ``I[j, l]`` and ``I[i, k]``,
    then the ``(4, c)`` index of each pair's four entries into that list.
    """
    rows, cols, _ = _basis_index(dim)
    r, n = rows.shape[1], dim * dim
    a, b = np.divmod(pairs, r)
    flat = (rows[:, a, 0] * n + cols[:, 0, b]).ravel()
    # np.unique, by sorting (it takes more code and memory on a first call)
    order = np.argsort(flat, kind="stable")
    first = np.diff(flat[order], prepend=-1) != 0
    unique = flat[order][first]
    roles = np.empty(len(flat), dtype=np.intp)
    roles[order] = np.cumsum(first) - 1
    (j, i), (l, k) = (np.divmod(x, dim) for x in np.divmod(unique, n))
    eye = np.eye(dim, dtype=complex)
    plan = (i * dim + k, l * dim + j, j * dim + l, eye[j, l], eye[i, k], roles.reshape(4, -1))
    return tuple(_frozen(x) for x in plan)


def _pattern_key(h: np.ndarray, jumps: np.ndarray, jdj: np.ndarray) -> bytes:
    """The key of ``_candidate_pairs`` for a stack: the pattern of ``H`` and
    every ``J_k`` over the stack, then that of each ``L_k``, packed."""
    ops = np.concatenate([((h != 0).any(axis=0) | (jdj != 0).any(axis=(0, 1)))[None],
                          (jumps != 0).any(axis=0)])
    return np.packbits(ops).tobytes()


@functools.lru_cache(maxsize=16)
def _candidate_pairs(dim: int, key: bytes) -> np.ndarray | None:
    """The slot pairs inside the sectors that the ``d x d`` patterns packed in ``key`` allow.

    ``key`` packs the pattern of ``H`` or of any ``L_k^dag L_k``, then that
    of each ``L_k``. ``M[(i,j),(k,l)]`` sums ``I[j,l] H[i,k]``,
    ``H[l,j] I[i,k]``, ``conj(L_k[j,l]) L_k[i,k]`` and the like terms of
    ``L_k^dag L_k``, so it is zero unless a term has two nonzero factors.
    The slot pairs with such an entry give a pattern of the real form that
    holds every nonzero, and its sectors hold those of the generators.
    Returns the pairs inside these sectors, or None when they are one or
    their split does not pay. No entry plan is formed.
    """
    n, (rows, cols, _) = dim * dim, _basis_index(dim)
    r = rows.shape[1]
    ops = np.unpackbits(np.frombuffer(key, np.uint8)).astype(bool)
    ops = ops[: len(ops) // n * n].reshape(-1, dim, dim)
    eye = np.eye(dim, dtype=bool)
    linked = np.kron(eye, ops[0]) | np.kron(ops[0].T, eye)
    for jump in ops[1:]:
        linked |= np.kron(jump, jump)
    held = linked.reshape(n * n)[rows * n + cols].any(axis=0)
    table = _table_of((held,) * 4, dim)
    if table is None:
        return None
    inside = np.zeros(r * r, dtype=bool)
    inside[_pair_of(*_block_entries(table, n)[1:], dim)] = True
    return _frozen(np.flatnonzero(inside))


@functools.lru_cache(maxsize=16)
def _candidates(dim: int, key: bytes | None) -> tuple:
    """The slot pairs to form for the ``d x d`` patterns packed in ``key``, with their entry plan.

    The pairs are those of ``_candidate_pairs``, which split, or every pair
    for ``key`` None.
    """
    r = dim * (dim + 1) // 2
    pairs = _frozen(np.arange(r * r)) if key is None else _candidate_pairs(dim, key)
    return pairs, _entry_plan(dim, pairs)


@functools.lru_cache(maxsize=16)
def _block_plan(dim: int, key: bytes | None, table: bytes, shape: tuple) -> tuple:
    """How ``_form_blocks`` gathers the blocks of a sector table from the parts of its pairs.

    ``table`` is a ``(B, b)`` table of ``_sector_table`` as bytes, with its
    ``shape``; its sectors lie inside those of the slot pairs that
    ``_form_blocks`` takes for ``key``. Returns the ``(B, b, b)`` mask of
    the block entries that are not padding, and for each of those entries,
    in order, its index into the ``4 c`` floats of the parts of the pairs,
    its row weight and its column weight.
    """
    n, r = dim * dim, dim * (dim + 1) // 2
    inside, x, y = _block_entries(np.frombuffer(table, dtype=np.intp).reshape(shape), n)
    # every pair for key None, without the entry plan of _candidates
    pairs = np.arange(r * r) if key is None else _candidates(dim, key)[0]
    column = np.empty(r * r, dtype=np.intp)
    column[pairs] = np.arange(len(pairs))
    # an anti-symmetric column takes conj(v), a symmetric one u (see
    # _place), and a row and column of unlike symmetry the imaginary part
    anti_x, anti_y = x >= r, y >= r
    index = anti_y * 2 * len(pairs) + 2 * column[_pair_of(x, y, dim)] + (anti_x != anti_y)
    weight = _basis_index(dim)[2]
    return _frozen(inside), _frozen(index), _frozen(weight[x]), _frozen(weight[y])


def _generator_entries(
    h: np.ndarray, jumps: np.ndarray, jdj: np.ndarray, plan: tuple
) -> np.ndarray:
    """The entries of ``_entry_plan`` of each generator of a stack, ``(m, E)``.

    ``h`` is ``(m, d^2)``, ``jumps`` and ``jdj`` (the ``L_k^dag L_k``)
    ``(m, K, d^2)``, all flattened row by row. Each entry is formed by the
    operations ``_liouvillians`` makes on it, in its order and with its
    operands in their order, products with identity entries included, so
    every bit is the same: numpy's complex product uses a fused
    multiply-add, which does not commute. The products in place are those
    with entries of the identity and with constants, which are exact.
    """
    ik, lj, jl, eye_jl, eye_ik, _ = plan
    with np.errstate(over="ignore", invalid="ignore"):
        m = np.multiply(eye_jl, np.take(h, ik, axis=1))
        t = np.take(h, lj, axis=1)
        m -= np.multiply(t, eye_ik, out=t)
        np.multiply(m, -1j, out=m)
        for jump, square in zip(jumps.swapaxes(0, 1), jdj.swapaxes(0, 1)):
            t = np.take(jump, jl, axis=1)
            np.conjugate(t, out=t)
            # not in place: numpy skips the fused multiply-add of a complex
            # product written in place, which the operator form ``t * x``
            # also does into a temporary ``x`` of 256 KiB or more
            m += np.multiply(t, np.take(jump, ik, axis=1))
            t = np.take(square, ik, axis=1)
            np.multiply(eye_jl, t, out=t)
            m -= np.multiply(0.5, t, out=t)
            t = np.take(square, lj, axis=1)
            np.multiply(t, eye_ik, out=t)
            m -= np.multiply(0.5, t, out=t)
    return m


def _jump_squares(jumps: np.ndarray) -> np.ndarray:
    """The ``L_k^dag L_k`` of a stack of jumps ``(m, K, d, d)``, stacked as the jumps are.

    A product beyond double precision is a RangeError, with no numpy
    warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        jdj = [jump.conj().swapaxes(-1, -2) @ jump for jump in jumps.swapaxes(0, 1)]
    jdj = np.stack(jdj, axis=1) if jdj else jumps
    if not np.isfinite(jdj).all():
        raise RangeError(_OVERFLOW)
    return jdj


def _sector_blocks(h: np.ndarray, jumps: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_sector_form(_liouvillians(h, jumps))``, bit for bit: ``_operator_form``
    of a stack with the ``L_k^dag L_k`` of its jumps.

    ``h`` is ``(m, d, d)`` and ``jumps`` ``(m, K, d, d)``, as
    ``models._stack`` returns them; a stack whose generator would hold an
    entry beyond double precision is a RangeError.
    """
    return _operator_form(h, jumps, _jump_squares(jumps))


def _pair_blocks(h: np.ndarray, jumps: np.ndarray, jdj: np.ndarray, key: bytes | None):
    """``_form_blocks`` of the entries of the maps of ``_operator_form`` on
    the slot pairs of ``_candidates(d, key)``: None where it gives None."""
    k, d = h.shape[0], h.shape[-1]
    n = d * d
    plan = _candidates(d, key)[1]
    m = _generator_entries(h.reshape(k, n), jumps.reshape(k, -1, n), jdj.reshape(k, -1, n), plan)
    # h, the jumps and jdj are finite, so an entry outside the candidates
    # is a zero
    if not np.isfinite(m).all():
        raise RangeError(_OVERFLOW)
    g = np.take(m, plan[-1][:, None] + m.shape[1] * np.arange(k)[:, None])
    return _form_blocks(g, _exponents(m), d, key)


# A stack that is one block is formed from the entries of every slot pair up
# to this dimension, and above it from the row chunks of its dense build.
# Min time of one form in us, every pair / row chunks, of unsplit random
# stacks with two jumps (one BLAS thread, numpy 2.4, 2-core VM): one point
# with the plans cached, one point and a sweep's chunk (n^2 k <= 16384)
# with the caches cleared, as in a process that forms one model:
#   d                       2          3          4          5          6          8
#   1, cached          73/101     76/106     85/117     97/131    124/162    227/283
#   1, cleared        174/177    188/190    205/200    260/227    314/251    611/367
#   chunk, cleared  1614/2148  1031/1234   995/1100   912/1050   1011/895   1150/856
# (chunks of 1024, 202, 64, 26, 12 and 4 points). Past d = 4 a first form
# takes longer by every pair, whose cached plan grows as d^4: 18 KB at d = 4,
# 0.28 MB at d = 8, 4.4 MB at d = 16 and 70 MB at d = 32.
_ENTRY_DIM = 4


def _operator_form(h: np.ndarray, jumps: np.ndarray, jdj: np.ndarray) -> tuple:
    """The sector form of the maps ``-i[H, X] + sum_k (L_k X L_k^dag - {J_k, X}/2)``.

    ``h`` is ``(m, d, d)``, ``jumps`` and ``jdj``, the ``J_k``, ``(m, K,
    d, d)``, all finite. With ``J_k = L_k^dag L_k`` the maps are the
    generators (``_sector_blocks``, ``_form``), with ``H = 0`` their
    dissipators, and with ``H = 0`` and ``J_k = 0`` the jump maps ``X ->
    sum_k L_k X L_k^dag``. It is the one function that picks a route, from
    the input alone, and every route gives the form of the dense maps
    (``_sector_form(_liouvillians(h, jumps, jdj))``) bit for bit. Where the
    ``d x d`` patterns of ``H``, ``L_k`` and ``J_k`` over the stack split
    the maps (``_candidate_pairs``) and the maps are more than one block,
    only the entries of the candidate pairs are formed
    (``_generator_entries``, by the operations of the dense build). A stack
    that is one block forms every pair so up to ``_ENTRY_DIM``; above it,
    the dense maps are built in row chunks (``_liouvillian_rows``), each
    gathered (``_slot_entries``) before the next is built, so no whole ``n x
    n`` build is alive and no plan of every pair is made. A map with an
    entry beyond double precision is a RangeError.
    """
    d = h.shape[-1]
    key = _pattern_key(h, jumps, jdj)
    if _candidate_pairs(d, key) is not None:
        form = _pair_blocks(h, jumps, jdj, key)
        if form is not None:
            return form
    if d <= _ENTRY_DIM:
        return _pair_blocks(h, jumps, jdj, None)
    g, e = _slot_entries(_liouvillian_rows(h, jumps, jdj))
    return _form_blocks(g, e, d, None)


def _hermitian_coords(rho: np.ndarray) -> np.ndarray:
    """``U^dag vec(rho)``: the coordinates of ``rho`` in the basis of ``_sector_form``.

    In basis order, ``rho[i, i]``, ``(rho[i, j] + rho[j, i])/sqrt2`` and
    ``-i (rho[i, j] - rho[j, i])/sqrt2`` (``i < j``). They are real for a
    Hermitian ``rho``; the result is complex128 either way.
    """
    i, j = np.triu_indices(rho.shape[0], 1)
    upper, lower = rho[i, j], rho[j, i]
    r = math.sqrt(0.5)
    return np.concatenate([np.diagonal(rho), r * (upper + lower), -1j * r * (upper - lower)])


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of matrices, the same products without its overhead.

    Leading axes are stacks, broadcast against each other. The products
    take the memory order of the operands, so for a transposed operand the
    reshape copies them. Row ``i`` of ``a`` alone, ``a[..., i:i + 1, :]``,
    gives rows ``i p .. i p + p - 1`` of the whole, ``p`` the rows of ``b``.
    """
    products = a[..., :, None, :, None] * b[..., None, :, None, :]
    shape = (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1])
    return products.reshape(*products.shape[:-4], *shape)


_OVERFLOW = "the generator overflows double precision; rescale the model"


def _liouvillian_rows(h: np.ndarray, jumps: np.ndarray, jdj: np.ndarray):
    """The matrices of the maps of ``_operator_form`` of a stack, in row chunks.

    ``h`` holds the points' Hamiltonians, ``(m, d, d)``, ``jumps`` their
    jump operators and ``jdj`` the ``J_k``, both ``(m, K, d, d)``. With
    ``J_k = L_k^dag L_k`` (``_jump_squares``) these are the generators, by
    the formula of ``liouvillian``, built in one pass over the stack.
    Yields ``(start, rows)`` for each chunk in turn, ``rows`` the ``(m, c,
    d^2)`` rows ``start .. start + c - 1`` of every map, ``c =
    _chunk_rows(d)`` but in a short last chunk. Each term of a chunk is the
    ``_kron`` of the chunk's rows of its left factor, so a temporary holds
    a chunk; each entry takes the operations of the whole terms, in their
    order, so every bit is that of the whole matrix. A chunk with an entry
    beyond double precision is a RangeError, with no numpy warning.
    """
    d = h.shape[-1]
    eye = np.eye(d, dtype=complex)

    def transposed(x):
        # a C-ordered copy, whose rows are the rows of the transpose;
        # products with entries of the identity are exact, so their bits do
        # not depend on the order
        return np.ascontiguousarray(x.swapaxes(-1, -2))

    def half(t):
        # 0.5 t in place, as _generator_entries takes it: the same products
        return np.multiply(0.5, t, out=t)

    ht, st, conj = transposed(h), transposed(jdj), jumps.conj()
    step = _chunk_rows(d) // d
    for i in range(0, d, step):
        # blocks i .. i + step - 1 of d rows, from those rows of the factors
        block = slice(i, i + step)
        with np.errstate(over="ignore", invalid="ignore"):
            rows = _kron(eye[block], h)
            rows -= _kron(ht[..., block, :], eye)
            rows *= -1j
            for k in range(jumps.shape[1]):
                rows += _kron(conj[:, k, block], jumps[:, k])
                rows -= half(_kron(eye[block], jdj[:, k]))
                rows -= half(_kron(st[:, k, block], eye))
        if not np.isfinite(rows).all():
            raise RangeError(_OVERFLOW)
        yield i * d, rows


def _liouvillians(h: np.ndarray, jumps: np.ndarray, jdj: np.ndarray) -> np.ndarray:
    """The matrices of the maps of ``_operator_form`` of a stack, ``(m, d^2, d^2)``,
    filled from the row chunks of ``_liouvillian_rows``; a map with an entry
    beyond double precision is a RangeError, with no numpy warning."""
    n = h.shape[-1] ** 2
    m = np.empty((len(h), n, n), dtype=complex)
    for start, rows in _liouvillian_rows(h, jumps, jdj):
        m[:, start:start + rows.shape[1]] = rows
    return m


def liouvillian(model: LindbladModel) -> Superoperator:
    """The generator rho -> -i[H, rho] + sum_k (L_k rho L_k^dag - {L_k^dag L_k, rho}/2).

    Under column stacking its matrix is
        -i (kron(I, H) - kron(H.T, I))
        + sum_k [ kron(conj(L_k), L_k)
                  - kron(I, L_k^dag L_k)/2 - kron((L_k^dag L_k).T, I)/2 ].

    The Superoperator it returns, a private subclass, keeps the model's
    ``H`` and jumps, as a stack of one, and builds that matrix,
    ``_liouvillians`` of them, on the first read of its ``matrix``. The
    analysis pass and the dynamics form the generator from the operators
    instead (``_form``). A generator with an entry beyond double precision
    is a RangeError from the first read of its matrix or the first call
    that forms it.

    Its spectral abscissa is exactly 0 for every generator of this form
    (Lindblad 1976): the trace is preserved, so 0 is an eigenvalue, and
    the semigroup is a contraction in the trace norm, so no eigenvalue has
    a positive real part. ``dynamics.spectral_abscissa`` returns that 0
    for every generator that ``liouvillian`` returns.
    """
    return _Generator(model)


def adjoint(s: Superoperator) -> Superoperator:
    """Hilbert-Schmidt adjoint; equals the conjugate transpose of the matrix."""
    return Superoperator(s.dim, dagger(s.matrix))


def decompose(s: Superoperator) -> tuple[Superoperator, Superoperator]:
    """Split into the Hermitian part (S + S^dag)/2 and anti-Hermitian part (S - S^dag)/2.

    The first drives Hilbert-Schmidt norm change, the second generates
    norm-preserving rotations in operator space; they sum back to S.
    """
    m = s.matrix
    md = dagger(m)
    return (
        Superoperator(s.dim, (m + md) / 2),
        Superoperator(s.dim, (m - md) / 2),
    )


def apply(s: Superoperator, rho) -> np.ndarray:
    """Apply the superoperator to a d x d operator.

    The product is taken on the matrix and ``rho`` prescaled by exact powers
    of two (``linalg._prescaled``), so no product or sum over- or
    underflows; an entry beyond double precision is a RangeError.
    """
    rho = _numbers(rho)
    if rho.shape != (s.dim, s.dim):
        raise DimensionError(f"expected a {s.dim} x {s.dim} operator, got shape {rho.shape}")
    (m, fm), (v, fv) = _prescaled(s.matrix), _prescaled(vectorize(rho))
    return devectorize(_scaled_back(m @ v, fm + fv), s.dim)
