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

The generator build takes stacks: ``_liouvillians`` builds the dense
generators of many points of one shape in one pass, from their stacked
Hamiltonians, jump operators and ``L_k^dag L_k``. A ``Superoperator`` is
stored as its dense ``d^2 x d^2`` matrix, except the generator of a model:
``liouvillian`` keeps the model's ``H`` and jumps, as a stack of one, and
its ``matrix`` is built by ``_liouvillians`` on the first read, then kept.
The analysis pass and the dynamics form it without reading its matrix
(``_form``); only ``dynamics.propagator`` reads it.

Every kernel runs on one layout (``_sector_form``): the real form
``2^-e U^dag M U`` of each generator of a stack, split into the exact
symmetry sectors of the stack where that pays, as blocks with their table
of sectors; a generator that does not split is one block, so every kernel
takes one form. It has two inputs. ``_sector_form`` gathers from dense
``n x n`` generators the four entries that the real form combines for
every pair of basis slots. ``_operator_blocks`` builds no ``n x n``
matrix: it forms those entries from the ``d x d`` entries of ``H``,
``L_k`` and ``L_k^dag L_k`` of a stack, for only the slot pairs inside the
sectors that their patterns allow. It serves sweeps (``_sector_blocks``,
a chunk of points). ``_operator_form`` forms one model's maps by the route
that suits them: from those entries where the patterns split the maps,
and otherwise from their dense matrices, built, formed and dropped.
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
set lazily, on first use: the matrix of a model's generator and the
metrics of the analysis pass (``metrics.compute_metrics``). Threads that
race to set one each compute it, from the same frozen inputs to the same
bits, and any one of them may be kept; a reader sees either no value or a
whole one.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, ModelError, RangeError
from .linalg import (_eigenvalues, as_complex_matrix, dagger, hermiticity_defect,
                     hermiticity_tolerance)

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


def _frozen(m: np.ndarray) -> np.ndarray:
    m.setflags(write=False)
    return m


@dataclass(frozen=True, eq=False)
class LindbladModel:
    """Hamiltonian plus weighted jump operators, hbar = 1.

    Rates are absorbed into the jump operators (store sqrt(rate) * op), so
    there is no separate rate array that could fall out of sync.
    """

    dim: int
    hamiltonian: np.ndarray
    jumps: tuple[np.ndarray, ...] = ()
    label: str = ""

    def __post_init__(self):
        if self.dim < 1:
            raise ModelError(f"dimension must be positive, got {self.dim}")
        cap = dim_cap()
        if self.dim > cap:
            raise ModelError(
                f"dimension {self.dim} exceeds the cap {cap} "
                "(set LINDSCOPE_DIM_CAP to raise it at your own risk)"
            )
        h = as_complex_matrix(self.hamiltonian, self.dim, self.dim)
        _make_hermitian(h)
        jumps = tuple(as_complex_matrix(j, self.dim, self.dim) for j in self.jumps)
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
    ``matrix``. The generator that ``liouvillian`` makes of a model stores
    the model's ``H`` and jumps instead, and builds ``matrix`` on its first
    read, then keeps it, frozen; an entry beyond double precision makes
    that read a RangeError. The analysis pass and the dynamics form such a
    generator from its operators (``_form``), so they never build it. It
    also keeps its spectral abscissa, which is exactly 0 (``liouvillian``).
    """

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        if self.dim < 1:
            raise ModelError(f"dimension must be positive, got {self.dim}")
        m = as_complex_matrix(self.matrix, self.dim**2, self.dim**2)
        object.__setattr__(self, "matrix", _frozen(m))

    def __repr__(self) -> str:
        # the dataclass repr would read, and so build, a model's matrix
        matrix = self.__dict__.get("matrix")
        shown = "<built on first read>" if matrix is None else repr(matrix)
        return f"{type(self).__qualname__}(dim={self.dim!r}, matrix={shown})"

    def __getattr__(self, name: str):
        # called only for an attribute that is not set, as the matrix of a
        # model's generator is until its first read
        operators = self.__dict__.get("_operators")
        if name != "matrix" or operators is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        h, jumps = operators
        m = _frozen(_liouvillians(h, jumps, _jump_squares(jumps)))[0]
        object.__setattr__(self, "matrix", m)
        return m


def vectorize(a) -> np.ndarray:
    """Column-stack a square matrix into a vector: vec(A)[i + d*j] = A[i, j]."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    return a.flatten(order="F")


def devectorize(v, dim: int) -> np.ndarray:
    """Inverse of vectorize: reshape a length-d^2 vector back into a d x d matrix."""
    v = np.asarray(v, dtype=complex)
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


def _form_blocks(g: np.ndarray, m: np.ndarray, dim: int, key: bytes | None) -> tuple | None:
    """``_sector_form`` of a stack of generators, from the entries of its slot pairs.

    A slot is an entry of ``_basis_index``: ``a < dim`` the diagonal
    element ``E_aa``, a later one a pair ``i < j``. ``g`` is ``(4, k, c)``:
    for each of the ``c`` slot pairs ``(a, b)`` of ``_candidates(dim,
    key)``, every pair in order for ``key`` None, the entries
    ``M[p_a, p_b]``, ``M[q_a, q_b]``, ``M[p_a, q_b]`` and ``M[q_a, p_b]``
    of each of the ``k`` generators, four blocks that each sum below runs
    over whole. The pairs hold every nonzero entry, and ``g`` is
    overwritten. ``m`` holds the entries that ``g`` was gathered from, each
    once, ``(k, ...)``: the largest magnitude among them sets the power of
    two of each generator. Returns None when the stack is one block but the
    pairs are not all of them. The nonzero pattern of the stack decides
    its sectors (``_table_of``); a stack whose first basis element is
    coupled to every other is one sector, which row 0 of the pattern tells
    before any sector is traced, and a split stack gathers its blocks by
    ``_block_plan``.
    """
    k, c = g.shape[1:]
    n, r = dim * dim, dim * (dim + 1) // 2
    e = np.frexp(np.abs(m).reshape(k, -1).max(axis=1, initial=0.0))[1]
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
    of the entries of every slot pair and ``_form_blocks``, in temporaries
    that together hold about twice the entries of ``m``.
    """
    k, n = m.shape[0], m.shape[-1]
    dim = math.isqrt(n)
    rows, cols, _ = _basis_index(dim)
    # one gather from the flattened matrices, slot first; the flat index,
    # half as large as the result, is not kept between calls
    start = n * n * np.arange(k)[:, None, None]
    g = np.take(m, (rows[:, None] * n + start + cols[:, None]).reshape(4, k, -1))
    return _form_blocks(g, m, dim, None)


def _form(s: Superoperator) -> tuple[np.ndarray, int, np.ndarray]:
    """``_sector_form`` of the generator ``s``, with ``e`` as an int: the one
    form that the pass and the dynamics take of a Superoperator.

    The generator of a model (``liouvillian``) is formed from its ``H``
    and jumps by ``_operator_form``, bit for bit as from its matrix, which
    is not built; a generator with an entry beyond double precision is a
    RangeError here. Any other Superoperator is formed from its matrix.
    """
    operators = s.__dict__.get("_operators")
    if operators is None:
        a, e, table = _sector_form(s.matrix[None])
    else:
        h, jumps = operators
        a, e, table = _operator_form(h, jumps, _jump_squares(jumps))
    return a, int(e[0]), table


def _block_spectrum(a: np.ndarray, e: int | np.ndarray, table: np.ndarray) -> np.ndarray:
    """The eigenvalues of the map whose form is ``(a, e, table)``, unsorted, complex128.

    ``(a, e, table)`` is a form of one map (``_form``, or
    ``_operator_blocks`` of a stack of one), ``e`` an int or a length-1
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

    The pairs are those of ``_candidate_pairs``, or every pair when it
    gives None or for ``key`` None, and then the result is that of ``key``
    None.
    """
    pairs = None if key is None else _candidate_pairs(dim, key)
    if pairs is None:
        if key is not None:
            # every pair: the keys that take them all share one plan, of
            # about 76 MB at d = 32
            return _candidates(dim, None)
        pairs = _frozen(np.arange((dim * (dim + 1) // 2) ** 2))
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
            # product written in place over a single entry
            m += t * np.take(jump, ik, axis=1)
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
    """``_sector_form(_liouvillians(h, jumps))``, bit for bit, without the ``n x n`` generators.

    ``h`` is ``(m, d, d)`` and ``jumps`` ``(m, K, d, d)``, as
    ``models._stack`` returns them. It is ``_operator_blocks`` with the
    ``L_k^dag L_k`` of the jumps; a stack whose generator would hold an
    entry beyond double precision is a RangeError.
    """
    return _operator_blocks(h, jumps, _jump_squares(jumps))


def _operator_blocks(h: np.ndarray, jumps: np.ndarray, jdj: np.ndarray) -> tuple:
    """The sector form of the maps ``-i[H, X] + sum_k (L_k X L_k^dag - {J_k, X}/2)``.

    ``h`` is ``(m, d, d)``, ``jumps`` and ``jdj``, the ``J_k``, ``(m, K,
    d, d)``, all finite. With ``J_k = L_k^dag L_k`` the maps are the
    generators (``_sector_blocks``), with ``H = 0`` their dissipators, and
    with ``H = 0`` and ``J_k = 0`` the jump maps ``X -> sum_k L_k X
    L_k^dag``. Each entry is formed by the operations that
    ``_liouvillians`` makes on it, so the generators' form is that of the
    dense generators, bit for bit. The ``d x d``
    patterns of ``H``, ``L_k`` and ``J_k`` over the stack give sectors that
    hold those of the maps (``_candidates``); only the entries of their
    slot pairs are formed, and ``_form_blocks`` takes them. A stack whose
    candidates split while its maps are one block forms every pair. A map
    with an entry beyond double precision is a RangeError.
    """
    key = _pattern_key(h, jumps, jdj)
    form = _pair_blocks(h, jumps, jdj, key)
    return form if form is not None else _pair_blocks(h, jumps, jdj, None)


def _pair_blocks(h: np.ndarray, jumps: np.ndarray, jdj: np.ndarray, key: bytes | None):
    """``_form_blocks`` of the entries of the maps of ``_operator_blocks`` on
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
    return _form_blocks(g, m, d, key)


def _operator_form(h: np.ndarray, jumps: np.ndarray, jdj: np.ndarray) -> tuple:
    """``_operator_blocks`` of a stack, bit for bit, by the route that suits it.

    Where the ``d x d`` patterns split the maps (``_candidate_pairs``) and
    the maps are more than one block, it is ``_operator_blocks``, which
    forms the entries of the candidate pairs alone. Otherwise the dense
    maps are built (``_liouvillians``), formed by ``_sector_form`` and
    dropped: where nothing splits, that is faster at d = 32 than forming
    every pair, and it needs no entry plan of every pair (``_candidates(d,
    None)``, about 76 MB at d = 32). Sweeps, whose stacks at d = 2 form
    every pair faster than a dense build, take ``_operator_blocks`` itself.
    """
    key = _pattern_key(h, jumps, jdj)
    if _candidate_pairs(h.shape[-1], key) is not None:
        form = _pair_blocks(h, jumps, jdj, key)
        if form is not None:
            return form
    return _sector_form(_liouvillians(h, jumps, jdj))


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
    """``np.kron`` of square matrices, the same products without its overhead.

    Leading axes are stacks, broadcast against each other. The products
    take the memory order of the operands, so for a transposed operand the
    reshape copies them.
    """
    d, k = a.shape[-1], b.shape[-1]
    products = a[..., :, None, :, None] * b[..., None, :, None, :]
    return products.reshape(*products.shape[:-4], d * k, d * k)


_OVERFLOW = "the generator overflows double precision; rescale the model"


def _liouvillians(h: np.ndarray, jumps: np.ndarray, jdj: np.ndarray) -> np.ndarray:
    """The matrices of the maps of ``_operator_blocks`` of a stack, ``(m, d^2, d^2)``.

    ``h`` holds the points' Hamiltonians, ``(m, d, d)``, ``jumps`` their
    jump operators and ``jdj`` the ``J_k``, both ``(m, K, d, d)``. With
    ``J_k = L_k^dag L_k`` (``_jump_squares``) these are the generators, by
    the formula of ``liouvillian``, built in one pass over the stack. Each
    term takes one ``n x n`` temporary besides the result. A map with an
    entry beyond double precision is a RangeError, with no numpy warning.
    """
    d = h.shape[-1]
    eye = np.eye(d, dtype=complex)

    def transposed(x):
        # a C-ordered copy: the products of a transposed view would take its
        # order, and _kron's reshape would copy them; products with entries
        # of the identity are exact, so their bits do not depend on the order
        return np.ascontiguousarray(x.swapaxes(-1, -2))

    with np.errstate(over="ignore", invalid="ignore"):
        m = _kron(eye, h)
        m -= _kron(transposed(h), eye)
        m *= -1j
        for jump, square in zip(jumps.swapaxes(0, 1), jdj.swapaxes(0, 1)):
            m += _kron(jump.conj(), jump)
            # 0.5 t in place, as _generator_entries takes it: the same
            # products, and each temporary is released before the next
            t = _kron(eye, square)
            m -= np.multiply(0.5, t, out=t)
            del t
            t = _kron(transposed(square), eye)
            m -= np.multiply(0.5, t, out=t)
            del t
    if not np.isfinite(m).all():
        raise RangeError(_OVERFLOW)
    return m


def liouvillian(model: LindbladModel) -> Superoperator:
    """The generator rho -> -i[H, rho] + sum_k (L_k rho L_k^dag - {L_k^dag L_k, rho}/2).

    Under column stacking its matrix is
        -i (kron(I, H) - kron(H.T, I))
        + sum_k [ kron(conj(L_k), L_k)
                  - kron(I, L_k^dag L_k)/2 - kron((L_k^dag L_k).T, I)/2 ].

    The Superoperator keeps the model's ``H`` and jumps, as a stack of
    one, and builds that matrix, ``_liouvillians`` of them, on the first
    read of its ``matrix``. The analysis pass and the dynamics form the
    generator from the operators instead (``_form``). A generator with an
    entry beyond double precision is a RangeError from the first read of
    its matrix or the first call that forms it.

    It also keeps its spectral abscissa, ``_abscissa``, which is exactly 0
    for every generator of this form (Lindblad 1976): the trace is
    preserved, so 0 is an eigenvalue, and the semigroup is a contraction
    in the trace norm, so no eigenvalue has a positive real part.
    """
    d = model.dim
    s = object.__new__(Superoperator)
    object.__setattr__(s, "dim", d)
    jumps = np.array(model.jumps).reshape(1, len(model.jumps), d, d)
    object.__setattr__(s, "_operators", (model.hamiltonian[None], _frozen(jumps)))
    object.__setattr__(s, "_abscissa", 0.0)
    return s


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
    """Apply the superoperator to a d x d operator."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (s.dim, s.dim):
        raise DimensionError(f"expected a {s.dim} x {s.dim} operator, got shape {rho.shape}")
    return devectorize(s.matrix @ vectorize(rho), s.dim)
