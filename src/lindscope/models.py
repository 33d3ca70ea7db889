"""Builders for the concrete systems the toolkit ships with.

Conventions fixed here, once:

* Pauli basis ordering x, y, z with sigma_z = diag(1, -1).
* The lowering operator is (sigma_x - i*sigma_y)/2, the matrix with a
  single unit entry at row 1, column 0; it maps the +1 eigenvector of
  sigma_z to the -1 eigenvector.
* Rates enter jump operators as sqrt(rate) * op. A rate of exactly 0 is
  allowed and degenerates the model continuously (e.g. driven dephasing
  with zero dephasing rate is Hamiltonian-only).
* Tensor products put site 0 leftmost; the atom comes before the field
  mode in the two-level-plus-oscillator model.

Every named kind is one stacked builder, ``_stack``: it takes the
parameters of many points, each a scalar or a vector over the points, and
returns their Hamiltonians and jumps as ``(m, d, d)`` and ``(m, K, d, d)``
stacks. Each kind is affine in its parameters, or in ``sqrt(rate)``, times
fixed matrices; only ``n_max`` and ``k`` fix the shape. ``build`` and the
public builders are its stack of one plus a label, and sweeps feed its
stacks straight into ``superop._sector_blocks``, which forms them by the
rule that forms a model's generator. A stack is built whole or
not at all: a point that fails a check raises, for the whole stack, the
error it raises alone, and a sweep then goes on in stacks of one point to
name the first that fails.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, ModelError, NumericalError
from .linalg import as_complex_matrix
from .superop import LindbladModel, _frozen, _make_hermitian, dim_cap

__all__ = [
    "ModelSpec",
    "MODEL_KINDS",
    "pauli",
    "lowering",
    "tensor_site",
    "dephasing",
    "driven_dephasing",
    "relaxation",
    "dephasing_relaxation",
    "pauli_channel",
    "multi_qubit_dephasing",
    "hamiltonian_only",
    "jaynes_cummings",
    "build",
]

_PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}
_LOWERING = (_PAULI["x"] - 1j * _PAULI["y"]) / 2


def pauli(axis: str) -> np.ndarray:
    """The 2x2 Pauli matrix for axis 'x', 'y' or 'z'."""
    try:
        return _PAULI[axis].copy()
    except KeyError:
        raise ConfigError(f"unknown Pauli axis {axis!r}; expected 'x', 'y' or 'z'") from None


def lowering() -> np.ndarray:
    """(sigma_x - i*sigma_y)/2; nilpotent, with dagger(lowering()) raising."""
    return _LOWERING.copy()


def tensor_site(op, site: int, num_sites: int) -> np.ndarray:
    """Embed a single-qubit operator at one site of a qubit register.

    Site 0 is the leftmost tensor factor. ``site`` and ``num_sites`` are
    Python or numpy ints; anything else is a ConfigError that names it.
    """
    op = as_complex_matrix(op, 2, 2)
    for name, value in (("site", site), ("num_sites", num_sites)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
    if not 0 <= site < num_sites:
        raise ConfigError(f"site {site} outside 0..{num_sites - 1}")
    cap = dim_cap()
    if num_sites >= cap.bit_length():  # 2**num_sites > cap, without forming 2**num_sites
        raise _cap_error("num_sites makes the dimension 2**num_sites exceed", cap)
    out = np.eye(1, dtype=complex)
    eye2 = np.eye(2, dtype=complex)
    for k in range(num_sites):
        out = np.kron(out, op if k == site else eye2)
    return out


def _cap_error(subject: str, cap: int) -> ModelError:
    """The error of a dimension over the cap; ``subject`` says what exceeds it."""
    return ModelError(
        f"{subject} the cap {cap} (set LINDSCOPE_DIM_CAP to raise it at your own risk)"
    )


@functools.lru_cache(maxsize=8)
def _sites(num: int) -> np.ndarray:
    """sigma_z at each site of a ``num``-qubit register, stacked ``(num, 2^num, 2^num)``."""
    return _frozen(np.stack([tensor_site(_PAULI["z"], k, num) for k in range(num)]))


@functools.lru_cache(maxsize=32)
def _jaynes_cummings_terms(n_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fixed matrices that multiply omega_c, omega_a/2 and g."""
    nf = n_max + 1
    destroy = np.zeros((nf, nf), dtype=complex)
    for n in range(1, nf):
        destroy[n - 1, n] = np.sqrt(n)
    create = destroy.conj().T
    low = _LOWERING
    return (
        _frozen(np.kron(np.eye(2, dtype=complex), create @ destroy)),
        _frozen(np.kron(_PAULI["z"], np.eye(nf, dtype=complex))),
        _frozen(np.kron(low, create) + np.kron(low.conj().T, destroy)),
    )


@dataclass(frozen=True)
class ModelSpec:
    """A named model kind plus its scalar parameters."""

    kind: str
    params: Mapping[str, float] = field(default_factory=dict)


MODEL_KINDS = (
    "dephasing",
    "driven_dephasing",
    "relaxation",
    "dephasing_relaxation",
    "pauli_channel",
    "multi_qubit_dephasing",
    "hamiltonian_only",
    "jaynes_cummings",
)


def _qubit(names, axis, *channels):
    ops = np.array([op for _, op in channels], dtype=complex).reshape(len(channels), 2, 2)
    return names, axis, tuple(rate for rate, _ in channels), _frozen(ops)


# The single-qubit kinds: parameters in reading order with their defaults,
# the Pauli axis of H = (omega/2) sigma (None for H = 0), and the jumps
# sqrt(rate) * op.
_QUBIT_KINDS = {
    "dephasing": _qubit((("gamma_z", 1.0),), None, ("gamma_z", _PAULI["z"])),
    "driven_dephasing": _qubit(
        (("gamma_z", 1.0), ("omega", 0.1)), "x", ("gamma_z", _PAULI["z"])
    ),
    "relaxation": _qubit((("gamma_minus", 1.0),), None, ("gamma_minus", _LOWERING)),
    "dephasing_relaxation": _qubit(
        (("gamma_z", 1.0), ("gamma_minus", 1.0)),
        None,
        ("gamma_z", _PAULI["z"]),
        ("gamma_minus", _LOWERING),
    ),
    "pauli_channel": _qubit(
        (("gamma_x", 1.0), ("gamma_y", 1.0), ("gamma_z", 1.0)),
        None,
        *((f"gamma_{a}", _PAULI[a]) for a in "xyz"),
    ),
    # Scalar parameters cannot carry an arbitrary matrix; the named form
    # builds H = (omega/2) * sigma_z. Arbitrary Hermitian H goes through
    # hamiltonian_only() directly or an explicit-matrix model file.
    "hamiltonian_only": _qubit((("omega", 1.0),), "z"),
}


def _shown(value) -> str:
    """``repr(value)``, or an integer of more than 20 digits by its order of magnitude.

    Python prints no integer of more than 4300 digits, and a parameter can
    be any integer.
    """
    if isinstance(value, int) and abs(value) >= 10**20:
        exponent, digits = divmod(math.log10(abs(value)), 1.0)
        mantissa = f"{10**digits:.1f}"
        if mantissa == "10.0":  # rounded up to the next power of ten
            mantissa, exponent = "1.0", exponent + 1
        sign = "-" if value < 0 else ""
        return f"an integer of about {sign}{mantissa}e{exponent:.0f}"
    return repr(value)


class _Params:
    """Pop-and-validate view over a spec's parameters, for a stack of points.

    A parameter is a scalar, the same at every point, or a 1-D array with
    one value per point. The checks run in the order a single build makes
    them, each on every point of the stack, and one that fails raises the
    error of its first failing point. The stack is its first ``count``
    points: all of them, or those before a shape parameter changes value.
    A scalar is checked on its own value, as one copy where the stack has
    no points, so a stack of no points raises exactly the errors that do
    not depend on the points.
    """

    def __init__(self, spec: ModelSpec):
        self.kind = spec.kind
        self.left = dict(spec.params)
        self.size = max(
            (len(v) for v in self.left.values() if isinstance(v, np.ndarray)), default=1
        )
        self.count = self.size
        self.read: list[tuple[str, np.ndarray | int]] = []

    def check(self, bad: np.ndarray, error) -> None:
        """Raise ``error(i)`` for the first point ``i`` of the stack where ``bad`` holds."""
        bad = bad[: self.count or 1]
        if bad.any():
            raise error(int(bad.argmax()))

    def _pop(self, name: str, default):
        if name in self.left:
            return self.left.pop(name)
        if default is None:
            raise ConfigError(f"{self.kind}: missing parameter {name!r}")
        return default

    def numbers(self, names) -> dict[str, np.ndarray]:
        """The values of real parameters, a vector each, by name, for ``(name, default)`` pairs."""
        out = {}
        for name, default in names:
            value = self._pop(name, default)
            if isinstance(value, np.ndarray):
                self.check(~np.isfinite(value), lambda i: self._not_finite(name, float(value[i])))
                vector = np.asarray(value, dtype=float)
            elif isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"{self.kind}: parameter {name!r} must be a number")
            # json.loads takes NaN, Infinity and integers of any size
            elif not abs(value) <= sys.float_info.max:
                raise self._not_finite(name, value)
            else:
                vector = np.full(self.size or 1, float(value))
            self.read.append((name, vector))
            out[name] = vector
        return out

    def _not_finite(self, name: str, value) -> ConfigError:
        return ConfigError(
            f"{self.kind}: parameter {name!r} must be a finite double, got {_shown(value)}"
        )

    def integer(self, name: str, default: int | None = None) -> int | None:
        """A parameter that fixes the shape; the stack is cut where its value changes.

        None where it is swept over a stack of no points, which has no shape.
        """
        value = self._pop(name, default)
        error = ConfigError(f"{self.kind}: parameter {name!r} must be an integer")
        if isinstance(value, np.ndarray):
            if not len(value):
                return None
            self.check(~(np.isfinite(value) & (np.floor(value) == value)), lambda i: error)
            changed = value[: self.count] != value[0]
            if changed.any():
                self.count = int(changed.argmax())
            value = value[0]
        elif isinstance(value, bool) or not isinstance(value, (int, float)):
            raise error
        elif isinstance(value, float) and not value.is_integer():
            raise error
        value = int(value)
        self.read.append((name, value))
        return value

    def rates(self, *names: str) -> np.ndarray:
        """The parameters read under ``names``, checked nonnegative, as ``(m, K)``."""
        values = dict(self.read)
        for name in names:
            rate = values[name]
            self.check(rate < 0, lambda i: ConfigError(
                f"{name} must be nonnegative, got {float(rate[i])}"
            ))
        if not names:
            return np.zeros((self.size, 0))
        # a stack of no points drops the one copy of each scalar
        return np.stack([values[name][: self.size] for name in names], axis=-1)

    def done(self) -> None:
        if self.left:
            extras = ", ".join(sorted(self.left))
            raise ConfigError(f"{self.kind}: unknown parameter(s): {extras}")


_NOT_FINITE = "matrix contains NaN or Inf entries"


def _stack(spec: ModelSpec, max_entries: int | None = None) -> tuple:
    """The points of a named kind, built together.

    Returns ``(h, jumps, params)``: the points' Hamiltonians ``(m, d, d)``
    and jumps ``(m, K, d, d)``, and the parameters read, in order, as
    ``(name, value)`` (a vector each, an int for a shape).

    Every parameter of ``spec`` is a scalar or a vector over the points.
    The stack holds the leading points that share the first point's shape
    and, with ``max_entries``, at most ``max(1, max_entries // d^2)`` of
    them, so that a stack of ``d x d`` matrices holds about that many
    entries. The checks (finite parameters, nonnegative rates, the
    dimension cap, finite matrices and an exactly Hermitian H) run once per
    stack, each on all its points. A point that fails one fails the whole
    stack: it raises the error that point raises alone, and builds nothing.
    A stack of no points raises the errors that no point's value causes,
    and returns None where it sweeps a shape parameter, on which the rest
    of the checks depend.
    """
    p = _Params(spec)
    kind = spec.kind
    drive: list[tuple[np.ndarray, np.ndarray]] = []  # H = sum of vector * matrix
    if kind in _QUBIT_KINDS:
        names, axis, channels, ops = _QUBIT_KINDS[kind]
        values = p.numbers(names)
        rates = p.rates(*channels)
        cap = dim_cap()
        if cap < 2:
            raise _cap_error("dimension 2 exceeds", cap)
        if axis is not None:
            drive.append((0.5 * values["omega"], _PAULI[axis]))
    elif kind == "multi_qubit_dephasing":
        num = p.integer("k")
        if num is None:  # the rest depends on k
            return None
        if num < 1:
            raise ConfigError(f"multi_qubit_dephasing: k must be at least 1, got {_shown(num)}")
        rates = p.rates(*p.numbers((f"gamma_{j + 1}", None) for j in range(num)))
        cap = dim_cap()
        if num >= cap.bit_length():  # 2**num > cap, without forming 2**num
            raise _cap_error("multi_qubit_dephasing: k makes the dimension 2**k exceed", cap)
        ops = _sites(num)
    elif kind == "jaynes_cummings":
        values = p.numbers((("omega_a", 1.0), ("omega_c", 1.0), ("g", 0.1)))
        n_max = p.integer("n_max", 3)
        if n_max is None:  # the rest depends on n_max
            return None
        if n_max < 1:
            raise ConfigError(f"n_max must be at least 1, got {_shown(n_max)}")
        rates = p.rates()
        cap = dim_cap()
        # n_max can be any integer a model file holds: name it, not the dimension
        if 2 * (n_max + 1) > cap:
            raise _cap_error(
                "jaynes_cummings: n_max makes the dimension 2 (n_max + 1) exceed", cap
            )
        number, atom, hop = _jaynes_cummings_terms(n_max)
        drive = [
            (values["omega_c"], number), (0.5 * values["omega_a"], atom), (values["g"], hop)
        ]
        ops = np.zeros((0, *number.shape), dtype=complex)
    else:
        known = ", ".join(MODEL_KINDS)
        raise ConfigError(f"unknown model kind {kind!r}; known kinds: {known}")
    dim = ops.shape[-1]
    if max_entries is not None:
        p.count = min(p.count, max(1, max_entries // dim**2))
    m = p.count
    with np.errstate(over="ignore", invalid="ignore"):
        if drive:
            # summed in the order of a single build, so that every bit, the
            # sign of a zero included, is the same
            coefficient, matrix = drive[0]
            h = coefficient[:m, None, None] * matrix
            for coefficient, matrix in drive[1:]:
                h += coefficient[:m, None, None] * matrix
        else:
            h = np.zeros((m, dim, dim), dtype=complex)
        jumps = np.sqrt(rates[:m])[:, :, None, None] * ops
    p.check(~np.isfinite(h).all(axis=(-2, -1)), lambda i: NumericalError(_NOT_FINITE))
    exact = (h == h.conj().swapaxes(-1, -2)).all(axis=(-2, -1))
    for i in np.flatnonzero(~exact):
        _make_hermitian(h[i])
    p.check(~np.isfinite(jumps).all(axis=(-3, -2, -1)), lambda i: NumericalError(_NOT_FINITE))
    p.done()
    return h, jumps, p.read


def build(spec: ModelSpec) -> LindbladModel:
    """Build the model a spec names; unknown kinds or parameters are rejected."""
    h, jumps, params = _stack(spec)
    if spec.kind == "multi_qubit_dephasing":
        label = f"multi_qubit_dephasing(K={params[0][1]})"
    else:
        label = ", ".join(
            f"{name}={v}" if isinstance(v, int) else f"{name}={float(v[0]):g}"
            for name, v in params
        )
        label = f"{spec.kind}({label})"
    return LindbladModel(dim=h.shape[-1], hamiltonian=h[0], jumps=tuple(jumps[0]), label=label)


def _number(value):
    """A builder argument as a parameter, for ``build`` to check as it checks
    a model file's: a numpy float as a float, any other numpy scalar or
    array as its ``tolist()`` (an integer an int, an array of more than 0
    dimensions a list), anything else as it is."""
    if isinstance(value, np.floating):
        return float(value)
    return value.tolist() if isinstance(value, (np.generic, np.ndarray)) else value


def _named(kind: str, **params) -> LindbladModel:
    return build(ModelSpec(kind, {name: _number(value) for name, value in params.items()}))


def dephasing(gamma_z: float = 1.0) -> LindbladModel:
    """Single qubit, jump sqrt(gamma_z) * sigma_z, no Hamiltonian."""
    return _named("dephasing", gamma_z=gamma_z)


def driven_dephasing(gamma_z: float = 1.0, omega: float = 0.1) -> LindbladModel:
    """Dephasing plus a transverse drive H = (omega/2) * sigma_x."""
    return _named("driven_dephasing", gamma_z=gamma_z, omega=omega)


def relaxation(gamma_minus: float = 1.0) -> LindbladModel:
    """Single qubit, jump sqrt(gamma_minus) * lowering operator."""
    return _named("relaxation", gamma_minus=gamma_minus)


def dephasing_relaxation(gamma_z: float = 1.0, gamma_minus: float = 1.0) -> LindbladModel:
    """Competing dephasing and relaxation channels on one qubit."""
    return _named("dephasing_relaxation", gamma_z=gamma_z, gamma_minus=gamma_minus)


def pauli_channel(
    gamma_x: float = 1.0, gamma_y: float = 1.0, gamma_z: float = 1.0
) -> LindbladModel:
    """Jumps sqrt(gamma_a) * sigma_a for each Pauli axis."""
    return _named("pauli_channel", gamma_x=gamma_x, gamma_y=gamma_y, gamma_z=gamma_z)


def multi_qubit_dephasing(gammas: Sequence[float]) -> LindbladModel:
    """Independent sigma_z dephasing on each qubit of a register.

    One jump sqrt(gamma_k) * sigma_z at site k; the register dimension is
    2**len(gammas).
    """
    rates = {f"gamma_{k + 1}": _number(g) for k, g in enumerate(gammas)}
    return build(ModelSpec("multi_qubit_dephasing", {"k": len(rates), **rates}))


def hamiltonian_only(hamiltonian, label: str = "hamiltonian_only") -> LindbladModel:
    """Closed evolution under an arbitrary Hermitian matrix, no jumps."""
    h = as_complex_matrix(hamiltonian)
    return LindbladModel(dim=h.shape[0], hamiltonian=h, jumps=(), label=label)


def jaynes_cummings(
    omega_a: float = 1.0, omega_c: float = 1.0, g: float = 0.1, n_max: int = 3
) -> LindbladModel:
    """Two-level atom coupled to one field mode, rotating-wave form.

    H = omega_c * n_field + (omega_a/2) * sigma_z + g * (lower x create + raise x destroy),
    on atom (x) field with the field truncated at Fock level n_max.
    """
    spec = {"omega_a": _number(omega_a), "omega_c": _number(omega_c), "g": _number(g)}
    return build(ModelSpec("jaynes_cummings", {**spec, "n_max": _number(n_max)}))
