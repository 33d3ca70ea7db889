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
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, ModelError
from .linalg import as_complex_matrix
from .superop import LindbladModel, dim_cap

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


def pauli(axis: str) -> np.ndarray:
    """The 2x2 Pauli matrix for axis 'x', 'y' or 'z'."""
    try:
        return _PAULI[axis].copy()
    except KeyError:
        raise ConfigError(f"unknown Pauli axis {axis!r}; expected 'x', 'y' or 'z'") from None


def lowering() -> np.ndarray:
    """(sigma_x - i*sigma_y)/2; nilpotent, with dagger(lowering()) raising."""
    return (pauli("x") - 1j * pauli("y")) / 2


def tensor_site(op, site: int, num_sites: int) -> np.ndarray:
    """Embed a single-qubit operator at one site of a qubit register.

    Site 0 is the leftmost tensor factor.
    """
    op = as_complex_matrix(op, 2, 2)
    if not 0 <= site < num_sites:
        raise ConfigError(f"site {site} outside 0..{num_sites - 1}")
    if 2**num_sites > dim_cap():
        raise _cap_error(2**num_sites)
    out = np.eye(1, dtype=complex)
    eye2 = np.eye(2, dtype=complex)
    for k in range(num_sites):
        out = np.kron(out, op if k == site else eye2)
    return out


def _cap_error(dim: int) -> ModelError:
    return ModelError(
        f"dimension {dim} exceeds the cap {dim_cap()} "
        "(set LINDSCOPE_DIM_CAP to raise it at your own risk)"
    )


def _rate(name: str, value: float) -> float:
    value = float(value)
    if value < 0:
        raise ConfigError(f"{name} must be nonnegative, got {value}")
    return value


def dephasing(gamma_z: float = 1.0) -> LindbladModel:
    """Single qubit, jump sqrt(gamma_z) * sigma_z, no Hamiltonian."""
    gamma_z = _rate("gamma_z", gamma_z)
    return LindbladModel(
        dim=2,
        hamiltonian=np.zeros((2, 2), dtype=complex),
        jumps=(np.sqrt(gamma_z) * pauli("z"),),
        label=f"dephasing(gamma_z={gamma_z:g})",
    )


def driven_dephasing(gamma_z: float = 1.0, omega: float = 0.1) -> LindbladModel:
    """Dephasing plus a transverse drive H = (omega/2) * sigma_x."""
    gamma_z = _rate("gamma_z", gamma_z)
    return LindbladModel(
        dim=2,
        hamiltonian=0.5 * float(omega) * pauli("x"),
        jumps=(np.sqrt(gamma_z) * pauli("z"),),
        label=f"driven_dephasing(gamma_z={gamma_z:g}, omega={float(omega):g})",
    )


def relaxation(gamma_minus: float = 1.0) -> LindbladModel:
    """Single qubit, jump sqrt(gamma_minus) * lowering operator."""
    gamma_minus = _rate("gamma_minus", gamma_minus)
    return LindbladModel(
        dim=2,
        hamiltonian=np.zeros((2, 2), dtype=complex),
        jumps=(np.sqrt(gamma_minus) * lowering(),),
        label=f"relaxation(gamma_minus={gamma_minus:g})",
    )


def dephasing_relaxation(gamma_z: float = 1.0, gamma_minus: float = 1.0) -> LindbladModel:
    """Competing dephasing and relaxation channels on one qubit."""
    gamma_z = _rate("gamma_z", gamma_z)
    gamma_minus = _rate("gamma_minus", gamma_minus)
    return LindbladModel(
        dim=2,
        hamiltonian=np.zeros((2, 2), dtype=complex),
        jumps=(np.sqrt(gamma_z) * pauli("z"), np.sqrt(gamma_minus) * lowering()),
        label=f"dephasing_relaxation(gamma_z={gamma_z:g}, gamma_minus={gamma_minus:g})",
    )


def pauli_channel(
    gamma_x: float = 1.0, gamma_y: float = 1.0, gamma_z: float = 1.0
) -> LindbladModel:
    """Jumps sqrt(gamma_a) * sigma_a for each Pauli axis."""
    rates = [_rate(f"gamma_{a}", g) for a, g in (("x", gamma_x), ("y", gamma_y), ("z", gamma_z))]
    return LindbladModel(
        dim=2,
        hamiltonian=np.zeros((2, 2), dtype=complex),
        jumps=tuple(np.sqrt(g) * pauli(a) for a, g in zip("xyz", rates)),
        label=f"pauli_channel(gamma_x={rates[0]:g}, gamma_y={rates[1]:g}, gamma_z={rates[2]:g})",
    )


def multi_qubit_dephasing(gammas: Sequence[float]) -> LindbladModel:
    """Independent sigma_z dephasing on each qubit of a register.

    One jump sqrt(gamma_k) * sigma_z at site k; the register dimension is
    2**len(gammas).
    """
    rates = [_rate(f"gamma_{k + 1}", g) for k, g in enumerate(gammas)]
    if not rates:
        raise ConfigError("multi_qubit_dephasing needs at least one rate")
    num = len(rates)
    if 2**num > dim_cap():
        raise _cap_error(2**num)
    sz = pauli("z")
    jumps = tuple(np.sqrt(g) * tensor_site(sz, k, num) for k, g in enumerate(rates))
    dim = 2**num
    return LindbladModel(
        dim=dim,
        hamiltonian=np.zeros((dim, dim), dtype=complex),
        jumps=jumps,
        label=f"multi_qubit_dephasing(K={num})",
    )


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
    n_max = int(n_max)
    if n_max < 1:
        raise ConfigError(f"n_max must be at least 1, got {n_max}")
    nf = n_max + 1
    dim = 2 * nf
    if dim > dim_cap():
        raise _cap_error(dim)
    destroy = np.zeros((nf, nf), dtype=complex)
    for n in range(1, nf):
        destroy[n - 1, n] = np.sqrt(n)
    create = destroy.conj().T
    eye_f = np.eye(nf, dtype=complex)
    low = lowering()
    h = (
        float(omega_c) * np.kron(np.eye(2, dtype=complex), create @ destroy)
        + 0.5 * float(omega_a) * np.kron(pauli("z"), eye_f)
        + float(g) * (np.kron(low, create) + np.kron(low.conj().T, destroy))
    )
    return LindbladModel(
        dim=dim,
        hamiltonian=h,
        jumps=(),
        label=(
            f"jaynes_cummings(omega_a={float(omega_a):g}, omega_c={float(omega_c):g}, "
            f"g={float(g):g}, n_max={n_max})"
        ),
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


class _Params:
    """Pop-and-validate view over a spec's parameter map."""

    def __init__(self, spec: ModelSpec):
        self.kind = spec.kind
        self.left = dict(spec.params)

    def number(self, name: str, default: float | None = None) -> float:
        if name in self.left:
            value = self.left.pop(name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"{self.kind}: parameter {name!r} must be a number")
            # json.loads takes NaN, Infinity and integers of any size
            if not abs(value) <= sys.float_info.max:
                raise ConfigError(
                    f"{self.kind}: parameter {name!r} must be a finite double, got {value!r}"
                )
            return float(value)
        if default is None:
            raise ConfigError(f"{self.kind}: missing parameter {name!r}")
        return default

    def integer(self, name: str, default: int | None = None) -> int:
        if name in self.left:
            value = self.left.pop(name)
            if isinstance(value, bool) or not isinstance(value, int):
                if isinstance(value, float) and value.is_integer():
                    value = int(value)
                else:
                    raise ConfigError(f"{self.kind}: parameter {name!r} must be an integer")
            return int(value)
        if default is None:
            raise ConfigError(f"{self.kind}: missing parameter {name!r}")
        return default

    def done(self) -> None:
        if self.left:
            extras = ", ".join(sorted(self.left))
            raise ConfigError(f"{self.kind}: unknown parameter(s): {extras}")


def build(spec: ModelSpec) -> LindbladModel:
    """Build the model a spec names; unknown kinds or parameters are rejected."""
    p = _Params(spec)
    if spec.kind == "dephasing":
        model = dephasing(p.number("gamma_z", 1.0))
    elif spec.kind == "driven_dephasing":
        model = driven_dephasing(p.number("gamma_z", 1.0), p.number("omega", 0.1))
    elif spec.kind == "relaxation":
        model = relaxation(p.number("gamma_minus", 1.0))
    elif spec.kind == "dephasing_relaxation":
        model = dephasing_relaxation(p.number("gamma_z", 1.0), p.number("gamma_minus", 1.0))
    elif spec.kind == "pauli_channel":
        model = pauli_channel(
            p.number("gamma_x", 1.0), p.number("gamma_y", 1.0), p.number("gamma_z", 1.0)
        )
    elif spec.kind == "multi_qubit_dephasing":
        count = p.integer("k")
        if count < 1:
            raise ConfigError(f"multi_qubit_dephasing: k must be at least 1, got {count}")
        model = multi_qubit_dephasing([p.number(f"gamma_{i + 1}") for i in range(count)])
    elif spec.kind == "hamiltonian_only":
        # Scalar parameters cannot carry an arbitrary matrix; the named form
        # builds H = (omega/2) * sigma_z. Arbitrary Hermitian H goes through
        # hamiltonian_only() directly or an explicit-matrix model file.
        omega = p.number("omega", 1.0)
        model = hamiltonian_only(
            0.5 * omega * pauli("z"), label=f"hamiltonian_only(omega={omega:g})"
        )
    elif spec.kind == "jaynes_cummings":
        model = jaynes_cummings(
            p.number("omega_a", 1.0),
            p.number("omega_c", 1.0),
            p.number("g", 0.1),
            p.integer("n_max", 3),
        )
    else:
        known = ", ".join(MODEL_KINDS)
        raise ConfigError(f"unknown model kind {spec.kind!r}; known kinds: {known}")
    p.done()
    return model
