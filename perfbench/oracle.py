"""Independent reference computations for checking lindscope's outputs.

Nothing here imports lindscope. The generator is built by applying the
master-equation right-hand side to each basis matrix (column stacking,
no Kronecker products), the named models are rebuilt from the conventions
in the project README, and every quantity is computed from that matrix
with plain numpy. The matrix exponential is our own scaling-and-squaring
Taylor series, so no scipy routine is shared with the program.
"""

from __future__ import annotations

import json
import math

import numpy as np

# The program's documented regime rule: relative zero tests, kappa bands.
ZERO_RTOL = 1e-10
KAPPA_LO, KAPPA_HI = 0.1, 10.0
# Agreement demanded between program and oracle, relative to the value
# or, for values near zero, to the generator's natural scale.
REL_TOL = 1e-9

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
LOWER = np.array([[0, 0], [1, 0]], dtype=complex)
PAULI = {"x": SX, "y": SY, "z": SZ}


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------

def _site(op: np.ndarray, site: int, sites: int) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for k in range(sites):
        out = np.kron(out, op if k == site else np.eye(2))
    return out


def named_model(spec: dict) -> tuple[np.ndarray, list[np.ndarray]]:
    """(H, jumps) of a named model spec such as {"type": "dephasing", "gamma_z": 1}."""
    p = dict(spec)
    kind = p.pop("type")
    zero2 = np.zeros((2, 2), dtype=complex)
    if kind == "dephasing":
        return zero2, [math.sqrt(p.get("gamma_z", 1.0)) * SZ]
    if kind == "driven_dephasing":
        return 0.5 * p.get("omega", 0.1) * SX, [math.sqrt(p.get("gamma_z", 1.0)) * SZ]
    if kind == "relaxation":
        return zero2, [math.sqrt(p.get("gamma_minus", 1.0)) * LOWER]
    if kind == "dephasing_relaxation":
        return zero2, [
            math.sqrt(p.get("gamma_z", 1.0)) * SZ,
            math.sqrt(p.get("gamma_minus", 1.0)) * LOWER,
        ]
    if kind == "pauli_channel":
        return zero2, [math.sqrt(p.get(f"gamma_{a}", 1.0)) * PAULI[a] for a in "xyz"]
    if kind == "multi_qubit_dephasing":
        k = int(p["k"])
        d = 2**k
        jumps = [math.sqrt(p[f"gamma_{i + 1}"]) * _site(SZ, i, k) for i in range(k)]
        return np.zeros((d, d), dtype=complex), jumps
    if kind == "hamiltonian_only":
        return 0.5 * p.get("omega", 1.0) * SZ, []
    if kind == "jaynes_cummings":
        nf = int(p.get("n_max", 3)) + 1
        a = np.diag(np.sqrt(np.arange(1, nf)), 1).astype(complex)
        h = (
            p.get("omega_c", 1.0) * np.kron(np.eye(2), a.conj().T @ a)
            + 0.5 * p.get("omega_a", 1.0) * np.kron(SZ, np.eye(nf))
            + p.get("g", 0.1) * (np.kron(LOWER, a.conj().T) + np.kron(LOWER.T, a))
        )
        return h, []
    raise ValueError(f"the oracle cannot build model type {kind!r}")


def _entry(value) -> complex:
    return complex(value[0], value[1]) if isinstance(value, list) else complex(value)


def _matrix(rows) -> np.ndarray:
    return np.array([[_entry(v) for v in row] for row in rows], dtype=complex)


def model_from_file(path) -> tuple[np.ndarray, list[np.ndarray]]:
    """(H, jumps) of a model file, named or explicit."""
    with open(path, encoding="utf-8") as handle:
        obj = json.load(handle)
    if "model" in obj:
        return named_model(obj["model"])
    h = _matrix(obj["hamiltonian"])
    jumps = [math.sqrt(j.get("rate", 1.0)) * _matrix(j["matrix"]) for j in obj["jumps"]]
    return h, jumps


# ---------------------------------------------------------------------------
# Generator and its structure
# ---------------------------------------------------------------------------

def rhs(h: np.ndarray, jumps, rho: np.ndarray) -> np.ndarray:
    """-i[H, rho] + sum_k (L rho L^dag - {L^dag L, rho}/2)."""
    out = -1j * (h @ rho - rho @ h)
    for jump in jumps:
        jd = jump.conj().T
        jdj = jd @ jump
        out = out + jump @ rho @ jd - 0.5 * (jdj @ rho + rho @ jdj)
    return out


def superop(h: np.ndarray, jumps) -> np.ndarray:
    """Column-stacked generator matrix, one basis matrix at a time."""
    d = h.shape[0]
    out = np.empty((d * d, d * d), dtype=complex)
    basis = np.zeros((d, d), dtype=complex)
    for j in range(d):
        for i in range(d):
            basis[i, j] = 1.0
            out[:, i + d * j] = rhs(h, jumps, basis).ravel(order="F")
            basis[i, j] = 0.0
    return out


def norm2(m: np.ndarray) -> float:
    return float(np.linalg.svd(m, compute_uv=False)[0])


def regime(delta: float, eta: float, norm: float) -> str:
    if delta <= ZERO_RTOL * norm:
        return "Hamiltonian"
    if eta <= ZERO_RTOL * norm**2:
        return "NormalDissipative"
    k = eta / delta**2
    if k < KAPPA_LO:
        return "WeaklyNonnormal"
    if k > KAPPA_HI:
        return "StronglyNonnormal"
    return "Crossover"


def near_band_edge(kappa: float | None) -> bool:
    """True where roundoff could put kappa on either side of a threshold."""
    return kappa is not None and min(abs(kappa / KAPPA_LO - 1), abs(kappa / KAPPA_HI - 1)) < 1e-8


class Reference:
    """delta, eta, nd_norm, ||S|| and regime of one generator; alpha on demand."""

    def __init__(self, h: np.ndarray, jumps):
        self.h = np.asarray(h, dtype=complex)
        self.jumps = [np.asarray(j, dtype=complex) for j in jumps]
        s = superop(self.h, self.jumps)
        sd = s.conj().T
        self.matrix = s
        self.norm = norm2(s)
        self.delta = float(np.max(np.abs(np.linalg.eigvalsh((s + sd) / 2))))
        self.eta = norm2(s @ sd - sd @ s)
        self.nd_norm = norm2((s - sd) / 2)
        zero = self.delta <= ZERO_RTOL * self.norm
        self.kappa = None if zero else self.eta / self.delta**2
        self.regime = regime(self.delta, self.eta, self.norm)
        self._alpha = None

    @property
    def normal(self) -> bool:
        return self.eta <= ZERO_RTOL * self.norm**2

    @property
    def alpha(self) -> float:
        if self._alpha is None:
            self._alpha = float(np.max(np.linalg.eigvals(self.matrix).real))
        return self._alpha


def expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling and squaring a Taylor series (no Pade, no scipy)."""
    squarings = max(0, math.ceil(math.log2(max(np.abs(a).sum(axis=0).max(), 1e-300))) + 1)
    b = a / 2.0**squarings
    total = np.eye(a.shape[0], dtype=complex)
    term = total.copy()
    for n in range(1, 30):
        term = term @ b / n
        total = total + term
    for _ in range(squarings):
        total = total @ total
    return total


# ---------------------------------------------------------------------------
# Comparisons. Each returns a list of human-readable mismatches.
# ---------------------------------------------------------------------------

def close(got, want: float, floor: float = 0.0, rtol: float = REL_TOL) -> bool:
    return got is not None and abs(got - want) <= rtol * max(abs(want), floor)


def check_metrics(where: str, got: dict, ref: Reference) -> list[str]:
    """Compare one metrics record (delta, eta, ... as emitted) with the reference.

    Keys that the record lacks are skipped, so the regimes table (delta,
    eta, kappa, regime) and the full record share one check.
    """
    errors = []
    want = {
        "delta": (ref.delta, ref.norm),
        "eta": (ref.eta, ref.norm**2),
        "nd_norm": (ref.nd_norm, ref.norm),
        "generator_norm": (ref.norm, ref.norm),
    }
    for key, (value, floor) in want.items():
        if key in got and not close(got[key], value, floor):
            errors.append(f"{where}: {key} = {got[key]!r}, oracle {value!r}")
    if "kappa" in got:
        k = got["kappa"]
        if ref.kappa is None:
            if k != "undefined":
                errors.append(f"{where}: kappa = {k!r}, oracle undefined")
        elif k == "undefined" or not close(k, got["eta"] / got["delta"] ** 2, rtol=1e-12):
            errors.append(f"{where}: kappa = {k!r} is not eta / delta**2")
    if "bound_margin" in got:
        want = 2.0 * got["delta"] * got["nd_norm"] - got["eta"]
        if not close(got["bound_margin"], want, ref.norm**2, rtol=1e-12):
            errors.append(f"{where}: bound_margin = {got['bound_margin']!r}, expected {want!r}")
    if "regime" in got and got["regime"] != ref.regime and not near_band_edge(ref.kappa):
        errors.append(f"{where}: regime {got['regime']!r}, oracle {ref.regime!r}")
    return errors


def check_structured(where: str, got: dict, ref: Reference) -> list[str]:
    """Check the structured-dissipator fields of an analyze record."""
    d = ref.h.shape[0]
    total = sum((j.conj().T @ j for j in ref.jumps), np.zeros((d, d), dtype=complex))
    gamma = float(np.trace(total).real) / d
    structured = gamma >= 0 and norm2(total - gamma * np.eye(d)) <= 1e-10 * max(1.0, gamma)
    if got["is_structured"] != structured:
        return [f"{where}: is_structured = {got['is_structured']}, oracle {structured}"]
    if not structured:
        return []
    errors = []
    if not close(got["gamma"], gamma, 1.0):
        errors.append(f"{where}: gamma = {got['gamma']!r}, oracle {gamma!r}")
    jump_map = superop(np.zeros((d, d)), ref.jumps) + gamma * np.eye(d * d)
    want = np.linalg.eigvals(jump_map)
    have = np.array([complex(re, im) for re, im in got["jump_map_spectrum"]])
    tol = 1e-8 * max(1.0, gamma)
    if len(have) != len(want) or not _same_multiset(have, want, tol):
        errors.append(f"{where}: jump-map spectrum differs from the oracle's")
    if not got["shift_max_error"] <= tol:
        errors.append(f"{where}: shift_max_error = {got['shift_max_error']!r}")
    return errors


def _same_multiset(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    left = list(b)
    for z in a:
        dist = np.abs(np.array(left) - z)
        i = int(np.argmin(dist))
        if dist[i] > tol:
            return False
        left.pop(i)
    return True


def default_t_end(ref: Reference) -> float:
    """The documented default grid end: 5/delta, else 10/||S||, else 10."""
    if ref.delta > ZERO_RTOL * ref.norm:
        return 5.0 / ref.delta
    return 10.0 / ref.norm if ref.norm > 0 else 10.0


def check_series(where: str, got: dict, ref: Reference) -> list[str]:
    """Invariants of one amplification series on the default grid.

    ``got`` holds arrays t, prop_norm, a_paper, a_spectral, gronwall_env and
    optionally the scalars delta and alpha.
    """
    errors = []
    t = np.asarray(got["t"], dtype=float)
    prop = np.asarray(got["prop_norm"], dtype=float)
    if not np.allclose(t, np.linspace(0.0, default_t_end(ref), len(t)), rtol=1e-9, atol=0.0):
        errors.append(f"{where}: time grid is not the default one")
    if abs(prop[0] - 1.0) > 1e-12:
        errors.append(f"{where}: prop_norm[0] = {prop[0]!r}")
    gronwall = np.exp(t * ref.delta)
    if np.any(prop < 1.0 - 1e-12) or np.any(prop > gronwall * (1.0 + 1e-12)):
        errors.append(f"{where}: prop_norm leaves [1, exp(t*delta)]")
    if not np.allclose(got["gronwall_env"], gronwall, rtol=REL_TOL, atol=0.0):
        errors.append(f"{where}: gronwall_env is not exp(t*delta)")
    if not np.allclose(got["a_paper"], prop * np.exp(-t * ref.delta), rtol=REL_TOL, atol=0.0):
        errors.append(f"{where}: a_paper is not prop_norm * exp(-t*delta)")
    if not np.allclose(got["a_spectral"], prop * np.exp(-t * ref.alpha), rtol=REL_TOL, atol=0.0):
        errors.append(f"{where}: a_spectral is not prop_norm * exp(-t*alpha)")
    if ref.normal and np.any(np.abs(np.asarray(got["a_spectral"]) - 1.0) > REL_TOL):
        errors.append(f"{where}: a_spectral differs from 1 on a normal generator")
    for key in ("delta", "alpha"):
        if key in got and not close(got[key], getattr(ref, key), ref.norm):
            errors.append(f"{where}: {key} = {got[key]!r}, oracle {getattr(ref, key)!r}")
    for i in sorted({0, len(t) // 2, len(t) - 1}):
        want = norm2(expm(t[i] * ref.matrix))
        if not close(prop[i], want):
            errors.append(f"{where}: prop_norm at t={float(t[i])!r} is {float(prop[i])!r}, oracle {want!r}")
    return errors


# ---------------------------------------------------------------------------
# Self-check against closed forms, run before the oracle is trusted.
# ---------------------------------------------------------------------------

def self_check() -> list[str]:
    """Closed forms the oracle must reproduce before it judges random models."""
    errors = []
    for gamma in (0.5, 2.0):
        ref = Reference(*named_model({"type": "dephasing", "gamma_z": gamma}))
        if not (close(ref.delta, 2 * gamma) and ref.eta <= 1e-12 * ref.norm**2):
            errors.append(f"dephasing({gamma}): delta {ref.delta!r}, eta {ref.eta!r}")
        for omega in (0.01, 1.0, 30.0):
            spec = {"type": "driven_dephasing", "gamma_z": gamma, "omega": omega}
            ref = Reference(*named_model(spec))
            if not (
                close(ref.delta, 2 * gamma)
                and close(ref.eta, 4 * gamma * omega)
                and close(ref.kappa, omega / gamma)
            ):
                errors.append(
                    f"driven_dephasing({gamma}, {omega}): delta {ref.delta!r}, "
                    f"eta {ref.eta!r}, kappa {ref.kappa!r}"
                )
    ref = Reference(*named_model({"type": "hamiltonian_only", "omega": 1.0}))
    if not (ref.delta == 0.0 and ref.kappa is None and ref.regime == "Hamiltonian"):
        errors.append(f"hamiltonian_only: delta {ref.delta!r}, regime {ref.regime}")
    return errors
