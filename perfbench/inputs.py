"""Seeded inputs of the four workloads.

Only numpy and the oracle are used here, so the worker (which hands the
inputs to lindscope) and the checking side rebuild identical inputs from
the same seed. Each workload repeats one fixed round of operations; the
seed changes the values in the round, never its size, so the work per
round is the same for every seed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import oracle

WORKLOADS = ("cli_shipped", "analyze_dense", "series_dense", "sweep_tiny")

# The kept failure: series on its default grid in the strongly nonnormal
# regime, where t_end * ||S|| = 77.5 exceeds lindscope's EXP_SAFE_NORM = 50.
# Fixed, so the failure does not depend on the seed.
OMEGA30_FILE = "driven_dephasing_omega30.json"
OMEGA30_MODEL = {"model": {"type": "driven_dephasing", "gamma_z": 1.0, "omega": 30.0}}


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _complex(rng, d, scale):
    return scale * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / math.sqrt(2)


def _hermitian(rng, d, scale):
    a = _complex(rng, d, scale)
    return (a + a.conj().T) / 2


# ---------------------------------------------------------------------------
# analyze_dense: most generators at d=16, one at the cap d=32 per round.
# ---------------------------------------------------------------------------

def dense_analysis_models(seed: int) -> list[dict]:
    """Random dense models with two jumps: one at d=32, then ten at d=16.

    Structured models (sum_k L_k^dag L_k proportional to the identity) are
    left out: on random ones, lindscope's structured report pairs
    complex-conjugate eigenvalues wrongly and reports an O(1)
    shift_max_error, depending on roundoff (see CHANGES.md).
    """
    rng = rng_for("analyze_dense", seed)
    out = []
    for key, d in [("d32", 32)] + [(f"d16_{i}", 16) for i in range(10)]:
        out.append({
            "key": key,
            "h": _hermitian(rng, d, rng.uniform(0.2, 2.0) / math.sqrt(d)),
            "jumps": [_complex(rng, d, rng.uniform(0.3, 1.0) / math.sqrt(d)) for _ in range(2)],
        })
    return out


# ---------------------------------------------------------------------------
# series_dense: d=8 and d=12, weakly nonnormal to crossover, safe range.
# ---------------------------------------------------------------------------

# lindscope refuses t * ||S|| > 50; the default grid ends at 5/delta.
SAFE_RATIO = 8.0  # keep ||S|| / delta below this, i.e. t_end * ||S|| <= 40


def _series_candidate(rng, d, weak):
    if weak:
        # Hermitian jumps alone give a normal generator; a small drive adds
        # a little nonnormality.
        jumps = [_hermitian(rng, d, rng.uniform(0.4, 0.8) / math.sqrt(d)) for _ in range(2)]
        h = _hermitian(rng, d, rng.uniform(0.005, 0.02) / math.sqrt(d))
    else:
        jumps = [_complex(rng, d, rng.uniform(0.3, 0.6) / math.sqrt(d)) for _ in range(2)]
        h = _hermitian(rng, d, rng.uniform(0.2, 0.8) / math.sqrt(d))
    return h, jumps


def dense_series_models(seed: int) -> list[dict]:
    """Two d=8 generators (one weakly nonnormal), one d=12, and dephasing_relaxation(1, 1)."""
    rng = rng_for("series_dense", seed)
    out = []
    for key, d, weak in (("d8_weak", 8, True), ("d8_crossover", 8, False), ("d12_crossover", 12, False)):
        while True:
            h, jumps = _series_candidate(rng, d, weak)
            ref = oracle.Reference(h, jumps)
            if ref.norm < SAFE_RATIO * ref.delta:
                break
        out.append({"key": key, "h": h, "jumps": jumps})
    out.append({"key": "dephasing_relaxation", "named": {"type": "dephasing_relaxation", "gamma_z": 1.0, "gamma_minus": 1.0}})
    return out


# ---------------------------------------------------------------------------
# sweep_tiny: in-process CLI sweeps with hundreds of points on tiny models.
# ---------------------------------------------------------------------------

def sweep_files(seed: int) -> dict[str, dict]:
    """Named model files of the sweep workload, by file name."""
    rng = rng_for("sweep_tiny", seed)
    return {
        "dd.json": {"model": {"type": "driven_dephasing", "gamma_z": float(rng.uniform(0.5, 2.0)), "omega": 1.0}},
        "dr.json": {"model": {"type": "dephasing_relaxation", "gamma_z": float(rng.uniform(0.5, 2.0)), "gamma_minus": 1.0}},
        "jc.json": {"model": {
            "type": "jaynes_cummings",
            "omega_a": float(rng.uniform(0.8, 1.2)),
            "omega_c": float(rng.uniform(0.8, 1.2)),
            "g": 0.1,
            "n_max": 3,
        }},
    }


def sweep_commands(seed: int, workdir: Path) -> list[dict]:
    """One round of sweep_tiny: regimes and sweep commands with their argv."""
    files = sweep_files(seed)
    gamma = files["dd.json"]["model"]["gamma_z"]
    rng = rng_for("sweep_tiny", seed + 1)
    # omega / gamma from 1e-3 to 1e3 crosses all three kappa bands.
    lo, hi = gamma * 1e-3 * rng.uniform(0.8, 1.2), gamma * 1e3 * rng.uniform(0.8, 1.2)
    plan = [
        ("regimes_dd", "regimes", "dd.json", "omega", lo, hi, 400),
        ("sweep_dd", "sweep", "dd.json", "omega", lo, hi, 400),
        ("regimes_dr", "regimes", "dr.json", "gamma_minus", 1e-3, 1e2, 300),
        ("sweep_dr", "sweep", "dr.json", "gamma_minus", 1e-3, 1e2, 300),
        ("sweep_jc", "sweep", "jc.json", "g", 1e-3, 1.0, 60),
    ]
    out = []
    for key, command, name, param, start, stop, points in plan:
        argv = [
            command, str(workdir / name), "--param", param,
            "--from", repr(float(start)), "--to", repr(float(stop)),
            "--points", str(points), "--log", "--out", str(workdir / "out.csv"),
        ]
        out.append({"key": key, "argv": argv, "file": name})
    return out


# ---------------------------------------------------------------------------
# cli_shipped: one lindscope process per call on the shipped models.
# ---------------------------------------------------------------------------

def cli_calls(seed: int, models_dir: Path, workdir: Path) -> list[dict]:
    """One round of cli_shipped, in an order drawn from the seed.

    analyze on every shipped file, series on every named file, regimes and
    sweep on driven_dephasing across omega in [1e-3, 30], and the kept
    failing series call on the omega=30 model.
    """
    files = sorted(models_dir.glob("*.json"))
    calls = [{"key": f"analyze:{f.name}", "argv": ["analyze", str(f)], "file": f} for f in files]
    calls += [
        {"key": f"series:{f.name}", "argv": ["series", str(f)], "file": f}
        for f in files if not f.stem.endswith("_explicit")
    ]
    dd = models_dir / "driven_dephasing.json"
    for command in ("regimes", "sweep"):
        calls.append({
            "key": f"{command}:omega",
            "argv": [command, str(dd), "--param", "omega", "--from", "0.001", "--to", "30",
                     "--points", "40", "--log"],
            "file": dd,
        })
    omega30 = workdir / OMEGA30_FILE
    calls.append({"key": f"series:{OMEGA30_FILE}", "argv": ["series", str(omega30)], "file": omega30})
    order = rng_for("cli_shipped", seed).permutation(len(calls))
    return [calls[i] for i in order]


def write_model_files(workdir: Path, files: dict[str, dict]) -> None:
    """Write model files (name -> JSON object) into ``workdir``."""
    for name, obj in files.items():
        (workdir / name).write_text(json.dumps(obj), encoding="utf-8")
