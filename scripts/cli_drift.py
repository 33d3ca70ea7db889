#!/usr/bin/env python3
"""Compare lindscope's CLI output between the working tree and a git ref.

Runs ``analyze`` and ``series``, each as json and as csv, on every
``models/*.json``, a long-horizon ``series``
(``models/dephasing_relaxation.json`` with ``--t-end 200 --steps 4000``,
thousands of stepped products), a one-step ``series`` on
``models/relaxation.json`` whose step ``h * ||S||`` is exactly the
exponential's safe range 50 (``--t-end 35.35533905932737 --steps 1``, as
csv), and ``sweep`` and ``regimes`` on
``models/driven_dephasing.json`` over omega in [1e-3, 30] with 40
log-spaced points. Two more sweeps cover how a sweep is
split into blocks of points: 600 log-spaced omega points on
``driven_dephasing`` (past two block boundaries) and ``n_max`` from 1 to 3
on ``models/jaynes_cummings.json`` (a new dimension, so a new block, at
every point). The 40-point ``sweep`` and ``regimes`` run again with
``--kappa-lo 0.5 --kappa-hi 2`` (re-banded labels) and with
``--format json``, and a linear ``gamma_z`` sweep from 0 to 1 on
``driven_dephasing`` starts at a ``Hamiltonian`` point with ``kappa``
``undefined``. Log-spaced ``sweep`` and ``regimes`` on the other named
kinds cover each kind's stacked build: ``dephasing_relaxation`` over
``gamma_minus``, ``jaynes_cummings`` over ``g``, ``pauli_channel`` over
``gamma_y`` and ``multi_qubit_dephasing`` over ``gamma_2``. Sweeps that
fail cover which point a sweep names: the four of
``tests/test_cli.py::TestStackedSweeps::test_first_failure_in_sweep_order``,
a 3000-point sweep whose first failing point is in its third stack of
points, and an ``n_max`` sweep that fails at a non-integer. The named
models that split into many symmetry sectors run too: ``analyze`` on
``jaynes_cummings`` at ``n_max`` 7 and 15 and on ``multi_qubit_dephasing``
at k 4 and 5, ``series`` on ``jaynes_cummings`` at ``n_max`` 7, and
``regimes`` over its ``g``; ``analyze`` as csv on ``jaynes_cummings`` at
``n_max`` 7 and on ``multi_qubit_dephasing`` at k 5, and ``series`` as json
on the first, cover a model's generator formed from the ``d x d``
entries. ``analyze``, as json and as csv, and ``series`` on an explicit
seeded random model at d = 4 (all entries nonzero, one sector) cover one
formed from the entries of every slot pair, the largest dimension that
takes them, and ``analyze`` and ``series``, each as json and as csv, on
such a model at d = 8 one formed from its dense generator, gathered chunk
by chunk as it is built. ``analyze``, as json and as csv, on such a model at d = 32, and as
json on a d = 32 model with one jump ``sqrt(0.7) U`` (``U`` a seeded
random unitary, so the report's dissipator and jump map do not split
either) cover that route at the cap. ``series`` with
``--t-end=-1`` on an explicit model whose generator overflows, and on a
named ``driven_dephasing`` model whose ``eta`` overflows, covers which
error is reported first. ``sweep`` and ``regimes`` on a named model file
with an extra top-level key cover the checks of a model file, which they
share with ``analyze``, and ``--help`` of ``lindscope`` and of each command
covers the front end (argparse wraps it to ``COLUMNS=80``). ``analyze``
and ``series``, each as json and
as csv, run on damped ``jaynes_cummings`` at ``n_max`` 3 and 7 (d = 8 and
16), explicit model files with jumps ``sqrt(kappa) a`` and
``sqrt(gamma) sigma_-``: nonnormal generators, and at ``n_max`` 7 one that
splits into sectors. ``analyze``, as json and as csv, runs on an explicit
structured model at d = 3 with one jump ``sqrt(0.7) U``, ``U`` a seeded
random unitary: its jump map's spectrum holds complex-conjugate pairs,
which no shipped structured model has. Two ``sweep`` runs over ``g`` on
``models/jaynes_cummings.json`` (d = 8) cover how a sweep sizes its chunks
of points, one analysis pass each: 230 log-spaced points (past several
chunks and stacks) and 41 linear points from ``g = 0``, whose first point
splits into other sectors than the rest. A sweep builds its sector
blocks straight from H and the jumps, in chunks of points with the same
exactly-zero coefficients, so three more sweeps cover points that cut
couplings their neighbours have: a linear ``omega_a`` sweep on
``jaynes_cummings`` (d = 8, ``omega_c = 1``) that meets ``omega_c``
exactly, at ``g = 0`` and at ``g = 0.1``, and a linear ``gamma_1`` sweep
from 0 on ``multi_qubit_dephasing`` at k = 3 (d = 8, one zero-rate point
among 50). A 50-point ``sweep`` over ``g`` on ``jaynes_cummings`` at
``n_max`` 7 (d = 16) covers chunks of larger blocks, and a 21-point linear
``regimes`` over ``gamma_1`` from 0 on ``multi_qubit_dephasing`` at k = 5
(d = 32) a sweep at the cap: stacks of 4 points, the first a chunk of one
point, ``gamma_1 = 0``, and one of three. Each side runs
in its own interpreter with one BLAS thread: the working tree's ``src/``,
and REF's ``src/`` unpacked by ``git archive`` into a temporary directory
(removed afterwards). Both read the working tree's model files, and the
failing sweeps', the sectored models' and the cutting sweeps' files,
written to that directory, the damped and unitary-jump ones by this
script.

Prints the largest relative deviation of any number per command and exits
1 on a changed label (a regime or ``appg_satisfied`` flip), a changed exit
code, standard error or output layout, or a deviation above ``--bound``.
Standard error is compared byte for byte, and so is standard output
under ``--bound 0``, which prints the first line that differs next to the
command's deviation: a writer change that prints ``2.0`` as ``2`` or
spaces JSON otherwise changes no number. A deviation is relative to the larger of the two values, except
that ``bound_margin``, a difference that cancels to 0 for some models, is
relative to its terms ``2 delta nd_norm + eta``, and that the structured
report's spectral fields are relative to the largest magnitude of REF's
``jump_map_spectrum``: the spectrum as a multiset, each REF eigenvalue
taking a distinct nearest partner, and ``shift_max_error`` by its absolute
difference. An eigenvalue near 0, or a shift error of 0, moves by ulps
of the spectrum, not of itself::

    python3 scripts/cli_drift.py [REF] [--bound 1e-14]

REF defaults to HEAD. Standard library only.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# One interpreter per side runs every command through cli.main and prints
# {name: [exit code, stdout, stderr]} as JSON; a --help exits from argparse
# with its code.
RUNNER = """
import contextlib, io, json, sys
from lindscope.cli import main
results = {}
for name, argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help prints, then exits
            code = exc.code
    results[name] = [code, out.getvalue(), err.getvalue()]
json.dump(results, sys.stdout)
"""

# Sweeps that fail: a name, the model, and the sweep's --param, --from,
# --to, --points and whether it is log-spaced.
FAILING = (
    # eta overflows at point 0; points 1 and 2 build, then the negative
    # rate at the last point fails to build
    ("analysis-before-build", {"type": "driven_dephasing", "gamma_z": 1.0, "omega": 1e10},
     "gamma_z", "1e300", "-1e300", "3", False),
    # the generator overflows at point 3 of the 5 in one block
    ("generator", {"type": "dephasing_relaxation", "gamma_z": 1.7e308},
     "gamma_z", "1.0", "1.7e308", "5", False),
    # eta overflows at point 0, the generator at the last point
    ("eta-then-generator", {"type": "dephasing_relaxation", "gamma_z": 1.0},
     "gamma_minus", "1e308", "1.7e308", "3", False),
    # eta first overflows at point 308, in the second block
    ("second-block", {"type": "dephasing_relaxation", "gamma_z": 1.0},
     "gamma_minus", "1.0", "1e200", "400", True),
    # eta first overflows at point 2567, in the third stack of 1024 points
    ("third-stack", {"type": "dephasing_relaxation", "gamma_z": 1.0},
     "gamma_minus", "1.0", "1e180", "3000", True),
    # n_max 3 builds, 2.5 is not an integer
    ("non-integer", {"type": "jaynes_cummings", "n_max": 3},
     "n_max", "3", "1", "5", False),
)


# Named models with many symmetry sectors, by the name of their file.
SECTORED = (
    ("jaynes_cummings-7", {"type": "jaynes_cummings", "omega_a": 1.0, "omega_c": 1.1,
                           "g": 0.1, "n_max": 7}),
    ("jaynes_cummings-15", {"type": "jaynes_cummings", "omega_a": 1.0, "omega_c": 1.1,
                            "g": 0.1, "n_max": 15}),
    ("multi_qubit_dephasing-4", {"type": "multi_qubit_dephasing", "k": 4, "gamma_1": 0.1,
                                 "gamma_2": 0.2, "gamma_3": 0.3, "gamma_4": 0.4}),
    ("multi_qubit_dephasing-5", {"type": "multi_qubit_dephasing", "k": 5, "gamma_1": 0.1,
                                 "gamma_2": 0.2, "gamma_3": 0.3, "gamma_4": 0.4,
                                 "gamma_5": 0.5}),
)


def damped_jaynes_cummings(n_max: int) -> dict:
    """An explicit model file: jaynes_cummings (omega_a 1, omega_c 1.1, g 0.1)
    with jumps sqrt(kappa) a, kappa = 0.3, and sqrt(gamma) sigma_-, gamma = 0.1.

    Atom (x) field, the atom's first state the excited one (sigma_z = +1),
    entries as [re, im]: a nonnormal generator whose sectors are set by
    the difference of the excitation numbers of ket and bra.
    """
    levels = n_max + 1
    dim = 2 * levels
    h = [[0.0] * dim for _ in range(dim)]
    field = [[0.0] * dim for _ in range(dim)]
    atom = [[0.0] * dim for _ in range(dim)]
    for n in range(levels):
        h[n][n] = 1.1 * n + 0.5
        h[levels + n][levels + n] = 1.1 * n - 0.5
        atom[levels + n][n] = 1.0
        if n < n_max:
            # g (sigma_- a^dag + sigma_+ a), and the field's lowering operator
            h[levels + n + 1][n] = h[n][levels + n + 1] = 0.1 * (n + 1) ** 0.5
            field[n][n + 1] = field[levels + n][levels + n + 1] = (n + 1) ** 0.5

    def entries(m):
        return [[[x, 0.0] for x in row] for row in m]

    return {"dim": dim, "hamiltonian": entries(h),
            "jumps": [{"rate": 0.3, "matrix": entries(field)},
                      {"rate": 0.1, "matrix": entries(atom)}],
            "label": f"damped jaynes_cummings(n_max={n_max}) explicit"}


def unitary_jump(dim: int = 3, rate: float = 0.7, seed: int = 6) -> dict:
    """An explicit model file: H = 0 and one jump ``sqrt(rate) U``.

    ``U`` is the Gram-Schmidt orthonormalization of the columns of a seeded
    complex Gaussian matrix, so ``sum L^dag L = rate I`` up to roundoff and
    the jump map's eigenvalues ``rate u_i conj(u_j)`` come in
    complex-conjugate pairs.
    """
    rng = random.Random(seed)
    columns = []
    for _ in range(dim):
        v = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(dim)]
        for q in columns:
            dot = sum(x.conjugate() * y for x, y in zip(q, v))
            v = [y - dot * x for x, y in zip(q, v)]
        norm = sum(abs(y) ** 2 for y in v) ** 0.5
        columns.append([y / norm for y in v])
    matrix = [[[columns[j][i].real, columns[j][i].imag] for j in range(dim)] for i in range(dim)]
    zero = [[[0.0, 0.0]] * dim for _ in range(dim)]
    return {"dim": dim, "hamiltonian": zero, "jumps": [{"rate": rate, "matrix": matrix}],
            "label": f"unitary jump(d={dim}, rate={rate}) explicit"}


def random_model(dim: int = 8, seed: int = 3) -> dict:
    """An explicit model file: a seeded Hermitian H and two seeded jumps, all
    entries nonzero, so the generator is one sector: the route of a model
    whose patterns do not split.

    Gaussian entries, H scaled by ``0.3 / sqrt(dim)`` and the jumps by
    ``0.5 / sqrt(dim)``, so that ``||S|| / delta`` keeps the default
    series grid inside the exponential's safe range.
    """
    rng = random.Random(seed)

    def gauss(scale):
        return [[complex(rng.gauss(0.0, scale), rng.gauss(0.0, scale)) for _ in range(dim)]
                for _ in range(dim)]

    def entries(m):
        return [[[z.real, z.imag] for z in row] for row in m]

    a = gauss(0.3 / dim ** 0.5)
    h = [[(a[i][j] + a[j][i].conjugate()) / 2 for j in range(dim)] for i in range(dim)]
    jumps = [{"matrix": entries(gauss(0.5 / dim ** 0.5))} for _ in range(2)]
    return {"dim": dim, "hamiltonian": entries(h), "jumps": jumps,
            "label": f"random(d={dim}, seed={seed}) explicit"}


# Models of the sweeps whose points cut couplings: jaynes_cummings with
# omega_c = 1, which an omega_a sweep from 0 to 2 in steps of 1/8 meets
# exactly, and multi_qubit_dephasing at k = 3, swept from gamma_1 = 0.
CUTS = (
    ("jaynes_cummings-g0", {"type": "jaynes_cummings", "omega_c": 1.0, "g": 0.0, "n_max": 3}),
    ("jaynes_cummings-g0.1", {"type": "jaynes_cummings", "omega_c": 1.0, "g": 0.1,
                              "n_max": 3}),
    ("multi_qubit_dephasing-3", {"type": "multi_qubit_dephasing", "k": 3, "gamma_1": 0.0,
                                 "gamma_2": 0.2, "gamma_3": 0.3}),
)


def commands(tmp: Path) -> list[tuple[str, list[str]]]:
    """Every command, as ``(name, argv)``; the failing sweeps' models go to ``tmp``."""
    out = []
    for path in sorted((ROOT / "models").glob("*.json")):
        model = str(path)
        out.append((f"analyze-json {path.name}", ["analyze", model]))
        out.append((f"analyze-csv {path.name}", ["analyze", model, "--format", "csv"]))
        out.append((f"series {path.name}", ["series", model]))
        out.append((f"series-json {path.name}", ["series", model, "--format", "json"]))
    long_horizon = ["--t-end", "200", "--steps", "4000"]
    out.append(("series-long dephasing_relaxation.json",
                ["series", str(ROOT / "models" / "dephasing_relaxation.json"), *long_horizon]))
    boundary = ["--t-end", "35.35533905932737", "--steps", "1"]
    out.append(("series-boundary relaxation.json",
                ["series", str(ROOT / "models" / "relaxation.json"), *boundary]))
    driven = str(ROOT / "models" / "driven_dephasing.json")
    sweep = ["--param", "omega", "--from", "1e-3", "--to", "30", "--points", "40", "--log"]
    out.append(("sweep driven_dephasing.json", ["sweep", driven, *sweep]))
    out.append(("regimes driven_dephasing.json", ["regimes", driven, *sweep]))
    for command in ("sweep", "regimes"):
        out.append((f"{command}-bands driven_dephasing.json",
                    [command, driven, *sweep, "--kappa-lo", "0.5", "--kappa-hi", "2"]))
        out.append((f"{command}-json driven_dephasing.json",
                    [command, driven, *sweep, "--format", "json"]))
    linear = ["--param", "gamma_z", "--from", "0", "--to", "1", "--points", "40"]
    out.append(("sweep-gamma_z driven_dephasing.json", ["sweep", driven, *linear]))
    blocks = ["--param", "omega", "--from", "1e-3", "--to", "1e3", "--points", "600", "--log"]
    out.append(("sweep-600 driven_dephasing.json", ["sweep", driven, *blocks]))
    jaynes = str(ROOT / "models" / "jaynes_cummings.json")
    dims = ["--param", "n_max", "--from", "1", "--to", "3", "--points", "3"]
    out.append(("sweep-n_max jaynes_cummings.json", ["sweep", jaynes, *dims]))
    pools = ["--param", "g", "--from", "1e-3", "--to", "10", "--points", "230", "--log"]
    out.append(("sweep-g-230 jaynes_cummings.json", ["sweep", jaynes, *pools]))
    from_zero = ["--param", "g", "--from", "0", "--to", "2", "--points", "41"]
    out.append(("sweep-g-from-0 jaynes_cummings.json", ["sweep", jaynes, *from_zero]))
    # every other named kind's stacked build, over one of its parameters
    for name, param, start, stop, points in (
        ("dephasing_relaxation", "gamma_minus", "1e-3", "1e2", "300"),
        ("jaynes_cummings", "g", "1e-3", "1", "60"),
        ("pauli_channel", "gamma_y", "1e-3", "1e3", "300"),
        ("multi_qubit_dephasing", "gamma_2", "1e-3", "1e3", "100"),
    ):
        path = str(ROOT / "models" / f"{name}.json")
        flags = ["--param", param, "--from", start, "--to", stop, "--points", points, "--log"]
        out.append((f"sweep-{param} {name}.json", ["sweep", path, *flags]))
        out.append((f"regimes-{param} {name}.json", ["regimes", path, *flags]))
    # the named models that split into many sectors, at the sizes where
    # they split most
    for name, model in SECTORED:
        path = tmp / f"{name}.json"
        path.write_text(json.dumps({"model": model}), encoding="utf-8")
        out.append((f"analyze {name}", ["analyze", str(path)]))
    # damped jaynes_cummings: nonnormal, and split at n_max 7
    for n_max in (3, 7):
        path = tmp / f"damped_jaynes_cummings-{n_max}.json"
        path.write_text(json.dumps(damped_jaynes_cummings(n_max)), encoding="utf-8")
        name = path.stem
        out.append((f"analyze-json {name}", ["analyze", str(path)]))
        out.append((f"analyze-csv {name}", ["analyze", str(path), "--format", "csv"]))
        out.append((f"series {name}", ["series", str(path)]))
        out.append((f"series-json {name}", ["series", str(path), "--format", "json"]))
    # a structured model whose jump map has complex-conjugate eigenvalues
    path = tmp / "unitary_jump-3.json"
    path.write_text(json.dumps(unitary_jump()), encoding="utf-8")
    out.append(("analyze-json unitary_jump-3", ["analyze", str(path)]))
    out.append(("analyze-csv unitary_jump-3", ["analyze", str(path), "--format", "csv"]))
    jaynes_7 = str(tmp / "jaynes_cummings-7.json")
    out.append(("series jaynes_cummings-7", ["series", jaynes_7]))
    # every route of a model's form: the sectored models and a random one
    # at d = 4 from the d x d entries, a random one at d = 8 from the row
    # chunks of its dense build
    out.append(("analyze-csv jaynes_cummings-7", ["analyze", jaynes_7, "--format", "csv"]))
    out.append(("series-json jaynes_cummings-7", ["series", jaynes_7, "--format", "json"]))
    path = str(tmp / "multi_qubit_dephasing-5.json")
    out.append(("analyze-csv multi_qubit_dephasing-5", ["analyze", path, "--format", "csv"]))
    path = tmp / "random-4.json"
    path.write_text(json.dumps(random_model(4)), encoding="utf-8")
    out.append(("analyze-json random-4", ["analyze", str(path)]))
    out.append(("analyze-csv random-4", ["analyze", str(path), "--format", "csv"]))
    out.append(("series random-4", ["series", str(path)]))
    path = tmp / "random-8.json"
    path.write_text(json.dumps(random_model()), encoding="utf-8")
    out.append(("analyze-json random-8", ["analyze", str(path)]))
    out.append(("analyze-csv random-8", ["analyze", str(path), "--format", "csv"]))
    out.append(("series random-8", ["series", str(path)]))
    out.append(("series-json random-8", ["series", str(path), "--format", "json"]))
    # the dense route at the cap: a generator formed from the row chunks of
    # its build, and a structured report whose three maps all take it
    path = tmp / "random-32.json"
    path.write_text(json.dumps(random_model(32)), encoding="utf-8")
    out.append(("analyze-json random-32", ["analyze", str(path)]))
    out.append(("analyze-csv random-32", ["analyze", str(path), "--format", "csv"]))
    path = tmp / "unitary_jump-32.json"
    path.write_text(json.dumps(unitary_jump(32)), encoding="utf-8")
    out.append(("analyze-json unitary_jump-32", ["analyze", str(path)]))
    # an overflowing generator is reported before an invalid --t-end
    path = tmp / "overflow.json"
    path.write_text(json.dumps({"dim": 2, "hamiltonian": [[0, 0], [0, 0]],
                                "jumps": [{"matrix": [[1e200, 0], [0, -1e200]]}]}),
                    encoding="utf-8")
    out.append(("series-overflow-t-end overflow.json", ["series", str(path), "--t-end=-1"]))
    # so is an eta that overflows, from a generator that forms
    path = tmp / "eta-overflow.json"
    path.write_text(json.dumps({"model": {"type": "driven_dephasing", "gamma_z": 1e300,
                                          "omega": 1e10}}), encoding="utf-8")
    out.append(("series-eta-overflow-t-end eta-overflow.json",
                ["series", str(path), "--t-end=-1"]))
    # a sweep reads its file with the checks of analyze
    path = tmp / "extra-key.json"
    path.write_text(json.dumps({"model": {"type": "driven_dephasing", "gamma_z": 1.0,
                                          "omega": 2.0}, "junk": 1}), encoding="utf-8")
    flags = ["--param", "omega", "--from", "1", "--to", "2", "--points", "3"]
    for command in ("sweep", "regimes"):
        out.append((f"{command}-extra-key extra-key.json", [command, str(path), *flags]))
    # the front end: every option's flag, metavar and help
    out.append(("help", ["--help"]))
    for command in ("analyze", "series", "sweep", "regimes"):
        out.append((f"help {command}", [command, "--help"]))
    coupling = ["--param", "g", "--from", "1e-3", "--to", "10", "--points", "30", "--log"]
    out.append(("regimes-g jaynes_cummings-7", ["regimes", jaynes_7, *coupling]))
    coupling = ["--param", "g", "--from", "1e-3", "--to", "10", "--points", "50", "--log"]
    out.append(("sweep-g-50 jaynes_cummings-7", ["sweep", jaynes_7, *coupling]))
    rate = ["--param", "gamma_1", "--from", "0", "--to", "1", "--points", "21"]
    path = str(tmp / "multi_qubit_dephasing-5.json")
    out.append(("regimes-gamma_1 multi_qubit_dephasing-5", ["regimes", path, *rate]))
    # points whose exactly-zero coefficients, or exactly equal frequencies,
    # cut couplings that their neighbours have
    for name, model in CUTS:
        path = tmp / f"{name}.json"
        path.write_text(json.dumps({"model": model}), encoding="utf-8")
    crossing = ["--param", "omega_a", "--from", "0", "--to", "2", "--points", "17"]
    for g in ("0", "0.1"):
        path = str(tmp / f"jaynes_cummings-g{g}.json")
        out.append((f"sweep-omega_a jaynes_cummings-g{g}", ["sweep", path, *crossing]))
    rate = ["--param", "gamma_1", "--from", "0", "--to", "1", "--points", "50"]
    path = str(tmp / "multi_qubit_dephasing-3.json")
    out.append(("sweep-gamma_1 multi_qubit_dephasing-3", ["sweep", path, *rate]))
    for name, model, param, start, stop, points, log_scale in FAILING:
        path = tmp / f"fail-{name}.json"
        path.write_text(json.dumps({"model": model}), encoding="utf-8")
        flags = ["--param", param, f"--from={start}", f"--to={stop}", "--points", points]
        out.append((f"fail-{name}", ["sweep", str(path), *flags, *(["--log"] * log_scale)]))
    return out


def run_side(src: Path, cmds) -> dict:
    # the width argparse wraps --help to, whatever the caller's terminal
    env = dict(os.environ, PYTHONPATH=str(src), COLUMNS="80")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER, json.dumps(cmds)],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def records(text: str) -> list[dict]:
    """The rows of one command's output, CSV or JSON."""
    if not text.strip():
        return []
    if text.lstrip()[0] in "[{":
        value = json.loads(text)
        return value if isinstance(value, list) else [value]
    return list(csv.DictReader(io.StringIO(text)))


def leaves(value) -> list:
    """Numbers and labels of one field; CSV cells are parsed, lists flattened."""
    if isinstance(value, list):
        return [leaf for v in value for leaf in leaves(v)]
    if isinstance(value, bool) or value is None:
        return [value]
    if isinstance(value, (int, float)):
        return [float(value)]
    if ";" in value:
        return leaves(value.split(";"))
    for parse in (float, complex):
        try:
            z = parse(value.replace("Infinity", "inf"))
        except ValueError:
            continue
        return [z] if parse is float else [z.real, z.imag]
    return [value]


def _scale(name: str, x: float, y: float, row: dict) -> float:
    """What a deviation is relative to.

    ``bound_margin = 2 delta nd_norm - eta`` cancels to 0 in arithmetic for
    some models, so it is measured against its terms, not its own size.
    """
    scale = max(abs(x), abs(y))
    if name == "bound_margin":
        delta, eta, nd = (leaves(row[k])[0] for k in ("delta", "eta", "nd_norm"))
        scale = max(scale, 2.0 * abs(delta * nd) + abs(eta))
    return scale


# The structured report's fields that are compared on the scale of REF's spectrum.
SPECTRAL = ("jump_map_spectrum", "shift_max_error")


def spectrum(value) -> list[complex] | None:
    """A ``jump_map_spectrum`` field as complex numbers; None when it is null."""
    xs = leaves(value)
    if None in xs:
        return None
    return [complex(x, y) for x, y in zip(xs[0::2], xs[1::2])]


def matched_distance(a: list[complex], b: list[complex]) -> float:
    """Largest ``|a_i - b_j|`` when each ``a_i`` takes a distinct nearest ``b_j``,
    in the order of ``a``, as ``lindscope.metrics._matched_distance`` matches."""
    free = list(b)
    worst = 0.0
    for z in a:
        i = min(range(len(free)), key=lambda j: abs(free[j] - z))
        worst = max(worst, abs(free.pop(i) - z))
    return worst


def spectral_deviation(name: str, old, new, ref: list[complex]) -> float | None:
    """The deviation of a ``SPECTRAL`` field, relative to the largest magnitude
    of REF's spectrum ``ref``; None when the field changed shape."""
    if name == "jump_map_spectrum":
        got = spectrum(new)
        if got is None or len(got) != len(ref):
            return None
        diff = matched_distance(ref, got)
    else:
        xs, ys = leaves(old), leaves(new)
        if len(xs) != 1 or len(ys) != 1 or not all(isinstance(v, float) for v in xs + ys):
            return None
        diff = abs(xs[0] - ys[0])
    return diff / max(abs(z) for z in ref) if diff else 0.0


def compare(old: str, new: str) -> tuple[float, str | None]:
    """Largest relative deviation of paired numbers, and the first changed label."""
    old_rows, new_rows = records(old), records(new)
    if len(old_rows) != len(new_rows):
        return 0.0, f"{len(old_rows)} rows -> {len(new_rows)}"
    worst = 0.0
    for i, (a, b) in enumerate(zip(old_rows, new_rows)):
        if list(a) != list(b):
            return 0.0, f"fields {list(a)} -> {list(b)}"
        ref = spectrum(a["jump_map_spectrum"]) if "jump_map_spectrum" in a else None
        for name in a:
            if ref and name in SPECTRAL:
                deviation = spectral_deviation(name, a[name], b[name], ref)
                if deviation is None:
                    return 0.0, f"row {i} {name}: {a[name]!r} -> {b[name]!r}"
                worst = max(worst, deviation)
                continue
            xs, ys = leaves(a[name]), leaves(b[name])
            if len(xs) != len(ys):
                return 0.0, f"row {i} {name}: {a[name]!r} -> {b[name]!r}"
            for x, y in zip(xs, ys):
                if x == y:
                    continue
                if not (isinstance(x, float) and isinstance(y, float)):
                    return 0.0, f"row {i} {name}: {x!r} -> {y!r}"
                worst = max(worst, abs(x - y) / _scale(name, x, y, b))
    return worst, None


def first_difference(old: str, new: str) -> str | None:
    """Where two outputs first differ: the line, the column, and up to 40
    characters of each side from a little before it; None if they are equal."""
    pairs = itertools.zip_longest(
        old.splitlines(keepends=True), new.splitlines(keepends=True), fillvalue=""
    )
    for i, (a, b) in enumerate(pairs):
        if a != b:
            col = len(os.path.commonprefix([a, b]))
            lo = max(0, col - 10)
            return f"line {i + 1}, column {col + 1}: {a[lo:lo + 40]!r} -> {b[lo:lo + 40]!r}"
    return None


def verdict(name: str, old: list, new: list, bound: float) -> tuple[str, float, bool]:
    """One command's line, largest relative deviation and whether it fails,
    from each side's ``[exit code, stdout, stderr]``.

    Under ``bound`` 0 a command whose stdout differs fails, and its line
    gives the first difference and the deviation of its numbers, which
    counts toward the summary as every other command's does.
    """
    (old_code, old_out, old_err), (new_code, new_out, new_err) = old, new
    if old_code != new_code:
        return f"{name}: exit code {old_code} -> {new_code}", 0.0, True
    if old_err != new_err:
        return f"{name}: stderr {old_err!r} -> {new_err!r}", 0.0, True
    worst, change = compare(old_out, new_out)
    stdout = first_difference(old_out, new_out) if bound == 0 else None
    if change is not None:
        problem = f"changed {change}"
    elif worst > bound:
        problem = f"relative deviation {worst:.3g} exceeds {bound:g}"
    elif stdout is not None:
        problem = f"relative deviation {worst:.3g}"
    else:
        return f"{name}: exit {new_code}, relative deviation {worst:.3g}", worst, False
    if stdout is not None:
        problem = f"stdout {stdout}; {problem}"
    return f"{name}: {problem}", worst, True


def report(names, old: dict, new: dict, bound: float) -> int:
    """Print the line of each named command and the summary; 1 if any fails."""
    failed = False
    overall = 0.0
    for name in names:
        line, worst, bad = verdict(name, old[name], new[name], bound)
        print(line)
        overall = max(overall, worst)
        failed |= bad
    print(f"largest relative deviation: {overall:.3g} (bound {bound:g})")
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", nargs="?", default="HEAD", help="git ref to compare against")
    parser.add_argument("--bound", type=float, default=1e-14,
                        help="largest relative deviation allowed (default 1e-14)")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="cli_drift-") as tmp:
        cmds = commands(Path(tmp))
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar",
                                  args.ref, "src"], capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        old = run_side(Path(tmp) / "src", cmds)
        new = run_side(ROOT / "src", cmds)
    return report([name for name, _ in cmds], old, new, args.bound)


if __name__ == "__main__":
    sys.exit(main())
