#!/usr/bin/env python3
"""lindscope benchmark: one workload in a closed loop, outputs checked, metrics printed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it loads lindscope from ``src/`` and
the shipped models from ``models/``. Workloads: cli_shipped, analyze_dense,
series_dense, sweep_tiny (see README.md). The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is the environment block. With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones. A copy of everything, with the span table of a traced run,
goes to ``perfbench/out/``.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads, here and in every child.
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREADS)

import argparse  # noqa: E402
import csv  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import oracle  # noqa: E402
import tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS = 5  # fresh-interpreter set-ups per run; setup_s is their median
SETUP_TIMEOUT = 40.0
RUN_TIMEOUT = 120.0


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


# ---------------------------------------------------------------------------
# Worker processes
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREADS)
    env.pop("LINDSCOPE_DIM_CAP", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def start_worker(args, workdir: Path):
    """Start a worker and wait until it is set up; returns (process, seconds, ready info)."""
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed), str(args.trace), str(workdir)]
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True
    )
    watchdog = threading.Timer(SETUP_TIMEOUT, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - start
    if not line.startswith("ready "):
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker for {args.workload} did not get ready (exit {proc.returncode})")
    return proc, elapsed, json.loads(line[len("ready "):])


def finish_worker(proc, command: str, timeout: float) -> str:
    try:
        out, _ = proc.communicate(command, timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker did not finish within {timeout:g} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with status {proc.returncode}")
    return out


# ---------------------------------------------------------------------------
# Checks against the oracle
# ---------------------------------------------------------------------------

def _value(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def read_csv(text: str) -> list[dict]:
    return [{k: _value(v) for k, v in row.items()} for row in csv.DictReader(io.StringIO(text))]


def columns(rows: list[dict]) -> dict:
    return {key: [row[key] for row in rows] for key in rows[0]} if rows else {}


def check_rows(where: str, text: str, base: dict, argv: list[str]) -> list[str]:
    """Every row of a sweep or regimes table against the oracle."""
    flags = dict(zip(argv[2::2], argv[3::2]))
    param, points = flags["--param"], int(flags["--points"])
    rows = read_csv(text)
    want = np.geomspace(float(flags["--from"]), float(flags["--to"]), points)
    if len(rows) != points or not np.allclose([r[param] for r in rows], want, rtol=1e-12, atol=0):
        return [f"{where}: rows do not follow the requested log-spaced grid"]
    errors = []
    for i, row in enumerate(rows):
        spec = dict(base, **{param: row[param]})
        ref = oracle.Reference(*oracle.named_model(spec))
        errors += oracle.check_metrics(f"{where}[{i}]", row, ref)
        if spec["type"] == "driven_dephasing":
            gamma, omega = spec["gamma_z"], spec["omega"]
            kappa = omega / gamma
            label = oracle.regime(2 * gamma, 4 * gamma * omega, 1.0)
            if not (oracle.close(row["delta"], 2 * gamma) and oracle.close(row["eta"], 4 * gamma * omega, ref.norm**2)):
                errors.append(f"{where}[{i}]: delta, eta differ from 2*gamma, 4*gamma*omega")
            if row["regime"] != label and not oracle.near_band_edge(kappa):
                errors.append(f"{where}[{i}]: regime {row['regime']} but omega/gamma = {kappa!r}")
    return errors


def check_cli_shipped(seed: int, workdir: Path, outputs: dict) -> list[str]:
    calls = {c["key"]: c for c in inputs.cli_calls(seed, ROOT / "models", workdir)}
    refs, errors = {}, []
    for key, out in outputs.items():
        if out.get("code") != 0:
            continue  # a failed call, counted as failed
        call = calls[key]
        command = call["argv"][0]
        if command in ("regimes", "sweep"):
            base = json.loads(call["file"].read_text())["model"]
            errors += check_rows(key, out["stdout"], base, call["argv"])
            continue
        if call["file"] not in refs:
            refs[call["file"]] = oracle.Reference(*oracle.model_from_file(call["file"]))
        ref = refs[call["file"]]
        if command == "analyze":
            record = json.loads(out["stdout"])
            errors += oracle.check_metrics(key, record, ref) + oracle.check_structured(key, record, ref)
            if record["dim"] != ref.h.shape[0]:
                errors.append(f"{key}: dim {record['dim']}")
        else:
            errors += oracle.check_series(key, columns(read_csv(out["stdout"])), ref)
    return errors


def check_analyze_dense(seed: int, workdir: Path, outputs: dict) -> list[str]:
    errors = []
    for m in inputs.dense_analysis_models(seed):
        if m["key"] in outputs and "error" not in outputs[m["key"]]:
            ref = oracle.Reference(m["h"], m["jumps"])
            got = outputs[m["key"]]
            errors += oracle.check_metrics(m["key"], got, ref) + oracle.check_structured(m["key"], got, ref)
    return errors


def check_series_dense(seed: int, workdir: Path, outputs: dict) -> list[str]:
    errors = []
    for m in inputs.dense_series_models(seed):
        if m["key"] in outputs and "error" not in outputs[m["key"]]:
            h, jumps = oracle.named_model(m["named"]) if "named" in m else (m["h"], m["jumps"])
            ref = oracle.Reference(h, jumps)
            errors += oracle.check_series(m["key"], outputs[m["key"]], ref)
    return errors


def check_sweep_tiny(seed: int, workdir: Path, outputs: dict) -> list[str]:
    files = inputs.sweep_files(seed)
    errors = []
    for c in inputs.sweep_commands(seed, workdir):
        out = outputs.get(c["key"])
        if isinstance(out, str):
            errors += check_rows(c["key"], out, files[c["file"]]["model"], c["argv"])
    return errors


CHECKS = {
    "cli_shipped": check_cli_shipped,
    "analyze_dense": check_analyze_dense,
    "series_dense": check_series_dense,
    "sweep_tiny": check_sweep_tiny,
}


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------

def environment(args) -> dict:
    init = (ROOT / "src" / "lindscope" / "__init__.py").read_text(encoding="utf-8")
    version = re.search(r'__version__ = "([^"]+)"', init)

    def dist(name):
        try:
            return metadata.version(name)
        except metadata.PackageNotFoundError:
            return None

    return {
        **THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, 1 client, each call after the previous returned",
        "setups": SETUPS,
        "lindscope": version.group(1) if version else None,
        "python": platform.python_version(),
        "numpy": dist("numpy"),
        "scipy": dist("scipy"),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def measure(args, workdir: Path) -> tuple[list[float], dict, list]:
    """SETUPS fresh set-ups; the last one also runs the closed loop."""
    setups, imports = [], []
    for i in range(SETUPS):
        proc, seconds, ready = start_worker(args, workdir)
        try:
            setups.append(seconds)
            imports += ready["imports"]
            command = "stop" if i < SETUPS - 1 else f"run {args.seconds}"
            out = finish_worker(proc, command + "\n", RUN_TIMEOUT)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    result = json.loads(lines[-1])
    return setups, result, imports + result.get("imports", [])


def run(args) -> dict:
    if not (ROOT / "src" / "lindscope" / "__init__.py").is_file() or not (ROOT / "models").is_dir():
        raise BenchError(f"no lindscope checkout at {ROOT}: src/lindscope and models/ are needed")
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        setups, result, imports = measure(args, workdir)
        errors = oracle.self_check()
        errors += CHECKS[args.workload](args.seed, workdir, result["outputs"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    errors += [
        f"{key}: repeated calls gave {n} different outputs"
        for key, n in result["distinct_outputs"].items() if n != 1
    ]
    ops = result["ops"]
    ok_times = [seconds for _, ok, seconds in ops if ok]
    if not ok_times:
        raise BenchError("no operation succeeded")
    failed = sorted({key for key, ok, _ in ops if not ok})
    if args.trace:
        metrics = tracer.layer_metrics(
            result["trace"], len(ops),
            statistics.median(s for s, _ in imports), statistics.median(n for _, n in imports),
        )
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_s": {"value": statistics.median(ok_times), "unit": "s"},
            "ops_per_s": {"value": len(ok_times) / sum(ok_times), "unit": "1/s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "unit": "MB"
            },
        }
    report = {
        "correct": not errors,
        "attempted": len(ops),
        "failed": len(ops) - len(ok_times),
        "metrics": metrics,
    }
    record = {
        "env": environment(args), "result": report, "errors": errors, "failed_calls": failed,
        "setup_s": setups, "ops": ops, "trace": result.get("trace"),
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1), encoding="utf-8")
    for line in errors[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(CHECKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        record = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"env": record["env"]}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
