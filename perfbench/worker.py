"""One fresh interpreter that sets up a workload and runs its closed loop.

Started by run.py as ``python3 worker.py WORKLOAD SEED TRACE WORKDIR`` with
one BLAS thread and the checkout's ``src`` on PYTHONPATH. It imports
lindscope, builds the seeded inputs, makes one untimed warm-up call and
prints ``ready`` with its import figures. It then reads one line: ``stop``
ends it; ``run SECONDS`` runs whole rounds of the workload, one call after
the other, until SECONDS have passed, and prints the results as one JSON
line. Outputs are hashed per call; the first output of each call is sent
back in full for checking.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _digest(output) -> str:
    return hashlib.sha256(json.dumps(output, sort_keys=True).encode()).hexdigest()


class Workload:
    """A round of calls; ``call`` returns (ok, result) and is timed whole.

    The constructor is the set-up: it imports lindscope (timed, as the
    first import in this interpreter) and builds the seeded inputs.
    """

    def __init__(self, seed: int, workdir: Path, trace: bool):
        self.workdir = workdir
        self.imports = [list(tracing.timed_import())]
        import lindscope

        if Path(lindscope.__file__).resolve().parent != ROOT / "src" / "lindscope":
            raise SystemExit(f"worker: lindscope loaded from {lindscope.__file__}, not the checkout")
        self.ls = lindscope
        self.tracer = tracing.Tracer() if trace else None
        if self.tracer is not None:
            self.tracer.install()

    def round(self) -> list:
        raise NotImplementedError

    def call(self, item):
        raise NotImplementedError

    def output(self, item, result):
        """JSON-able output of a call, built after its timing stopped."""
        return result

    def warmup_item(self):
        return self.round()[0]

    def forget_warmup(self) -> None:
        """Drop what set-up and the warm-up call recorded."""
        self.imports = []
        if self.tracer is not None:
            self.tracer.reset()

    def trace_table(self) -> dict:
        return self.tracer.table()


class CliShipped(Workload):
    """One lindscope process per call; this interpreter never imports lindscope."""

    def __init__(self, seed, workdir, trace):
        import inputs

        self.workdir = workdir
        self.trace = trace
        inputs.write_model_files(workdir, {inputs.OMEGA30_FILE: inputs.OMEGA30_MODEL})
        self.calls = inputs.cli_calls(seed, ROOT / "models", workdir)
        self.tables = []

    def round(self):
        return self.calls

    def call(self, item):
        if not self.trace:
            cmd = [sys.executable, "-m", "lindscope.cli", *item["argv"]]
        else:
            table = self.workdir / "trace.json"
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(table), *item["argv"]]
        proc = subprocess.run(cmd, capture_output=True, timeout=120)
        return proc.returncode == 0, proc

    def output(self, item, proc):
        if self.trace:
            self.tables.append(json.loads((self.workdir / "trace.json").read_text()))
        return {"code": proc.returncode, "stdout": proc.stdout.decode(), "stderr": proc.stderr.decode()}

    def forget_warmup(self):
        self.tables.clear()

    def trace_table(self):
        return tracing.merge(t["table"] for t in self.tables)

    @property
    def imports(self):
        return [[t["import_s"], t["import_modules"]] for t in self.tables]


class AnalyzeDense(Workload):
    def __init__(self, seed, workdir, trace):
        super().__init__(seed, workdir, trace)
        import inputs

        ls = self.ls
        self.models = [
            {"key": m["key"], "model": ls.LindbladModel(m["h"].shape[0], m["h"], tuple(m["jumps"]))}
            for m in inputs.dense_analysis_models(seed)
        ]

    def round(self):
        # The d=32 generator once, then each d=16 one twice: about 10 s.
        return self.models[:1] + self.models[1:] * 2

    def warmup_item(self):
        return self.models[1]  # a d=16 generator: warming up at d=32 would cost seconds

    def call(self, item):
        ls, model = self.ls, item["model"]
        metrics = ls.compute_metrics(ls.liouvillian(model))
        return True, (metrics, ls.structured_dissipator_report(model))

    def output(self, item, result):
        m, r = result
        return {
            "delta": m.delta, "eta": m.eta, "nd_norm": m.nd_norm,
            "kappa": "undefined" if m.kappa is None else m.kappa,
            "bound_margin": m.bound_margin, "generator_norm": m.generator_norm,
            "regime": m.regime.value, "is_structured": r.is_structured, "gamma": r.gamma,
            "jump_map_spectrum": None if r.jump_map_spectrum is None
            else [[z.real, z.imag] for z in r.jump_map_spectrum.tolist()],
            "shift_max_error": r.shift_max_error,
        }


class SeriesDense(Workload):
    def __init__(self, seed, workdir, trace):
        super().__init__(seed, workdir, trace)
        import inputs

        ls = self.ls
        self.generators = []
        for m in inputs.dense_series_models(seed):
            if "named" in m:
                model = ls.dephasing_relaxation(m["named"]["gamma_z"], m["named"]["gamma_minus"])
            else:
                model = ls.LindbladModel(m["h"].shape[0], m["h"], tuple(m["jumps"]))
            self.generators.append({"key": m["key"], "generator": ls.liouvillian(model)})

    def round(self):
        return self.generators

    def warmup_item(self):
        return self.generators[-1]  # dephasing_relaxation, the cheapest

    def call(self, item):
        ls, gen = self.ls, item["generator"]
        return True, ls.amplification_series(gen, ls.default_grid(gen))

    def output(self, item, s):
        return {
            "t": s.times.tolist(), "prop_norm": s.prop_norm.tolist(), "a_paper": s.a_paper.tolist(),
            "a_spectral": s.a_spectral.tolist(), "gronwall_env": s.gronwall_env.tolist(),
            "delta": s.delta, "alpha": s.alpha,
        }


class SweepTiny(Workload):
    def __init__(self, seed, workdir, trace):
        super().__init__(seed, workdir, trace)
        import inputs

        inputs.write_model_files(workdir, inputs.sweep_files(seed))
        self.commands = inputs.sweep_commands(seed, workdir)

    def round(self):
        return self.commands

    def call(self, item):
        return self.ls.cli.main(item["argv"]) == 0, None

    def output(self, item, result):
        return (self.workdir / "out.csv").read_text(encoding="utf-8")


WORKLOADS = {
    "cli_shipped": CliShipped,
    "analyze_dense": AnalyzeDense,
    "series_dense": SeriesDense,
    "sweep_tiny": SweepTiny,
}


def closed_loop(work: Workload, seconds: float, warm: dict) -> dict:
    """Whole rounds, each call starting after the previous returned.

    ``warm`` maps the warm-up call's key to its output, which every later
    call with that key must reproduce.
    """
    ops, outputs = [], {}
    digests = {key: {_digest(output)} for key, output in warm.items()}
    start = time.perf_counter()
    while True:
        for item in work.round():
            key = item["key"]
            error = None
            t0 = time.perf_counter()
            try:
                ok, result = work.call(item)
            except Exception as exc:  # a failed operation, counted and reported
                ok, result, error = False, None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            output = work.output(item, result) if ok or result is not None else {"error": error}
            ops.append([key, ok, elapsed])
            digests.setdefault(key, set()).add(_digest(output))
            outputs.setdefault(key, output)
        if time.perf_counter() - start >= seconds:
            break
    return {"ops": ops, "outputs": outputs, "distinct_outputs": {k: len(v) for k, v in digests.items()}}


def main() -> int:
    name, seed, trace, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", Path(sys.argv[4])
    work = WORKLOADS[name](seed, workdir, trace)
    first = work.warmup_item()
    warm = {first["key"]: work.output(first, work.call(first)[1])}
    print("ready " + json.dumps({"imports": work.imports}), flush=True)
    work.forget_warmup()

    command = sys.stdin.readline().split()
    if not command or command[0] != "run":
        return 0
    result = closed_loop(work, float(command[1]), warm)
    if trace:
        result["trace"] = work.trace_table()
        result["imports"] = work.imports
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
