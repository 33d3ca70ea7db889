"""Spans and counters recorded around lindscope's layers, from outside the program.

``Tracer.install`` replaces every public function of each lindscope module
(plus ``cli._load_json``, the file read shared by both parse paths) with a
timing wrapper, everywhere the function is bound: in its own module, in
the package namespace and in every module that imported the name. It also
wraps the dense numpy/scipy kernels, so kernel counts survive refactors
inside lindscope.

Spans are aggregated in memory by (parent, name) as they close. A span's
self time is its duration minus that of its child spans. Helpers called
from the same module are folded into the nearest *entry point* above them
(a named layer function or a span entered from another module), so
``metrics.compute_metrics`` owns the Python time of the metrics helpers it
calls, while the time of the linalg kernels under it is their own.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

MODULES = ("linalg", "superop", "metrics", "dynamics", "models", "cli")
EXTRA = {"cli": ("_load_json",)}
# Formatting helpers run once per printed number; their cost is already
# inside the to_json/to_csv span, and a wrapper would double it.
SKIP = {"cli": ("fmt_float", "fmt_complex")}
KERNELS = (
    ("numpy.linalg", "svd"),
    ("numpy.linalg", "eigvalsh"),
    ("numpy.linalg", "eigvals"),
    ("numpy.linalg", "eigh"),
    ("scipy.linalg", "expm"),
)
# Span names whose self time is reported under their own name, never
# folded into a caller of the same module.
ENTRY_POINTS = {
    "cli.parse_model_file", "cli._load_json", "cli.to_json", "cli.to_csv",
    "cli.write_output", "cli.analyze_record", "cli.series_rows",
    "models.build", "superop.liouvillian", "superop.decompose",
    "metrics.compute_metrics", "metrics.structured_dissipator_report",
    "dynamics.default_grid", "dynamics.amplification_series", "dynamics.spectral_abscissa",
}


def timed_import() -> tuple[float, int]:
    """Seconds and new modules of ``import lindscope.cli`` in this interpreter."""
    before = len(sys.modules)
    start = time.perf_counter()
    import lindscope.cli  # noqa: F401

    return time.perf_counter() - start, len(sys.modules) - before


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.entry_self_s = defaultdict(float)
        self.edges = Counter()
        self.kernel_n3 = 0
        self.grid_points = 0
        self._stack = [["", "", "", 0.0]]  # name, layer, entry, child time

    def reset(self) -> None:
        """Forget everything recorded so far (the warm-up call)."""
        self.calls.clear()
        self.entry_self_s.clear()
        self.edges.clear()
        self.kernel_n3 = 0
        self.grid_points = 0

    def _wrap(self, name: str, layer: str, fn, on_call=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            parent = stack[-1]
            entry = parent[2] if parent[1] == layer and name not in ENTRY_POINTS else name
            frame = [name, layer, entry, 0.0]
            stack.append(frame)
            if on_call is not None:
                on_call(self, args)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                parent[3] += elapsed
                self.entry_self_s[entry] += elapsed - frame[3]
                self.calls[name] += 1
                self.edges[(parent[0], name)] += 1

        return wrapper

    def install(self) -> None:
        import importlib

        import lindscope

        modules = {short: importlib.import_module(f"lindscope.{short}") for short in MODULES}
        replaced = {}
        for short, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if not (inspect.isfunction(fn) and fn.__module__ == module.__name__):
                    continue
                if attr.startswith("_") and attr not in EXTRA.get(short, ()):
                    continue
                if attr in SKIP.get(short, ()):
                    continue
                hook = _count_grid if (short, attr) == ("dynamics", "amplification_series") else None
                replaced[id(fn)] = self._wrap(f"{short}.{attr}", short, fn, hook)
        for module in (lindscope, *modules.values()):
            for attr, obj in list(vars(module).items()):
                if id(obj) in replaced:
                    setattr(module, attr, replaced[id(obj)])
        for module_name, attr in KERNELS:
            module = importlib.import_module(module_name)
            setattr(module, attr, self._wrap(f"kernel.{attr}", "kernel", getattr(module, attr), _count_n3))

    def table(self) -> dict:
        return _table(self.calls, self.entry_self_s, self.edges, self.kernel_n3, self.grid_points)


def _count_n3(tracer: Tracer, args) -> None:
    n = max(getattr(args[0], "shape", (0,))[-2:], default=0)
    tracer.kernel_n3 += n**3


def _count_grid(tracer: Tracer, args) -> None:
    tracer.grid_points += args[1].steps + 1


def merge(tables) -> dict:
    """Sum tables recorded in separate processes."""
    calls, entry, edges = Counter(), defaultdict(float), Counter()
    n3 = points = 0
    for t in tables:
        calls.update(t["calls"])
        for k, v in t["entry_self_s"].items():
            entry[k] += v
        for p, c, n in t["edges"]:
            edges[(p, c)] += n
        n3 += t["kernel_n3"]
        points += t["grid_points"]
    return _table(calls, entry, edges, n3, points)


def _table(calls, entry_self_s, edges, kernel_n3, grid_points) -> dict:
    return {
        "calls": dict(calls),
        "entry_self_s": dict(entry_self_s),
        "edges": [[p, c, n] for (p, c), n in sorted(edges.items())],
        "kernel_n3": kernel_n3,
        "grid_points": grid_points,
    }


# Per-layer metrics: (name, unit, what, span names). "calls" counts spans,
# "self_s" sums the self time of the entry points named.
LAYER_METRICS = (
    ("cli.parse_model_file_s", "s", "self_s", ("cli.parse_model_file", "cli._load_json")),
    ("cli.format_s", "s", "self_s", ("cli.to_json", "cli.to_csv", "cli.analyze_record", "cli.series_rows")),
    ("cli.write_output_s", "s", "self_s", ("cli.write_output",)),
    ("models.build_calls", "count", "calls", ("models.build",)),
    ("models.build_s", "s", "self_s", ("models.*",)),
    ("superop.liouvillian_calls", "count", "calls", ("superop.liouvillian",)),
    ("superop.liouvillian_s", "s", "self_s", ("superop.liouvillian",)),
    ("superop.decompose_calls", "count", "calls", ("superop.decompose",)),
    ("superop.decompose_s", "s", "self_s", ("superop.decompose",)),
    ("metrics.compute_metrics_s", "s", "self_s", ("metrics.compute_metrics",)),
    ("metrics.dissipative_strength_calls", "count", "calls", ("metrics.dissipative_strength",)),
    ("metrics.nonnormality_calls", "count", "calls", ("metrics.nonnormality",)),
    ("metrics.structured_report_s", "s", "self_s", ("metrics.structured_dissipator_report",)),
    ("dynamics.default_grid_s", "s", "self_s", ("dynamics.default_grid",)),
    ("dynamics.amplification_series_s", "s", "self_s", ("dynamics.amplification_series",)),
    ("dynamics.spectral_abscissa_s", "s", "self_s", ("dynamics.spectral_abscissa",)),
    ("linalg.svd_calls", "count", "calls", ("kernel.svd",)),
    ("linalg.svd_s", "s", "self_s", ("kernel.svd",)),
    ("linalg.eigvalsh_calls", "count", "calls", ("kernel.eigvalsh",)),
    ("linalg.eigvalsh_s", "s", "self_s", ("kernel.eigvalsh",)),
    ("linalg.eigvals_calls", "count", "calls", ("kernel.eigvals",)),
    ("linalg.eigvals_s", "s", "self_s", ("kernel.eigvals",)),
    ("linalg.expm_calls", "count", "calls", ("kernel.expm",)),
    ("linalg.expm_s", "s", "self_s", ("kernel.expm",)),
    ("linalg.hermiticity_checks", "count", "calls", ("linalg.hermiticity_defect",)),
)


def layer_metrics(table: dict, ops: int, import_s: float, import_modules: int) -> dict:
    """Every per-layer metric, per operation attempted (imports: per fresh import)."""
    out = {
        "import.cli_s": {"value": import_s, "unit": "s"},
        "import.modules": {"value": import_modules, "unit": "count"},
    }
    for name, unit, what, spans in LAYER_METRICS:
        source = table["calls"] if what == "calls" else table["entry_self_s"]
        total = sum(
            v for k, v in source.items()
            if any(k == s or (s.endswith("*") and k.startswith(s[:-1])) for s in spans)
        )
        out[name] = {"value": total / ops, "unit": unit}
    out["dynamics.grid_points"] = {"value": table["grid_points"] / ops, "unit": "count"}
    out["linalg.kernel_n3"] = {"value": table["kernel_n3"] / ops, "unit": "count"}
    return out
