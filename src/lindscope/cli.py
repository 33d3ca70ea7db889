"""Command-line front end.

Subcommands::

    lindscope analyze MODEL.json [--out FILE] [--format csv|json]
                                 [--kappa-lo X] [--kappa-hi Y]
    lindscope series  MODEL.json [--t-end X] [--steps N] [--out FILE]
                                 [--format csv|json]
    lindscope sweep   MODEL.json --param NAME --from A --to B --points N
                                 [--log] [--kappa-lo X] [--kappa-hi Y] ...
    lindscope regimes MODEL.json --param NAME --from A --to B --points N
                                 [--log] [--kappa-lo X] [--kappa-hi Y] ...

Model files are UTF-8 JSON. Either a named model,

    {"model": {"type": "dephasing", "gamma_z": 1.0}}

or explicit matrices, every complex entry a two-element [re, im] array
(bare numbers are accepted as purely real entries); a "rate" next to a
jump "matrix" scales it by sqrt(rate)::

    {"dim": 2,
     "hamiltonian": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
     "jumps": [{"rate": 1.0,
                "matrix": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]}]}

Output is deterministic: fixed column order, floats printed with 17
significant digits, LF newlines, CSV always carries a header row. The
column tables of ``series``, ``sweep`` and ``regimes`` are filled into one
``%`` template per table (``_table``), with the bytes of their rows
written one cell at a time. Files
are written to a temporary name and renamed on success, so a failing run
never leaves a partial file. Exit codes: 0 success, 1 model or
configuration error, 2 I/O failure.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import functools
import io
import itertools
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dynamics import DEFAULT_STEPS, MAX_STEPS, TimeGrid, amplification_series, default_grid
from .errors import ConfigError, IoError, LindscopeError, NumericalError, RangeError
from .metrics import (
    RegimeThresholds,
    _block_pass,
    compute_metrics,
    structured_dissipator_report,
)
from .models import ModelSpec, _stack, build
from .superop import LindbladModel, _sector_blocks, liouvillian

__all__ = ["RunConfig", "parse_model_file", "run", "main"]

ANALYZE_FIELDS = (
    "label",
    "dim",
    "delta",
    "eta",
    "nd_norm",
    "kappa",
    "bound_margin",
    "regime",
    "generator_norm",
    "is_structured",
    "gamma",
    "jump_map_spectrum",
    "shift_max_error",
)
SERIES_FIELDS = (
    "t",
    "prop_norm",
    "a_paper",
    "a_spectral",
    "gronwall_env",
    "appg_env",
    "appg_satisfied",
)
SWEEP_FIELDS = (
    "delta",
    "eta",
    "nd_norm",
    "kappa",
    "bound_margin",
    "regime",
    "generator_norm",
)
REGIMES_FIELDS = ("delta", "eta", "kappa", "regime")


# ---------------------------------------------------------------------------
# Deterministic formatting: 17 significant digits round-trips doubles exactly.
# ---------------------------------------------------------------------------

def fmt_float(x: float) -> str:
    s = "%.17g" % x
    if "." in s or "e" in s:
        return s
    if s == "nan":
        # it would print as "nan.0", neither a JSON number nor a float
        raise NumericalError("a computed value is NaN; nothing was written")
    if s.endswith("inf"):
        return "-Infinity" if x < 0 else "Infinity"
    return s + ".0"  # keep JSON numbers typed as floats


def fmt_complex(z: complex) -> str:
    if cmath.isnan(z):
        raise NumericalError("a computed value is NaN; nothing was written")
    return f"{z.real:.17g}{z.imag:+.17g}j"


def _json_fragment(value, out: list[str]) -> None:
    if value is None:
        out.append("null")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        out.append(fmt_float(float(value)))
    elif isinstance(value, (complex, np.complexfloating)):
        _json_fragment([float(value.real), float(value.imag)], out)
    elif isinstance(value, dict):
        out.append("{")
        for i, (k, v) in enumerate(value.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(k)))
            out.append(": ")
            _json_fragment(v, out)
        out.append("}")
    elif isinstance(value, (list, tuple, np.ndarray)):
        out.append("[")
        for i, v in enumerate(value):
            if i:
                out.append(", ")
            _json_fragment(v, out)
        out.append("]")
    else:
        raise ConfigError(f"cannot serialize value of type {type(value).__name__}")


def to_json(value) -> str:
    out: list[str] = []
    _json_fragment(value, out)
    out.append("\n")
    return "".join(out)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return fmt_float(float(value))
    if isinstance(value, (complex, np.complexfloating)):
        return fmt_complex(complex(value))
    if isinstance(value, (list, tuple, np.ndarray)):
        return ";".join(_csv_cell(v) for v in value)
    return str(value)


def _table(columns: dict, label=str) -> str:
    """The rows of ``columns`` (an array each, by field name), filled into
    one ``%`` template: CSV lines, or for ``label=json.dumps`` the JSON
    array ``to_json`` writes of one object per row.

    A float column whose cells all print with a point or an exponent under
    ``%.17g`` takes ``%.17g``. A label or bool column, or a float column
    holding an integer value, an infinity or a NaN, takes ``%s`` of its
    cells as ``label``, ``true``/``false`` and ``fmt_float`` write them. A
    NaN ``kappa`` is ``label("undefined")``, as the pass marks an undefined
    kappa; a NaN in any other column is a NumericalError.
    """
    specs, cells = [], []
    for name, column in columns.items():
        values = column.tolist()
        if column.dtype.kind == "U":
            values = list(map(label, values))
        elif column.dtype.kind == "b":
            values = ["true" if v else "false" for v in values]
        elif special := np.flatnonzero((column == np.trunc(column)) | np.isnan(column)).tolist():
            xs, values = values, list(map("%.17g".__mod__, values))
            for i in special:
                undefined = name == "kappa" and math.isnan(xs[i])
                values[i] = label("undefined") if undefined else fmt_float(xs[i])
        # a column left as floats is all regular
        specs.append("%s" if isinstance(values[0], str) else "%.17g")
        cells.append(values)
    flat = tuple(itertools.chain.from_iterable(zip(*cells)))
    if label is str:
        return (",".join(specs) + "\n") * len(values) % flat
    row = ", ".join(json.dumps(name) + ": " + spec for name, spec in zip(columns, specs))
    return "[" + ", ".join(["{" + row + "}"] * len(values)) % flat + "]\n"


def to_csv(fieldnames, rows=(), columns=None) -> str:
    """CSV with a header row, of ``rows`` (a dict by field name each) or of
    ``columns`` (an array each, in field order, its cells by ``_table``)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fieldnames)
    if columns is not None:
        return buf.getvalue() + _table(dict(zip(fieldnames, columns)))
    writer.writerows([_csv_cell(row[name]) for name in fieldnames] for row in rows)
    return buf.getvalue()


def write_output(text: str, path: str | None) -> None:
    """Write to stdout, or atomically to a file (temp + rename)."""
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    target = Path(path)
    try:
        fd, tmp_name = tempfile.mkstemp(
            prefix=target.name + ".", suffix=".tmp", dir=str(target.parent or Path("."))
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
            os.replace(tmp_name, target)
        except BaseException:
            os.unlink(tmp_name)
            raise
    except OSError as exc:
        raise IoError(f"cannot write {path!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------

def _load_json(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot read model file {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"model file {path!r} is not UTF-8: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"invalid JSON in {path!r}: {exc.msg} (line {exc.lineno}, column {exc.colno})"
        ) from exc
    except (ValueError, RecursionError) as exc:
        # an integer of more digits than Python converts, or nesting deeper
        # than its recursion limit
        raise ConfigError(f"cannot read model file {path!r}: {exc}") from exc


def _parse_complex(value, where: str) -> complex:
    if isinstance(value, bool):
        raise ConfigError(f"{where}: expected a number or [re, im] pair, got a boolean")
    try:
        if isinstance(value, (int, float)):
            return complex(value)
        if (
            isinstance(value, list)
            and len(value) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
        ):
            return complex(value[0], value[1])
    except OverflowError:  # an integer beyond double precision
        raise ConfigError(f"{where}: {value!r} is beyond double precision") from None
    raise ConfigError(f"{where}: expected a number or [re, im] pair, got {value!r}")


def _parse_matrix(obj, where: str, dim: int) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != dim:
        raise ConfigError(f"{where}: expected {dim} rows")
    out = np.zeros((dim, dim), dtype=complex)
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != dim:
            raise ConfigError(f"{where}: row {i} must hold {dim} entries")
        for j, entry in enumerate(row):
            out[i, j] = _parse_complex(entry, f"{where}[{i}][{j}]")
    return out


def _spec_from_obj(obj, where: str = "model") -> ModelSpec:
    if not isinstance(obj, dict):
        raise ConfigError(f'{where}: expected an object with a "type" key')
    if "type" not in obj:
        raise ConfigError(f'{where}: missing "type"')
    kind = obj["type"]
    if not isinstance(kind, str):
        raise ConfigError(f'{where}: "type" must be a string')
    params = {}
    for key, value in obj.items():
        if key == "type":
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{where}: parameter {key!r} must be a number")
        params[key] = value
    return ModelSpec(kind, params)


def _explicit_from_obj(obj, path: str) -> LindbladModel:
    allowed = {"dim", "hamiltonian", "jumps", "label"}
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}: unknown key {key!r} in explicit model")
    for key in ("dim", "hamiltonian", "jumps"):
        if key not in obj:
            raise ConfigError(f"{path}: missing key {key!r} in explicit model")
    dim = obj["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ConfigError(f'{path}: "dim" must be a positive integer')
    hamiltonian = _parse_matrix(obj["hamiltonian"], "hamiltonian", dim)
    if not isinstance(obj["jumps"], list):
        raise ConfigError(f'{path}: "jumps" must be an array')
    jumps = []
    for i, item in enumerate(obj["jumps"]):
        where = f"jumps[{i}]"
        if not isinstance(item, dict) or "matrix" not in item:
            raise ConfigError(f'{path}: {where} must be an object with a "matrix" key')
        for key in item:
            if key not in {"matrix", "rate"}:
                raise ConfigError(f"{path}: unknown key {key!r} in {where}")
        matrix = _parse_matrix(item["matrix"], f"{where}.matrix", dim)
        rate = item.get("rate", 1.0)
        if (
            isinstance(rate, bool)
            or not isinstance(rate, (int, float))
            or not 0 <= rate <= sys.float_info.max
        ):
            raise ConfigError(f"{path}: {where}.rate must be a finite nonnegative number")
        with np.errstate(over="ignore"):
            jump = np.sqrt(float(rate)) * matrix
        if not np.isfinite(jump).all():
            raise RangeError(
                f"{path}: {where}: sqrt(rate) * matrix overflows double precision; "
                "rescale the model"
            )
        jumps.append(jump)
    label = obj.get("label", "")
    if not isinstance(label, str):
        raise ConfigError(f'{path}: "label" must be a string')
    return LindbladModel(dim=dim, hamiltonian=hamiltonian, jumps=tuple(jumps), label=label)


def parse_model_file(path: str) -> LindbladModel:
    """Read a model file, named or explicit, into a validated model."""
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    if "model" in obj:
        for key in obj:
            if key != "model":
                raise ConfigError(f"{path}: unknown key {key!r} next to \"model\"")
        return build(_spec_from_obj(obj["model"]))
    return _explicit_from_obj(obj, path)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    command: str
    model_path: str
    output_path: str | None = None
    fmt: str | None = None  # csv | json; None picks the command default
    t_end: float | None = None
    steps: int = DEFAULT_STEPS
    thresholds: RegimeThresholds | None = None
    param: str | None = None
    start: float | None = None
    stop: float | None = None
    points: int | None = None
    log_scale: bool = False


def analyze_record(model: LindbladModel, thresholds: RegimeThresholds | None = None) -> dict:
    """The flat record the analyze command emits."""
    superop = liouvillian(model)
    metrics = compute_metrics(superop, thresholds)
    report = structured_dissipator_report(model)
    spectrum = report.jump_map_spectrum
    return {
        "label": model.label,
        "dim": model.dim,
        "delta": metrics.delta,
        "eta": metrics.eta,
        "nd_norm": metrics.nd_norm,
        "kappa": "undefined" if metrics.kappa is None else metrics.kappa,
        "bound_margin": metrics.bound_margin,
        "regime": metrics.regime.value,
        "generator_norm": metrics.generator_norm,
        "is_structured": report.is_structured,
        "gamma": report.gamma,
        "jump_map_spectrum": None if spectrum is None else [complex(z) for z in spectrum],
        "shift_max_error": report.shift_max_error,
    }


def _sweep_values(config: RunConfig) -> np.ndarray:
    if config.param is None or config.start is None or config.stop is None:
        raise ConfigError("sweep needs --param, --from and --to")
    points = config.points if config.points is not None else 10
    if points < 1:
        raise ConfigError(f"--points must be at least 1, got {points}")
    if points > MAX_STEPS:
        raise ConfigError(f"--points must be at most {MAX_STEPS}, got {points}")
    start, stop = config.start, config.stop
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError(f"--from and --to must be finite, got {start!r} and {stop!r}")
    if config.log_scale and (start <= 0 or stop <= 0):
        raise ConfigError("--log needs strictly positive --from and --to")
    # ends more than the largest double apart overflow the spacing
    with np.errstate(invalid="ignore", over="ignore"):
        if config.log_scale:
            values = np.geomspace(start, stop, points)
        else:
            values = np.linspace(start, stop, points)
    if not np.isfinite(values).all():
        raise ConfigError(
            f"--from {start!r} and --to {stop!r} are too far apart: "
            "the spacing of their points overflows double precision"
        )
    return values


# A sweep builds its points in stacks (models._stack) of at most this many
# entries per d x d operator, at most _BLOCK_ENTRIES // 4 points, and takes
# their sector blocks straight from H and the jumps (superop._sector_blocks)
# a chunk at a time, with no n x n generator. A chunk is a run of
# consecutive points of a stack whose H and jumps have the same
# exactly-zero entries, so each point gets the sectors it gets alone, sized
# to fill _POOL_ENTRIES float64 entries by the blocks per point of the
# sweep's last chunk of its dimension, in this stack or an earlier one (one
# sector, n^2 entries, before the first). Each chunk is one analysis pass
# (metrics._block_pass), which works on each block alone, so the rows are,
# bit for bit, those of a pass per point.
# After a failure the same loop goes on from the failed chunk's first point
# in stacks of one point, and the first of those that fails names the error;
# past the failed chunk's last point it builds full stacks again.
_BLOCK_ENTRIES = 4096
# Sized by peak RSS: see CHANGES.md, "Pooled sweep passes".
_POOL_ENTRIES = 16384


def _sweep_columns(config: RunConfig, fields) -> dict[str, np.ndarray]:
    """The sweep's table: its parameter values, then ``fields`` of the pass, as columns by name."""
    raw = _load_json(config.model_path)
    if not isinstance(raw, dict) or "model" not in raw:
        raise ConfigError(
            f"{config.model_path}: sweeping needs a named model file "
            '(a top-level "model" object)'
        )
    base = _spec_from_obj(raw["model"])
    values = _sweep_values(config)
    blocks: list[dict] = []
    done, until, n, per = 0, 0, 0, 0
    while done < len(values):
        points = values[done : done + (1 if done < until else _BLOCK_ENTRIES // 4)]
        # the failed chunk, should the build fail, is the whole stack
        size = len(points)
        try:
            h, jumps, _ = _stack(
                ModelSpec(base.kind, {**base.params, config.param: points}), _BLOCK_ENTRIES
            )
            count = len(h)
            zero = np.concatenate([(h == 0).reshape(count, -1), (jumps == 0).reshape(count, -1)], 1)
            ends = [*(np.flatnonzero((zero[1:] != zero[:-1]).any(axis=1)) + 1).tolist(), count]
            if h.shape[-1] != n:
                # the float64 entries of a point's blocks: one sector until
                # a chunk of this dimension tells
                n = h.shape[-1]
                per = n**4
            lo = 0
            for end in ends:
                while lo < end:
                    size = min(end - lo, max(1, _POOL_ENTRIES // per))
                    a, e, _ = _sector_blocks(h[lo : lo + size], jumps[lo : lo + size])
                    per = a.nbytes // (8 * size)
                    blocks.append(_block_pass(a, e, config.thresholds))
                    done += size
                    lo += size
        except LindscopeError as exc:
            if len(points) == 1:
                raise type(exc)(f"{config.param} = {points.item()!r}: {exc}") from exc
            until = done + size
    table = {config.param: values}
    table.update((name, np.concatenate([block[name] for block in blocks])) for name in fields)
    return table


def run(config: RunConfig) -> int:
    """Execute one command; raises lindscope errors, returns 0 on success."""
    fmt = config.fmt or ("json" if config.command == "analyze" else "csv")
    if config.command == "analyze":
        model = parse_model_file(config.model_path)
        record = analyze_record(model, config.thresholds)
        if fmt == "json":
            text = to_json(record)
        else:
            text = to_csv(ANALYZE_FIELDS, [record])
    else:
        if config.command == "series":
            superop = liouvillian(parse_model_file(config.model_path))
            if config.t_end is not None:
                grid = TimeGrid(0.0, config.t_end, config.steps)
            else:
                grid = default_grid(superop, config.steps)
            series = amplification_series(superop, grid)
            columns = [series.times, *(getattr(series, name) for name in SERIES_FIELDS[1:])]
            table = dict(zip(SERIES_FIELDS, columns))
        elif config.command in ("sweep", "regimes"):
            fields = SWEEP_FIELDS if config.command == "sweep" else REGIMES_FIELDS
            table = _sweep_columns(config, fields)
        else:
            raise ConfigError(f"unknown command {config.command!r}")
        text = (_table(table, json.dumps) if fmt == "json"
                else to_csv(list(table), columns=table.values()))
    write_output(text, config.output_path)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are configuration errors, exit 1
        raise ConfigError(message)


@functools.lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(prog="lindscope", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("model", help="model file (JSON)")
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default=None, dest="fmt")

    def thresholds(p):
        p.add_argument("--kappa-lo", type=float, default=None,
                       help="kappa below this is weakly nonnormal (default 0.1)")
        p.add_argument("--kappa-hi", type=float, default=None,
                       help="kappa above this is strongly nonnormal (default 10)")

    def sweepish(p):
        p.add_argument("--param", required=True, help="model parameter to vary")
        p.add_argument("--from", dest="start", type=float, required=True)
        p.add_argument("--to", dest="stop", type=float, required=True)
        p.add_argument("--points", type=int, required=True)
        p.add_argument("--log", action="store_true", help="log-spaced values")

    p_analyze = sub.add_parser("analyze", help="structure metrics of one model")
    common(p_analyze)
    thresholds(p_analyze)

    p_series = sub.add_parser("series", help="propagator norms over a time grid")
    common(p_series)
    p_series.add_argument("--t-end", type=float, default=None,
                          help="grid end (default: intrinsic timescale)")
    p_series.add_argument("--steps", type=int, default=DEFAULT_STEPS,
                          help=f"grid steps (default {DEFAULT_STEPS})")

    p_sweep = sub.add_parser("sweep", help="metrics along one parameter range")
    common(p_sweep)
    thresholds(p_sweep)
    sweepish(p_sweep)

    p_regimes = sub.add_parser("regimes", help="regime table along one parameter range")
    common(p_regimes)
    thresholds(p_regimes)
    sweepish(p_regimes)

    return parser


def _thresholds_from_args(args) -> RegimeThresholds | None:
    lo = getattr(args, "kappa_lo", None)
    hi = getattr(args, "kappa_hi", None)
    if lo is None and hi is None:
        return None
    defaults = RegimeThresholds()
    lo = defaults.kappa_lo if lo is None else lo
    hi = defaults.kappa_hi if hi is None else hi
    # RegimeThresholds refuses bands other than 0 < lo < hi
    return RegimeThresholds(kappa_lo=lo, kappa_hi=hi)


def _config_from_args(args) -> RunConfig:
    return RunConfig(
        command=args.command,
        model_path=args.model,
        output_path=args.out,
        fmt=args.fmt,
        t_end=getattr(args, "t_end", None),
        steps=getattr(args, "steps", DEFAULT_STEPS),
        thresholds=_thresholds_from_args(args),
        param=getattr(args, "param", None),
        start=getattr(args, "start", None),
        stop=getattr(args, "stop", None),
        points=getattr(args, "points", None),
        log_scale=getattr(args, "log", False),
    )


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return run(_config_from_args(args))
    except IoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LindscopeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
