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

Every command reads its model file with the same checks (``sweep`` and
``regimes`` then need a named model). ``series`` analyzes the model before
it checks ``--t-end`` and ``--steps``, so a model error is reported before
a grid error.

Output is deterministic: fixed column order, floats printed with 17
significant digits, LF newlines, CSV always carries a header row.
``analyze`` writes one record, its metric columns those of ``sweep``
(``SWEEP_FIELDS``), a cell at a time. The column tables of ``series``,
``sweep`` and ``regimes`` are filled into one ``%`` template per table
(``_table``), in the bytes that writing their rows a cell at a time gives.
Files are written to a temporary name and renamed on success, so a failing
run never leaves a partial file. Exit codes: 0 success, 1 model or
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

SWEEP_FIELDS = (
    "delta",
    "eta",
    "nd_norm",
    "kappa",
    "bound_margin",
    "regime",
    "generator_norm",
)
ANALYZE_FIELDS = (
    "label", "dim", *SWEEP_FIELDS, "is_structured", "gamma", "jump_map_spectrum", "shift_max_error"
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


def _json(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return fmt_float(float(value))
    if isinstance(value, (complex, np.complexfloating)):
        return _json([float(value.real), float(value.imag)])
    if isinstance(value, dict):
        return "{" + ", ".join(json.dumps(str(k)) + ": " + _json(v) for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ", ".join(map(_json, value)) + "]"
    raise ConfigError(f"cannot serialize value of type {type(value).__name__}")


def to_json(value) -> str:
    return _json(value) + "\n"


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
        fd, tmp_name = tempfile.mkstemp(prefix=target.name + ".", suffix=".tmp", dir=target.parent)
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


def _read_model_file(path: str) -> ModelSpec | dict:
    """A model file's named model as its ModelSpec, or its explicit model as
    the JSON object, after the checks of the file's top level."""
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    if "model" not in obj:
        return obj
    for key in obj:
        if key != "model":
            raise ConfigError(f"{path}: unknown key {key!r} next to \"model\"")
    return _spec_from_obj(obj["model"])


def parse_model_file(path: str) -> LindbladModel:
    """Read a model file, named or explicit, into a validated model."""
    model = _read_model_file(path)
    return build(model) if isinstance(model, ModelSpec) else _explicit_from_obj(model, path)


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
    record = {"label": model.label, "dim": model.dim}
    record.update((name, getattr(metrics, name)) for name in SWEEP_FIELDS)
    record["kappa"] = "undefined" if metrics.kappa is None else metrics.kappa
    record["regime"] = metrics.regime.value
    record.update(
        is_structured=report.is_structured,
        gamma=report.gamma,
        jump_map_spectrum=None if spectrum is None else [complex(z) for z in spectrum],
        shift_max_error=report.shift_max_error,
    )
    return record


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
# their sector blocks from H and the jumps (superop._sector_blocks, by the
# rule that forms a model's generator) a chunk at a time. A chunk is a run of
# consecutive points of a stack whose H and jumps have the same
# exactly-zero entries, so each point gets the sectors it gets alone, sized
# to fill _POOL_ENTRIES float64 entries by the blocks per point of the
# sweep's last chunk (one sector, d^4 entries, before the first). That
# chunk can be of another dimension only for a stack of one point, whose
# chunk is that point: models._Params.integer cuts a stack where a shape
# parameter changes, and whole-number values evenly spaced change at every
# point or at none. Each chunk is one analysis pass
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
    base = _read_model_file(config.model_path)
    if not isinstance(base, ModelSpec):
        raise ConfigError(
            f"{config.model_path}: sweeping needs a named model file "
            '(a top-level "model" object)'
        )
    values = _sweep_values(config)
    blocks: list[dict] = []
    done, until, per = 0, 0, 0
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
            # the float64 entries of a point's blocks: one sector until a chunk tells
            per = per or h.shape[-1] ** 4
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
            # the metrics first, as default_grid takes them: a model error
            # is reported before a grid error
            compute_metrics(superop)
            if config.t_end is None:
                grid = default_grid(superop, config.steps)
            else:
                grid = TimeGrid(0.0, config.t_end, config.steps)
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
        p.add_argument("model_path", metavar="model", help="model file (JSON)")
        p.add_argument("--out", dest="output_path", metavar="OUT",
                       help="output file (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default=None, dest="fmt")

    def thresholds(p):
        p.add_argument("--kappa-lo", type=float, default=None,
                       help="kappa below this is weakly nonnormal (default 0.1)")
        p.add_argument("--kappa-hi", type=float, default=None,
                       help="kappa above this is strongly nonnormal (default 10)")

    p_analyze = sub.add_parser("analyze", help="structure metrics of one model")
    common(p_analyze)
    thresholds(p_analyze)

    p_series = sub.add_parser("series", help="propagator norms over a time grid")
    common(p_series)
    p_series.add_argument("--t-end", type=float, default=None,
                          help="grid end (default: intrinsic timescale)")
    p_series.add_argument("--steps", type=int, default=DEFAULT_STEPS,
                          help=f"grid steps (default {DEFAULT_STEPS})")

    for name, about in (("sweep", "metrics along one parameter range"),
                        ("regimes", "regime table along one parameter range")):
        p = sub.add_parser(name, help=about)
        common(p)
        thresholds(p)
        p.add_argument("--param", required=True, help="model parameter to vary")
        p.add_argument("--from", dest="start", type=float, required=True)
        p.add_argument("--to", dest="stop", type=float, required=True)
        p.add_argument("--points", type=int, required=True)
        p.add_argument("--log", dest="log_scale", action="store_true", help="log-spaced values")

    return parser


def _config(argv=None) -> RunConfig:
    """The RunConfig of a command line: its options by the names of their
    fields, ``--kappa-lo`` and ``--kappa-hi`` as its ``thresholds``."""
    fields = vars(_build_parser().parse_args(argv))
    bands = {k: v for k in ("kappa_lo", "kappa_hi") if (v := fields.pop(k, None)) is not None}
    if bands:
        # RegimeThresholds refuses bands other than 0 < lo < hi
        fields["thresholds"] = RegimeThresholds(**bands)
    return RunConfig(**fields)


def main(argv=None) -> int:
    try:
        return run(_config(argv))
    except (IoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LindscopeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
