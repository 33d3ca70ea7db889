import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lindscope
from lindscope import (
    ConfigError,
    LindscopeError,
    ModelError,
    ModelSpec,
    NumericalError,
    RangeError,
    RegimeThresholds,
    build,
    compute_metrics,
    liouvillian,
)
from lindscope import cli
from lindscope.cli import (
    ANALYZE_FIELDS,
    SERIES_FIELDS,
    RunConfig,
    analyze_record,
    fmt_float,
    main,
    parse_model_file,
    run,
    to_csv,
    to_json,
)

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"


def write(tmp_path, name, payload) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


DEPHASING = {"model": {"type": "dephasing", "gamma_z": 1.0}}
H_ONLY = {"model": {"type": "hamiltonian_only", "omega": 1.0}}
JAYNES_CUMMINGS = {"model": {"type": "jaynes_cummings", "omega_a": 1.0, "omega_c": 1.0,
                             "g": 0.1, "n_max": 3}}
ANALYZE_HEADER = (
    "label,dim,delta,eta,nd_norm,kappa,bound_margin,regime,generator_norm,"
    "is_structured,gamma,jump_map_spectrum,shift_max_error"
)


class TestFormatting:
    def test_fmt_float_round_trips(self):
        for x in (1.4, 2.0, 1 / 3, 1e-300, -7.25e17, 0.1 + 0.2):
            assert float(fmt_float(x)) == x

    def test_fmt_float_keeps_float_typed_json(self):
        assert fmt_float(2.0) == "2.0"
        assert json.loads(to_json({"x": 2.0}))["x"] == 2.0

    def test_json_complex_pairs(self):
        text = to_json({"z": [complex(1.5, -2.5)]})
        assert json.loads(text) == {"z": [[1.5, -2.5]]}

    def test_json_bytes(self):
        value = {
            "a": {"b": [1, 2.0, (3, -0.5)], "c": {}},
            "arr": np.array([0.25, -1.0, 1e300]),
            "i": np.int64(-7),
            "f": np.float32(0.1),
            "z": np.complex128(1.5 - 2j),
            "c": complex(0, 1e-300),
            "n": None,
            "t": True,
            "f2": False,
            "s": 'x"y',
            "e": [],
            "inf": math.inf,
        }
        assert to_json(value) == (
            '{"a": {"b": [1, 2.0, [3, -0.5]], "c": {}}, '
            '"arr": [0.25, -1.0, 1.0000000000000001e+300], "i": -7, '
            '"f": 0.10000000149011612, "z": [1.5, -2.0], "c": [0.0, 1e-300], '
            '"n": null, "t": true, "f2": false, "s": "x\\"y", "e": [], "inf": Infinity}\n'
        )
        assert to_json([]) == "[]\n"
        with pytest.raises(ConfigError, match="^cannot serialize value of type set$"):
            to_json({"s": {1}})

    def test_analyze_columns(self, tmp_path):
        # the columns are spelled out, not read from ANALYZE_FIELDS, so a
        # reordered SWEEP_FIELDS shows; the JSON record's keys are the CSV
        # header's columns, in order
        record = analyze_record(parse_model_file(write(tmp_path, "m.json", DEPHASING)))
        assert list(record) == list(ANALYZE_FIELDS) == ANALYZE_HEADER.split(",")

    def test_csv_header_and_lf(self):
        text = to_csv(("a", "b"), [{"a": 1.0, "b": True}])
        assert text == "a,b\n1.0,true\n"

    def test_nan_refused(self):
        with pytest.raises(NumericalError):
            fmt_float(math.nan)
        with pytest.raises(NumericalError):
            to_json({"x": [math.nan]})
        with pytest.raises(NumericalError):
            to_csv(("z",), [{"z": complex(1.0, math.nan)}])


class TestParseModelFile:
    def test_named_model(self, tmp_path):
        model = parse_model_file(write(tmp_path, "m.json", DEPHASING))
        assert model.label == "dephasing(gamma_z=1)"

    def test_explicit_matches_builder(self, tmp_path):
        explicit = {
            "dim": 2,
            "hamiltonian": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
            "jumps": [{"rate": 1.0, "matrix": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]}],
        }
        a = liouvillian(parse_model_file(write(tmp_path, "e.json", explicit)))
        b = liouvillian(parse_model_file(write(tmp_path, "n.json", DEPHASING)))
        assert np.abs(a.matrix - b.matrix).max() <= 1e-12

    def test_bare_reals_accepted(self, tmp_path):
        explicit = {
            "dim": 2,
            "hamiltonian": [[0.5, 0], [0, -0.5]],
            "jumps": [],
        }
        model = parse_model_file(write(tmp_path, "r.json", explicit))
        np.testing.assert_allclose(model.hamiltonian, np.diag([0.5, -0.5]))

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"model": {"type": }}', encoding="utf-8")
        with pytest.raises(ConfigError, match="line 1"):
            parse_model_file(str(path))

    def test_missing_key_named(self, tmp_path):
        with pytest.raises(ConfigError, match="type"):
            parse_model_file(write(tmp_path, "m.json", {"model": {"gamma_z": 1.0}}))

    def test_unknown_key_reported(self, tmp_path):
        payload = {"dim": 2, "hamiltonian": [[0, 0], [0, 0]], "jumps": [], "extra": 1}
        with pytest.raises(ConfigError, match="extra"):
            parse_model_file(write(tmp_path, "m.json", payload))

    def test_bad_complex_entry_named_field(self, tmp_path):
        payload = {
            "dim": 2,
            "hamiltonian": [[[0, 0, 0], [0, 0]], [[0, 0], [0, 0]]],
            "jumps": [],
        }
        with pytest.raises(ConfigError, match=r"hamiltonian\[0\]\[0\]"):
            parse_model_file(write(tmp_path, "m.json", payload))

    def test_non_hermitian_rejected(self, tmp_path):
        payload = {
            "dim": 2,
            "hamiltonian": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]],
            "jumps": [],
        }
        with pytest.raises(ModelError):
            parse_model_file(write(tmp_path, "m.json", payload))

    def test_negative_rate_rejected(self, tmp_path):
        payload = {
            "dim": 2,
            "hamiltonian": [[0, 0], [0, 0]],
            "jumps": [{"rate": -1.0, "matrix": [[1, 0], [0, -1]]}],
        }
        with pytest.raises(ConfigError, match="rate"):
            parse_model_file(write(tmp_path, "m.json", payload))


class TestShippedModelFiles:
    def test_pairs_exist(self):
        named = sorted(
            p for p in MODELS_DIR.glob("*.json") if not p.stem.endswith("_explicit")
        )
        assert len(named) == 8
        for path in named:
            assert path.with_name(path.stem + "_explicit.json").exists()

    @pytest.mark.parametrize(
        "stem",
        [
            "dephasing",
            "driven_dephasing",
            "relaxation",
            "dephasing_relaxation",
            "pauli_channel",
            "multi_qubit_dephasing",
            "hamiltonian_only",
            "jaynes_cummings",
        ],
    )
    def test_builder_and_explicit_agree(self, stem):
        a = liouvillian(parse_model_file(str(MODELS_DIR / f"{stem}.json")))
        b = liouvillian(parse_model_file(str(MODELS_DIR / f"{stem}_explicit.json")))
        assert np.abs(a.matrix - b.matrix).max() <= 1e-12


class TestAnalyze:
    def test_record_values(self, tmp_path):
        record = analyze_record(parse_model_file(write(tmp_path, "m.json", DEPHASING)))
        assert record["delta"] == pytest.approx(2.0, abs=1e-12)
        assert record["eta"] <= 1e-12
        assert record["regime"] == "NormalDissipative"
        assert record["is_structured"] is True
        assert record["gamma"] == pytest.approx(1.0, abs=1e-12)

    def test_kappa_undefined_marker(self, tmp_path):
        record = analyze_record(parse_model_file(write(tmp_path, "m.json", H_ONLY)))
        assert record["kappa"] == "undefined"
        assert record["regime"] == "Hamiltonian"

    def test_json_round_trip_bit_exact(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", DEPHASING)
        assert main(["analyze", path]) == 0
        record = analyze_record(parse_model_file(path))
        parsed = json.loads(capsys.readouterr().out)
        for key in ("delta", "eta", "nd_norm", "bound_margin", "generator_norm"):
            assert parsed[key] == record[key]

    def test_deterministic_bytes(self, tmp_path):
        path = write(tmp_path, "m.json", DEPHASING)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["analyze", path, "--out", str(out1)]) == 0
        assert main(["analyze", path, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_format(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", DEPHASING)
        assert main(["analyze", path, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ANALYZE_HEADER
        assert len(lines) == 2

    def test_threshold_override_changes_regime(self, tmp_path, capsys):
        payload = {"model": {"type": "dephasing_relaxation",
                             "gamma_z": 1.0, "gamma_minus": 1.0}}
        path = write(tmp_path, "m.json", payload)
        assert main(["analyze", path]) == 0
        assert json.loads(capsys.readouterr().out)["regime"] == "Crossover"
        assert main(["analyze", path, "--kappa-lo", "0.3"]) == 0
        assert json.loads(capsys.readouterr().out)["regime"] == "WeaklyNonnormal"


class TestSeries:
    def test_hamiltonian_norm_column_is_one(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", H_ONLY)
        assert main(["series", path, "--steps", "20"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ",".join(SERIES_FIELDS)
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert len(values) == 21
        assert all(abs(v - 1.0) <= 1e-8 for v in values)

    def test_t_end_override(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", DEPHASING)
        assert main(["series", path, "--t-end", "1.0", "--steps", "4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [float(line.split(",")[0]) for line in lines[1:]] == [
            0.0, 0.25, 0.5, 0.75, 1.0,
        ]

    def test_json_format(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", DEPHASING)
        assert main(["series", path, "--steps", "2", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 3
        assert rows[0]["prop_norm"] == 1.0
        assert rows[0]["appg_satisfied"] is True

    def test_strongly_nonnormal_default_grid(self, tmp_path, capsys):
        payload = {"model": {"type": "driven_dephasing", "gamma_z": 1.0, "omega": 30.0}}
        path = write(tmp_path, "m.json", payload)
        assert main(["series", path]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert len(lines) == 201
        s = liouvillian(parse_model_file(path))
        for line in (lines[0], lines[100], lines[200]):
            t, prop_norm = (float(x) for x in line.split(",")[:2])
            want = np.linalg.norm(scipy.linalg.expm(t * s.matrix), 2)
            assert prop_norm == pytest.approx(want, rel=1e-12)

    def test_oversized_step_one(self, capsys):
        path = str(MODELS_DIR / "dephasing.json")
        assert main(["series", path, "--t-end", "1000", "--steps", "10"]) == 1
        err = capsys.readouterr().err
        assert "step h = 100" in err and "--steps" in err
        assert "Traceback" not in err

    def test_long_horizon_zero(self, capsys):
        path = str(MODELS_DIR / "dephasing.json")
        assert main(["series", path, "--t-end", "1000", "--steps", "200"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 202


class TestSweepAndRegimes:
    @pytest.mark.parametrize("command", ["sweep", "regimes"])
    @pytest.mark.parametrize(
        "payload",
        [{"model": {"type": "driven_dephasing", "gamma_z": 1.0, "omega": 2.0}, "junk": 1},
         {"dim": 2, "model": {"type": "driven_dephasing", "gamma_z": 1.0, "omega": 2.0}}],
        ids=["key-after-model", "key-before-model"],
    )
    def test_model_file_refused_as_analyze_refuses(self, tmp_path, capsys, command, payload):
        # a sweep reads its file with the checks of analyze: a key next to
        # "model" is refused, where it once was ignored
        path = write(tmp_path, "m.json", payload)
        assert main(["analyze", path]) == 1
        want = capsys.readouterr()
        argv = [command, path, "--param", "omega", "--from", "1", "--to", "2", "--points", "3"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", want.err)
        assert want.err.startswith(f"error: {path}: unknown key ")

    @pytest.mark.parametrize(
        "model, param, start, message",
        [
            ({"type": "nope"}, "g", "1",
             "unknown model kind 'nope'; known kinds: " + ", ".join(lindscope.MODEL_KINDS)),
            ({"type": "dephasing_relaxation", "foo": 1}, "g", "1",
             "dephasing_relaxation: unknown parameter(s): foo, g"),
            ({"type": "jaynes_cummings", "n_max": 100}, "g", "1",
             "jaynes_cummings: n_max makes the dimension 2 (n_max + 1) exceed the cap 32 "
             "(set LINDSCOPE_DIM_CAP to raise it at your own risk)"),
            ({"type": "dephasing", "gamma_z": -1.0}, "omega", "1",
             "gamma_z must be nonnegative, got -1.0"),
            # the swept values replace the file's, so the first point fails
            ({"type": "dephasing", "gamma_z": -1.0}, "gamma_z", "-1",
             "gamma_z = -1.0: gamma_z must be nonnegative, got -1.0"),
            # which rates a point reads depends on its k
            ({"type": "multi_qubit_dephasing", "gamma_1": 1, "gamma_2": 1, "gamma_3": 1},
             "k", "1", "k = 1.0: multi_qubit_dephasing: unknown parameter(s): gamma_2, gamma_3"),
        ],
        ids=["unknown-kind", "unknown-parameter", "over-cap", "negative-rate",
             "first-point", "shape-parameter"],
    )
    def test_model_file_error_names_no_point(self, tmp_path, capsys, model, param, start,
                                             message):
        # an error of the model file itself is the same at every point, so
        # the sweep names none; one that a point's value causes names it
        path = write(tmp_path, "m.json", {"model": model})
        argv = ["sweep", path, "--param", param, f"--from={start}", "--to", "3", "--points", "3"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    def test_sweep_kappa_monotone(self, tmp_path, capsys):
        payload = {"model": {"type": "driven_dephasing", "gamma_z": 1.0, "omega": 0.001}}
        path = write(tmp_path, "m.json", payload)
        assert main([
            "sweep", path, "--param", "omega",
            "--from", "0.001", "--to", "0.1", "--points", "7", "--log",
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split(",")[0] == "omega"
        kappas = [float(line.split(",")[4]) for line in lines[1:]]
        assert len(kappas) == 7
        assert all(b > a for a, b in zip(kappas, kappas[1:]))

    def test_regimes_columns(self, tmp_path, capsys):
        payload = {"model": {"type": "driven_dephasing", "gamma_z": 1.0, "omega": 0.001}}
        path = write(tmp_path, "m.json", payload)
        assert main([
            "regimes", path, "--param", "omega",
            "--from", "0.01", "--to", "30.0", "--points", "5", "--log",
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "omega,delta,eta,kappa,regime"
        regimes = [line.split(",")[-1] for line in lines[1:]]
        assert regimes[0] == "WeaklyNonnormal"
        assert regimes[-1] == "StronglyNonnormal"
        assert "Crossover" in regimes

    def test_sweep_requires_named_model(self, tmp_path):
        payload = {"dim": 2, "hamiltonian": [[0, 0], [0, 0]], "jumps": []}
        path = write(tmp_path, "m.json", payload)
        config = RunConfig(
            command="sweep", model_path=path, param="gamma_z",
            start=0.1, stop=1.0, points=3,
        )
        with pytest.raises(ConfigError, match="named model"):
            run(config)

    def test_log_sweep_needs_positive_range(self, tmp_path):
        path = write(tmp_path, "m.json", DEPHASING)
        assert main([
            "sweep", path, "--param", "gamma_z",
            "--from", "0", "--to", "1", "--points", "3", "--log",
        ]) == 1


def _metrics_fields(metrics) -> dict:
    """A sweep row's metrics, by field name, as one generator's metrics give them."""
    return {
        "delta": metrics.delta,
        "eta": metrics.eta,
        "nd_norm": metrics.nd_norm,
        "kappa": "undefined" if metrics.kappa is None else metrics.kappa,
        "bound_margin": metrics.bound_margin,
        "regime": metrics.regime.value,
        "generator_norm": metrics.generator_norm,
    }


def _per_point_sweep(config, fields):
    """A sweep one point at a time through the public calls, as the reference.

    Returns the header and rows, or the type and message of the first
    failing point's error.
    """
    base = json.loads(Path(config.model_path).read_text(encoding="utf-8"))["model"]
    rows = []
    for value in map(float, cli._sweep_values(config)):
        params = {k: v for k, v in base.items() if k != "type"}
        params[config.param] = value
        try:
            model = build(ModelSpec(base["type"], params))
            metrics = compute_metrics(liouvillian(model), config.thresholds)
        except LindscopeError as exc:
            return type(exc), f"{config.param} = {value!r}: {exc}"
        row = {config.param: value}
        row.update({k: v for k, v in _metrics_fields(metrics).items() if k in fields})
        rows.append(row)
    return [config.param, *fields], rows


def _stacked_sweep(config, fields):
    """The columns of a sweep as the header and rows of ``_per_point_sweep``, or its error."""
    try:
        table = cli._sweep_columns(config, fields)
    except LindscopeError as exc:
        return type(exc), str(exc)
    assert list(table) == [config.param, *fields]
    for name, column in table.items():
        assert column.shape == (len(table[config.param]),)
        if name == "regime":
            assert column.dtype.kind == "U"
        else:
            assert column.dtype == np.float64
    rows = [dict(zip(table, row)) for row in zip(*(c.tolist() for c in table.values()))]
    for row in rows:
        if "kappa" in row and math.isnan(row["kappa"]):
            row["kappa"] = "undefined"
    return list(table), rows


def _exact(sweep):
    """A sweep's header and rows, or its error, with every float as its exact hex form."""
    header, rows = sweep
    if not isinstance(header, list):
        return sweep
    return header, [
        {k: v.hex() if isinstance(v, float) else v for k, v in row.items()} for row in rows
    ]


def _sweep_config(path, param, start, stop, points, log_scale=False, thresholds=None):
    return RunConfig("sweep", path, param=param, start=start, stop=stop, points=points,
                     log_scale=log_scale, thresholds=thresholds)


class TestStackedSweeps:
    """A sweep builds its points in blocks, one stacked build each, and runs
    each chunk of their sector blocks as one pass; its rows, and its first
    error, are those of the points taken one at a time."""

    @pytest.mark.parametrize("thresholds", [None, RegimeThresholds(0.2, 5.0)])
    def test_thousand_points_four_blocks(self, tmp_path, monkeypatch, thresholds):
        path = write(tmp_path, "m.json", {"model": {"type": "driven_dephasing", "gamma_z": 1.3}})
        config = _sweep_config(path, "omega", 1e-3, 1e3, 1000, log_scale=True,
                               thresholds=thresholds)
        want = _per_point_sweep(config, cli.SWEEP_FIELDS)
        chunks = []
        stacked = cli._sector_blocks
        monkeypatch.setattr(
            cli, "_sector_blocks", lambda h, jumps: chunks.append(len(h)) or stacked(h, jumps)
        )
        assert _exact(_stacked_sweep(config, cli.SWEEP_FIELDS)) == _exact(want)
        # one stack, and one chunk: 16 entries a point fill 16000 of the pool
        assert chunks == [1000]
        assert {row["regime"] for row in want[1]} == {
            "WeaklyNonnormal", "Crossover", "StronglyNonnormal"
        }

    @pytest.mark.parametrize(
        "payload, param, start, stop, points, succeeds",
        [
            (JAYNES_CUMMINGS, "n_max", 1.0, 3.0, 3, True),
            (JAYNES_CUMMINGS, "n_max", 3.0, 1.0, 5, False),
            ({"model": {"type": "multi_qubit_dephasing", "k": 1, "gamma_1": 0.3}},
             "k", 1.0, 2.0, 2, False),
            ({"model": {"type": "multi_qubit_dephasing", "k": 2, "gamma_1": 0.3,
                        "gamma_2": 0.5}}, "k", 2.0, 1.0, 2, False),
        ],
        ids=["jc-up", "jc-down-non-integer", "mqd-missing-rate", "mqd-extra-rate"],
    )
    def test_dimension_changing_sweeps(
        self, tmp_path, monkeypatch, payload, param, start, stop, points, succeeds
    ):
        path = write(tmp_path, "m.json", payload)
        config = _sweep_config(path, param, start, stop, points)
        want = _per_point_sweep(config, cli.SWEEP_FIELDS)
        assert isinstance(want[0], list) is succeeds
        chunks = []
        form = cli._sector_blocks
        monkeypatch.setattr(
            cli, "_sector_blocks", lambda h, jumps: chunks.append(len(h)) or form(h, jumps)
        )
        assert _exact(_stacked_sweep(config, cli.SWEEP_FIELDS)) == _exact(want)
        if succeeds:
            # d = 4, 6, 8: a stack is cut where n_max changes, so each
            # chunk is one point whatever the last chunk of another
            # dimension says of the blocks per point
            assert chunks == [1, 1, 1]

    @pytest.mark.parametrize(
        "payload, param, start, stop, points, log_scale",
        [
            # eta overflows at point 0; points 1 and 2 build, then the
            # negative rate at the last point fails to build
            ({"model": {"type": "driven_dephasing", "gamma_z": 1.0, "omega": 1e10}},
             "gamma_z", 1e300, -1e300, 3, False),
            # the generator overflows at point 3 of the 5 in one block
            ({"model": {"type": "dephasing_relaxation", "gamma_z": 1.7e308}},
             "gamma_z", 1.0, 1.7e308, 5, False),
            # eta overflows at point 0, the generator at the last point
            ({"model": {"type": "dephasing_relaxation", "gamma_z": 1.0}},
             "gamma_minus", 1e308, 1.7e308, 3, False),
            # eta first overflows at point 308, in the second block
            ({"model": {"type": "dephasing_relaxation", "gamma_z": 1.0}},
             "gamma_minus", 1.0, 1e200, 400, True),
        ],
        ids=["analysis-before-build", "generator", "eta-then-generator", "second-block"],
    )
    def test_first_failure_in_sweep_order(
        self, tmp_path, payload, param, start, stop, points, log_scale
    ):
        path = write(tmp_path, "m.json", payload)
        config = _sweep_config(path, param, start, stop, points, log_scale)
        want = _per_point_sweep(config, cli.SWEEP_FIELDS)
        assert isinstance(want, tuple) and len(want) == 2
        assert _exact(_stacked_sweep(config, cli.SWEEP_FIELDS)) == _exact(want)

    def test_analysis_failure_named_before_build_failure(self, tmp_path, capsys):
        payload = {"model": {"type": "driven_dephasing", "gamma_z": 1.0, "omega": 1e10}}
        path = write(tmp_path, "m.json", payload)
        argv = ["sweep", path, "--param", "gamma_z", "--from", "1e300", "--to=-1e300",
                "--points", "3"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: gamma_z = 1e+300: eta is about")

    def test_kernel_counts(self, tmp_path, monkeypatch, capsys):
        # 400 points at d=2 are one stack, one chunk and one pass: four
        # batched eigensolves in all, no SVD, and no Hermiticity check of
        # the exactly Hermitian Hamiltonians
        path = write(tmp_path, "m.json", {"model": {"type": "driven_dephasing"}})
        calls = {"svd": 0, "eigvalsh": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
        monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
        chunks, passes = [], []
        form, pooled = cli._sector_blocks, cli._block_pass
        monkeypatch.setattr(
            cli, "_sector_blocks", lambda h, jumps: chunks.append(len(h)) or form(h, jumps)
        )
        monkeypatch.setattr(
            cli, "_block_pass", lambda a, e, *args: passes.append(len(e)) or pooled(a, e, *args)
        )
        argv = ["sweep", path, "--param", "omega", "--from", "1e-3", "--to", "1e3",
                "--points", "400", "--log"]
        assert main(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == 401
        assert calls == {"svd": 0, "eigvalsh": 4}
        assert chunks == passes == [400]
        # 60 points at d=8 are one stack with 15 or 16 sectors of 8 x 8 a
        # point; each chunk is one pass, and the first is sized by one
        # sector of 64 x 64 a point, the rest by the blocks of the chunk
        # before, so the passes hold 4, 16, 16, 16 and 8 points: five
        # passes, 20 eigensolves
        calls.update(svd=0, eigvalsh=0)
        chunks.clear()
        passes.clear()
        path = write(tmp_path, "jc.json", JAYNES_CUMMINGS)
        argv = ["sweep", path, "--param", "g", "--from", "1e-3", "--to", "1",
                "--points", "60", "--log"]
        assert main(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == 61
        assert calls == {"svd": 0, "eigvalsh": 20}
        assert chunks == passes == [4, 16, 16, 16, 8]
        # 230 points at d=8 are stacks of 64, 64, 64 and 38; a chunk is
        # sized by the last chunk of its dimension, in an earlier stack
        # too, so only the first stack starts with an under-filled chunk
        calls.update(svd=0, eigvalsh=0)
        chunks.clear()
        passes.clear()
        argv = ["sweep", path, "--param", "g", "--from", "1e-3", "--to", "10",
                "--points", "230", "--log"]
        assert main(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == 231
        assert calls == {"svd": 0, "eigvalsh": 64}
        assert chunks == passes == [4, 16, 16, 16, 12, *[16] * 10, 6]
        # an eigensolve that fails once sends the loop to stacks of one
        # point only up to the failed chunk's last point: 3000 points at
        # d=2 are stacks, chunks and passes of 1024, 1024 and 952, so the
        # first is taken again in 1024 one-point passes and the other two
        # keep theirs, with the rows of the sweep that never failed
        path = write(tmp_path, "m.json", {"model": {"type": "driven_dephasing"}})
        argv = ["sweep", path, "--param", "omega", "--from", "1e-3", "--to", "1e3",
                "--points", "3000", "--log"]
        assert main(argv) == 0
        want = capsys.readouterr().out
        solver, failures = np.linalg.eigvalsh, [np.linalg.LinAlgError("did not converge")]

        def fails_once(a, *args, **kwargs):
            if failures:
                raise failures.pop()
            return solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", fails_once)
        passes.clear()
        assert main(argv) == 0
        assert capsys.readouterr().out == want
        assert passes == [1024, *[1] * 1024, 1024, 952]

    @pytest.mark.parametrize(
        "payload, param, start, stop, points, log_scale",
        [
            (JAYNES_CUMMINGS, "g", 1e-3, 10.0, 230, True),
            # the g = 0 point splits into more sectors than the others
            (JAYNES_CUMMINGS, "g", 0.0, 2.0, 41, False),
            ({"model": {"type": "multi_qubit_dephasing", "k": 3, "gamma_1": 0.3,
                        "gamma_2": 0.6, "gamma_3": 0.1}}, "gamma_2", 0.0, 5.0, 300, False),
        ],
        ids=["jc-several-pools", "jc-from-zero", "mqd-rate"],
    )
    def test_pooled_sectors_equal_per_point(
        self, tmp_path, monkeypatch, payload, param, start, stop, points, log_scale
    ):
        path = write(tmp_path, "m.json", payload)
        config = _sweep_config(path, param, start, stop, points, log_scale)
        want = _per_point_sweep(config, cli.SWEEP_FIELDS)
        passes, shapes = [], set()
        pooled, form = cli._block_pass, cli._sector_blocks

        def recording_pass(a, e, *args):
            passes.append(len(e))
            return pooled(a, e, *args)

        def recording_form(h, jumps):
            a, e, table = form(h, jumps)
            shapes.add((table.shape, a.dtype))
            return a, e, table

        monkeypatch.setattr(cli, "_block_pass", recording_pass)
        monkeypatch.setattr(cli, "_sector_blocks", recording_form)
        assert _exact(_stacked_sweep(config, cli.SWEEP_FIELDS)) == _exact(want)
        assert sum(passes) == points
        # each pass holds many points: more than four on average at d = 8
        assert len(passes) < points // 4
        if start == 0.0 and param == "g":
            assert len(shapes) == 2

    def test_failure_at_last_point_replays_one_stack(self, tmp_path, monkeypatch):
        cases = [
            # 3002 points are stacks of 1024, 1024 and 954; only the last
            # point, gamma_z = -1, fails to build, so only the third stack
            # is taken again one point at a time
            (DEPHASING["model"], "gamma_z", 3000.0, -1.0, 3002, False, ConfigError,
             "gamma_z = -1.0: gamma_z must be nonnegative, got -1.0", False, 2048),
            # one stack and one chunk of 400 points, whose pass fails: eta
            # first overflows at point 308, with a long message of which the
            # head is checked
            ({"type": "dephasing_relaxation", "gamma_z": 1.0}, "gamma_minus", 1.0, 1e200, 400,
             True, RangeError, "gamma_minus = 2.4320075132678504e+154: eta is about", True, 0),
        ]
        stacked = cli._stack
        for payload, param, start, stop, points, log_scale, error, named, head, first in cases:
            path = write(tmp_path, "m.json", {"model": payload})
            config = _sweep_config(path, param, start, stop, points, log_scale)
            want = _per_point_sweep(config, cli.SWEEP_FIELDS)
            if head:
                assert want[0] is error and want[1].startswith(named)
            else:
                assert want == (error, named)
            stacks = []
            monkeypatch.setattr(
                cli, "_stack",
                lambda spec, *args: stacks.append(spec.params[param]) or stacked(spec, *args),
            )
            assert _exact(_stacked_sweep(config, cli.SWEEP_FIELDS)) == _exact(want)
            single = [point for point in stacks if len(point) == 1]
            assert 0 < len(single) <= 1024
            # the one-point stacks start at the failed chunk's first point
            assert single[0][0] == cli._sweep_values(config)[first]

    def test_failed_batched_eigensolve_retried_per_point(self, tmp_path, monkeypatch):
        # when a batched eigensolve fails, each point of the block is taken
        # alone, so the rows, or the error, stay those of the points
        path = write(tmp_path, "m.json", {"model": {"type": "driven_dephasing"}})
        config = _sweep_config(path, "omega", 1e-3, 1e3, 20, log_scale=True)
        want = _per_point_sweep(config, cli.SWEEP_FIELDS)
        solver = np.linalg.eigvalsh

        def batch_fails(a, *args, **kwargs):
            if a.ndim > 2 and a.shape[0] > 1:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", batch_fails)
        assert _exact(_stacked_sweep(config, cli.SWEEP_FIELDS)) == _exact(want)

        def always_fails(a, *args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", always_fails)
        error, message = _stacked_sweep(config, cli.SWEEP_FIELDS)
        assert error is NumericalError
        assert message.startswith("omega = 0.001: Hermitian eigensolver failed")


# Every named kind with a sweepable parameter: the model around the sweep.
# A rate swept from 0 gives a point where delta is zero (kappa undefined),
# and every hamiltonian_only point has delta zero.
_SWEEPABLE = {
    "dephasing": ({}, ("gamma_z",)),
    "driven_dephasing": ({"gamma_z": 1.3, "omega": 0.7}, ("gamma_z", "omega")),
    "relaxation": ({}, ("gamma_minus",)),
    "dephasing_relaxation": ({"gamma_z": 0.4}, ("gamma_z", "gamma_minus")),
    "pauli_channel": ({"gamma_x": 0.2, "gamma_y": 0.5}, ("gamma_x", "gamma_y", "gamma_z")),
    "multi_qubit_dephasing": ({"k": 2, "gamma_1": 0.3, "gamma_2": 0.6}, ("gamma_1", "gamma_2")),
    "hamiltonian_only": ({}, ("omega",)),
    "jaynes_cummings": ({"n_max": 2, "g": 0.3}, ("omega_a", "omega_c", "g")),
}


def _main_captured(argv):
    """``main(argv)`` in process: its exit code, stdout, stderr and warnings."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue(), caught


class TestColumnsEqualPerPoint:
    """A sweep's output text, written from the pass's columns, is the text
    of its points taken one at a time and formatted row by row."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        command=st.sampled_from(["sweep", "regimes"]),
        target=st.sampled_from(
            [(kind, param) for kind, (_, params) in _SWEEPABLE.items() for param in params]
        ),
        start=st.just(0.0) | st.floats(1e-3, 1e3),
        stop=st.floats(1e-3, 1e3),
        points=st.integers(1, 600),
        log_scale=st.booleans(),
        bands=st.none() | st.tuples(st.floats(1e-3, 1.0), st.floats(1.0, 1e3)),
        fmt=st.sampled_from(["csv", "json"]),
    )
    def test_text_equals_per_point(
        self, command, target, start, stop, points, log_scale, bands, fmt
    ):
        kind, param = target
        if log_scale:
            start = max(start, 1e-3)
        argv = [command, "", "--param", param, f"--from={start!r}", f"--to={stop!r}",
                f"--points={points}", "--format", fmt, *(["--log"] if log_scale else [])]
        if bands is not None and bands[0] < bands[1]:
            argv += [f"--kappa-lo={bands[0]!r}", f"--kappa-hi={bands[1]!r}"]
        with tempfile.TemporaryDirectory() as tmp:
            path = write(Path(tmp), "m.json", {"model": {"type": kind, **_SWEEPABLE[kind][0]}})
            argv[1] = path
            config = cli._config(argv)
            fields = cli.SWEEP_FIELDS if command == "sweep" else cli.REGIMES_FIELDS
            want = _per_point_sweep(config, fields)
            code, out, err, caught = _main_captured(argv)
        assert caught == []
        header, rows = want
        if not isinstance(header, list):
            assert (code, out, err) == (1, "", f"error: {rows}\n")
            return
        text = to_json(rows) if fmt == "json" else to_csv(header, rows)
        assert (code, out, err) == (0, text, "")
        assert len(rows) == points


def _rows_of(columns: dict) -> list[dict]:
    """The rows of a table of columns, one dict by field name each, as a
    record is written row by row: a NaN kappa is the label ``undefined``."""
    rows = [dict(zip(columns, values)) for values in zip(*(c.tolist() for c in columns.values()))]
    for row in rows:
        if "kappa" in row and math.isnan(row["kappa"]):
            row["kappa"] = "undefined"
    return rows


class TestTableTemplate:
    """Tables written from columns in one ``%`` template are the text of
    their rows written one cell at a time by ``_csv_cell``/``_json``."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "model",
        [H_ONLY, DEPHASING,
         {"model": {"type": "driven_dephasing", "gamma_z": 1.0, "omega": 30.0}}],
        ids=["hamiltonian_only", "dephasing", "driven_dephasing-30"],
    )
    def test_series_text_equals_rows(self, tmp_path, model, fmt):
        # t = 0.0 and the propagator norms of exactly 1.0 are integer-valued
        # cells; appg_satisfied is a bool column
        path = write(tmp_path, "m.json", model)
        superop = liouvillian(parse_model_file(path))
        series = lindscope.amplification_series(superop, lindscope.default_grid(superop))
        columns = [series.times, *(getattr(series, name) for name in SERIES_FIELDS[1:])]
        rows = _rows_of(dict(zip(SERIES_FIELDS, columns)))
        assert rows[0]["t"] == 0.0 and 1.0 in series.prop_norm.tolist()
        code, out, err, caught = _main_captured(["series", path, "--format", fmt])
        text = to_json(rows) if fmt == "json" else to_csv(SERIES_FIELDS, rows)
        assert (code, out, err, caught) == (0, text, "", [])

    # every kind of cell: regular floats (a subnormal among them), -0.0 and
    # integer values, huge values and infinities, a NaN kappa, labels and bools
    COLUMNS = {
        "delta": np.array([0.5, 1 / 3, 5e-324, -2.5e-7]),
        "eta": np.array([-0.0, 2.0, 1e16, 3.0]),
        "nd_norm": np.array([1e300, np.inf, -np.inf, 0.1]),
        "kappa": np.array([np.nan, 0.25, 3.0, np.nan]),
        "regime": np.array(["Hamiltonian", "Crossover", "StronglyNonnormal", "100% label"]),
        "appg_satisfied": np.array([True, False, True, False]),
    }

    def test_every_cell_kind(self):
        # the whole table, then each of its rows as a one-row table
        rows = _rows_of(self.COLUMNS)
        csv_text = to_csv(list(self.COLUMNS), columns=self.COLUMNS.values())
        for cell in ("-0.0", "2.0", "10000000000000000.0", "1.0000000000000001e+300", "Infinity",
                     "-Infinity", "4.9406564584124654e-324", "undefined", "true", "false"):
            assert cell in csv_text
        assert json.loads(to_json(rows))[0]["kappa"] == "undefined"
        tables = [self.COLUMNS] + [
            {name: column[i : i + 1] for name, column in self.COLUMNS.items()}
            for i in range(len(rows))
        ]
        for table in tables:
            rows = _rows_of(table)
            assert to_csv(list(table), columns=table.values()) == to_csv(list(table), rows)
            assert cli._table(table, json.dumps) == to_json(rows)


class TestParserReuse:
    def test_back_to_back_commands_match_fresh_parsers(self, capsys):
        # the parser is built once per process; commands run one after
        # another through it print what they print through a fresh one
        driven = str(MODELS_DIR / "driven_dephasing.json")
        sweep = ["--param", "omega", "--from", "0.1", "--to", "10", "--points", "5"]
        argvs = [
            ["sweep", driven, *sweep, "--kappa-lo", "0.2", "--format", "json"],
            ["analyze", driven, "--format", "csv"],
            ["series", driven, "--steps", "4"],
            ["sweep", driven, "--param", "omega"],
            ["regimes", driven, *sweep, "--log"],
            ["analyze", driven],
            ["sweep", driven, *sweep],
        ]

        def run_all(fresh):
            outputs = []
            for argv in argvs:
                if fresh:
                    cli._build_parser.cache_clear()
                code = main(argv)
                captured = capsys.readouterr()
                outputs.append((code, captured.out, captured.err))
            return outputs

        reused = run_all(fresh=False)
        assert cli._build_parser() is cli._build_parser()
        assert reused == run_all(fresh=True)
        assert [code for code, _, _ in reused] == [0, 0, 0, 1, 0, 0, 0]


class TestExitCodesAndFiles:
    def test_success_zero(self, tmp_path):
        path = write(tmp_path, "m.json", DEPHASING)
        assert main(["analyze", path]) == 0

    def test_model_error_one(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", {"model": {"type": "nonsense"}})
        assert main(["analyze", path]) == 1
        assert "nonsense" in capsys.readouterr().err

    def test_missing_file_two(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "missing.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_usage_error_one(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", DEPHASING)
        assert main(["sweep", path, "--param", "omega"]) == 1
        assert main(["analyze", path, "--seed", "7"]) == 1

    @pytest.mark.parametrize("command", ["analyze", "sweep"])
    def test_non_utf8_file_one(self, tmp_path, capsys, command):
        path = tmp_path / "m.json"
        path.write_bytes(b"\xff\xfe{}")
        argv = [command, str(path)]
        if command == "sweep":
            argv += ["--param", "omega", "--from", "1", "--to", "2", "--points", "2"]
        assert main(argv) == 1
        assert "not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "sweep"])
    @pytest.mark.parametrize(
        "text, reason",
        [('{"model": {"type": "dephasing", "gamma_z": ' + "1" * 5000 + "}}",
          "Exceeds the limit (4300 digits) for integer string conversion"),
         ("[" * 100000 + "]" * 100000, "maximum recursion depth exceeded")],
        ids=["long-integer", "deep-nesting"],
    )
    def test_unreadable_json_one(self, tmp_path, capsys, command, text, reason):
        # JSON that json.loads rejects with a ValueError or RecursionError,
        # not a JSONDecodeError
        path = tmp_path / "m.json"
        path.write_text(text, encoding="utf-8")
        argv = [command, str(path)]
        if command == "sweep":
            argv += ["--param", "omega", "--from", "1", "--to", "2", "--points", "2"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read model file {str(path)!r}: {reason}")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_nan_result_one(self, tmp_path, capsys, monkeypatch, fmt):
        # no model is known to reach a NaN, so one is planted in the record
        import lindscope.cli

        record = lindscope.cli.analyze_record
        monkeypatch.setattr(
            lindscope.cli, "analyze_record", lambda *a: {**record(*a), "delta": math.nan}
        )
        path = write(tmp_path, "m.json", DEPHASING)
        assert main(["analyze", path, "--format", fmt]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "NaN" in captured.err
        out = tmp_path / "result.txt"
        assert main(["analyze", path, "--format", fmt, "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_nan_sweep_column_one(self, tmp_path, capsys, monkeypatch, fmt):
        # a NaN kappa marks the undefined kappa of delta = 0 (point 0 here);
        # a NaN in any other column is an error, so one is planted in delta
        # and then in eta, in the columns of the sweep's pooled pass
        pooled = cli._block_pass
        path = write(tmp_path, "m.json", DEPHASING)
        argv = ["regimes", path, "--param", "gamma_z", "--from", "0", "--to", "1",
                "--points", "3", "--format", fmt]
        assert main(argv) == 0
        assert "undefined" in capsys.readouterr().out
        for column in ("delta", "eta"):

            def planted(*args, column=column):
                columns = pooled(*args)
                columns[column][-1] = math.nan
                return columns

            monkeypatch.setattr(cli, "_block_pass", planted)
            for extra in ([], ["--out", str(tmp_path / "table.txt")]):
                assert main([*argv, *extra]) == 1
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err == "error: a computed value is NaN; nothing was written\n"
                assert list(tmp_path.iterdir()) == [tmp_path / "m.json"]

    def test_no_partial_file_on_error(self, tmp_path):
        bad = write(tmp_path, "m.json", {"model": {"type": "nonsense"}})
        out = tmp_path / "result.json"
        assert main(["analyze", bad, "--out", str(out)]) == 1
        assert not out.exists()


class TestExtremeMagnitudes:
    """Generators far from unit scale give a result or a typed error, never
    a traceback or a NaN."""

    TINY = {"model": {"type": "dephasing", "gamma_z": 1e-320}}
    HUGE = {"model": {"type": "driven_dephasing", "gamma_z": 1.0, "omega": 1e300}}

    def run_main(self, argv, capsys):
        code = main(argv)
        out = capsys.readouterr().out
        assert "nan" not in out.lower()
        return code, out

    def test_subnormal_rate_analyze(self, tmp_path, capsys):
        code, out = self.run_main(["analyze", write(tmp_path, "m.json", self.TINY)], capsys)
        assert code == 0
        record = json.loads(out)
        assert record["delta"] == 2 * 1e-320
        assert record["regime"] == "NormalDissipative"

    def test_subnormal_rate_series(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", self.TINY)
        # 5/delta overflows, so the default grid is a typed error
        assert self.run_main(["series", path], capsys) == (1, "")
        code, out = self.run_main(["series", path, "--t-end", "1e300"], capsys)
        assert code == 0 and len(out.splitlines()) == 202

    def test_huge_drive(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", self.HUGE)
        code, out = self.run_main(["analyze", path], capsys)
        assert code == 0
        assert json.loads(out)["eta"] == pytest.approx(4e300, rel=1e-14)
        code, _ = self.run_main(["series", path], capsys)
        assert code == 0

    def test_overflowing_eta_one(self, tmp_path, capsys):
        payload = {"model": {"type": "driven_dephasing", "gamma_z": 1e10, "omega": 1e300}}
        path = write(tmp_path, "m.json", payload)
        assert main(["analyze", path]) == 1
        assert "eta" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "regimes"])
    def test_full_range_sweep(self, capsys, command):
        argv = [command, str(MODELS_DIR / "driven_dephasing.json"), "--param", "omega",
                "--from", "1e-300", "--to", "1e300", "--points", "5", "--log"]
        code, out = self.run_main(argv, capsys)
        assert code == 0
        assert len(out.splitlines()) == 6

    @pytest.mark.parametrize("command", ["sweep", "regimes"])
    def test_failing_point_named(self, tmp_path, capsys, command):
        # eta overflows at the last point only; the error names that point
        payload = {"model": {"type": "driven_dephasing", "gamma_z": 1e10, "omega": 1}}
        path = write(tmp_path, "m.json", payload)
        argv = [command, path, "--param", "omega", "--from", "1", "--to", "1e300",
                "--points", "4", "--log"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: omega = 1e+300: eta is about")
        config = RunConfig(command, path, param="omega", start=1.0, stop=1e300,
                           points=4, log_scale=True)
        with pytest.raises(RangeError, match=r"^omega = 1e\+300: eta"):
            run(config)

    def test_overflowing_explicit_model_one(self, tmp_path, capsys):
        # the Liouvillian of this jump overflows: one typed error, and no
        # numpy warning on the way
        payload = {"dim": 2, "hamiltonian": [[0, 0], [0, 0]],
                   "jumps": [{"matrix": [[1e200, 0], [0, -1e200]]}]}
        path = write(tmp_path, "m.json", payload)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["analyze", path])
        captured = capsys.readouterr()
        assert (code, captured.out, caught) == (1, "", [])
        assert captured.err == (
            "error: the generator overflows double precision; rescale the model\n"
        )

    @pytest.mark.parametrize("t_end", ["inf", "0", "-1", "1.0"])
    def test_overflow_reported_before_the_grid(self, tmp_path, capsys, t_end):
        # the generator is formed only by the series, yet its overflow is
        # reported before an invalid --t-end, as when the build came first
        payload = {"dim": 2, "hamiltonian": [[0, 0], [0, 0]],
                   "jumps": [{"matrix": [[1e200, 0], [0, -1e200]]}]}
        path = write(tmp_path, "m.json", payload)
        assert main(["series", path, f"--t-end={t_end}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: the generator overflows double precision; rescale the model\n"
        )

    @pytest.mark.parametrize("t_end", ["-1", "0", "inf"])
    def test_model_error_reported_before_the_grid(self, tmp_path, capsys, t_end):
        # the generator forms, but eta overflows: the analysis fails before
        # --t-end is checked, as it does on the default grid
        payload = {"model": {"type": "driven_dephasing", "gamma_z": 1e300, "omega": 1e10}}
        path = write(tmp_path, "m.json", payload)
        assert main(["series", path]) == 1
        want = capsys.readouterr()
        assert want.err.startswith("error: eta is about 1e310.6")
        assert main(["series", path, f"--t-end={t_end}"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", want.err)

    @pytest.mark.parametrize(
        "rate, message",
        [("Infinity", "rate must be a finite nonnegative number"),
         ("NaN", "rate must be a finite nonnegative number"),
         ("1e300", "sqrt(rate) * matrix overflows double precision")],
        ids=["inf", "nan", "overflow"],
    )
    def test_bad_explicit_rate_one(self, tmp_path, capsys, rate, message):
        path = tmp_path / "m.json"
        path.write_text(
            '{"dim": 2, "hamiltonian": [[0, 0], [0, 0]], '
            f'"jumps": [{{"rate": {rate}, "matrix": [[1e200, 0], [0, 0]]}}]}}',
            encoding="utf-8",
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["analyze", str(path)])
        err = capsys.readouterr().err
        assert (code, caught) == (1, [])
        assert err.startswith("error: ") and message in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "value", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400],
        ids=["nan", "inf", "-inf", "huge-int"],
    )
    def test_non_finite_parameter_one(self, tmp_path, capsys, value):
        path = tmp_path / "m.json"
        path.write_text(
            '{"model": {"type": "dephasing", "gamma_z": ' + value + "}}", encoding="utf-8"
        )
        assert main(["analyze", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: dephasing: parameter 'gamma_z' must be a finite double, got "
        )

    def test_non_finite_sweep_point_named(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", DEPHASING)
        argv = ["sweep", path, "--param", "gamma_z", "--from", "nan", "--to", "1",
                "--points", "2"]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: --from and --to must be finite, got nan and 1.0\n"
        )

    @pytest.mark.parametrize(
        "bounds, log_scale, message",
        [(["--from=-inf", "--to=inf"], False,
          "--from and --to must be finite, got -inf and inf"),
         (["--from=1e-300", "--to=inf"], True,
          "--from and --to must be finite, got 1e-300 and inf"),
         (["--from=-1.7e308", "--to=1.7e308"], False,
          "--from -1.7e+308 and --to 1.7e+308 are too far apart: "
          "the spacing of their points overflows double precision")],
        ids=["linear", "log", "finite-ends"],
    )
    def test_infinite_sweep_range_one(self, tmp_path, capsys, bounds, log_scale, message):
        # the flag is named, not a point the user never gave, and numpy
        # prints no warning
        path = write(tmp_path, "m.json", DEPHASING)
        argv = ["sweep", path, "--param", "gamma_z", *bounds, "--points", "3",
                *(["--log"] if log_scale else [])]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        assert (code, caught) == (1, [])
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_infinite_t_end_one(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", DEPHASING)
        assert main(["series", path, "--t-end", "inf"]) == 1
        assert "finite" in capsys.readouterr().err


NAMED_MODEL_FILES = sorted(
    str(p) for p in MODELS_DIR.glob("*.json") if not p.stem.endswith("_explicit")
)


class TestSeriesFuzz:
    """Any --t-end and --steps on the shipped named models gives a result or
    a typed error: exit 0, 1 or 2, no traceback, no NaN."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        model=st.sampled_from(NAMED_MODEL_FILES),
        t_end=st.floats() | st.floats(0.0, 1e3),
        steps=st.integers(-2, 5000) | st.just(10**6 + 1),
    )
    def test_series_boundary(self, model, t_end, steps):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["series", model, f"--t-end={t_end!r}", f"--steps={steps}"])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        assert "nan" not in out.getvalue().lower()
        if code == 0:
            assert len(out.getvalue().splitlines()) == steps + 2


def _model_and_param():
    """A shipped named model file and one of its parameters."""
    files = {path: json.loads(Path(path).read_text(encoding="utf-8"))["model"]
             for path in NAMED_MODEL_FILES}
    return st.sampled_from(sorted(
        (path, name) for path, model in files.items() for name in model if name != "type"
    ))


class TestSweepFuzz:
    """Any sweep range on the shipped named models gives a result or a typed
    error: exit 0, 1 or 2, no traceback, no NaN, one row per point."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        command=st.sampled_from(["sweep", "regimes"]),
        target=_model_and_param(),
        start=st.floats() | st.floats(0.0, 1e3),
        stop=st.floats() | st.floats(0.0, 1e3),
        points=st.integers(-2, 1200) | st.sampled_from([10**6 + 1, 10**13]),
        log_scale=st.booleans(),
    )
    def test_sweep_boundary(self, command, target, start, stop, points, log_scale):
        model, param = target
        argv = [command, model, "--param", param, f"--from={start!r}", f"--to={stop!r}",
                f"--points={points}", *(["--log"] if log_scale else [])]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (0, 1, 2)
        assert caught == []
        assert "Traceback" not in err.getvalue()
        assert "nan" not in out.getvalue().lower()
        if code == 0:
            assert len(out.getvalue().splitlines()) == points + 1

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        command=st.sampled_from(["sweep", "regimes"]),
        target=st.sampled_from([
            ("jaynes_cummings", param) for param in ("omega_a", "omega_c", "g")
        ] + [("multi_qubit_dephasing", f"gamma_{j}") for j in (1, 2, 3)]),
        start=st.just(0.0) | st.floats(-1e3, 0.0),
        stop=st.floats(0.0, 1e3),
        points=st.integers(1, 300),
        reverse=st.booleans(),
    )
    def test_sectored_sweep_through_zero(self, command, target, start, stop, points, reverse):
        # the d = 8 kinds that split into sectors, pooled over many points,
        # over ranges from or through 0, where the sectors change: the text
        # is that of the points taken one at a time, or their first error
        kind, param = target
        model = {
            "jaynes_cummings": {"n_max": 3, "g": 0.3},
            "multi_qubit_dephasing": {"k": 3, "gamma_1": 0.3, "gamma_2": 0.6, "gamma_3": 0.1},
        }[kind]
        if reverse:
            start, stop = stop, start
        argv = [command, "", "--param", param, f"--from={start!r}", f"--to={stop!r}",
                f"--points={points}"]
        with tempfile.TemporaryDirectory() as tmp:
            argv[1] = write(Path(tmp), "m.json", {"model": {"type": kind, **model}})
            config = cli._config(argv)
            fields = cli.SWEEP_FIELDS if command == "sweep" else cli.REGIMES_FIELDS
            header, rows = _per_point_sweep(config, fields)
            code, out, err, caught = _main_captured(argv)
        assert caught == []
        if not isinstance(header, list):
            assert (code, out, err) == (1, "", f"error: {rows}\n")
            return
        assert (code, out, err) == (0, to_csv(header, rows), "")


# Values json.loads accepts for a parameter: any double (subnormals, +-inf
# and NaN included), integers past double range, and small integers for the
# shape parameters.
_PARAMETER_VALUES = (
    st.sampled_from(
        [math.nan, math.inf, -math.inf, 5e-324, 1e-310, -0.0, 1e308, 10**400, -(10**400)]
    )
    | st.floats()
    | st.floats(0.0, 10.0)
    | st.integers(-3, 40)
)


def _named_model():
    """A named model object, each of its parameters present or not, at any value."""
    def model(kind, values, k):
        names = {
            "multi_qubit_dephasing": ["k", *(f"gamma_{j + 1}" for j in range(k))],
            "jaynes_cummings": ["omega_a", "omega_c", "g", "n_max"],
        }.get(kind, _SWEEPABLE[kind][1])  # a qubit kind's real parameters are all sweepable
        return {"type": kind, **{n: v for n, v in zip(names, values) if v is not None}}

    return st.builds(
        model,
        st.sampled_from(sorted(_SWEEPABLE)),
        st.lists(st.none() | _PARAMETER_VALUES, min_size=5, max_size=5),
        st.integers(1, 3),
    )


class TestAnalyzeFuzz:
    """Any named-model parameters and any analyze flags give a result or a
    typed error: exit 0, 1 or 2, no traceback, no numpy warning, no NaN."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        model=_named_model(),
        kappa_lo=st.none() | st.floats(1e-3, 1.0) | st.floats(),
        kappa_hi=st.none() | st.floats(1.0, 1e3) | st.floats(),
        fmt=st.none() | st.sampled_from(["csv", "json"]),
    )
    def test_analyze_boundary(self, model, kappa_lo, kappa_hi, fmt):
        argv = ["analyze", ""]
        if kappa_lo is not None:
            argv.append(f"--kappa-lo={kappa_lo!r}")
        if kappa_hi is not None:
            argv.append(f"--kappa-hi={kappa_hi!r}")
        if fmt is not None:
            argv += ["--format", fmt]
        with tempfile.TemporaryDirectory() as tmp:
            argv[1] = write(Path(tmp), "m.json", {"model": model})
            code, out, err, caught = _main_captured(argv)
        assert code in (0, 1, 2)
        assert caught == []
        assert "Traceback" not in err
        assert "nan" not in out.lower()
        assert (out == "") is (code != 0)


# Entries and rates of every magnitude: zeros of both signs, subnormals,
# tiny, unit and huge values, the largest double, and any finite double.
_MAGNITUDES = st.sampled_from(
    [0.0, -0.0, 5e-324, -1e-310, 1e-200, -1e-20, 0.5, -1.0, 3.0, 1e20, -1e200, 1e308,
     -1.7976931348623157e308]
) | st.floats(allow_nan=False, allow_infinity=False)
_RATES = st.sampled_from(
    [0, 5e-324, 1e-300, 1.0, 2, 1e300, 1.7976931348623157e308, -1.0, math.inf, math.nan]
) | st.floats(0.0, 1e3)


@st.composite
def _explicit_model(draw):
    """An explicit model object at d <= 3: a Hermitian H or any H, jumps at
    any rate, every entry of any magnitude; diagonal H and jumps, whose
    generators split into sectors, about half the time."""
    d = draw(st.integers(1, 3))
    diagonal = draw(st.booleans())

    def matrix(hermitian):
        m = [[[0.0, 0.0] for _ in range(d)] for _ in range(d)]
        for i in range(d):
            for j in range(i if hermitian else 0, d):
                if diagonal and i != j:
                    continue
                re, im = draw(_MAGNITUDES), draw(_MAGNITUDES)
                m[i][j] = [re, 0.0 if hermitian and i == j else im]
                if hermitian and i != j:
                    m[j][i] = [re, -im]
        return m

    jumps = [
        {"rate": draw(_RATES), "matrix": matrix(False)} for _ in range(draw(st.integers(0, 2)))
    ]
    return {"dim": d, "hamiltonian": matrix(draw(st.booleans())), "jumps": jumps}


def _overflowing_sum(jump):
    """An explicit d = 2 model with zero H and two unit-rate copies of ``jump``."""
    zero = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    return {"dim": 2, "hamiltonian": zero, "jumps": [{"rate": 1.0, "matrix": jump}] * 2}


class TestExplicitFuzz:
    """Any explicit matrices at d <= 3 give, through analyze and series, a
    result or a typed error: exit 0, 1 or 2, no traceback, no numpy
    warning, no NaN."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(model=_explicit_model())
    # the sum of the L_k^dag L_k overflows: two jumps 1e154 |0><0| are not
    # structured (analyze exits 0), two jumps 1e154 I have a gamma of 2e308
    # (analyze exits 1, series 0)
    @example(model=_overflowing_sum([[[1e154, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]))
    @example(model=_overflowing_sum([[[1e154, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1e154, 0.0]]]))
    def test_explicit_boundary(self, model):
        with tempfile.TemporaryDirectory() as tmp:
            path = write(Path(tmp), "m.json", model)
            for command in ("analyze", "series"):
                code, out, err, caught = _main_captured([command, path])
                assert code in (0, 1, 2)
                assert caught == []
                assert "Traceback" not in err
                assert "nan" not in out.lower()
                assert (out == "") is (code != 0)


class TestStartup:
    def test_no_scipy_on_cli_path(self):
        # scipy is a test dependency only: importing the CLI and running
        # analyze in a fresh interpreter must not load it
        code = (
            "import contextlib, io, json, sys\n"
            "from lindscope.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main(['analyze', {str(MODELS_DIR / 'dephasing.json')!r}])\n"
            "print(json.dumps([code, sorted(k for k in sys.modules if k.startswith('scipy'))]))\n"
        )
        src = str(Path(lindscope.__file__).resolve().parent.parent)
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        done = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == [0, []]


class TestCostArithmetic:
    def test_base_cost_shapes(self):
        # the two canonical arithmetic checks, through the library call the
        # CLI does not expose directly
        from lindscope import cost_estimate, hamiltonian_only

        s = liouvillian(hamiltonian_only(np.diag([1.0, -1.0]).astype(complex)))
        base, _ = cost_estimate(s, 10.0, 1e-6)
        assert base == pytest.approx(10.0 + math.log(1e6), rel=1e-12)
