"""The per-command verdict and the summary of ``scripts/cli_drift.py``."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "cli_drift.py"


@pytest.fixture(scope="module")
def drift():
    spec = importlib.util.spec_from_file_location("cli_drift", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _side(fields: dict) -> list:
    """One side's ``[exit code, stdout, stderr]`` of an ``analyze`` in JSON."""
    return [0, json.dumps(fields, indent=2) + "\n", ""]


OLD = {"delta": 0.5, "eta": 1.0, "regime": "weakly_nonnormal"}
NEW = dict(OLD, eta=float.fromhex("0x1.0000000000001p+0"))  # one ulp above 1
ULP = (NEW["eta"] - 1.0) / NEW["eta"]


def test_changed_float_fails_under_bound_zero_with_its_deviation(drift):
    line, worst, failed = drift.verdict("analyze", _side(OLD), _side(NEW), 0.0)
    assert failed
    assert worst == ULP
    assert "stdout line" in line and f"relative deviation {ULP:.3g} exceeds 0" in line


def test_summary_reads_the_deviation_of_a_command_whose_stdout_differs(drift, capsys):
    old = {"same": _side(OLD), "float": _side(OLD)}
    new = {"same": _side(OLD), "float": _side(NEW)}
    assert drift.report(["same", "float"], old, new, 0.0) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "same: exit 0, relative deviation 0"
    assert lines[1].startswith("float: stdout line")
    assert lines[-1] == f"largest relative deviation: {ULP:.3g} (bound 0)"


def test_equal_outputs_pass_under_bound_zero(drift, capsys):
    assert drift.report(["a"], {"a": _side(OLD)}, {"a": _side(OLD)}, 0.0) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "largest relative deviation: 0 (bound 0)"


def test_changed_float_within_a_positive_bound_passes(drift):
    line, worst, failed = drift.verdict("analyze", _side(OLD), _side(NEW), 1e-14)
    assert not failed and worst == ULP
    assert line == f"analyze: exit 0, relative deviation {ULP:.3g}"


def test_layout_change_alone_fails_under_bound_zero_at_deviation_zero(drift):
    old, new = [0, '{"eta": 2.0}\n', ""], [0, '{"eta": 2}\n', ""]
    line, worst, failed = drift.verdict("analyze", old, new, 0.0)
    assert failed and worst == 0.0
    assert line.endswith("relative deviation 0")
    assert drift.verdict("analyze", old, new, 1e-14)[2] is False


def test_changed_label_fails_whatever_the_bound(drift):
    new = _side(dict(OLD, regime="normal"))
    for bound in (0.0, 1e-14):
        line, _, failed = drift.verdict("analyze", _side(OLD), new, bound)
        assert failed and "changed row 0 regime" in line


def test_changed_exit_code_fails(drift):
    line, worst, failed = drift.verdict("analyze", _side(OLD), [1, "", "error\n"], 1e-14)
    assert failed and worst == 0.0 and line == "analyze: exit code 0 -> 1"
