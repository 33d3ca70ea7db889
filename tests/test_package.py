"""The package's public surface: each module's ``__all__``, re-exported once."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lindscope
from lindscope import dynamics, errors, linalg, metrics, models, superop

MODULES = (errors, linalg, superop, metrics, dynamics, models)

PUBLIC = [
    "AmplificationSeries", "AppgBound", "ConfigError", "CostEstimate", "DEFAULT_DIM_CAP",
    "DEFAULT_STEPS", "DimensionError", "ETA_RTOL", "EXP_SAFE_NORM", "HERM_FLOOR", "HERM_RTOL",
    "IoError", "LindbladModel", "LindscopeError", "MAX_STEPS", "MODEL_KINDS", "ModelError",
    "ModelSpec", "NumericalError", "RangeError", "Regime", "RegimeThresholds",
    "STRUCTURED_ATOL", "StructuralMetrics", "StructuredDissipatorReport", "Superoperator",
    "TimeGrid", "ZERO_RTOL", "__version__", "adjoint", "amplification_series", "apply",
    "as_complex_matrix", "bound_check", "build", "classify", "commutator", "compute_metrics",
    "cost_estimate", "dagger", "decompose", "default_grid", "dephasing",
    "dephasing_relaxation", "devectorize", "dim_cap", "dissipative_strength",
    "driven_dephasing", "eigenvalues_general", "error_amplification", "eta_tolerance",
    "gronwall_check", "hamiltonian_only", "hermitian_norm", "hermiticity_defect",
    "hermiticity_tolerance", "hs_inner", "hs_norm", "jaynes_cummings", "kappa", "liouvillian",
    "lowering", "matrix_exp", "multi_qubit_dephasing", "nonnormality",
    "normal_factorization_residual", "pauli", "pauli_channel", "propagator", "relaxation",
    "spectral_abscissa", "spectral_norm", "structured_dissipator_report", "tensor_site",
    "truncated_appg_bound", "vectorize", "zero_tolerance",
]


def test_public_names_pinned():
    assert sorted(lindscope.__all__) == PUBLIC


def test_no_name_exported_twice():
    assert len(lindscope.__all__) == len(set(lindscope.__all__))


def test_package_all_is_union_of_module_alls():
    union = {"__version__"}.union(*(module.__all__ for module in MODULES))
    assert set(lindscope.__all__) == union


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_each_name_is_its_modules_object(module):
    for name in module.__all__:
        assert getattr(lindscope, name) is getattr(module, name), name


def test_module_alls_disjoint():
    for a, b in itertools.combinations(MODULES, 2):
        assert not set(a.__all__) & set(b.__all__), (a.__name__, b.__name__)


def test_cli_not_imported_by_package():
    src = str(Path(lindscope.__file__).resolve().parent.parent)
    probe = "import sys, lindscope; print('lindscope.cli' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout == "False\n"
