"""lindscope: structural analysis of Markovian open-system generators.

Builds the generator of a Hamiltonian-plus-jump-operators model as an
explicit matrix on vectorized operator space, splits it into Hermitian
and anti-Hermitian parts, and computes the scalar structure metrics
(dissipative strength, nonnormality, their dimensionless ratio), the
dynamical-regime classification, propagator norms over time, transient
amplification factors and cost heuristics. A CLI emits all of it as
deterministic CSV/JSON.
"""

from .errors import (
    ConfigError,
    DimensionError,
    IoError,
    LindscopeError,
    ModelError,
    NumericalError,
    RangeError,
)
from .linalg import (
    as_complex_matrix,
    commutator,
    dagger,
    eigenvalues_general,
    hermitian_norm,
    hs_inner,
    hs_norm,
    matrix_exp,
    spectral_norm,
)
from .superop import (
    LindbladModel,
    Superoperator,
    adjoint,
    apply,
    decompose,
    devectorize,
    dim_cap,
    liouvillian,
    vectorize,
)
from .metrics import (
    Regime,
    RegimeThresholds,
    StructuralMetrics,
    StructuredDissipatorReport,
    bound_check,
    classify,
    compute_metrics,
    dissipative_strength,
    kappa,
    nonnormality,
    structured_dissipator_report,
)
from .dynamics import (
    AmplificationSeries,
    AppgBound,
    CostEstimate,
    TimeGrid,
    amplification_series,
    cost_estimate,
    default_grid,
    error_amplification,
    gronwall_check,
    normal_factorization_residual,
    propagator,
    spectral_abscissa,
    truncated_appg_bound,
)
from .models import (
    ModelSpec,
    build,
    dephasing,
    dephasing_relaxation,
    driven_dephasing,
    hamiltonian_only,
    jaynes_cummings,
    lowering,
    multi_qubit_dephasing,
    pauli,
    pauli_channel,
    relaxation,
    tensor_site,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "LindscopeError",
    "DimensionError",
    "NumericalError",
    "RangeError",
    "ModelError",
    "ConfigError",
    "IoError",
    # linear algebra kernel
    "as_complex_matrix",
    "dagger",
    "hs_inner",
    "hs_norm",
    "spectral_norm",
    "hermitian_norm",
    "eigenvalues_general",
    "matrix_exp",
    "commutator",
    # superoperators
    "LindbladModel",
    "Superoperator",
    "vectorize",
    "devectorize",
    "liouvillian",
    "adjoint",
    "decompose",
    "apply",
    "dim_cap",
    # metrics
    "Regime",
    "RegimeThresholds",
    "StructuralMetrics",
    "StructuredDissipatorReport",
    "dissipative_strength",
    "nonnormality",
    "kappa",
    "bound_check",
    "classify",
    "compute_metrics",
    "structured_dissipator_report",
    # dynamics
    "TimeGrid",
    "AmplificationSeries",
    "AppgBound",
    "CostEstimate",
    "default_grid",
    "propagator",
    "spectral_abscissa",
    "amplification_series",
    "gronwall_check",
    "normal_factorization_residual",
    "error_amplification",
    "truncated_appg_bound",
    "cost_estimate",
    # models
    "ModelSpec",
    "build",
    "pauli",
    "lowering",
    "tensor_site",
    "dephasing",
    "driven_dephasing",
    "relaxation",
    "dephasing_relaxation",
    "pauli_channel",
    "multi_qubit_dephasing",
    "hamiltonian_only",
    "jaynes_cummings",
]
