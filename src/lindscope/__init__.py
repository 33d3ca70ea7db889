"""lindscope: structural analysis of Markovian open-system generators.

A model is a Hamiltonian plus jump operators. Its generator on vectorized
operator space is formed from ``H`` and the jumps, on sector blocks where
the model splits, and its dense matrix is built only when first read. From
the generator's Hermitian and anti-Hermitian parts come the scalar
structure metrics (dissipative strength, nonnormality, their dimensionless
ratio), the dynamical-regime classification, propagator norms over time,
transient amplification factors and cost heuristics. A CLI emits all of it
as deterministic CSV/JSON.

Each module's ``__all__`` is the one declaration of its public names; the
package re-exports them all.
"""

from . import errors, linalg, superop, metrics, dynamics, models
from .errors import *
from .linalg import *
from .superop import *
from .metrics import *
from .dynamics import *
from .models import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *linalg.__all__,
    *superop.__all__,
    *metrics.__all__,
    *dynamics.__all__,
    *models.__all__,
]
