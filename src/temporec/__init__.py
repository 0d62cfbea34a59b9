"""Reconciliation of sample-based probabilistic forecasts over temporal
aggregation hierarchies: joint-sample assembly schemes, projection-matrix
reconciliation methods, cross-validated weight selection, and CRPS/MAE
evaluation. The package re-exports the ``__all__`` of each library module.
The experiment driver lives in ``temporec.cli``, which is not imported
here, so ``python -m temporec.cli`` runs it without a warning."""

from . import cvopt, hierarchy, reconcile, sampling, scoring, simkit

__version__ = "0.1.0"

# built before the star import of ``reconcile`` rebinds that name to the function
__all__ = ["__version__"] + [
    name for module in (hierarchy, sampling, reconcile, scoring, cvopt, simkit)
    for name in module.__all__
]

from .hierarchy import *
from .sampling import *
from .reconcile import *
from .scoring import *
from .cvopt import *
from .simkit import *
