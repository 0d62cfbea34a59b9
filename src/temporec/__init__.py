"""Reconciliation of sample-based probabilistic forecasts over temporal
aggregation hierarchies: joint-sample assembly schemes, projection-matrix
reconciliation methods, cross-validated weight selection, and CRPS/MAE
evaluation. The experiment driver lives in ``temporec.cli``, which is not
imported here, so ``python -m temporec.cli`` runs it without a warning."""

from .hierarchy import (
    HierarchySpec,
    SummingMatrix,
    aggregate,
    build_hierarchy,
    build_summing_matrix,
)
from .sampling import (
    SCHEMES,
    JointSample,
    LevelSample,
    OriginData,
    assemble,
    permute,
    rank,
    stack,
)
from .reconcile import (
    FIXED_METHODS,
    CoherenceCheck,
    WeightMatrix,
    check_coherence,
    fixed_weights,
    reconcile,
    reconcile_tensor,
    weights_from_levels,
    wls_weights,
)
from .scoring import (
    ScoreTable,
    assemble_origins,
    crps_sample,
    cv_criterion,
    cv_objective,
    median_point,
    score_hierarchy,
)
from .cvopt import REGIMES, CvResult, optimize_weights
from .simkit import (
    Dataset,
    LevelForecaster,
    SyntheticScenario,
    build_dataset,
    dataset_from_series,
    fit_level,
    sample_paths,
    simulate_truth,
)

__version__ = "0.1.0"

__all__ = [
    "HierarchySpec", "SummingMatrix", "build_hierarchy",
    "build_summing_matrix", "aggregate",
    "SCHEMES", "LevelSample", "JointSample", "OriginData", "stack", "rank",
    "permute", "assemble",
    "FIXED_METHODS", "WeightMatrix", "CoherenceCheck",
    "fixed_weights", "wls_weights", "weights_from_levels",
    "reconcile", "reconcile_tensor", "check_coherence",
    "ScoreTable", "crps_sample", "median_point", "score_hierarchy",
    "assemble_origins", "cv_criterion", "cv_objective",
    "REGIMES", "CvResult", "optimize_weights",
    "SyntheticScenario", "LevelForecaster", "Dataset", "simulate_truth",
    "fit_level", "sample_paths", "build_dataset", "dataset_from_series",
    "__version__",
]
