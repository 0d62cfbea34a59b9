"""Reconciliation of sample-based probabilistic forecasts over temporal
aggregation hierarchies: joint-sample assembly schemes, projection-matrix
reconciliation methods, cross-validated weight selection, and CRPS/MAE
evaluation. The experiment driver lives in ``temporec.cli``, which is not
imported here, so ``python -m temporec.cli`` runs it without a warning."""

from .hierarchy import (
    HierarchySpec,
    NodeId,
    SummingMatrix,
    aggregate,
    aggregate_to_level,
    build_hierarchy,
    build_summing_matrix,
    from_common_units,
    to_common_units,
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
    ReconciledSample,
    WeightMatrix,
    check_coherence,
    fixed_weights,
    reconcile,
    reconcile_tensor,
    weights_from_levels,
    weights_from_nodes,
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
from .cvopt import REGIMES, CvResult, NodeCvResult, optimize_node_weights, optimize_weights
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
    "HierarchySpec", "NodeId", "SummingMatrix", "build_hierarchy",
    "build_summing_matrix", "aggregate", "aggregate_to_level", "to_common_units",
    "from_common_units",
    "SCHEMES", "LevelSample", "JointSample", "OriginData", "stack", "rank",
    "permute", "assemble",
    "FIXED_METHODS", "WeightMatrix", "ReconciledSample", "CoherenceCheck",
    "fixed_weights", "wls_weights", "weights_from_levels", "weights_from_nodes",
    "reconcile", "reconcile_tensor", "check_coherence",
    "ScoreTable", "crps_sample", "median_point", "score_hierarchy",
    "assemble_origins", "cv_criterion", "cv_objective",
    "REGIMES", "CvResult", "NodeCvResult", "optimize_weights", "optimize_node_weights",
    "SyntheticScenario", "LevelForecaster", "Dataset", "simulate_truth",
    "fit_level", "sample_paths", "build_dataset", "dataset_from_series",
    "__version__",
]
