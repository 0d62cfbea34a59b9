"""Combination-weight matrices and the projection that enforces coherence.

A reconciliation method is an m x M matrix P mapping base forecasts of all
nodes to bottom-level values; premultiplying a joint sample by S @ P yields
a sample whose every column satisfies the aggregation constraints. That
product has one implementation, ``reconcile_tensor``: one matrix product
P @ Y, then the window-mean aggregation that stands for S. Fixed
methods (bottom-up, bottom average, global average, lineal average, weighted
least squares) are built here alongside the two sparse data-driven layouts
whose weights are chosen by cross-validation: one weight per node, or one
weight shared by all nodes of a level.

For the averaging layouts (lineal and cross-validated) the "ancestor" of
bottom node r at level l is the unique level-l node whose window of f_l
bottom periods contains r. On a tree hierarchy this is the usual lineage;
on overlapping hierarchies it is the containment generalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatch,
    LengthMismatch,
    MissingWeight,
    ReconcileError,
    SingularSystem,
)
from .hierarchy import HierarchySpec, SummingMatrix, aggregate, build_summing_matrix
from .sampling import JointSample

__all__ = [
    "FIXED_METHODS",
    "WeightMatrix",
    "ReconciledSample",
    "CoherenceCheck",
    "fixed_weights",
    "wls_weights",
    "weights_from_levels",
    "weights_from_nodes",
    "reconcile",
    "reconcile_tensor",
    "check_coherence",
]

FIXED_METHODS = ("BU", "BA", "GA", "LA")


@dataclass(frozen=True)
class WeightMatrix:
    """m x M combination matrix defining one reconciliation method."""

    entries: np.ndarray
    method: str
    hierarchy: HierarchySpec

    def __post_init__(self):
        mat = np.asarray(self.entries, dtype=float)
        h = self.hierarchy
        if mat.shape != (h.m, h.M):
            raise DimensionMismatch(
                f"weight matrix must be {h.m}x{h.M}, got {mat.shape}"
            )
        mat.setflags(write=False)
        object.__setattr__(self, "entries", mat)


@dataclass(frozen=True)
class ReconciledSample:
    """Joint sample after projection; columns live in the column space of S."""

    matrix: np.ndarray
    method: str
    scheme: str
    hierarchy: HierarchySpec


class CoherenceCheck(NamedTuple):
    ok: bool
    max_violation: float


def fixed_weights(method: str, h: HierarchySpec) -> WeightMatrix:
    """Build the weight matrix of one of the fixed combination methods.

    * ``BU`` bottom-up: keep the bottom-level forecasts, [0 | I_m].
    * ``BA`` bottom average: every row averages the bottom level,
      [0 | (1/m) ones].
    * ``GA`` global average: every row averages all M nodes, (1/M) ones.
    * ``LA`` lineal average: row r averages bottom node r and its ancestor
      at every level, weight 1/L each.
    """
    m, M, L = h.m, h.M, h.L
    if method == "BU":
        entries = np.hstack([np.zeros((m, M - m)), np.eye(m)])
    elif method == "BA":
        entries = np.hstack([np.zeros((m, M - m)), np.full((m, m), 1.0 / m)])
    elif method == "GA":
        entries = np.full((m, M), 1.0 / M)
    elif method == "LA":
        entries = _lineage_matrix(np.full((L, m), 1.0 / L), h)
    else:
        raise ReconcileError(f"unknown fixed method {method!r}, expected {FIXED_METHODS}")
    return WeightMatrix(entries=entries, method=method, hierarchy=h)


def wls_weights(h: HierarchySpec) -> WeightMatrix:
    """Weighted-least-squares combination, P = (S'W^-1 S)^-1 S'W^-1.

    W is diagonal with entry f_l^2 for every node at level l: a structural
    proxy for the (unidentifiable) error covariance in which standard
    deviations scale with the aggregation window. Because the node values
    are already expressed in common units, this choice coincides with
    ordinary least squares on the rescaled data. Satisfies P @ S = I.
    """
    S = build_summing_matrix(h).entries
    w_inv = 1.0 / h.node_windows**2
    # Solve (S' W^-1 S) P = S' W^-1 via Cholesky rather than inverting.
    gram = (S.T * w_inv) @ S
    rhs = S.T * w_inv
    try:
        cho = scipy.linalg.cho_factor(gram)
        entries = scipy.linalg.cho_solve(cho, rhs)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - S has full rank
        raise SingularSystem(f"normal equations not positive definite: {exc}") from exc
    return WeightMatrix(entries=entries, method="WLS", hierarchy=h)


def weights_from_levels(v, h: HierarchySpec) -> WeightMatrix:
    """Sparse combination with one shared weight per level.

    Row r carries ``v[l-1]`` in the column of the level-l node containing
    bottom node r, for every level, and zeros elsewhere. The bottom-up and
    lineal-average methods are the special cases v = (0, ..., 0, 1) and
    v = (1/L, ..., 1/L).
    """
    vec = np.asarray(v, dtype=float)
    if vec.shape != (h.L,):
        raise LengthMismatch(f"need {h.L} level weights, got shape {vec.shape}")
    if not np.isfinite(vec).all():
        raise LengthMismatch("level weights must be finite")
    entries = _lineage_matrix(np.broadcast_to(vec[:, None], (h.L, h.m)), h)
    return WeightMatrix(entries=entries, method="CVR", hierarchy=h)


def weights_from_nodes(v: Mapping[tuple[int, int], float], h: HierarchySpec) -> WeightMatrix:
    """Sparse combination with one weight per node.

    ``v`` maps (level, position) - both 1-based - to the weight placed on
    that node in the rows of every bottom node it contains. Every node in
    the hierarchy needs a weight since every node covers some bottom node.

    Raises:
        MissingWeight: a required (level, position) key is absent.
    """
    keys = [
        (lev, pos) for lev in range(1, h.L + 1) for pos in range(1, h.nodes_at(lev) + 1)
    ]
    for lev, pos in keys:
        if (lev, pos) not in v:
            raise MissingWeight(f"no weight for node (level={lev}, position={pos})")
    per_node = np.array([v[key] for key in keys], dtype=float)
    if not np.isfinite(per_node).all():
        raise MissingWeight("node weights must be finite")
    entries = _lineage_matrix(per_node[_ancestor_columns(h)], h)
    return WeightMatrix(entries=entries, method="CV-full", hierarchy=h)


def _ancestor_columns(h: HierarchySpec) -> np.ndarray:
    """(L, m) flat column (0-based) of the level-l node containing bottom node r."""
    bottom = np.arange(h.m)
    return np.stack(
        [h.level_offset(lev) + bottom // fl for lev, fl in enumerate(h.f, start=1)]
    )


def _lineage_matrix(values: np.ndarray, h: HierarchySpec) -> np.ndarray:
    """m x M matrix holding ``values[l, r]`` in row r at the column of bottom
    node r's level-l ancestor, and zeros elsewhere."""
    entries = np.zeros((h.m, h.M))
    entries[np.arange(h.m), _ancestor_columns(h)] = values
    return entries


def reconcile_tensor(P: WeightMatrix, tensor: np.ndarray) -> np.ndarray:
    """S @ P @ Y for one M x N joint sample or a (T, M, N) stack of them.

    One matrix product P @ Y gives the reconciled bottom level; ``aggregate``
    then fills every coarser level with window means, so the dense M x m
    summing matrix is never formed.
    """
    h = P.hierarchy
    Y = np.asarray(tensor, dtype=float)
    if Y.ndim < 2 or Y.shape[-2] != h.M:
        raise DimensionMismatch(f"P has {h.M} columns, sample has shape {Y.shape}")
    return aggregate(np.matmul(P.entries, Y), h)


def reconcile(S: SummingMatrix, P: WeightMatrix, Y: JointSample) -> ReconciledSample:
    """Project a joint sample onto the coherent subspace: S @ (P @ Y)."""
    if S.hierarchy != P.hierarchy or S.hierarchy != Y.hierarchy:
        raise DimensionMismatch("summing matrix, weights and sample hierarchies differ")
    return ReconciledSample(
        matrix=reconcile_tensor(P, Y.matrix), method=P.method, scheme=Y.scheme,
        hierarchy=Y.hierarchy,
    )


def check_coherence(Y: np.ndarray, S: SummingMatrix, tol: float = 1e-9) -> CoherenceCheck:
    """Test whether every column satisfies the aggregation constraints.

    A column y is coherent when y equals S @ y_bottom for its own bottom
    block; the check reports the worst absolute violation over all entries
    and columns.
    """
    mat = np.asarray(Y, dtype=float)
    h = S.hierarchy
    if mat.ndim == 1:
        mat = mat[:, None]
    if mat.shape[0] != h.M:
        raise DimensionMismatch(f"expected {h.M} rows, got {mat.shape[0]}")
    bottom = mat[h.M - h.m :, :]
    residual = mat - S.entries @ bottom
    max_violation = float(np.abs(residual).max()) if residual.size else 0.0
    return CoherenceCheck(ok=max_violation <= tol, max_violation=max_violation)
