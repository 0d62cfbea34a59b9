"""Combination-weight matrices and the projection that enforces coherence.

A reconciliation method is an m x M matrix P mapping base forecasts of all
nodes to bottom-level values; premultiplying a joint sample by S @ P yields
a sample whose every column satisfies the aggregation constraints. That
product has one implementation, ``reconcile_tensor``: one matrix product
P @ Y, then the window-mean aggregation that stands for S. Fixed
methods (bottom-up, bottom average, global average, lineal average, weighted
least squares) are built here alongside the two sparse data-driven layouts
whose weights are chosen by cross-validation: one weight per node, an
M-vector in the package's node order, or one weight shared by all nodes of
a level, which is that vector with each level's weight repeated.

For the averaging layouts (lineal and cross-validated) the "ancestor" of
bottom node r at level l is the unique level-l node whose window of f_l
bottom periods contains r. On a tree hierarchy this is the usual lineage;
on overlapping hierarchies it is the containment generalization. One
operator, ``_add_lineage``, applies these layouts' weight matrices, and one
builder, ``_lineage_weights``, forms them: the cross-validated ones, the
bottom-up and lineal-average ones, and S'W^-1 for weighted least squares.
With ``aggregate`` for S, those two operators build every fixed matrix;
the dense summing matrix is used only by ``check_coherence``, as its
reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, LengthMismatch, ReconcileError
from .hierarchy import HierarchySpec, SummingMatrix, aggregate
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

    ``BU`` and ``LA`` are lineage matrices, built by ``_lineage_weights``
    from the bottom-node indicator and from 1/L on every node.
    """
    m, M = h.m, h.M
    if method == "BU":
        return _lineage_weights(h.node_windows == 1.0, method, h)
    if method == "LA":
        return _lineage_weights(np.full(M, 1.0 / h.L), method, h)
    if method == "BA":
        entries = np.hstack([np.zeros((m, M - m)), np.full((m, m), 1.0 / m)])
    elif method == "GA":
        entries = np.full((m, M), 1.0 / M)
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

    S' adds y_k / f_l to the row of every bottom node under node k, so
    S'W^-1 is the lineage matrix of the node weights f_l^-3; S is
    ``aggregate`` applied to I_m, and ``numpy.linalg.solve`` solves the
    m x m normal equations.
    """
    rhs = _lineage_weights(h.node_windows**-3.0, "WLS", h).entries  # S'W^-1
    gram = rhs @ aggregate(np.eye(h.m), h)  # S'W^-1 S
    return WeightMatrix(entries=np.linalg.solve(gram, rhs), method="WLS", hierarchy=h)


def weights_from_levels(v, h: HierarchySpec) -> WeightMatrix:
    """Sparse combination with one shared weight per level.

    Row r carries ``v[l-1]`` in the column of the level-l node containing
    bottom node r, for every level, and zeros elsewhere: the per-node
    layout of ``weights_from_nodes`` with each level's weight repeated over
    the level's nodes. The bottom-up and lineal-average methods are the
    special cases v = (0, ..., 0, 1) and v = (1/L, ..., 1/L).

    Raises:
        LengthMismatch: ``v`` is not an L-vector of finite weights.
    """
    vec = np.asarray(v, dtype=float)
    if vec.shape != (h.L,):
        raise LengthMismatch(f"need {h.L} level weights, got shape {vec.shape}")
    return _lineage_weights(np.repeat(vec, h.m // np.array(h.f)), "CVR", h)


def weights_from_nodes(w, h: HierarchySpec) -> WeightMatrix:
    """Sparse combination with one weight per node.

    ``w`` is an M-vector in the package's node order (levels coarse to
    fine, nodes left to right); ``w[k]`` is placed on node k in the row of
    every bottom node it contains.

    Raises:
        LengthMismatch: ``w`` is not an M-vector of finite weights.
    """
    return _lineage_weights(w, "CV-full", h)


def _lineage_weights(w, method: str, h: HierarchySpec) -> WeightMatrix:
    """The lineage matrix P_w of an M-vector of node weights, built by ``_add_lineage``."""
    vec = np.asarray(w, dtype=float)
    if vec.shape != (h.M,):
        raise LengthMismatch(f"need {h.M} node weights, got shape {vec.shape}")
    if not np.isfinite(vec).all():
        raise LengthMismatch("weights must be finite")
    entries = _add_lineage(np.zeros((h.m, h.M)), vec, np.eye(h.M), h)
    return WeightMatrix(entries=entries, method=method, hierarchy=h)


def _add_lineage(out: np.ndarray, w: np.ndarray, values: np.ndarray, h: HierarchySpec):
    """Add P_w @ values into the contiguous (..., m, N) ``out`` and return it.

    P_w holds ``w[k]`` in the row of every bottom node that node k contains;
    it is never formed: node k's row of ``values`` (..., M, N), times w[k],
    is added to each row of its window in a view of ``out``.
    """
    batch, n = out.shape[:-2], out.shape[-1]
    for fl, rows in h.levels:
        windows = out.reshape(batch + (h.m // fl, fl, n))
        windows += w[rows, None, None] * values[..., rows, None, :]
    return out


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
    and columns. The bottom block of S is the identity, so only S's upper
    M - m rows are multiplied; the bottom rows' residual, y_bottom -
    y_bottom, is 0, or NaN where an entry is not finite.
    """
    mat = np.asarray(Y, dtype=float)
    h = S.hierarchy
    if mat.ndim == 1:
        mat = mat[:, None]
    if mat.shape[0] != h.M:
        raise DimensionMismatch(f"expected {h.M} rows, got {mat.shape[0]}")
    upper = h.M - h.m
    bottom = mat[upper:, :]
    residual = mat[:upper, :] - S.entries[:upper, :] @ bottom
    max_violation = float(np.abs(residual).max(initial=0.0))
    if not np.isfinite(bottom).all():
        max_violation = np.nan
    return CoherenceCheck(ok=max_violation <= tol, max_violation=max_violation)
