"""Combination maps and the projection that enforces coherence.

A reconciliation method is a linear map P from base forecasts of all M
nodes to the m bottom-level values; premultiplying a joint sample by S @ P
yields a sample whose every column satisfies the aggregation constraints.
A ``WeightMatrix`` holds S @ P as ``apply``, which returns the coherent
sample; a map's dense P is the bottom rows of ``P.apply(np.eye(h.M))``.
``reconcile_tensor`` is the one application path, ``P.apply(Y)``.
Fixed methods (bottom-up, bottom average, global average, lineal average,
weighted least squares) are built here alongside the cross-validated one.

Bottom-up, lineal average and the cross-validated method are lineage maps
of an L-vector of level weights (e_L, 1/L each, and the searched weights):
row r of P carries the weight of level l in the column of the "ancestor"
of bottom node r at level l, the unique level-l node whose window of f_l
bottom periods contains r. On a tree hierarchy this is the usual lineage;
on overlapping hierarchies it is the containment generalization, and it
is reached along the hierarchy's child map (``HierarchySpec.children``).
One function, ``_lineage``, applies these maps and forms S'W^-1 through
``hierarchy._Walk``, whose ``lineage`` walk the cutting-plane oracle also
runs as its forward pass and pull-back. Bottom average and global average
repeat one mean in every row, and only weighted least squares applies a
dense P (aggregated in place): it is the one dense matrix a run forms.
``check_coherence`` compares the upper rows with window means of the
bottom rows, so a run forms no dense S either.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import DimensionMismatch, LengthMismatch, ReconcileError
from .hierarchy import HierarchySpec, SummingMatrix, _Walk, _window_means, aggregate
from .sampling import JointSample

__all__ = [
    "FIXED_METHODS",
    "WeightMatrix",
    "CoherenceCheck",
    "fixed_weights",
    "wls_weights",
    "weights_from_levels",
    "reconcile",
    "reconcile_tensor",
    "check_coherence",
]

FIXED_METHODS = ("BU", "BA", "GA", "LA")


@dataclass(frozen=True, eq=False)
class WeightMatrix:
    """The combination map of one reconciliation method: ``apply(Y)`` is the
    coherent sample S @ P @ Y, (..., M, N) -> (..., M, N), as a new array
    the caller may overwrite.

    Maps compare and hash by identity: two builds of one method are not
    equal, since their ``apply`` functions are distinct objects."""

    apply: Callable[[np.ndarray], np.ndarray]
    method: str
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

    ``BU`` and ``LA`` are lineage maps of the level weights e_L and 1/L
    each. S @ P @ Y for ``BA`` and ``GA`` is one row repeated,
    the mean of Y's bottom rows or of all its rows, so their maps broadcast
    that mean and build no m x M array.
    """
    if method == "BU":
        return _level_map(np.eye(h.L)[-1], method, h)
    if method == "LA":
        return _level_map(np.full(h.L, 1.0 / h.L), method, h)
    if method == "BA":
        rows = h.levels[-1][1]
    elif method == "GA":
        rows = slice(0, h.M)
    else:
        raise ReconcileError(f"unknown fixed method {method!r}, expected {FIXED_METHODS}")
    return WeightMatrix(partial(_mean_of_rows, rows, h=h), method, h)


def wls_weights(h: HierarchySpec) -> WeightMatrix:
    """Weighted-least-squares combination, P = (S'W^-1 S)^-1 S'W^-1.

    W is diagonal with entry f_l^2 for every node at level l, applied to
    node values in common units (window means, so S averages): a structural
    proxy for the (unidentifiable) error covariance in which standard
    deviations scale with the aggregation window. On native window sums
    (S of zeros and ones) the same P is W = diag(f_l^4). It is not ordinary
    least squares on either scale: that would be W = I in common units,
    which is W = diag(f_l^2) on native sums. Satisfies P @ S = I.

    S' adds y_k / f_l to the row of every bottom node under node k, so
    S'W^-1 is the bottom rows of the lineage map of the node weights f_l^-3
    applied to I_M; S is ``aggregate`` applied to I_m. ``numpy.linalg.solve``
    solves the m x m normal equations, and the map applies the dense result.
    """
    rhs = _lineage(h.node_windows**-3.0, np.eye(h.M), h)[h.levels[-1][1]]  # S'W^-1
    gram = rhs @ aggregate(np.eye(h.m), h)  # S'W^-1 S
    return WeightMatrix(partial(_dense, np.linalg.solve(gram, rhs), h=h), "WLS", h)


def weights_from_levels(v, h: HierarchySpec) -> WeightMatrix:
    """Sparse combination with one shared weight per level.

    Row r carries ``v[l-1]`` in the column of the level-l node containing
    bottom node r, for every level, and zeros elsewhere. The bottom-up and
    lineal-average methods are the special cases v = (0, ..., 0, 1) and
    v = (1/L, ..., 1/L).

    Raises:
        LengthMismatch: ``v`` is not an L-vector of finite weights.
    """
    return _level_map(v, "CVR", h)


def _dense(entries: np.ndarray, values: np.ndarray, h: HierarchySpec) -> np.ndarray:
    """S @ P @ values for a dense P: the product, written into the
    output's bottom rows and aggregated there."""
    out = np.empty(values.shape[:-2] + (h.M, values.shape[-1]))
    np.matmul(entries, values, out=out[..., h.levels[-1][1], :])
    return _Walk(out, h).fill_means()


def _mean_of_rows(rows: slice, values: np.ndarray, h: HierarchySpec) -> np.ndarray:
    """S @ P @ values for a P whose every row averages ``rows`` uniformly:
    the mean of those rows of values, repeated in all M rows."""
    return np.repeat(values[..., rows, :].mean(-2, keepdims=True), h.M, -2)


def _level_map(v, method: str, h: HierarchySpec) -> WeightMatrix:
    """The lineage map of an L-vector of level weights, applied by ``_lineage``."""
    return WeightMatrix(partial(_lineage, _level_weights(v, h), h=h), method, h)


def _level_weights(v, h: HierarchySpec) -> np.ndarray:
    """Each of the L finite weights in ``v`` repeated over its level's
    nodes, as a new M-vector.

    Raises:
        LengthMismatch: ``v`` is not an L-vector of finite weights.
    """
    vec = np.asarray(v, dtype=float)
    if vec.shape != (h.L,):
        raise LengthMismatch(f"need {h.L} level weights, got shape {vec.shape}")
    if not np.isfinite(vec).all():
        raise LengthMismatch("weights must be finite")
    return np.repeat(vec, h.m // np.array(h.f))


def _lineage(w: np.ndarray, values: np.ndarray, h: HierarchySpec) -> np.ndarray:
    """S @ P_w @ values for a (..., M, N) ``values``, as a new array. P_w
    holds ``w[k]`` in the row of every bottom node that node k contains;
    neither it nor S is formed."""
    return _Walk(w[:, None] * values, h).lineage()


def reconcile_tensor(P: WeightMatrix, tensor: np.ndarray) -> np.ndarray:
    """S @ P @ Y for one M x N joint sample or a (T, M, N) stack of them.

    ``P.apply`` returns the coherent sample, and dense S is never formed.
    Raises ``DimensionMismatch`` unless Y has M rows and ``P.apply`` returns
    Y's shape.
    """
    h = P.hierarchy
    Y = np.asarray(tensor, dtype=float)
    if Y.ndim < 2 or Y.shape[-2] != h.M:
        raise DimensionMismatch(f"P has {h.M} columns, sample has shape {Y.shape}")
    out = P.apply(Y)
    if out.shape != Y.shape:
        raise DimensionMismatch(f"{P.method} map took shape {Y.shape} to {out.shape}")
    return out


def reconcile(S: SummingMatrix, P: WeightMatrix, Y: JointSample) -> JointSample:
    """Project a joint sample onto the coherent subspace: S @ P @ Y, tagged
    with Y's scheme."""
    if S.hierarchy != P.hierarchy or S.hierarchy != Y.hierarchy:
        raise DimensionMismatch("summing matrix, weights and sample hierarchies differ")
    return JointSample(
        matrix=reconcile_tensor(P, Y.matrix), scheme=Y.scheme, hierarchy=Y.hierarchy
    )


def check_coherence(Y: np.ndarray, S: SummingMatrix, tol: float = 1e-9) -> CoherenceCheck:
    """Test whether every column satisfies the aggregation constraints.

    A column y is coherent when y equals S @ y_bottom for its own bottom
    block; the check reports the worst absolute violation over all entries
    and columns, and passes when it is at most ``_coherence_bound``: ``tol``
    relative to the largest bottom magnitude, floored at 1. The bottom block
    of S is the identity, so only the upper M - m rows are compared, each
    with the mean of its window of f_l bottom rows (``_window_means``); the
    dense S is not formed. A non-finite entry in the bottom block gives
    ``(False, nan)``; a NaN above it gives a NaN violation and an infinite
    one an infinite violation. A sample without columns has nothing to
    violate and gives ``(True, 0.0)``.
    """
    mat = np.asarray(Y, dtype=float)
    h = S.hierarchy
    if mat.ndim not in (1, 2):
        raise DimensionMismatch(f"expected a vector or a matrix, got shape {mat.shape}")
    if mat.ndim == 1:
        mat = mat[:, None]
    if mat.shape[0] != h.M:
        raise DimensionMismatch(f"expected {h.M} rows, got {mat.shape[0]}")
    upper = h.M - h.m
    bottom = mat[upper:, :]
    if not np.isfinite(bottom).all():
        return CoherenceCheck(ok=False, max_violation=np.nan)
    # window means, not aggregate: the check must not share the child-map walk it checks
    residual = _window_means(bottom, h)
    np.subtract(mat[:upper, :], residual, out=residual)
    max_violation = float(np.abs(residual, out=residual).max(initial=0.0))
    # the bound is at least tol, so the bottom rows are scanned only past tol
    ok = max_violation <= tol or max_violation <= _coherence_bound(bottom, tol)
    return CoherenceCheck(ok=ok, max_violation=max_violation)


def _coherence_bound(bottom: np.ndarray, tol: float) -> float:
    """The largest violation ``check_coherence`` accepts: tol * max(1, max |bottom|)."""
    return tol * max(1.0, float(np.abs(bottom).max(initial=0.0)))
