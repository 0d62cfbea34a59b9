"""Selection of combination weights by validation-period CRPS minimization.

The level-constrained weight matrix has one free weight per level; those L
weights are tuned to minimize the level-averaged CRPS over a held-out set
of forecast origins. Three constraint regimes are supported and each is
folded into an unconstrained search by reparameterization:

* ``simplex`` - weights sum to one and are nonnegative; searched through a
  softmax of L free variables.
* ``affine``  - weights sum to one; L-1 free variables with the last weight
  taking up the slack.
* ``free``    - unconstrained.

A second layout, ``optimize_node_weights``, has one unconstrained weight
per node. Both layouts run through one multi-start search (``_search``) with
fixed tolerances (``XATOL`` on the point, ``FATOL`` on the objective). The
empirical-CRPS objective is piecewise smooth and has no useful gradient,
so each start runs a Nelder-Mead simplex search; starts always include the
bottom-up and equal-weight vectors, whose objectives the returned point
therefore never exceeds.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import minimize

from .errors import DidNotConverge, NonFinite
from .hierarchy import HierarchySpec
from .reconcile import weights_from_levels, weights_from_nodes
from .sampling import OriginData
from .scoring import assemble_origins, cv_criterion

__all__ = ["REGIMES", "CvResult", "NodeCvResult", "optimize_weights", "optimize_node_weights"]

REGIMES = ("simplex", "affine", "free")
XATOL = 1e-4  # Nelder-Mead tolerance on the search point
FATOL = 1e-7  # Nelder-Mead tolerance on the objective


@dataclass(frozen=True)
class CvResult:
    """Optimized per-level weights and the objective they achieve."""

    v: np.ndarray
    objective: float
    iterations: int
    regime: str
    scheme: str

    def __post_init__(self):
        vec = np.asarray(self.v, dtype=float)
        vec.setflags(write=False)
        object.__setattr__(self, "v", vec)


@dataclass(frozen=True)
class NodeCvResult:
    """Optimized per-node weights, keyed by (level, position)."""

    weights: dict
    objective: float
    iterations: int
    scheme: str


def _softmax(u: np.ndarray) -> np.ndarray:
    e = np.exp(u - u.max())
    return e / e.sum()


class _Regime:
    """Maps between the L-vector of weights and the unconstrained search space."""

    def __init__(self, tag: str):
        if tag not in REGIMES:
            raise ValueError(f"unknown regime {tag!r}, expected one of {REGIMES}")
        self.tag = tag

    def to_weights(self, u: np.ndarray) -> np.ndarray:
        if self.tag == "simplex":
            return _softmax(u)
        if self.tag == "affine":
            return np.append(u, 1.0 - u.sum())
        return np.asarray(u, dtype=float)

    def from_weights(self, v: np.ndarray) -> np.ndarray:
        if self.tag == "simplex":
            return np.log(np.clip(v, 1e-8, None))
        if self.tag == "affine":
            return np.asarray(v[:-1], dtype=float)
        return np.asarray(v, dtype=float)


def _start_vectors(h: HierarchySpec, regime: _Regime, n_starts: int, seed: int):
    """Search-space start points: bottom-up, equal weights, 1/M, then random."""
    L = h.L
    starts = [
        np.eye(L)[-1],            # bottom-up
        np.full(L, 1.0 / L),      # lineal-average / equal weights
        np.full(L, 1.0 / h.M),    # global-average-like mass
    ]
    rng = np.random.default_rng(np.random.SeedSequence([seed % 2**64, 0xCF]))
    while len(starts) < max(n_starts, 3):
        if regime.tag == "simplex":
            starts.append(rng.dirichlet(np.ones(L)))
        else:
            starts.append(rng.normal(loc=1.0 / L, scale=0.5, size=L))
    return [regime.from_weights(v0) for v0 in starts]


def _search(
    objective: Callable[[np.ndarray], float], starts: list[np.ndarray], maxiter: int | None
):
    """Run Nelder-Mead from every start; return (best u, its objective, iterations).

    Each start is evaluated first and skipped if its objective is not
    finite; a search whose final objective is not finite falls back to its
    start. ``maxiter`` is the cap per start (``None``: 80 per search
    dimension). An empty search space returns the start, converged, after
    0 iterations.

    Raises:
        NonFinite: the objective is NaN or infinite at every start.

    Warns:
        DidNotConverge: no start met the tolerances within ``maxiter``.
    """
    if maxiter is None:
        maxiter = 80 * len(starts[0])
    best_u, best_obj, total_iters, converged = None, np.inf, 0, False
    for u in starts:
        f = objective(u)
        if not np.isfinite(f):
            continue
        if len(u):
            res = minimize(
                objective, u, method="Nelder-Mead",
                options={"maxiter": maxiter, "xatol": XATOL, "fatol": FATOL},
            )
            total_iters += int(res.nit)
            converged = converged or bool(res.success)
            if np.isfinite(res.fun):
                u, f = res.x, res.fun
        else:
            converged = True
        if f < best_obj:
            best_u, best_obj = u, f
    if best_u is None:
        raise NonFinite("objective was NaN or infinite at every start vector")
    if not converged:
        warnings.warn(
            f"no start converged within {maxiter} iterations; returning best point",
            DidNotConverge,
        )
    return np.asarray(best_u, dtype=float), float(best_obj), total_iters


def optimize_weights(
    origins: Sequence[OriginData],
    scheme: str,
    regime: str,
    h: HierarchySpec,
    seed: int = 0,
    n_starts: int = 6,
    maxiter: int | None = None,
) -> CvResult:
    """Minimize the validation CRPS objective over per-level weights.

    Args:
        origins: validation forecast origins (per-level samples + actuals).
        scheme: joint-sample scheme used during validation, matching the one
            that will be used at evaluation time.
        regime: constraint regime, one of ``simplex``/``affine``/``free``.
        h: the hierarchy.
        seed: drives the random extra starts and the permuted scheme.
        n_starts: total number of starts (first three are always bottom-up,
            equal weights, and a 1/M vector).
        maxiter: Nelder-Mead iteration cap per start; defaults to 80 per
            search dimension.

    Raises:
        NonFinite: the objective is NaN or infinite at every start.

    Warns:
        DidNotConverge: no start met the tolerances within ``maxiter``; the
        best point found is still returned.
    """
    joint_tensor, actuals = assemble_origins(origins, h, scheme, seed=seed)
    reg = _Regime(regime)

    def objective(u: np.ndarray) -> float:
        return cv_criterion(weights_from_levels(reg.to_weights(u), h), joint_tensor, actuals, h)

    starts = _start_vectors(h, reg, n_starts, seed)
    u, obj, iterations = _search(objective, starts, maxiter)
    # objective(u) evaluates through to_weights, so obj is exactly the
    # criterion at the returned v
    return CvResult(v=reg.to_weights(u), objective=obj, iterations=iterations,
                    regime=regime, scheme=scheme)


def optimize_node_weights(
    origins: Sequence[OriginData],
    scheme: str,
    h: HierarchySpec,
    seed: int = 0,
    n_starts: int = 6,
    maxiter: int | None = None,
) -> NodeCvResult:
    """Minimize the validation CRPS over one weight per node (unconstrained).

    The search space has M dimensions, so this is only practical for small
    hierarchies; the row-sum constraint regimes apply to the per-level form
    and are not offered here. Raises and warns as ``optimize_weights``.
    """
    joint_tensor, actuals = assemble_origins(origins, h, scheme, seed=seed)
    keys = [
        (lev, pos)
        for lev in range(1, h.L + 1)
        for pos in range(1, h.nodes_at(lev) + 1)
    ]

    def objective(u: np.ndarray) -> float:
        return cv_criterion(weights_from_nodes(dict(zip(keys, u)), h), joint_tensor, actuals, h)

    bu = np.concatenate([np.zeros(h.M - h.m), np.ones(h.m)])
    starts = [bu, np.full(h.M, 1.0 / h.L), np.full(h.M, 1.0 / h.M)]
    rng = np.random.default_rng(np.random.SeedSequence([seed % 2**64, 0xCFF]))
    while len(starts) < max(n_starts, 3):
        starts.append(rng.normal(loc=1.0 / h.L, scale=0.5, size=h.M))

    u, obj, iterations = _search(objective, starts, maxiter)
    return NodeCvResult(weights=dict(zip(keys, u)), objective=obj,
                        iterations=iterations, scheme=scheme)
