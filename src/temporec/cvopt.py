"""Selection of combination weights by validation-period CRPS minimization.

The level-constrained weight matrix has one free weight per level; those L
weights are tuned to minimize the level-averaged CRPS over a held-out set
of forecast origins. Three constraint regimes are supported and each is
folded into an unconstrained search by reparameterization:

* ``simplex`` - weights sum to one and are nonnegative; searched through a
  softmax of L free variables (none when L = 1: the only weight is 1).
* ``affine``  - weights sum to one; L-1 free variables with the last weight
  taking up the slack.
* ``free``    - unconstrained.

A second layout, ``optimize_node_weights``, has one unconstrained weight
per node. Both layouts run through one multi-start search (``_search``) with
fixed tolerances (``XATOL`` on the point, ``FATOL`` on the objective). The
empirical-CRPS objective is piecewise smooth and has no useful gradient in
general, so each start runs a Nelder-Mead simplex search; starts always
include the bottom-up and equal-weight vectors, whose objectives the
returned point therefore never exceeds.

One case is solved exactly instead. Under ``simplex`` with L > 1, when every
row of the validation joint sample is nondecreasing (the ``ranked`` scheme),
every reconciled row stays sorted, so the energy-form CRPS is convex and
piecewise linear in v. Kelley's cutting-plane method (``_cutting_planes``)
then minimizes it with one small linear program per iteration and stops
once the best objective is within ``CUT_GAP`` of the LP lower bound; the
result carries that gap as a certificate of optimality.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import linprog, minimize

from .errors import DidNotConverge, NonFinite
from .hierarchy import HierarchySpec, aggregate
from .reconcile import weights_from_levels, weights_from_nodes
from .sampling import OriginData
from .scoring import assemble_origins, cv_criterion

__all__ = ["REGIMES", "CvResult", "NodeCvResult", "optimize_weights", "optimize_node_weights"]

REGIMES = ("simplex", "affine", "free")
XATOL = 1e-4  # Nelder-Mead tolerance on the search point
FATOL = 1e-7  # Nelder-Mead tolerance on the objective
CUT_GAP = 1e-7  # cutting-plane optimality gap, relative to max(1, |objective|)


@dataclass(frozen=True)
class CvResult:
    """Optimized per-level weights and the objective they achieve.

    ``gap`` is the certified optimality gap (best objective minus the LP
    lower bound) of a cutting-plane search, and None after Nelder-Mead.
    """

    v: np.ndarray
    objective: float
    iterations: int
    regime: str
    scheme: str
    gap: float | None = None

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
            return _softmax(u) if len(u) else np.ones(1)
        if self.tag == "affine":
            return np.append(u, 1.0 - u.sum())
        return np.asarray(u, dtype=float)

    def from_weights(self, v: np.ndarray) -> np.ndarray:
        if self.tag == "simplex":
            # a single level has one feasible weight, so nothing to search
            return np.log(np.clip(v, 1e-8, None)) if len(v) > 1 else np.empty(0)
        if self.tag == "affine":
            return np.asarray(v[:-1], dtype=float)
        return np.asarray(v, dtype=float)


def _start_vectors(h: HierarchySpec, regime: _Regime, n_starts: int, seed: int):
    """Search-space start points: bottom-up, equal weights, 1/M, then random.

    Under ``simplex`` the 1/M vector is left out: the softmax maps it to the
    equal-weight vector, so a random start takes its place.
    """
    L = h.L
    starts = [
        np.eye(L)[-1],            # bottom-up
        np.full(L, 1.0 / L),      # lineal-average / equal weights
    ]
    if regime.tag != "simplex":
        starts.append(np.full(L, 1.0 / h.M))  # global-average-like mass
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


def _sorted_crps(joint_tensor: np.ndarray, actuals: np.ndarray, h: HierarchySpec):
    """Objective and subgradient in v of the criterion on sorted samples.

    Valid for v >= 0 when every row of ``joint_tensor`` is nondecreasing:
    the reconciled rows are then nondecreasing too, so the energy-form
    pair term is the linear form ``x @ rank`` and no sort is needed. The
    reconciled bottom level ``sum_l v_l repeat(Y_l, f_l)`` is accumulated
    into one (T, m, N) buffer through window views, so no per-level copy of
    the sample is built.
    """
    T, _, n = joint_tensor.shape
    rank = (2.0 * np.arange(n) - n + 1.0) / (n * n)
    # each node's share of the level average: 1 / (L * nodes_at(l) * T)
    node_weight = h.node_windows / (h.L * h.m * T)
    levels = [(fl, h.level_slice(lev)) for lev, fl in enumerate(h.f, start=1)]
    buffer = np.empty((T, h.m, n))

    def windows(fl: int) -> np.ndarray:
        return buffer.reshape(T, h.m // fl, fl, n)

    def evaluate(v: np.ndarray) -> tuple[float, np.ndarray]:
        buffer.fill(0.0)
        for vl, (fl, rows) in zip(v, levels):
            window = windows(fl)
            window += vl * joint_tensor[:, rows, None, :]
        x = aggregate(buffer, h)
        dev = x - actuals[..., None]
        crps = np.abs(dev).mean(axis=-1) - x @ rank
        value = float((crps * node_weight).sum())
        # d crps / dx = sign(x - z) / N - rank, weighted per node
        np.sign(dev, out=dev)
        dev /= n
        dev -= rank
        dev *= node_weight[:, None]
        # adjoint of aggregate: every bottom row takes its level-l node's
        # gradient divided by f_l; v_l then pairs Y_l with its window sums
        buffer.fill(0.0)
        for fl, rows in levels:
            window = windows(fl)
            window += dev[:, rows, None, :] / fl
        grad = np.array([
            np.einsum("tkn,tkn->", windows(fl).sum(axis=2), joint_tensor[:, rows])
            for fl, rows in levels
        ])
        return value, grad

    return evaluate


def _cutting_planes(evaluate, L: int, maxiter: int | None):
    """Kelley's method for a convex objective over the simplex of L weights.

    Cuts start at the bottom-up and equal-weight vectors. Each iteration
    minimizes the epigraph variable t over the simplex subject to every
    cut ``t >= f_k + g_k (v - v_k)``; the LP optimum is a lower bound on
    the objective, and its point is evaluated for the next cut. The search
    stops when the best objective is within ``CUT_GAP * max(1, |best|)`` of
    the bound or after ``maxiter`` LP solves (``None``: 80 per level).
    Returns (best evaluated v, LP solves, gap).

    Raises:
        NonFinite: the objective is NaN or infinite at both starting cuts.

    Warns:
        DidNotConverge: the gap is still above tolerance when the search stops.
    """
    if maxiter is None:
        maxiter = 80 * L
    cuts = []
    for v in (np.eye(L)[-1], np.full(L, 1.0 / L)):
        f, g = evaluate(v)
        if np.isfinite(f):
            cuts.append((v, f, g))
    if not cuts:
        raise NonFinite("objective was NaN or infinite at the bottom-up and equal-weight vectors")
    best_v, best_f, _ = min(cuts, key=lambda cut: cut[1])
    cost = np.append(np.zeros(L), 1.0)
    bounds = [(0.0, None)] * L + [(None, None)]
    lower, solves = -np.inf, 0
    while best_f - lower > CUT_GAP * max(1.0, abs(best_f)) and solves < maxiter:
        lp = linprog(
            cost,
            A_ub=np.array([np.append(g, -1.0) for _, _, g in cuts]),
            b_ub=np.array([g @ v - f for v, f, g in cuts]),
            A_eq=np.append(np.ones(L), 0.0)[None, :], b_eq=[1.0],
            bounds=bounds, method="highs",
        )
        solves += 1
        if not lp.success:
            break
        lower = lp.fun
        v = np.clip(lp.x[:L], 0.0, None)
        v /= v.sum()
        f, g = evaluate(v)
        if not np.isfinite(f):
            break
        if f < best_f:
            best_v, best_f = v, f
        cuts.append((v, f, g))
    gap = max(best_f - lower, 0.0)  # a negative difference is rounding
    if gap > CUT_GAP * max(1.0, abs(best_f)):
        warnings.warn(
            f"cutting-plane search stopped after {solves} LP solves with optimality "
            f"gap {gap:.3e}; returning best point",
            DidNotConverge,
        )
    return best_v, solves, gap


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
        n_starts: total number of Nelder-Mead starts (always bottom-up and
            equal weights, then a 1/M vector except under ``simplex``, then
            random ones); unused by the cutting-plane search.
        maxiter: Nelder-Mead iteration cap per start, or the cap on LP
            solves of the cutting-plane search; defaults to 80 per level
            (per search dimension for Nelder-Mead).

    Under ``simplex`` with more than one level, when every row of the
    assembled validation sample is nondecreasing, the search is the
    cutting-plane method and the result carries its optimality ``gap``;
    otherwise it is the Nelder-Mead multi-start search and ``gap`` is None.
    Either way ``objective`` is ``cv_criterion`` at the returned weights.

    Raises:
        NonFinite: the objective is NaN or infinite at every start.

    Warns:
        DidNotConverge: no start met the tolerances within ``maxiter``, or
        the cutting-plane gap is still above ``CUT_GAP``; the best point
        found is still returned.
    """
    joint_tensor, actuals = assemble_origins(origins, h, scheme, seed=seed)
    reg = _Regime(regime)
    if reg.tag == "simplex" and h.L > 1 and (np.diff(joint_tensor, axis=-1) >= 0).all():
        v, solves, gap = _cutting_planes(_sorted_crps(joint_tensor, actuals, h), h.L, maxiter)
        objective = cv_criterion(weights_from_levels(v, h), joint_tensor, actuals, h)
        return CvResult(v=v, objective=objective, iterations=solves,
                        regime=regime, scheme=scheme, gap=gap)

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
