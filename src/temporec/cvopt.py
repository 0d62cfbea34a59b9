"""Selection of combination weights by validation-period CRPS minimization.

The level-constrained weight matrix has one free weight per level; those L
weights are tuned to minimize the level-averaged CRPS over a held-out set
of forecast origins. Three constraint regimes, the names in ``REGIMES``,
are each folded into an unconstrained search by ``_to_weights``:

* ``simplex`` - weights sum to one and are nonnegative; searched through a
  softmax of L free variables (none when L = 1: the only weight is 1).
* ``affine``  - weights sum to one; L-1 free variables with the last weight
  taking up the slack.
* ``free``    - unconstrained.

The multi-start search (``_search``) minimizes the public ``cv_criterion``
itself, with tolerances ``XATOL`` on the point, absolute in search-space
units (under ``simplex``, the softmax's inputs), and ``FATOL`` on the
objective, relative to max(1, |objective|) at the first finite start. The
empirical-CRPS objective is piecewise smooth and has no useful gradient in
general, so each start runs a Nelder-Mead simplex search (``_nelder_mead``,
scipy's algorithm ported step for step). The starts are the images of the
bottom-up and equal-weight vectors and a few more, and the returned
objective is at most the objective at every start point the search
evaluated. Under ``simplex`` the bottom-up start is
softmax(log(max(e_L, 1e-8))), not e_L itself, so a capped search can end
above the objective at exact bottom-up, by a rounding-sized amount.

One case is solved exactly instead. Under ``simplex`` with L > 1, when every
row of the validation joint sample is nondecreasing (the ``ranked`` scheme),
every reconciled row stays sorted, so the energy-form CRPS is convex and
piecewise linear in v. Kelley's cutting-plane method (``_cutting_planes``)
then minimizes it with one small linear program per iteration, solved
through its dual by a revised simplex (``_master_lp``), and stops once the
best objective is within ``CUT_GAP`` of the LP lower bound, also relative;
the result carries that gap as a certificate of optimality, 0 when it is
within the LP's own tolerance ``LP_TOL``. A new cut only appends a column
to the dual, so each LP solve starts from the previous optimal basis. Its
oracle, ``scoring._cv_oracle``, returns ``cv_criterion``'s value and a
subgradient. Both objectives work one validation origin at a time, so a
search holds the validation tensor and a few (M, N) buffers, never a
second (T, M, N) array. Either search reports the best value it
evaluated; no criterion runs after it, and ``CvResult`` holds only what
it computed. Both solvers are numpy code, so the package needs no scipy
at run time.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DidNotConverge, NonFinite
from .hierarchy import HierarchySpec
from .reconcile import weights_from_levels
from .sampling import OriginData, _freeze, assemble_origins
from .scoring import _cv_oracle, cv_criterion

__all__ = ["REGIMES", "CvResult", "optimize_weights"]

REGIMES = ("simplex", "affine", "free")
XATOL = 1e-4  # Nelder-Mead tolerance on the search point, absolute, in search-space units
FATOL = 1e-7  # Nelder-Mead tolerance on the objective, relative to max(1, |first value|)
CUT_GAP = 1e-7  # cutting-plane optimality gap, relative to max(1, |objective|)
LP_TOL = 1e-12  # the master LP's pivot tolerance, relative to its data


@dataclass(frozen=True, eq=False)
class CvResult:
    """Optimized weights and the objective they achieve.

    ``v`` holds one weight per level, coarse to fine. ``gap`` is the
    certified optimality gap (best objective minus the LP lower bound) of a
    cutting-plane search, and None after Nelder-Mead. The caller keys it by
    its scheme and regime.
    """

    v: np.ndarray
    objective: float
    iterations: int
    gap: float | None = None

    def __post_init__(self):
        _freeze(self, "v")


def _to_weights(regime: str, u: np.ndarray) -> np.ndarray:
    """The L-vector of level weights at search point ``u`` under ``regime``."""
    if regime == "simplex":  # a softmax; a single level has one feasible weight
        e = np.exp(u - u.max()) if len(u) else np.ones(1)
        return e / e.sum()
    if regime == "affine":
        return np.append(u, 1.0 - u.sum())
    return np.asarray(u, dtype=float)


def _from_weights(regime: str, v: np.ndarray) -> np.ndarray:
    """The search point of the L-vector ``v`` under ``regime``."""
    if regime == "simplex":
        # a single level has one feasible weight, so nothing to search
        return np.log(np.clip(v, 1e-8, None)) if len(v) > 1 else np.empty(0)
    if regime == "affine":
        return np.asarray(v[:-1], dtype=float)
    return np.asarray(v, dtype=float)


def _start_vectors(h: HierarchySpec, regime: str, n_starts: int, seed: int):
    """Search-space start points: bottom-up, equal weights, 1/M, then random.

    ``max(n_starts, 3)`` images of L-vectors of level weights are returned.
    Under ``simplex`` the 1/M vector is left out: the softmax maps it to the
    equal-weight vector, so a random start takes its place.
    """
    starts = [
        np.eye(h.L)[-1],          # bottom-up
        np.full(h.L, 1.0 / h.L),  # lineal-average / equal weights
    ]
    if regime != "simplex":
        starts.append(np.full(h.L, 1.0 / h.M))  # affine: (1/M, ..., 1 - (L-1)/M), near bottom-up
    rng = np.random.default_rng(np.random.SeedSequence([seed % 2**64, 0xCF]))
    while len(starts) < max(n_starts, 3):
        if regime == "simplex":
            starts.append(rng.dirichlet(np.ones(h.L)))
        else:
            starts.append(rng.normal(loc=1.0 / h.L, scale=0.5, size=h.L))
    return [_from_weights(regime, v0) for v0 in starts]


def _sort_simplex(sim: np.ndarray, fsim: np.ndarray):
    ind = np.argsort(fsim)
    return np.take(sim, ind, 0), np.take(fsim, ind, 0)


def _nelder_mead(objective, x0: np.ndarray, f0: float, maxiter: int, fatol: float):
    """Nelder-Mead from ``x0``: scipy 1.17's ``minimize(method="Nelder-Mead")``
    without bounds or ``adaptive``, ported step for step so that it takes the
    same steps bit for bit: the 5% / 0.00025 initial simplex, reflection 1,
    expansion 2, contraction and shrink 1/2, and scipy's centroid, ordering
    and stopping tests. ``f0`` is the objective at ``x0``, which the caller
    has already computed; the other points are evaluated on copies. Both
    tolerances are absolute: ``XATOL`` in the units of ``x0``, and ``fatol``.
    Iterations count from 1. Returns (x, least value of the final simplex,
    iterations, whether the tolerances were met before ``maxiter``).
    """
    def f(x):
        return objective(np.copy(x))

    x0 = np.asarray(x0, dtype=float)
    N = len(x0)
    sim = np.repeat(x0[None, :], N + 1, axis=0)
    for k in range(N):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.array([f0] + [f(x) for x in sim[1:]], dtype=float)
    sim, fsim = _sort_simplex(sim, fsim)
    sim, fsim = _sort_simplex(sim, fsim)
    iterations = 1
    while iterations < maxiter:
        if (np.max(np.abs(sim[1:] - sim[0])) <= XATOL
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / N
        xr = 2 * xbar - sim[-1]
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = 1.5 * xbar - 0.5 * sim[-1]
                fxc = f(xc)
                shrink = not fxc <= fxr
            else:  # inside contraction
                xc = 0.5 * xbar + 0.5 * sim[-1]
                fxc = f(xc)
                shrink = not fxc < fsim[-1]
            if not shrink:
                sim[-1], fsim[-1] = xc, fxc
            else:
                for j in range(1, N + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = f(sim[j])
        iterations += 1
        sim, fsim = _sort_simplex(sim, fsim)
    return sim[0], np.min(fsim), iterations, iterations < maxiter


def _search(
    objective: Callable[[np.ndarray], float], starts: list[np.ndarray], maxiter: int | None, at=""
):
    """Run Nelder-Mead from every start; return (best u, its objective, iterations).

    Each start is evaluated once, skipped if its objective is not finite
    and otherwise handed with its value to Nelder-Mead; a search whose final
    objective is not finite falls back to its start. The tolerances are
    ``XATOL`` on the point, absolute in search-space units (under ``simplex``,
    the softmax's inputs), and ``FATOL * max(1, |f|)`` at the first finite start.
    ``maxiter`` is the cap per start (``None``: 80 per search dimension).
    An empty search space returns the start, converged, after 0 iterations.

    Raises:
        NonFinite: the objective is NaN or infinite at every start.

    Warns:
        DidNotConverge: no start met the tolerances within ``maxiter``; ``at`` prefixes it.
    """
    if maxiter is None:
        maxiter = 80 * len(starts[0])
    best_u, best_obj, total_iters, converged, fatol = None, np.inf, 0, False, None
    for u in starts:
        f = objective(u)
        if not np.isfinite(f):
            continue
        if fatol is None:
            fatol = FATOL * max(1.0, abs(f))
        if len(u):
            x, fun, nit, success = _nelder_mead(objective, u, f, maxiter, fatol)
            total_iters += nit
            converged = converged or success
            if np.isfinite(fun):
                u, f = x, fun
        else:
            converged = True
        if f < best_obj:
            best_u, best_obj = u, f
    if best_u is None:
        raise NonFinite("objective was NaN or infinite at every start vector")
    if not converged:
        warnings.warn(
            f"{at}no start converged within {maxiter} iterations; returning best point",
            DidNotConverge,
        )
    return np.asarray(best_u, dtype=float), float(best_obj), total_iters


def _master_lp(A: np.ndarray, b: np.ndarray, basis: np.ndarray | None = None):
    """Kelley's master LP: min t over v on the simplex subject to A v - t <= b.

    Solves the dual, max -b·λ + ν over λ on the K-simplex subject to
    Aᵀλ >= ν·1, by a revised simplex with Bland's rule: L+1 rows however
    many cuts there are. A cold start takes the basis of the cut k
    minimizing b_k - min_j A_kj, ν = A_kj at its least entry j and every
    slack but j's, which is feasible. ``basis`` warm-starts the solve: it
    is the optimal basis this function returned for the first K-1 cuts,
    whose rows of A and b are unchanged, so with the new cut's λ at zero
    it stays feasible, and only its ν and slack indices move one place,
    past the new column. The free ν never leaves. The simplex multipliers
    y give the primal solution, v = y[1:] and t = -y[0]. Returns (v, t,
    optimal basis), or None when the dual is unbounded or the pivot cap is
    reached.
    """
    K, L = A.shape
    # columns λ_1..λ_K, ν, slacks σ_1..σ_L; rows Σλ = 1 and Aᵀλ - ν·1 - σ = 0;
    # the simplex minimizes b·λ - ν
    cols = np.block([[np.ones((1, K)), np.zeros((1, L + 1))],
                     [A.T, -np.ones((L, 1)), -np.eye(L)]])
    cost = np.concatenate([b, [-1.0], np.zeros(L)])
    tol = LP_TOL * (1.0 + np.abs(A).max() + np.abs(b).max())
    if basis is None:
        k = int(np.argmin(b - A.min(1)))
        j = int(np.argmin(A[k]))
        basis = np.array([k, K] + [K + 1 + i for i in range(L) if i != j])
    else:
        basis = np.where(basis >= K - 1, basis + 1, basis)
    for _ in range(10 * (K + L + 1)):
        inverse = np.linalg.inv(cols[:, basis])
        y = cost[basis] @ inverse
        reduced = cost - y @ cols
        reduced[basis] = 0.0
        entering = np.flatnonzero(reduced < -tol)
        if not entering.size:
            return y[1:], -y[0], basis
        direction = inverse @ cols[:, entering[0]]
        rows = np.flatnonzero((direction > tol) & (basis != K))
        if not rows.size:
            return None
        ratios = np.maximum(inverse[rows, 0], 0.0) / direction[rows]
        ties = rows[ratios <= ratios.min()]
        basis[ties[np.argmin(basis[ties])]] = entering[0]
    return None


def _cutting_planes(evaluate, L: int, maxiter: int | None, at=""):
    """Kelley's method for a convex objective over the simplex of L weights.

    Cuts start at the bottom-up and equal-weight vectors. Each iteration
    minimizes the epigraph variable t over the simplex subject to every
    cut ``t >= f_k + g_k (v - v_k)``; the LP optimum is a lower bound on
    the objective, and its point is evaluated for the next cut. Each LP
    solve starts from the previous one's optimal basis. The search stops
    when the best objective is within ``CUT_GAP * max(1, |best|)`` of the
    bound or after ``maxiter`` LP solves (``None``: 80 per level). The LP
    reads the cuts in units of max(1, |f|) at the better start, each
    gradient less its mean: the same cut on the simplex, and conditioned
    when every level shares one large mean. Returns
    (best evaluated v, its objective, LP solves, gap). A gap within
    ``LP_TOL * max(1, |best|)``, the LP's own resolution, is rounding and
    is reported as 0.

    Raises:
        NonFinite: the objective is NaN or infinite at both starting cuts.

    Warns:
        DidNotConverge: the gap is still above tolerance when the search stops; ``at`` prefixes it.
    """
    if maxiter is None:
        maxiter = 80 * L
    cuts = []
    for v in (np.eye(L)[-1], np.full(L, 1.0 / L)):
        f, g = evaluate(v)
        if np.isfinite(f):
            cuts.append((v, f, g - g.mean()))
    if not cuts:
        raise NonFinite("objective was NaN or infinite at the bottom-up and equal-weight vectors")
    best_v, best_f, _ = min(cuts, key=lambda cut: cut[1])
    scale = max(1.0, abs(best_f))
    lower, solves, basis = -np.inf, 0, None
    while best_f - lower > CUT_GAP * max(1.0, abs(best_f)) and solves < maxiter:
        lp = _master_lp(
            np.array([g / scale for _, _, g in cuts]),
            np.array([(g @ v - f) / scale for v, f, g in cuts]),
            basis,
        )
        solves += 1
        if lp is None:
            break
        v, t, basis = lp
        lower = t * scale
        v = np.clip(v, 0.0, None)
        v /= v.sum()
        f, g = evaluate(v)
        if not np.isfinite(f):
            break
        if f < best_f:
            best_v, best_f = v, f
        cuts.append((v, f, g - g.mean()))
    gap = best_f - lower
    if gap <= LP_TOL * max(1.0, abs(best_f)):
        gap = 0.0
    if gap > CUT_GAP * max(1.0, abs(best_f)):
        warnings.warn(
            f"{at}cutting-plane search stopped after {solves} LP solves with optimality "
            f"gap {gap:.3e}; returning best point",
            DidNotConverge,
        )
    return best_v, best_f, solves, gap


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
        n_starts: total number of Nelder-Mead starts, at least 3 whatever
            is passed (always bottom-up and equal weights, then a 1/M
            vector except under ``simplex``, then random ones); unused by
            the cutting-plane search.
        maxiter: Nelder-Mead iteration cap per start, or the cap on LP
            solves of the cutting-plane search; defaults to 80 per level
            (per search dimension for Nelder-Mead).

    Under ``simplex`` with more than one level, when every row of the
    assembled validation sample is nondecreasing, the search is the
    cutting-plane method and the result carries its optimality ``gap``;
    otherwise it is the Nelder-Mead multi-start search and ``gap`` is None.
    Either way ``objective`` is the searched value, which equals
    ``cv_criterion`` at the returned weights bit for bit, and is at most
    the objective at every start point the search evaluated: bottom-up and
    equal weights for the cutting planes, the images of the Nelder-Mead
    start vectors otherwise (under ``simplex``, bottom-up only to within
    the 1e-8 floor of its zero weights). The result holds only what the
    search computed, not the ``scheme`` and ``regime`` it was given.

    Raises:
        ConfigError: ``regime`` is not one of ``REGIMES``; raised before any
            origin is assembled.
        NonFinite: the objective is NaN or infinite at every start.

    Warns:
        DidNotConverge: no start met the tolerances within ``maxiter``, or
        the cutting-plane gap is still above ``CUT_GAP``; the message names
        the scheme and regime, and the best point found is still returned.
    """
    if regime not in REGIMES:  # before assembly, so a bad regime fails first
        raise ConfigError(f"unknown regime {regime!r}, expected one of {REGIMES}")
    joint_tensor, actuals = assemble_origins(origins, h, scheme, seed=seed)
    at = f"{scheme} scheme, {regime} regime: "
    certified = regime == "simplex" and h.L > 1
    if certified and (joint_tensor[..., 1:] >= joint_tensor[..., :-1]).all():
        oracle = _cv_oracle(joint_tensor, actuals, h)
        v, objective, iterations, gap = _cutting_planes(oracle, h.L, maxiter, at)
    else:
        def criterion(u):
            P = weights_from_levels(_to_weights(regime, u), h)
            return cv_criterion(P, joint_tensor, actuals, h)

        starts = _start_vectors(h, regime, n_starts, seed)
        u, objective, iterations = _search(criterion, starts, maxiter, at)
        v, gap = _to_weights(regime, u), None
    return CvResult(v=v, objective=objective, iterations=iterations, gap=gap)
