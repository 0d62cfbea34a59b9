"""The two numpy solvers of the weight search against scipy as an oracle.

``cvopt._nelder_mead`` is a port of scipy's Nelder-Mead and must follow it
bit for bit; ``cvopt._master_lp`` must reach the optimum HiGHS reaches.
These tests are the only place that imports scipy.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog, minimize

from temporec.cvopt import XATOL, _from_weights, _master_lp, _nelder_mead, _to_weights
from temporec.reconcile import weights_from_levels
from temporec.sampling import assemble_origins
from temporec.scoring import cv_criterion
from temporec.simkit import SyntheticScenario, build_dataset


def _recorded(objective):
    """The objective, and the list of every point it is called at."""
    points = []

    def wrapped(x):
        points.append(x.copy())
        return objective(x)

    return wrapped, points


def _assert_same_trajectory(objective, x0, maxiter, fatol=1e-7):
    ours, our_points = _recorded(objective)
    theirs, their_points = _recorded(objective)
    x, fun, nit, success = _nelder_mead(ours, x0, ours(x0), maxiter, fatol)
    res = minimize(theirs, x0, method="Nelder-Mead",
                   options={"maxiter": maxiter, "xatol": XATOL, "fatol": fatol})
    np.testing.assert_array_equal(x, res.x)
    np.testing.assert_array_equal(fun, res.fun)  # NaN equals NaN here
    assert (nit, success) == (res.nit, res.success)
    assert len(our_points) == len(their_points)
    for a, b in zip(our_points, their_points):
        np.testing.assert_array_equal(a, b)
    return res


def _rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


@pytest.mark.parametrize("objective, x0, maxiter", [
    (lambda x: float((x - np.arange(len(x))) @ (x - np.arange(len(x)))), np.zeros(3), 400),
    (_rosenbrock, np.array([-1.2, 1.0]), 1000),
    (_rosenbrock, np.array([1.3, 0.7, 0.8, 1.9, 1.2]), 500),
    (_rosenbrock, np.array([-1.2, 1.0, 0.5]), 3),
    (lambda x: float((x[0] - 0.3) ** 2), np.array([2.0]), 200),
    (lambda x: float(abs(x[0] - 1.0) + abs(x[1])), np.array([0.0, 0.0]), 200),
    # plateaus, so that every comparison meets ties
    (lambda x: float(np.floor(4 * abs(x[0] - 1.0)) + np.floor(4 * abs(x[1]))), np.array([3.0, 2.0]), 200),
])
def test_nelder_mead_follows_scipy(objective, x0, maxiter):
    _assert_same_trajectory(objective, x0, maxiter)


def test_nelder_mead_follows_scipy_where_the_objective_is_nan():
    # NaN on a half plane the search steps into: comparisons with NaN are
    # false, and the final value is NaN whenever the simplex holds one
    def objective(x):
        return float(x @ x) if x[0] < 0.6 else np.nan

    _assert_same_trajectory(objective, np.array([0.5, 1.0]), 200)
    res = _assert_same_trajectory(lambda x: np.nan, np.array([0.5, 1.0]), 20)
    assert np.isnan(res.fun) and not res.success


@pytest.mark.parametrize("regime", ["affine", "free"])
def test_nelder_mead_follows_scipy_on_the_cv_criterion(daily_hierarchy, regime):
    h = daily_hierarchy
    scn = SyntheticScenario(phi=0.7, sigma=1.0, mu=1.0, cycle_length=h.m,
                            train_cycles=10, val_cycles=3, test_cycles=1, seed=4)
    tensor, actuals = assemble_origins(build_dataset(scn, h, n_paths=30).val_origins, h, "stacked")
    def objective(u):
        return cv_criterion(weights_from_levels(_to_weights(regime, u), h), tensor, actuals, h)

    _assert_same_trajectory(objective, _from_weights(regime, np.full(h.L, 1.0 / h.L)), 60)


def _highs_bound(A, b):
    """The master LP's optimal t as HiGHS finds it."""
    K, L = A.shape
    lp = linprog(
        np.append(np.zeros(L), 1.0), A_ub=np.hstack([A, -np.ones((K, 1))]), b_ub=b,
        A_eq=np.append(np.ones(L), 0.0)[None, :], b_eq=[1.0],
        bounds=[(0.0, None)] * L + [(None, None)], method="highs",
    )
    assert lp.success
    return lp.fun


def _convex_cuts(rng, L, K, kind):
    """K cuts ``t >= f(v_k) + g_k (v - v_k)`` of a random convex piecewise-linear f.

    ``kind`` makes the inputs degenerate: ``duplicated`` repeats the cuts,
    ``equal`` gives every cut one gradient, ``vertex`` cuts at vertices of
    the simplex, where the cut is tight at the LP's corner.
    """
    pieces = rng.normal(size=(int(rng.integers(1, 30)), L))
    offsets = rng.normal(size=len(pieces))
    if kind == "equal":
        pieces, offsets = pieces[:1], offsets[:1]
    points = rng.dirichlet(np.ones(L), size=K)
    if kind == "vertex":
        points[::2] = np.eye(L)[rng.integers(0, L, size=len(points[::2]))]
    values = points @ pieces.T + offsets
    best = values.argmax(1)
    A = pieces[best]
    b = np.einsum("kl,kl->k", A, points) - values[np.arange(K), best]
    if kind == "equal":
        b += rng.normal(size=K)  # parallel cuts at different levels
    if kind == "duplicated":
        A, b = np.repeat(A, 3, axis=0)[:K], np.repeat(b, 3)[:K]
    return A, b


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(2, 900),
    st.sampled_from(["random", "duplicated", "equal", "vertex"]),
)
def test_master_lp_matches_highs(seed, L, K, kind):
    A, b = _convex_cuts(np.random.default_rng(seed), L, K, kind)
    solved = _master_lp(A, b)
    assert solved is not None
    v, t, _ = solved
    _assert_reaches_highs(A, b, v, t)


def _assert_reaches_highs(A, b, v, t):
    """The LP solution (v, t) is optimal and feasible, within rounding."""
    t_ref = _highs_bound(A, b)
    assert abs(t - t_ref) <= 1e-9 * max(1.0, abs(t_ref))
    tiny = 1e-12 * max(1.0, np.abs(A).max())
    assert v.min() >= -tiny and abs(v.sum() - 1.0) <= tiny
    assert abs((A @ v - b).max() - t) <= 1e-12 * max(1.0, np.abs(A).max(), np.abs(b).max())


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(2, 900),
    st.sampled_from(["random", "duplicated", "equal", "vertex"]),
)
def test_master_lp_warm_started_from_one_cut_fewer_matches_highs(seed, L, K, kind):
    # the optimal basis of the first K-1 cuts stays feasible with the K-th
    # cut's column appended, and the solve from it reaches the same bound
    A, b = _convex_cuts(np.random.default_rng(seed), L, K, kind)
    first = _master_lp(A[:-1], b[:-1])
    assert first is not None
    solved = _master_lp(A, b, first[2])
    assert solved is not None
    v, t, basis = solved
    _assert_reaches_highs(A, b, v, t)
    assert basis.shape == (L + 1,) and K in basis  # the free ν stays basic


def test_master_lp_on_a_single_repeated_cut():
    # every cut identical: the optimum is the least entry of the gradient
    A, b = np.tile([3.0, -1.0, 2.0], (5, 1)), np.full(5, 0.5)
    v, t, _ = _master_lp(A, b)
    np.testing.assert_array_equal(v, [0.0, 1.0, 0.0])
    assert t == -1.5


def test_master_lp_cost():
    # the 5-minute hierarchy's default cap: 80 LP solves per level, L = 11
    A, b = _convex_cuts(np.random.default_rng(0), 11, 880, "random")
    best = np.inf
    for _ in range(5):
        start = time.perf_counter()
        _master_lp(A, b)
        best = min(best, time.perf_counter() - start)
    assert best < 0.010
