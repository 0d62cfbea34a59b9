import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from temporec.cvopt import (
    CUT_GAP,
    _Regime,
    _search,
    _sorted_crps,
    _start_vectors,
    optimize_node_weights,
    optimize_weights,
)
from temporec.errors import DidNotConverge, NonFinite
from temporec.hierarchy import build_hierarchy, build_summing_matrix
from temporec.reconcile import weights_from_levels
from temporec.sampling import LevelSample, OriginData
from temporec.scoring import assemble_origins, cv_criterion, cv_objective

from conftest import random_hierarchy


def bottom_only_instance(n_origins=6, n_paths=40, seed=100):
    """Upper-level samples are pure noise; bottom samples track the truth."""
    h = build_hierarchy([2, 1])
    S = build_summing_matrix(h)
    rng = np.random.default_rng(seed)
    origins = []
    for t in range(n_origins):
        bottom_truth = rng.normal(size=h.m)
        actual = S.entries @ bottom_truth
        top = LevelSample(level=1, matrix=rng.normal(5.0, 3.0, size=(1, n_paths)))
        bot = LevelSample(
            level=2,
            matrix=bottom_truth[:, None] + rng.normal(0, 0.1, size=(2, n_paths)),
        )
        origins.append(OriginData(levels=(top, bot), actual=actual, origin=t))
    return h, origins


def balanced_instance(n_origins=8, n_paths=50, seed=200):
    """Both levels carry signal with different noise, giving an interior optimum."""
    h = build_hierarchy([2, 1])
    S = build_summing_matrix(h)
    rng = np.random.default_rng(seed)
    origins = []
    for t in range(n_origins):
        bottom_truth = rng.normal(size=h.m)
        actual = S.entries @ bottom_truth
        top = LevelSample(level=1, matrix=actual[0] + rng.normal(0, 0.4, size=(1, n_paths)))
        bot = LevelSample(
            level=2,
            matrix=bottom_truth[:, None] + rng.normal(0, 0.8, size=(2, n_paths)),
        )
        origins.append(OriginData(levels=(top, bot), actual=actual, origin=t))
    return h, origins


def test_simplex_feasibility():
    h, origins = bottom_only_instance()
    res = optimize_weights(origins, "ranked", "simplex", h, seed=0)
    assert abs(res.v.sum() - 1.0) <= 1e-8
    assert res.v.min() >= -1e-8
    assert res.regime == "simplex"
    assert res.scheme == "ranked"


def test_affine_feasibility():
    h, origins = balanced_instance()
    res = optimize_weights(origins, "ranked", "affine", h, seed=0)
    assert abs(res.v.sum() - 1.0) <= 1e-8


def test_objective_matches_recomputation():
    h, origins = balanced_instance()
    for regime in ("simplex", "affine", "free"):
        res = optimize_weights(origins, "ranked", regime, h, seed=1)
        assert cv_objective(res.v, "ranked", origins, h) == pytest.approx(
            res.objective, abs=1e-10
        )


def test_dominates_start_vectors():
    h, origins = balanced_instance()
    bu = np.array([0.0, 1.0])
    la = np.full(2, 0.5)
    for scheme in ("stacked", "ranked", "permuted"):
        res = optimize_weights(origins, scheme, "simplex", h, seed=0)
        assert res.objective <= cv_objective(bu, scheme, origins, h) + 1e-12
        assert res.objective <= cv_objective(la, scheme, origins, h) + 1e-12


def test_deterministic():
    h, origins = balanced_instance()
    first = optimize_weights(origins, "permuted", "simplex", h, seed=7)
    second = optimize_weights(origins, "permuted", "simplex", h, seed=7)
    np.testing.assert_array_equal(first.v, second.v)
    assert first.objective == second.objective
    assert first.iterations == second.iterations


def test_bottom_only_concentrates_on_bottom():
    h, origins = bottom_only_instance()
    res = optimize_weights(origins, "ranked", "simplex", h, seed=0)
    assert res.v[-1] >= 0.5
    # 0.05-resolution grid over the simplex as the independent oracle
    grid = np.arange(0.0, 1.0001, 0.05)
    objs = [cv_objective(np.array([v1, 1.0 - v1]), "ranked", origins, h) for v1 in grid]
    best = grid[int(np.argmin(objs))]
    assert np.abs(res.v - np.array([best, 1.0 - best])).max() <= 0.02


def test_matches_fine_grid_on_unimodal_instance():
    h, origins = balanced_instance()
    grid = np.arange(0.0, 1.0001, 0.01)
    objs = np.array(
        [cv_objective(np.array([v1, 1.0 - v1]), "ranked", origins, h) for v1 in grid]
    )
    # empirical convexity check: one descent, one ascent
    signs = np.sign(np.diff(objs))
    assert int(np.abs(np.diff(signs)).sum() / 2) == 1
    best = grid[int(np.argmin(objs))]
    res = optimize_weights(origins, "ranked", "simplex", h, seed=0)
    assert abs(res.v[0] - best) <= 0.02
    assert res.objective <= objs.min() + 1e-3


def test_non_finite_objective_raises():
    # an infinite realization poisons the CRPS at every start vector
    h = build_hierarchy([2, 1])
    top = LevelSample(level=1, matrix=np.array([[0.0, 1.0]]))
    bot = LevelSample(level=2, matrix=np.array([[0.0, 1.0], [0.0, 1.0]]))
    origins = [OriginData(levels=(top, bot), actual=np.full(h.M, np.inf))]
    with np.errstate(all="ignore"):
        with pytest.raises(NonFinite):
            optimize_weights(origins, "ranked", "free", h, seed=0)
        with pytest.raises(NonFinite):
            optimize_node_weights(origins, "ranked", h, seed=0)


def test_single_level_hierarchy():
    h = build_hierarchy([1])
    rng = np.random.default_rng(5)
    origins = [
        OriginData(
            levels=(LevelSample(level=1, matrix=rng.normal(size=(1, 10))),),
            actual=rng.normal(size=1),
        )
        for _ in range(3)
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error", DidNotConverge)
        for regime in ("simplex", "affine"):
            res = optimize_weights(origins, "stacked", regime, h, seed=0)
            assert res.v.shape == (1,)
            assert res.v[0] == pytest.approx(1.0, abs=1e-8)
            # one feasible weight leaves nothing to search: the start is
            # returned as converged
            assert res.iterations == 0


def test_node_weights_toy():
    h, origins = bottom_only_instance(n_origins=4, n_paths=25)
    res = optimize_node_weights(origins, "ranked", h, seed=0, maxiter=400)
    assert set(res.weights) == {(1, 1), (2, 1), (2, 2)}
    level_res = optimize_weights(origins, "ranked", "free", h, seed=0)
    # per-node weights subsume per-level ones, so the optimum is at least as good
    assert res.objective <= level_res.objective + 1e-6


def test_node_weights_warn_when_capped():
    h, origins = bottom_only_instance(n_origins=4, n_paths=25)
    with pytest.warns(DidNotConverge, match="within 1 iterations"):
        res = optimize_node_weights(origins, "ranked", h, seed=0, maxiter=1)
    assert res.iterations == 6  # one iteration from each of the six starts


def sorted_instance(seed: int):
    """A random hierarchy with a (T, M, N) tensor of nondecreasing rows.

    Paths are drawn on a coarse grid so that rows carry ties, and some
    realizations coincide with a path.
    """
    rng = np.random.default_rng(seed)
    h = random_hierarchy(rng, max_cycle=12)
    T, n = int(rng.integers(1, 4)), int(rng.integers(2, 12))
    tensor = np.sort(rng.integers(-3, 4, size=(T, h.M, n)) * 0.5, axis=-1)
    actuals = rng.integers(-3, 4, size=(T, h.M)) * 0.5 + rng.choice([0.0, 0.3], size=(T, h.M))
    return h, tensor, actuals, rng


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_sorted_evaluator_equals_cv_criterion(seed):
    h, tensor, actuals, rng = sorted_instance(seed)
    evaluate = _sorted_crps(tensor, actuals, h)
    for v in rng.dirichlet(np.ones(h.L), size=3):
        value, _ = evaluate(v)
        assert abs(value - cv_criterion(weights_from_levels(v, h), tensor, actuals, h)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_sorted_evaluator_subgradient_inequality(seed):
    h, tensor, actuals, rng = sorted_instance(seed)
    evaluate = _sorted_crps(tensor, actuals, h)
    points = list(rng.dirichlet(np.ones(h.L), size=4)) + [np.eye(h.L)[0], np.eye(h.L)[-1]]
    for v in points:
        fv, g = evaluate(v)
        for u in points:
            assert evaluate(u)[0] >= fv + g @ (u - v) - 1e-12


def nelder_mead_simplex(origins, scheme, h, seed=0):
    """Uncapped Nelder-Mead over the simplex, bypassing the certified path."""
    tensor, actuals = assemble_origins(origins, h, scheme, seed=seed)
    reg = _Regime("simplex")

    def objective(u):
        return cv_criterion(weights_from_levels(reg.to_weights(u), h), tensor, actuals, h)

    _, best, _ = _search(objective, _start_vectors(h, reg, 6, seed), maxiter=100_000)
    return best


@pytest.mark.parametrize("instance", [bottom_only_instance, balanced_instance])
def test_certified_objective_matches_uncapped_nelder_mead(instance):
    h, origins = instance()
    res = optimize_weights(origins, "ranked", "simplex", h, seed=0)
    assert res.gap is not None and res.gap <= CUT_GAP * max(1.0, abs(res.objective))
    assert res.objective <= nelder_mead_simplex(origins, "ranked", h) + 1e-7


def test_certified_path_needs_simplex_and_sorted_rows():
    h, origins = balanced_instance()
    assert optimize_weights(origins, "ranked", "simplex", h, seed=0).gap is not None
    assert optimize_weights(origins, "ranked", "affine", h, seed=0).gap is None
    assert optimize_weights(origins, "stacked", "simplex", h, seed=0).gap is None


def test_certified_path_warns_when_capped():
    h, origins = balanced_instance()
    with pytest.warns(DidNotConverge, match="gap"):
        res = optimize_weights(origins, "ranked", "simplex", h, seed=0, maxiter=1)
    assert res.iterations == 1
    assert res.gap > CUT_GAP * max(1.0, abs(res.objective))


def test_simplex_start_weights_are_distinct(daily_hierarchy):
    reg = _Regime("simplex")
    weights = [reg.to_weights(u) for u in _start_vectors(daily_hierarchy, reg, 6, seed=0)]
    assert len(weights) == 6
    for i, a in enumerate(weights):
        for b in weights[i + 1:]:
            assert not np.allclose(a, b, atol=1e-6)
