import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from temporec import cvopt
from temporec.cvopt import (
    CUT_GAP,
    _Regime,
    _criterion,
    _cutting_planes,
    _search,
    _start_vectors,
    optimize_weights,
)
from temporec.errors import AlignmentError, ConfigError, DidNotConverge, NonFinite
from temporec.hierarchy import build_hierarchy, build_summing_matrix
from temporec.reconcile import reconcile_tensor, weights_from_levels
from temporec.sampling import LevelSample, OriginData, assemble_origins
from temporec.scoring import _node_weights, _rank_weights, cv_criterion, cv_objective
from temporec.simkit import SyntheticScenario, build_dataset

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
    # the reported objective is the public criterion at the returned weights
    h, origins = balanced_instance()
    for scheme in ("stacked", "ranked", "permuted"):
        for regime in ("simplex", "affine", "free"):
            res = optimize_weights(origins, scheme, regime, h, seed=1)
            assert res.objective == cv_objective(res.v, scheme, origins, h, seed=1)


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
    with np.errstate(all="ignore"), pytest.raises(NonFinite):
        optimize_weights(origins, "ranked", "free", h, seed=0)


def test_unknown_regime_raises_config_error():
    h, origins = bottom_only_instance(n_origins=2, n_paths=5)
    with pytest.raises(ConfigError, match="unknown regime 'simplx'"):
        optimize_weights(origins, "ranked", "simplx", h)
    # checked before the origins are assembled, so an empty list gets the
    # regime's error, not the assembly's
    with pytest.raises(ConfigError):
        optimize_weights([], "ranked", "simplx", h)


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


def test_nelder_mead_warns_when_capped():
    h, origins = bottom_only_instance(n_origins=4, n_paths=25)
    with pytest.warns(DidNotConverge, match="within 1 iterations"):
        res = optimize_weights(origins, "ranked", "free", h, seed=0, maxiter=1)
    assert res.iterations == 6  # one iteration from each of the six starts
    assert (res.regime, res.scheme, res.gap) == ("free", "ranked", None)


def test_search_evaluates_each_start_once():
    # Nelder-Mead takes the start's value from the search instead of
    # evaluating vertex 0 of its first simplex again
    starts = [np.array([0.0, 0.0]), np.array([1.0, 2.0]), np.array([-1.0, 0.5])]
    points = []

    def objective(u):
        points.append(np.array(u, dtype=float))
        return float((u[0] - 0.3) ** 2 + (u[1] + 0.2) ** 2)

    _search(objective, starts, maxiter=200)
    assert [sum(np.array_equal(p, u) for p in points) for u in starts] == [1, 1, 1]


def criterion_instance(seed: int):
    """A random hierarchy with a (T, M, N) sample tensor and realizations.

    Paths are drawn on a coarse grid so that rows carry ties, and some
    realizations coincide with a path. Every row is nondecreasing, as the
    ranked scheme leaves it: the cutting-plane oracle's precondition.
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
    # simplex points on sorted rows, the oracle's precondition: the rows it
    # scores without sorting give the public criterion bit for bit
    # the scoring kernel overwrites the buffer it is handed; neither caller
    # hands it the inputs
    h, tensor, actuals, rng = criterion_instance(seed)
    before = tensor.copy(), actuals.copy()
    evaluate = _criterion(tensor, actuals, h)
    for v in list(rng.dirichlet(np.ones(h.L), size=3)) + [np.eye(h.L)[0], np.eye(h.L)[-1]]:
        expected = cv_criterion(weights_from_levels(v, h), tensor, actuals, h)
        assert evaluate(v)[0] == expected
    np.testing.assert_array_equal(tensor, before[0])
    np.testing.assert_array_equal(actuals, before[1])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_sorted_evaluator_subgradient_inequality(seed):
    h, tensor, actuals, rng = criterion_instance(seed)
    evaluate = _criterion(tensor, actuals, h)
    points = list(rng.dirichlet(np.ones(h.L), size=4)) + [np.eye(h.L)[0], np.eye(h.L)[-1]]
    for v in points:
        fv, g = evaluate(v)
        for u in points:
            assert evaluate(u)[0] >= fv + g @ (u - v) - 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_sorted_evaluator_subgradient_matches_dense_pull_back(seed):
    # the pull-back walks the child map; the reference pairs S^T D with the
    # dense E_l Y, so a wrong window on any level, overlapping ones included,
    # shows in that level's component
    h, tensor, actuals, rng = criterion_instance(seed)
    evaluate = _criterion(tensor, actuals, h)
    S = build_summing_matrix(h).entries
    T, n = tensor.shape[0], tensor.shape[-1]
    for v in list(rng.dirichlet(np.ones(h.L), size=2)) + [np.eye(h.L)[-1]]:
        x = reconcile_tensor(weights_from_levels(v, h), tensor)  # sorted: v >= 0
        D = (np.sign(x - actuals[..., None]) / n - _rank_weights(n)) * _node_weights(h, T)[:, None]
        StD = np.matmul(S.T, D)
        expected = [
            np.vdot(StD, np.matmul(weights_from_levels(np.eye(h.L)[lev], h).entries, tensor))
            for lev in range(h.L)
        ]
        _, grad = evaluate(v)
        # atol: a component that cancels to zero is left with rounding noise
        np.testing.assert_allclose(grad, expected, rtol=1e-12, atol=1e-15)


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
    h = daily_hierarchy
    weights = [reg.to_weights(u) for u in _start_vectors(h, reg, 6, seed=0)]
    assert len(weights) == 6
    for i, a in enumerate(weights):
        for b in weights[i + 1:]:
            assert not np.allclose(a, b, atol=1e-6)


def test_reported_objective_is_the_searched_value(daily_hierarchy, monkeypatch):
    # the objective is the smallest value the search evaluated, with no
    # criterion call after it: the oracle's value on the certified path,
    # the public criterion's under Nelder-Mead
    h = daily_hierarchy
    scn = SyntheticScenario(phi=0.7, sigma=1.0, mu=1.0, cycle_length=h.m,
                            train_cycles=10, val_cycles=3, test_cycles=1, seed=4)
    origins = build_dataset(scn, h, n_paths=30).val_origins
    seen = []

    def recorded(*args):
        seen.append(cv_criterion(*args))
        return seen[-1]

    monkeypatch.setattr(cvopt, "cv_criterion", recorded)
    evaluate = _criterion(*assemble_origins(origins, h, "ranked", seed=4), h)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DidNotConverge)
        res = optimize_weights(origins, "ranked", "simplex", h, seed=4, maxiter=30)
        assert res.gap is not None and not seen
        assert res.objective == evaluate(res.v)[0]
        for regime in ("affine", "free"):
            seen.clear()
            res = optimize_weights(origins, "ranked", regime, h, seed=4, maxiter=30)
            assert res.gap is None and seen
            assert res.objective == min(seen)
            assert res.objective == cv_objective(res.v, "ranked", origins, h, seed=4)


def test_oracle_builds_its_maps_with_weights_from_levels(monkeypatch):
    # one map per oracle evaluation (two start cuts, then one per LP solve)
    # and one pull-back map per search, all through the public builder
    h, origins = balanced_instance()
    expected = optimize_weights(origins, "ranked", "simplex", h, seed=0)
    built = []

    def recorded(v, hierarchy):
        built.append(np.array(v, dtype=float))
        return weights_from_levels(v, hierarchy)

    monkeypatch.setattr(cvopt, "weights_from_levels", recorded)
    res = optimize_weights(origins, "ranked", "simplex", h, seed=0)
    assert res.gap is not None
    assert len(built) == 2 + res.iterations + 1
    np.testing.assert_array_equal(built[0], np.ones(h.L))  # the pull-back
    np.testing.assert_array_equal(res.v, expected.v)
    assert (res.objective, res.gap) == (expected.objective, expected.gap)


def test_misaligned_origins_raise_alignment_error():
    h, origins = balanced_instance(n_origins=3)
    _, (fewer,) = balanced_instance(n_origins=1, n_paths=20)
    with pytest.raises(AlignmentError, match=r"origin 0 has a joint sample of shape \(3, 20\)"):
        optimize_weights(origins + [fewer], "ranked", "simplex", h)
    short = OriginData(levels=origins[1].levels, actual=origins[1].actual[:2], origin=9)
    with pytest.raises(AlignmentError, match=r"origin 9 has actuals of shape \(2,\), expected \(3,\)"):
        optimize_weights([origins[0], short], "stacked", "free", h)


def _linear_cuts(c, finite=lambda v: True):
    """A stub evaluator: the linear objective c @ v and its gradient c,
    NaN wherever ``finite(v)`` is false."""
    c = np.asarray(c, dtype=float)
    return lambda v: (float(c @ v) if finite(v) else np.nan, c)


def test_cutting_planes_non_finite_start_cuts_raise():
    with pytest.raises(NonFinite, match="bottom-up and equal-weight"):
        _cutting_planes(_linear_cuts([0.0, 1.0, 2.0], finite=lambda v: False), 3, None)


def test_cutting_planes_stops_on_a_failed_lp(monkeypatch):
    monkeypatch.setattr(cvopt, "_master_lp", lambda A, b: None)
    with pytest.warns(DidNotConverge, match="after 1 LP solves"):
        v, best_f, solves, gap = _cutting_planes(_linear_cuts([0.0, 1.0, 2.0]), 3, None)
    np.testing.assert_array_equal(v, np.full(3, 1.0 / 3.0))  # the better start
    assert best_f == _linear_cuts([0.0, 1.0, 2.0])(v)[0]
    assert (solves, gap) == (1, np.inf)


def test_cutting_planes_stops_on_a_non_finite_lp_point():
    # the LP optimum is the first vertex, where the objective is NaN
    evaluate = _linear_cuts([0.0, 1.0, 2.0], finite=lambda v: v[0] < 0.5)
    with pytest.warns(DidNotConverge, match="after 1 LP solves with optimality gap 1.000e"):
        v, best_f, solves, gap = _cutting_planes(evaluate, 3, None)
    np.testing.assert_array_equal(v, np.full(3, 1.0 / 3.0))
    assert best_f == evaluate(v)[0]
    assert solves == 1 and gap == pytest.approx(1.0)


def _scaled(origins, factor):
    return [
        OriginData(levels=[LevelSample(s.level, s.matrix * factor) for s in o.levels],
                   actual=o.actual * factor, origin=o.origin)
        for o in origins
    ]


@pytest.mark.parametrize("frequencies, scheme, regime", [
    ((6, 3, 2, 1), "stacked", "affine"),
    ((6, 3, 2, 1), "permuted", "free"),
    ((6, 3, 2, 1), "stacked", "simplex"),
    ((24, 12, 8, 6, 4, 3, 2, 1), "ranked", "simplex"),
])
def test_search_is_invariant_to_the_units_of_the_data(frequencies, scheme, regime):
    # the objective is positively homogeneous and a power of two scales
    # every step exactly, so relative stopping rules make the same steps
    h = build_hierarchy(frequencies)
    scn = SyntheticScenario(phi=0.7, sigma=1.0, mu=1.0, cycle_length=h.m,
                            train_cycles=10, val_cycles=3, test_cycles=1, seed=3)
    small = _scaled(build_dataset(scn, h, n_paths=20).val_origins, 4.0)
    large = _scaled(small, 2.0**20)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DidNotConverge)
        a = optimize_weights(small, scheme, regime, h, seed=5)
        b = optimize_weights(large, scheme, regime, h, seed=5)
    assert a.objective >= 1.0  # so max(1, |objective|) scales too
    assert a.iterations == b.iterations
    np.testing.assert_array_equal(a.v, b.v)
    assert b.objective == a.objective * 2.0**20
    assert (a.gap is None) == (regime != "simplex" or scheme != "ranked")
    if a.gap is not None:
        assert b.gap == a.gap * 2.0**20


def test_search_holds_one_validation_tensor_and_no_split():
    # a dataset draws its validation origins on access and keeps none, so a
    # search draws them straight into its one tensor; a kept split is one
    # tensor's worth more, and the Nelder-Mead search reconciles into one
    # more tensor per evaluation
    h = build_hierarchy([24, 12, 8, 6, 4, 3, 2, 1])
    scn = SyntheticScenario(phi=0.7, sigma=1.0, mu=1.0, cycle_length=24, train_cycles=10,
                            val_cycles=6, test_cycles=1, seed=3)
    ds = build_dataset(scn, h, n_paths=400)
    tensor_bytes = len(ds.val_range) * h.M * 400 * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DidNotConverge)
            optimize_weights(ds.val_origins, "stacked", "affine", h, seed=3, n_starts=3, maxiter=5)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * tensor_bytes, (peak / tensor_bytes, "validation tensors")
