import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from temporec import cli, cvopt, hierarchy
from temporec.cvopt import (
    CUT_GAP,
    _cutting_planes,
    _search,
    _start_vectors,
    _to_weights,
    optimize_weights,
)
from temporec.errors import AlignmentError, ConfigError, DidNotConverge, LengthMismatch, NonFinite
from temporec.hierarchy import build_hierarchy
from temporec.reconcile import reconcile_tensor, weights_from_levels
from temporec.sampling import OriginData, assemble_origins
from temporec.scoring import (
    _cv_oracle, _node_weights, _rank_weights, _sorted_crps, cv_criterion, cv_objective,
)
from temporec.simkit import SyntheticScenario, build_dataset

from conftest import dense_map, oracle_summing_matrix, random_hierarchy


def bottom_only_instance(n_origins=6, n_paths=40, seed=100):
    """Upper-level samples are pure noise; bottom samples track the truth."""
    h = build_hierarchy([2, 1])
    S = oracle_summing_matrix(h)
    rng = np.random.default_rng(seed)
    origins = []
    for t in range(n_origins):
        bottom_truth = rng.normal(size=h.m)
        actual = S @ bottom_truth
        top = rng.normal(5.0, 3.0, size=(1, n_paths))
        bot = bottom_truth[:, None] + rng.normal(0, 0.1, size=(2, n_paths))
        origins.append(OriginData(levels=(top, bot), actual=actual, origin=t))
    return h, origins


def balanced_instance(n_origins=8, n_paths=50, seed=200):
    """Both levels carry signal with different noise, giving an interior optimum."""
    h = build_hierarchy([2, 1])
    S = oracle_summing_matrix(h)
    rng = np.random.default_rng(seed)
    origins = []
    for t in range(n_origins):
        bottom_truth = rng.normal(size=h.m)
        actual = S @ bottom_truth
        top = actual[0] + rng.normal(0, 0.4, size=(1, n_paths))
        bot = bottom_truth[:, None] + rng.normal(0, 0.8, size=(2, n_paths))
        origins.append(OriginData(levels=(top, bot), actual=actual, origin=t))
    return h, origins


def test_simplex_feasibility():
    h, origins = bottom_only_instance()
    res = optimize_weights(origins, "ranked", "simplex", h, seed=0)
    assert abs(res.v.sum() - 1.0) <= 1e-8
    assert res.v.min() >= -1e-8


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


def test_returned_objective_is_at_most_every_evaluated_start():
    # the bound that holds exactly: the objective at every start point the
    # search evaluated. Under simplex Nelder-Mead the bottom-up start is
    # softmax(log(max(e_L, 1e-8))), not e_L, so a capped search can end a
    # rounding-sized amount above the objective at exact bottom-up
    above_exact_bottom_up = 0
    for frequencies in ((4, 2, 1), (24, 12, 8, 6, 4, 3, 2, 1)):
        h = build_hierarchy(frequencies)
        e_L, equal = np.eye(h.L)[-1], np.full(h.L, 1.0 / h.L)
        for seed in range(3):
            scn = SyntheticScenario(phi=0.7, sigma=1.0, mu=1.0, cycle_length=frequencies[0],
                                    train_cycles=12, val_cycles=4, test_cycles=1, seed=seed)
            origins = list(build_dataset(scn, h, n_paths=30).val_origins)
            for scheme, regime in (("stacked", "simplex"), ("permuted", "simplex"),
                                   ("stacked", "affine"), ("ranked", "simplex")):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", DidNotConverge)
                    res = optimize_weights(origins, scheme, regime, h, seed=seed,
                                           n_starts=3, maxiter=5)
                starts = ([e_L, equal] if res.gap is not None
                          else [_to_weights(regime, u) for u in _start_vectors(h, regime, 3, seed)])
                for v in starts:
                    assert res.objective <= cv_objective(v, scheme, origins, h, seed=seed)
                if res.gap is None and regime == "simplex":
                    above_exact_bottom_up += res.objective > cv_objective(
                        e_L, scheme, origins, h, seed=seed)
    assert above_exact_bottom_up > 0


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
    top = [[0.0, 1.0]]
    bot = [[0.0, 1.0], [0.0, 1.0]]
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
            levels=[rng.normal(size=(1, 10))],
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
    assert res.gap is None


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
    evaluate = _cv_oracle(tensor, actuals, h)
    for v in list(rng.dirichlet(np.ones(h.L), size=3)) + [np.eye(h.L)[0], np.eye(h.L)[-1]]:
        expected = cv_criterion(weights_from_levels(v, h), tensor, actuals, h)
        assert evaluate(v)[0] == expected
    np.testing.assert_array_equal(tensor, before[0])
    np.testing.assert_array_equal(actuals, before[1])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_sorted_evaluator_subgradient_inequality(seed):
    h, tensor, actuals, rng = criterion_instance(seed)
    evaluate = _cv_oracle(tensor, actuals, h)
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
    evaluate = _cv_oracle(tensor, actuals, h)
    S = oracle_summing_matrix(h)
    T, n = tensor.shape[0], tensor.shape[-1]
    for v in list(rng.dirichlet(np.ones(h.L), size=2)) + [np.eye(h.L)[-1]]:
        x = reconcile_tensor(weights_from_levels(v, h), tensor)  # sorted: v >= 0
        D = (np.sign(x - actuals[..., None]) / n - _rank_weights(n)) * _node_weights(h, T)[:, None]
        StD = np.matmul(S.T, D)
        expected = [
            np.vdot(StD, np.matmul(dense_map(weights_from_levels(np.eye(h.L)[lev], h)), tensor))
            for lev in range(h.L)
        ]
        _, grad = evaluate(v)
        # atol: a component that cancels to zero is left with rounding noise
        np.testing.assert_allclose(grad, expected, rtol=1e-12, atol=1e-15)


def reference_oracle(tensor, actuals, h):
    """The oracle's arithmetic through public maps: ``weights_from_levels``
    forward, the unit-weight map's ``apply`` as the pull-back, each on a new
    buffer, and the kernel on a copy, in the oracle's order of operations."""
    T, _, n = tensor.shape
    unit = 1.0 / (h.L * h.m * T * n)
    level_starts = [rows.start for _, rows in h.levels]
    pull_back = weights_from_levels(np.ones(h.L), h)

    def evaluate(v):
        P = weights_from_levels(v, h)
        crps, grad = np.empty_like(actuals), np.zeros(h.L)
        for t, (sample, actual) in enumerate(zip(tensor, actuals)):
            x = P.apply(sample)
            crps[t] = _sorted_crps(x.copy(), actual)
            dev = (np.sign(x - actual[:, None]) - n * _rank_weights(n)) * unit
            grad += np.add.reduceat((pull_back.apply(dev) * sample).sum(axis=1), level_starts)
        return float((crps * _node_weights(h, T)).sum()), grad * h.f

    return evaluate


def _assert_oracle_equals_reference(h, tensor, actuals, rng):
    evaluate, reference = _cv_oracle(tensor, actuals, h), reference_oracle(tensor, actuals, h)
    points = list(rng.dirichlet(np.ones(h.L), size=3)) + [np.eye(h.L)[0], np.eye(h.L)[-1]]
    # evaluations reuse the workspace, so each is checked after others ran
    for v in points + points[::-1]:
        f, g = evaluate(v)
        f_ref, g_ref = reference(v)
        assert f == f_ref
        np.testing.assert_array_equal(g, g_ref)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_workspace_oracle_equals_the_public_map_reference(seed):
    # random hierarchies, tied sorted rows and realizations on the paths
    h, tensor, actuals, rng = criterion_instance(seed)
    _assert_oracle_equals_reference(h, tensor, actuals, rng)


@pytest.mark.parametrize("f", [
    (24, 12, 8, 6, 4, 3, 2, 1), (288, 144, 96, 72, 48, 36, 24, 12, 6, 3, 1),
])
def test_workspace_oracle_equals_the_public_map_reference_on_ranked_samples(f):
    h = build_hierarchy(f)
    scn = SyntheticScenario(phi=0.7, sigma=1.0, mu=1.0, cycle_length=h.m, train_cycles=10,
                            val_cycles=3, test_cycles=1, seed=6)
    tensor, actuals = assemble_origins(build_dataset(scn, h, n_paths=25).val_origins, h,
                                       "ranked", seed=6)
    _assert_oracle_equals_reference(h, tensor, actuals, np.random.default_rng(6))


def nelder_mead_simplex(origins, scheme, h, seed=0):
    """Uncapped Nelder-Mead over the simplex, bypassing the certified path."""
    tensor, actuals = assemble_origins(origins, h, scheme, seed=seed)

    def objective(u):
        return cv_criterion(weights_from_levels(_to_weights("simplex", u), h), tensor, actuals, h)

    _, best, _ = _search(objective, _start_vectors(h, "simplex", 6, seed), maxiter=100_000)
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
    h = daily_hierarchy
    weights = [_to_weights("simplex", u) for u in _start_vectors(h, "simplex", 6, seed=0)]
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
    evaluate = _cv_oracle(*assemble_origins(origins, h, "ranked", seed=4), h)
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


def test_oracle_builds_no_maps_and_checks_v_as_weights_from_levels_does(monkeypatch):
    # the oracle applies the lineage operator in its own workspace, so a
    # search builds no map, and a bad v fails as the public builder fails
    h, origins = balanced_instance()
    built = []

    def recorded(v, hierarchy):
        built.append(np.array(v, dtype=float))
        return weights_from_levels(v, hierarchy)

    monkeypatch.setattr(cvopt, "weights_from_levels", recorded)
    res = optimize_weights(origins, "ranked", "simplex", h, seed=0)
    assert res.gap is not None and res.iterations >= 3
    assert built == []
    evaluate = _cv_oracle(*assemble_origins(origins, h, "ranked", seed=0), h)
    for bad in (np.ones(h.L + 1), np.array([0.5, np.nan]), np.ones((h.L, 1))):
        with pytest.raises(LengthMismatch) as want:
            weights_from_levels(bad, h)
        with pytest.raises(LengthMismatch, match=re.escape(str(want.value))):
            evaluate(bad)


def test_certified_search_builds_its_walk_views_once(monkeypatch):
    # the oracle's workspace and its child-map views are built once per
    # search, however many origins and evaluations the search takes
    h = build_hierarchy([24, 12, 8, 6, 4, 3, 2, 1])
    built = []
    init = hierarchy._Walk.__init__

    def counting(self, buf, spec):
        built.append(buf.shape)
        init(self, buf, spec)

    for val_cycles in (2, 6):
        scn = SyntheticScenario(phi=0.7, sigma=1.0, mu=1.0, cycle_length=24, train_cycles=30,
                                val_cycles=val_cycles, test_cycles=1, seed=1)
        origins = list(build_dataset(scn, h, n_paths=20).val_origins)
        with monkeypatch.context() as patch:
            patch.setattr(hierarchy._Walk, "__init__", counting)
            built.clear()
            res = optimize_weights(origins, "ranked", "simplex", h, seed=1, maxiter=30)
        assert res.gap is not None and res.iterations >= 10
        assert built == [(h.M, 20)]


def test_certified_search_converges_on_a_near_unit_root_series(tmp_path):
    # with phi near 1 every level's samples share the level mu / (1 - phi),
    # about 1e6, so each cut's gradient is that large along the ones vector,
    # to which the simplex is blind; centred cuts keep the master LP well
    # conditioned, where raw ones ran this search to its 240-solve cap
    cli.run_experiment(cli.RunConfig(
        out=str(tmp_path), frequencies=(4, 2, 1), phi=0.999999, train_cycles=12,
        val_cycles=4, test_cycles=2, n_paths=50, methods=("cv",), seed=0,
    ))
    header, row = (tmp_path / "cv_weights.csv").read_text().splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert float(fields["gap"]) <= CUT_GAP * max(1.0, abs(float(fields["objective"])))
    assert int(fields["iterations"]) < 40


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
    monkeypatch.setattr(cvopt, "_master_lp", lambda A, b, basis: None)
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


def _noisy_linear_cuts(noise):
    """``_linear_cuts([0, 1, 2])`` whose value at the LP's optimum, the first
    vertex, exceeds its cuts by ``noise``."""
    c = np.array([0.0, 1.0, 2.0])
    return lambda v: (float(c @ v) + (noise if v[0] == 1.0 else 0.0), c)


def test_cutting_planes_reports_a_gap_within_the_lp_resolution_as_zero():
    # the LP bound is 0 and the best value is the noise; below the LP's own
    # tolerance that difference is rounding, above it a gap to report
    for noise, reported in [(1e-13, 0.0), (-1e-13, 0.0), (1e-9, 1e-9)]:
        v, best_f, solves, gap = _cutting_planes(_noisy_linear_cuts(noise), 3, None)
        np.testing.assert_array_equal(v, [1.0, 0.0, 0.0])
        assert (best_f, solves, gap) == (noise, 1, reported)


def test_cutting_planes_keeps_the_gap_of_a_capped_search():
    def evaluate(v):  # a smooth convex bowl, which one cut per point never closes
        d = v - np.array([0.2, 0.3, 0.5])
        return float(d @ d), 2.0 * d

    with pytest.warns(DidNotConverge, match="after 2 LP solves"):
        _, best_f, solves, gap = _cutting_planes(evaluate, 3, 2)
    assert solves == 2 and gap > CUT_GAP * max(1.0, abs(best_f))


def test_certified_search_warm_starts_its_lp_solves(daily_hierarchy, monkeypatch):
    # each master LP starts from the last optimal basis, so the inverses,
    # one per pivot, stay near the number of solves: 72 over 29 solves on
    # the default daily run's validation split, where cold starts made 408
    calls = []
    inverse = np.linalg.inv

    def counting(a):
        calls.append(a.shape)
        return inverse(a)

    h = daily_hierarchy
    scn = SyntheticScenario(phi=0.7, sigma=1.0, mu=1.0, cycle_length=24, train_cycles=30,
                            val_cycles=10, test_cycles=1, seed=0)
    origins = build_dataset(scn, h, n_paths=200).val_origins
    monkeypatch.setattr(np.linalg, "inv", counting)
    res = optimize_weights(origins, "ranked", "simplex", h, seed=0, maxiter=50)
    assert res.gap is not None and res.iterations >= 10
    assert len(calls) < 100, (len(calls), res.iterations)


def _scaled(origins, factor):
    return [
        OriginData(levels=[z * factor for z in o.levels],
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


def _validation_search_peak(scheme, regime):
    """tracemalloc's peak over one capped search of a daily dataset's 6
    validation origins of 400 paths, the search's result, and the bytes of
    the validation tensor and of one origin's (M, N) sample."""
    h = build_hierarchy([24, 12, 8, 6, 4, 3, 2, 1])
    scn = SyntheticScenario(phi=0.7, sigma=1.0, mu=1.0, cycle_length=24, train_cycles=10,
                            val_cycles=6, test_cycles=1, seed=3)
    ds = build_dataset(scn, h, n_paths=400)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DidNotConverge)
            result = optimize_weights(ds.val_origins, scheme, regime, h, seed=3, n_starts=3,
                                      maxiter=5)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    sample_bytes = h.M * 400 * 8
    return peak, result, len(ds.val_range) * sample_bytes, sample_bytes


def test_search_holds_one_validation_tensor_and_no_split():
    # a dataset draws its validation origins on access and keeps none, so a
    # search draws them straight into its one tensor; a kept split is one
    # tensor's worth more
    peak, _, tensor_bytes, _ = _validation_search_peak("stacked", "affine")
    assert peak < 2.5 * tensor_bytes, (peak / tensor_bytes, "validation tensors")


@pytest.mark.parametrize("scheme, regime", [("stacked", "affine"), ("ranked", "simplex")])
def test_search_holds_the_validation_tensor_and_a_few_origin_samples(scheme, regime):
    # both objectives reconcile, score and (the cutting-plane oracle) pull
    # back one validation origin at a time, so besides the validation tensor
    # a search holds a few (M, N) buffers, where a whole-tensor evaluation
    # holds one (Nelder-Mead) or three (the oracle) more tensors
    peak, result, tensor_bytes, sample_bytes = _validation_search_peak(scheme, regime)
    assert (result.gap is not None) == (scheme == "ranked")
    assert peak < tensor_bytes + 4 * sample_bytes, (
        (peak - tensor_bytes) / sample_bytes, "origin samples besides the tensor"
    )
