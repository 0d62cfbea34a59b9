import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from temporec.errors import AlignmentError, EmptySample
from temporec.hierarchy import build_hierarchy, build_summing_matrix
from temporec.reconcile import fixed_weights, reconcile
from temporec.sampling import LevelSample, OriginData, assemble
from temporec.scoring import (
    assemble_origins,
    crps_sample,
    cv_objective,
    median_point,
    score_hierarchy,
)

from conftest import random_hierarchy


def crps_brute_force(sample, z):
    """O(N^2) double sum, the independent oracle for the sorted estimator."""
    x = np.asarray(sample, dtype=float)
    n = x.size
    first = np.abs(x - z).mean()
    second = np.abs(x[:, None] - x[None, :]).sum() / (2.0 * n * n)
    return first - second


def test_crps_examples():
    assert crps_sample([0.0, 0.0], 0.0) == 0.0
    assert crps_sample([1.0, 1.0], 0.0) == pytest.approx(1.0, abs=1e-15)
    # brute force gives 0.5 - 0.25
    assert crps_brute_force([0.0, 1.0], 0.0) == pytest.approx(0.25, abs=1e-15)
    assert crps_sample([0.0, 1.0], 0.0) == pytest.approx(0.25, abs=1e-15)


def test_crps_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 201))
        sample = rng.normal(scale=rng.uniform(0.1, 5.0), size=n)
        z = rng.normal()
        assert abs(crps_sample(sample, z) - crps_brute_force(sample, z)) <= 1e-10


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-4, 4) | st.floats(-1e3, 1e3), min_size=1, max_size=60),
    st.integers(-4, 4) | st.floats(-1e3, 1e3),
)
def test_crps_matches_brute_force_with_ties(sample, z):
    # small integers make tied paths, and paths tied with the realization
    expected = crps_brute_force(sample, z)
    assert abs(crps_sample(sample, z) - expected) <= 1e-9 * max(1.0, abs(expected))


def test_crps_nonnegative_and_zero_iff_degenerate():
    rng = np.random.default_rng(4)
    for _ in range(100):
        sample = rng.normal(size=int(rng.integers(1, 30)))
        z = rng.normal()
        assert crps_sample(sample, z) >= 0.0
    assert crps_sample([2.0, 2.0, 2.0], 2.0) == 0.0
    assert crps_sample([2.0, 2.0, 2.1], 2.0) > 0.0


def test_crps_translation_and_scale():
    rng = np.random.default_rng(6)
    for _ in range(50):
        sample = rng.normal(size=37)
        z = rng.normal()
        c = rng.normal()
        a = rng.uniform(0.1, 3.0)
        base = crps_sample(sample, z)
        assert abs(crps_sample(sample + c, z + c) - base) <= 1e-10
        assert abs(crps_sample(a * sample, a * z) - a * base) <= 1e-10


def test_crps_empty():
    with pytest.raises(EmptySample):
        crps_sample([], 0.0)


def test_median_examples():
    assert median_point([3.0, 1.0, 2.0]) == 2.0
    assert median_point([1.0, 3.0]) == 2.0
    assert median_point([5.0]) == 5.0
    with pytest.raises(EmptySample):
        median_point([])


def test_score_perfect_forecasts_zero(small_hierarchy):
    h = small_hierarchy
    S = build_summing_matrix(h)
    rng = np.random.default_rng(10)
    samples, actuals = [], []
    for _ in range(3):
        bottom = rng.normal(size=h.m)
        actual = S.entries @ bottom
        samples.append(np.repeat(actual[:, None], 5, axis=1))
        actuals.append(actual)
    for metric in ("crps", "mae"):
        table = score_hierarchy(samples, actuals, h, metric=metric)
        assert table.metric == metric.upper()
        assert all(abs(s) <= 1e-12 for s in table.level_scores)
        assert abs(table.overall) <= 1e-12


def test_score_single_node_fixture():
    # one node, one origin, sample {0, 1} against 0: CRPS table is 0.25
    h = build_hierarchy([1])
    table = score_hierarchy([np.array([[0.0, 1.0]])], [np.array([0.0])], h, metric="crps")
    assert table.level_scores == (0.25,)
    assert table.overall == 0.25


def test_overall_is_mean_of_levels():
    rng = np.random.default_rng(12)
    for _ in range(10):
        h = random_hierarchy(rng)
        samples = [rng.normal(size=(h.M, 6)) for _ in range(2)]
        actuals = [rng.normal(size=h.M) for _ in range(2)]
        table = score_hierarchy(samples, actuals, h)
        assert table.overall == pytest.approx(np.mean(table.level_scores), abs=1e-12)
        assert len(table.level_scores) == h.L


def test_native_units_scale_levels():
    # native scoring multiplies a level's CRPS by f_l relative to common
    h = build_hierarchy([2, 1])
    samples = [np.array([[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]])]
    actuals = [np.zeros(3)]
    common = score_hierarchy(samples, actuals, h, units="common")
    native = score_hierarchy(samples, actuals, h, units="native")
    assert native.level_scores[0] == pytest.approx(2 * common.level_scores[0], abs=1e-12)
    assert native.level_scores[1] == pytest.approx(common.level_scores[1], abs=1e-12)
    # on random hierarchies both metrics equal scoring an explicitly rescaled sample
    rng = np.random.default_rng(23)
    for _ in range(10):
        h = random_hierarchy(rng)
        scale = np.concatenate(
            [np.full(h.nodes_at(lev), float(h.f[lev - 1])) for lev in range(1, h.L + 1)]
        )
        tensor = rng.normal(size=(3, h.M, 8))
        actuals = rng.normal(size=(3, h.M))
        for metric in ("crps", "mae"):
            native = score_hierarchy(tensor, actuals, h, metric=metric, units="native")
            oracle = score_hierarchy(
                tensor * scale[:, None], actuals * scale, h, metric=metric, units="common"
            )
            np.testing.assert_allclose(native.level_scores, oracle.level_scores, rtol=1e-12)
            np.testing.assert_allclose(native.origin_scores, oracle.origin_scores, rtol=1e-12)


def test_score_alignment_errors(small_hierarchy):
    h = small_hierarchy
    good = np.zeros((h.M, 4))
    with pytest.raises(AlignmentError):
        score_hierarchy([good], [], h)
    with pytest.raises(AlignmentError):
        score_hierarchy([np.zeros((3, 4))], [np.zeros(h.M)], h)
    with pytest.raises(AlignmentError):
        score_hierarchy([good], [np.zeros(2)], h)


def _make_origins(h, rng, n_origins=3, n_paths=6):
    S = build_summing_matrix(h)
    origins = []
    for t in range(n_origins):
        levels = tuple(
            LevelSample(
                level=lev,
                matrix=rng.normal(size=(h.nodes_at(lev), n_paths)),
            )
            for lev in range(1, h.L + 1)
        )
        origins.append(
            OriginData(levels=levels, actual=S.entries @ rng.normal(size=h.m), origin=t)
        )
    return origins


def test_permuted_seed_keyed_on_origin_label(small_hierarchy):
    # an origin's permutation does not depend on its position in the list
    h = small_hierarchy
    a, b = _make_origins(h, np.random.default_rng(41), n_origins=2, n_paths=8)
    pair, _ = assemble_origins([a, b], h, "permuted", seed=5)
    alone, _ = assemble_origins([b], h, "permuted", seed=5)
    np.testing.assert_array_equal(pair[1], alone[0])


def test_permuted_seed_differs_between_labels(small_hierarchy):
    # validation and test origins at the same list position must not share rows
    h = small_hierarchy
    (a,) = _make_origins(h, np.random.default_rng(43), n_origins=1, n_paths=8)
    relabelled = OriginData(levels=a.levels, actual=a.actual, origin=7)
    first, _ = assemble_origins([a], h, "permuted", seed=5)
    second, _ = assemble_origins([relabelled], h, "permuted", seed=5)
    np.testing.assert_array_equal(np.sort(first, axis=-1), np.sort(second, axis=-1))
    assert not np.array_equal(first, second)


def test_permuted_rejects_repeated_origin_labels(small_hierarchy):
    h = small_hierarchy
    a, b = _make_origins(h, np.random.default_rng(47), n_origins=2, n_paths=8)
    twin = OriginData(levels=b.levels, actual=b.actual, origin=a.origin)
    with pytest.raises(AlignmentError, match=rf"origin label {a.origin} appears more than once"):
        assemble_origins([a, twin], h, "permuted", seed=5)
    # the other schemes draw no randomness, so labels need not be distinct
    assemble_origins([a, twin], h, "ranked", seed=5)


def test_cv_objective_zero_for_perfect_forecasts():
    h = build_hierarchy([2, 1])
    S = build_summing_matrix(h)
    rng = np.random.default_rng(3)
    origins = []
    for t in range(2):
        actual = S.entries @ rng.normal(size=h.m)
        levels = tuple(
            LevelSample(
                level=lev,
                matrix=np.repeat(actual[h.level_slice(lev)][:, None], 4, axis=1),
            )
            for lev in range(1, h.L + 1)
        )
        origins.append(OriginData(levels=levels, actual=actual, origin=t))
    # degenerate forecasts equal to a coherent truth are fixed by the
    # bottom-up projection, so the objective collapses to zero there
    assert cv_objective([0.0, 1.0], "stacked", origins, h) <= 1e-12
    assert cv_objective([0.0, 1.0], "ranked", origins, h) <= 1e-12


def test_cv_objective_bu_collapses_to_direct_scoring(small_hierarchy):
    h = small_hierarchy
    rng = np.random.default_rng(8)
    origins = _make_origins(h, rng)
    S = build_summing_matrix(h)
    bu = fixed_weights("BU", h)
    for scheme in ("stacked", "ranked"):
        recs = [reconcile(S, bu, assemble(o.levels, h, scheme)) for o in origins]
        direct = score_hierarchy(recs, [o.actual for o in origins], h, units="common")
        v = np.zeros(h.L)
        v[-1] = 1.0
        assert cv_objective(v, scheme, origins, h) == pytest.approx(
            direct.overall, abs=1e-10
        )


def cv_objective_naive(v, scheme, origins, h):
    """Loop-and-brute-force re-implementation of the two-stage CRPS average."""
    from temporec.reconcile import weights_from_levels

    S = build_summing_matrix(h)
    P = weights_from_levels(v, h)
    per_level = np.zeros(h.L)
    for lev in range(1, h.L + 1):
        node_scores = []
        for j in range(h.nodes_at(lev)):
            flat = h.level_offset(lev) + j
            total = 0.0
            for origin in origins:
                joint = assemble(origin.levels, h, scheme)
                rec = S.entries @ (P.entries @ joint.matrix)
                total += crps_brute_force(rec[flat], origin.actual[flat])
            node_scores.append(total / len(origins))
        per_level[lev - 1] = np.mean(node_scores)
    return per_level.mean()


def test_cv_objective_matches_naive_oracle():
    h = build_hierarchy([2, 1])
    rng = np.random.default_rng(19)
    origins = _make_origins(h, rng, n_origins=4, n_paths=9)
    for v in ([0.3, 0.7], [0.0, 1.0], [-0.2, 1.1]):
        fast = cv_objective(np.array(v), "ranked", origins, h)
        naive = cv_objective_naive(np.array(v), "ranked", origins, h)
        assert fast == pytest.approx(naive, abs=1e-10)


@pytest.mark.parametrize("metric", ["crps", "mae"])
@pytest.mark.parametrize("units", ["native", "common"])
def test_origin_scores_equal_single_origin_scoring(metric, units):
    h = build_hierarchy([24, 12, 8, 6, 4, 3, 2, 1])
    rng = np.random.default_rng(31)
    tensor = rng.normal(size=(6, h.M, 41))
    actuals = rng.normal(size=(6, h.M))
    table = score_hierarchy(tensor, actuals, h, metric=metric, units=units)
    assert len(table.origin_scores) == 6
    for mat, act, row in zip(tensor, actuals, table.origin_scores):
        alone = score_hierarchy([mat], [act], h, metric=metric, units=units)
        assert row == alone.level_scores  # bit for bit
        assert alone.origin_scores == (alone.level_scores,)
    listed = score_hierarchy(list(tensor), list(actuals), h, metric=metric, units=units)
    assert listed == table
