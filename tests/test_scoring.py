import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from temporec.errors import AlignmentError, EmptySample
from temporec.hierarchy import build_hierarchy, build_summing_matrix
from temporec.reconcile import (
    fixed_weights,
    reconcile,
    reconcile_tensor,
    weights_from_levels,
    wls_weights,
)
from temporec.sampling import SCHEMES, OriginData, assemble, assemble_origins
from temporec.scoring import (
    _node_weights,
    _rank_weights,
    _sorted_crps,
    cv_criterion,
    cv_objective,
    score_hierarchy,
    score_origin,
    score_tables,
)

from conftest import dense_map, oracle_summing_matrix, random_hierarchy


def crps_brute_force(sample, z):
    """O(N^2) double sum, the independent oracle for the sorted estimator."""
    x = np.asarray(sample, dtype=float)
    n = x.size
    first = np.abs(x - z).mean()
    second = np.abs(x[:, None] - x[None, :]).sum() / (2.0 * n * n)
    return first - second


def crps_row(sample, z):
    """One row's CRPS, as the README computes it: ``score_origin`` on one node."""
    return score_origin(np.asarray(sample, dtype=float)[None, :], [z])[0][0]


def test_crps_examples():
    assert crps_row([0.0, 0.0], 0.0) == 0.0
    assert crps_row([1.0, 1.0], 0.0) == pytest.approx(1.0, abs=1e-15)
    # brute force gives 0.5 - 0.25
    assert crps_brute_force([0.0, 1.0], 0.0) == pytest.approx(0.25, abs=1e-15)
    assert crps_row([0.0, 1.0], 0.0) == pytest.approx(0.25, abs=1e-15)


def test_crps_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 201))
        sample = rng.normal(scale=rng.uniform(0.1, 5.0), size=n)
        z = rng.normal()
        assert abs(crps_row(sample, z) - crps_brute_force(sample, z)) <= 1e-10


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-4, 4) | st.floats(-1e3, 1e3), min_size=1, max_size=60),
    st.integers(-4, 4) | st.floats(-1e3, 1e3),
)
def test_crps_matches_brute_force_with_ties(sample, z):
    # small integers make tied paths, and paths tied with the realization
    expected = crps_brute_force(sample, z)
    assert abs(crps_row(sample, z) - expected) <= 1e-9 * max(1.0, abs(expected))


def test_crps_nonnegative_and_zero_iff_degenerate():
    rng = np.random.default_rng(4)
    for _ in range(100):
        sample = rng.normal(size=int(rng.integers(1, 30)))
        z = rng.normal()
        assert crps_row(sample, z) >= 0.0
    assert crps_row([2.0, 2.0, 2.0], 2.0) == 0.0
    assert crps_row([2.0, 2.0, 2.1], 2.0) > 0.0


def test_crps_translation_and_scale():
    rng = np.random.default_rng(6)
    for _ in range(50):
        sample = rng.normal(size=37)
        z = rng.normal()
        c = rng.normal()
        a = rng.uniform(0.1, 3.0)
        base = crps_row(sample, z)
        assert abs(crps_row(sample + c, z + c) - base) <= 1e-10
        assert abs(crps_row(a * sample, a * z) - a * base) <= 1e-10


def test_crps_empty():
    with pytest.raises(EmptySample):
        crps_row([], 0.0)


def test_median_examples():
    # score_origin's errors are those of np.median bit for bit, for odd and
    # even N, with ties
    _, errors = score_origin([[3.0, 1.0, 2.0], [1.0, 3.0, 3.0], [5.0, 5.0, 5.0]], np.zeros(3))
    assert errors.tolist() == [2.0, 3.0, 5.0]
    _, errors = score_origin([[1.0, 3.0], [-4.0, 2.0]], np.zeros(2))
    assert errors.tolist() == [2.0, 1.0]
    rng = np.random.default_rng(2)
    for n in (1, 2, 3, 4, 7, 10, 41, 200):
        rows = rng.integers(-3, 4, size=(20, n)) * rng.normal(size=(20, 1))
        _, errors = score_origin(rows, np.zeros(20))
        assert errors.tobytes() == np.abs(np.median(rows, -1)).tobytes()
        z = rng.normal(size=20)
        _, errors = score_origin(rows, z)
        assert errors.tobytes() == np.abs(np.median(rows, -1) - z).tobytes()
    # the odd case reads the middle value: averaging it with itself overflows
    top = np.finfo(float).max
    huge = [top, np.nextafter(top, 0.0), top]
    assert np.median(huge) == top
    _, errors = score_origin([huge], [top])
    assert errors.tolist() == [0.0]


@pytest.mark.parametrize("n", [7, 8, 41, 200])
@pytest.mark.parametrize("method", ["BA", "GA"])
def test_score_origin_sorts_a_broadcast_row_once(daily_hierarchy, method, n):
    # BA and GA hand over their one mean row broadcast to all M rows;
    # score_origin sorts it once and scores it repeated, bit for bit as it
    # scores the repeated copy, with ties, and leaves the read-only sample as
    # it is under overwrite; a read-only sample of distinct rows is sorted
    # in a copy under overwrite too
    h = daily_hierarchy
    rng = np.random.default_rng(n)
    Y = rng.normal(size=(h.M, 5))[:, rng.integers(0, 5, n)]  # repeated columns tie
    actual = rng.normal(size=h.M)
    sample = fixed_weights(method, h).apply(Y)
    assert sample.strides[0] == 0
    copy = np.repeat(sample[:1], h.M, axis=0)
    want = score_origin(copy, actual)
    for overwrite in (False, True):
        got = score_origin(sample, actual, overwrite=overwrite)
        for now, then in zip(got, want):
            assert now.tobytes() == then.tobytes()
    np.testing.assert_array_equal(sample, copy)
    got = score_origin(Y, actual)
    Y.setflags(write=False)
    before = Y.copy()
    for now, then in zip(score_origin(Y, actual, overwrite=True), got):
        assert now.tobytes() == then.tobytes()
    np.testing.assert_array_equal(Y, before)


def test_score_perfect_forecasts_zero(small_hierarchy):
    h = small_hierarchy
    S = oracle_summing_matrix(h)
    rng = np.random.default_rng(10)
    actuals = np.stack([S @ rng.normal(size=h.m) for _ in range(3)])
    samples = np.repeat(actuals[..., None], 5, axis=-1)
    for table, metric in zip(score_hierarchy(samples, actuals, h), ("CRPS", "MAE")):
        assert table.metric == metric
        assert all(abs(s) <= 1e-12 for s in table.level_scores)
        assert abs(table.overall) <= 1e-12


def test_score_single_node_fixture():
    # one node, one origin, sample {0, 1} against 0: CRPS table is 0.25
    h = build_hierarchy([1])
    table, _ = score_hierarchy(np.array([[[0.0, 1.0]]]), np.array([[0.0]]), h)
    assert table.level_scores == (0.25,)
    assert table.overall == 0.25


def test_overall_is_mean_of_levels():
    rng = np.random.default_rng(12)
    for _ in range(10):
        h = random_hierarchy(rng)
        samples = rng.normal(size=(2, h.M, 6))
        actuals = rng.normal(size=(2, h.M))
        for table in score_hierarchy(samples, actuals, h):
            assert table.overall == pytest.approx(np.mean(table.level_scores), abs=1e-12)
            assert len(table.level_scores) == h.L


def test_native_units_scale_levels():
    # native scoring multiplies a level's CRPS by f_l: every node's sample
    # {0, 1} against 0 scores 1/2 - 1/4 = 1/4 in common units
    h = build_hierarchy([2, 1])
    samples = np.array([[[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]]])
    native, _ = score_hierarchy(samples, np.zeros((1, 3)), h)
    assert native.level_scores == pytest.approx((0.5, 0.25), abs=1e-12)
    # on random hierarchies both metrics equal per-node scores of an
    # explicitly rescaled sample, averaged over nodes, then over origins
    rng = np.random.default_rng(23)
    for _ in range(10):
        h = random_hierarchy(rng)
        scale = np.concatenate(
            [np.full(h.nodes_at(lev), float(h.f[lev - 1])) for lev in range(1, h.L + 1)]
        )
        tensor = rng.normal(size=(3, h.M, 8))
        actuals = rng.normal(size=(3, h.M))
        x, z = tensor * scale[:, None], actuals * scale
        node_crps = np.array(
            [[crps_row(x[t, k], z[t, k]) for k in range(h.M)] for t in range(3)]
        )
        node_mae = np.abs(np.median(x, axis=-1) - z)
        for table, node in zip(score_hierarchy(tensor, actuals, h), (node_crps, node_mae)):
            per_origin = np.stack([node[:, rows].mean(axis=-1) for _, rows in h.levels], axis=-1)
            np.testing.assert_allclose(table.origin_scores, per_origin, rtol=1e-12)
            np.testing.assert_allclose(table.level_scores, per_origin.mean(axis=0), rtol=1e-12)


def test_score_alignment_errors(small_hierarchy):
    h = small_hierarchy
    good = np.zeros((1, h.M, 4))
    with pytest.raises(AlignmentError):
        score_hierarchy(good, np.zeros((0, h.M)), h)
    with pytest.raises(AlignmentError):
        score_hierarchy(np.zeros((1, 3, 4)), np.zeros((1, h.M)), h)
    with pytest.raises(AlignmentError):
        score_hierarchy(good, np.zeros((1, 2)), h)
    with pytest.raises(AlignmentError):
        score_hierarchy(good[0], np.zeros(h.M), h)
    with pytest.raises(AlignmentError, match="no forecast origins"):
        score_hierarchy(np.zeros((0, h.M, 4)), np.zeros((0, h.M)), h)
    # ragged: origins that disagree on the number of paths
    with pytest.raises(AlignmentError):
        score_hierarchy([good[0], np.zeros((h.M, 5))], np.zeros((2, h.M)), h)
    with pytest.raises(EmptySample):
        score_hierarchy(np.zeros((1, h.M, 0)), np.zeros((1, h.M)), h)


def _make_origins(h, rng, n_origins=3, n_paths=6):
    S = oracle_summing_matrix(h)
    origins = []
    for t in range(n_origins):
        levels = [rng.normal(size=(h.nodes_at(lev), n_paths)) for lev in range(1, h.L + 1)]
        origins.append(
            OriginData(levels=levels, actual=S @ rng.normal(size=h.m), origin=t)
        )
    return origins


def test_assemble_origins_rejects_empty_list(small_hierarchy):
    # validation and test origins go through the same assembly
    with pytest.raises(AlignmentError, match="^no forecast origins supplied$"):
        assemble_origins([], small_hierarchy, "stacked")


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
    S = oracle_summing_matrix(h)
    rng = np.random.default_rng(3)
    origins = []
    for t in range(2):
        actual = S @ rng.normal(size=h.m)
        levels = [np.repeat(actual[rows][:, None], 4, axis=1) for _, rows in h.levels]
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
        recs = np.stack([reconcile(S, bu, assemble(o.levels, h, scheme)).matrix for o in origins])
        direct, _ = score_hierarchy(recs, np.stack([o.actual for o in origins]), h)
        v = np.zeros(h.L)
        v[-1] = 1.0
        # the criterion is in common units: each native level score over f_l
        assert cv_objective(v, scheme, origins, h) == pytest.approx(
            np.mean(np.array(direct.level_scores) / h.f), abs=1e-10
        )


def cv_objective_naive(v, scheme, origins, h):
    """Loop-and-brute-force re-implementation of the two-stage CRPS average."""
    from temporec.reconcile import weights_from_levels

    S = oracle_summing_matrix(h)
    P = weights_from_levels(v, h)
    per_level = np.zeros(h.L)
    for lev in range(1, h.L + 1):
        node_scores = []
        first = sum(h.m // fl for fl in h.f[: lev - 1])  # flat index of the level's first node
        for j in range(h.nodes_at(lev)):
            flat = first + j
            total = 0.0
            for origin in origins:
                joint = assemble(origin.levels, h, scheme)
                rec = S @ (dense_map(P) @ joint.matrix)
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
def test_origin_scores_equal_single_origin_scoring(metric):
    h = build_hierarchy([24, 12, 8, 6, 4, 3, 2, 1])
    rng = np.random.default_rng(31)
    pick = ("crps", "mae").index(metric)
    factor = h.node_windows
    for n_paths in (41, 40):
        tensor = rng.normal(size=(6, h.M, n_paths))
        actuals = rng.normal(size=(6, h.M))
        table = score_hierarchy(tensor, actuals, h)[pick]
        assert len(table.origin_scores) == 6
        for mat, act, row in zip(tensor, actuals, table.origin_scores):
            alone = score_hierarchy(mat[None], act[None], h)[pick]
            assert row == alone.level_scores  # bit for bit
            assert alone.origin_scores == (alone.level_scores,)
        listed = score_hierarchy(list(tensor), list(actuals), h)[pick]
        assert listed == table
        if metric == "mae":
            # the MAE node scores are those of np.median, bit for bit
            node = np.abs(np.median(tensor, axis=-1) - actuals) * factor
            expected = np.stack(
                [node[:, h.levels[lev - 1][1]].mean(axis=-1) for lev in range(1, h.L + 1)],
                axis=-1,
            )
            assert table.origin_scores == tuple(tuple(float(s) for s in r) for r in expected)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_scores_invariant_across_schemes(seed):
    # the three schemes reorder each node's paths and nothing else, so every
    # row is a permutation of its stacked row and the scores are identical
    rng = np.random.default_rng(seed)
    h = random_hierarchy(rng, max_cycle=12)
    n_paths = int(rng.integers(2, 16))

    def level_values(rows):
        # small integers make ties within a row; normals make rounding visible
        ties = rng.integers(-2, 3, size=(rows, n_paths)).astype(float)
        return np.where(rng.random((rows, n_paths)) < 0.4, ties, rng.normal(size=(rows, n_paths)))

    origins = [
        OriginData(
            levels=[level_values(h.nodes_at(lev)) for lev in range(1, h.L + 1)],
            actual=rng.normal(size=h.M),
            origin=t,
        )
        for t in range(int(rng.integers(1, 4)))
    ]
    stacked, actuals = assemble_origins(origins, h, "stacked", seed=seed)
    tables = score_hierarchy(stacked, actuals, h)
    for scheme in ("ranked", "permuted"):
        tensor, scheme_actuals = assemble_origins(origins, h, scheme, seed=seed)
        np.testing.assert_array_equal(scheme_actuals, actuals)
        np.testing.assert_array_equal(np.sort(tensor, axis=-1), np.sort(stacked, axis=-1))
        assert score_hierarchy(tensor, actuals, h) == tables  # bit for bit


def test_misaligned_origins_raise_alignment_error(small_hierarchy):
    h = small_hierarchy
    rng = np.random.default_rng(53)
    (a,) = _make_origins(h, rng, n_origins=1, n_paths=6)
    (b,) = _make_origins(h, rng, n_origins=1, n_paths=8)
    b = OriginData(levels=b.levels, actual=b.actual, origin=4)
    with pytest.raises(AlignmentError, match=r"origin 4 has a joint sample of shape \(7, 8\), "
                                             r"origin 0 one of shape \(7, 6\)"):
        assemble_origins([a, b], h, "stacked")
    with pytest.raises(AlignmentError, match=r"origin 4 has a joint sample"):
        cv_objective([0.0, 0.0, 1.0], "ranked", [a, b], h)
    long = OriginData(levels=a.levels, actual=np.append(a.actual, 0.0), origin=5)
    with pytest.raises(AlignmentError, match=r"origin 5 has actuals of shape \(8,\), expected \(7,\)"):
        assemble_origins([long], h, "ranked")
    with pytest.raises(AlignmentError, match=r"origin 5 has actuals"):
        cv_objective([0.0, 0.0, 1.0], "stacked", [a, long], h)


def _scoring_instance(h, shape=(5, 300), seed=21):
    """A (T, M, N) stack of unsorted paths and (T, M) realizations."""
    rng = np.random.default_rng(seed)
    T, n = shape
    return rng.normal(size=(T, h.M, n)), rng.normal(size=(T, h.M))


def test_scores_leave_their_inputs_unchanged(daily_hierarchy):
    # the scoring kernel overwrites the buffer it is handed, so every
    # public score must hand it one of its own
    h = daily_hierarchy
    tensor, actuals = _scoring_instance(h, shape=(3, 41))
    before = tensor.copy(), actuals.copy()
    score_hierarchy(tensor, actuals, h)
    score_origin(tensor[1], actuals[1])
    cv_criterion(weights_from_levels(np.full(h.L, 1.0 / h.L), h), tensor, actuals, h)
    cv_criterion(fixed_weights("GA", h), tensor, actuals, h)
    for now, then in zip((tensor, actuals), before):
        np.testing.assert_array_equal(now, then)


def _peak_in_samples(fn, sample_bytes: int) -> float:
    """Peak memory ``fn()`` allocates, traced by tracemalloc, in samples."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / sample_bytes


def test_scores_allocate_one_sample_sized_buffer(daily_hierarchy):
    # the kernel scores in the buffer it is handed: cv_criterion holds only
    # its reconciled sample, score_hierarchy only the sorted copy of one
    # origin's sample at a time, where a kernel with its own deviation
    # temporary needs one more of each (and cv_criterion a second for an
    # out-of-place sort, score_hierarchy a whole sorted stack); the origin
    # bound also covers numpy's fixed 64 KB buffer for the broadcast
    # subtraction, half an origin sample at this size
    h = daily_hierarchy
    tensor, actuals = _scoring_instance(h)
    P = weights_from_levels(np.full(h.L, 1.0 / h.L), h)
    assert _peak_in_samples(lambda: cv_criterion(P, tensor, actuals, h), tensor.nbytes) < 1.5
    assert _peak_in_samples(lambda: score_hierarchy(tensor, actuals, h), tensor[0].nbytes) < 2.0


@pytest.mark.parametrize("method", ["CVR", "GA", "WLS"])
def test_cv_criterion_holds_a_few_origin_samples(daily_hierarchy, method):
    # each origin is reconciled into its own (M, N) array, sorted and scored
    # in it before the next, so no buffer the size of the stack is built;
    # the bound covers that array, numpy's 64 KB broadcast buffer and the
    # sort's scratch, and does not grow with the number of origins
    h = daily_hierarchy
    tensor, actuals = _scoring_instance(h)
    P = {
        "CVR": weights_from_levels(np.full(h.L, 1.0 / h.L), h),
        "GA": fixed_weights("GA", h),
        "WLS": wls_weights(h),
    }[method]
    peak = _peak_in_samples(lambda: cv_criterion(P, tensor, actuals, h), tensor[0].nbytes)
    assert peak < 3.0, (peak, "origin samples")


def _whole_tensor_criterion(P, tensor, actuals, h):
    """The criterion reconciling the whole (T, M, N) stack in one call, then
    sorting and scoring it: the reference the per-origin loop must equal."""
    # BA and GA return a read-only broadcast: sort a C-ordered copy of it
    reconciled = reconcile_tensor(P, tensor).copy()
    reconciled.sort(axis=-1)
    crps = _sorted_crps(reconciled, actuals)
    return float((crps * _node_weights(h, len(reconciled))).sum())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(SCHEMES))
def test_cv_criterion_equals_the_whole_tensor_evaluation(seed, scheme):
    # scoring one origin at a time changes no rounding: every map acts on
    # each origin's columns alone and the kernel reduces along the paths
    rng = np.random.default_rng(seed)
    h = random_hierarchy(rng)
    origins = _make_origins(h, rng, n_origins=int(rng.integers(1, 5)),
                            n_paths=int(rng.integers(2, 30)))
    tensor, actuals = assemble_origins(origins, h, scheme, seed=seed)
    before = tensor.copy(), actuals.copy()
    maps = [fixed_weights(method, h) for method in ("BU", "LA", "BA", "GA")]
    maps += [weights_from_levels(rng.normal(size=h.L), h), wls_weights(h)]
    for P in maps:
        assert cv_criterion(P, tensor, actuals, h) == _whole_tensor_criterion(
            P, tensor, actuals, h
        ), P.method
    np.testing.assert_array_equal(tensor, before[0])
    np.testing.assert_array_equal(actuals, before[1])


@pytest.mark.parametrize("method", ["LA", "GA"])
def test_cv_criterion_error_contract(daily_hierarchy, method):
    # the shapes are checked before any origin is reconciled, so a lineage
    # map and a broadcast map raise the same scoring errors
    h = daily_hierarchy
    P = fixed_weights(method, h)
    tensor, actuals = _scoring_instance(h, shape=(3, 41))
    with pytest.raises(AlignmentError, match=r"samples shape \(3, 59, 41\) is not \(T, 60, N\)"):
        cv_criterion(P, tensor[:, 1:], actuals[:, 1:], h)
    with pytest.raises(AlignmentError, match="^no forecast origins to score$"):
        cv_criterion(P, tensor[:0], actuals[:0], h)
    with pytest.raises(EmptySample):
        cv_criterion(P, tensor[..., :0], actuals, h)
    with pytest.raises(AlignmentError, match=r"actuals shape \(2, 60\) is not \(3, 60\)"):
        cv_criterion(P, tensor, actuals[:2], h)


def test_cv_criterion_rejects_a_map_of_another_hierarchy():
    # (6, 1) and (4, 2, 1) both have M = 7 nodes, so the shapes alone agree
    h, other = build_hierarchy((4, 2, 1)), build_hierarchy((6, 1))
    P = weights_from_levels(np.full(other.L, 1.0 / other.L), other)
    tensor, actuals = _scoring_instance(h, shape=(3, 41))
    with pytest.raises(AlignmentError, match=r"frequencies \(6, 1\), not \(4, 2, 1\)"):
        cv_criterion(P, tensor, actuals, h)


def test_score_hierarchy_reads_any_iterable_of_origins(daily_hierarchy):
    h = daily_hierarchy
    tensor, actuals = _scoring_instance(h, shape=(4, 41))
    tables = score_hierarchy(tensor, actuals, h)
    assert score_hierarchy((mat for mat in tensor), actuals, h) == tables  # bit for bit

    def failing():
        yield tensor[0]
        raise ZeroDivisionError("origin 1")

    with pytest.raises(ZeroDivisionError, match="origin 1"):
        score_hierarchy(failing(), actuals, h)
    with pytest.raises(AlignmentError, match="3 samples for the 4 origins"):
        score_hierarchy(iter(tensor[:3]), actuals, h)
    with pytest.raises(AlignmentError, match="more samples than the 3 origins"):
        score_hierarchy(iter(tensor), actuals[:3], h)


def test_score_hierarchy_is_its_two_steps(daily_hierarchy):
    # per-origin node scores stacked into the table step give the tables bit
    # for bit, whether each origin is sorted as a copy or in its own buffer
    h = daily_hierarchy
    tensor, actuals = _scoring_instance(h, shape=(4, 41))
    tables = score_hierarchy(tensor, actuals, h)
    copied = [score_origin(mat, act) for mat, act in zip(tensor, actuals)]
    owned = [score_origin(mat.copy(), act, overwrite=True) for mat, act in zip(tensor, actuals)]
    for steps in (copied, owned):
        crps, errors = (np.stack(scores) for scores in zip(*steps))
        assert score_tables(crps, errors, h) == tables
    with pytest.raises(AlignmentError, match=r"sample shape \(60, 41\) does not match"):
        score_origin(tensor[0], actuals[0, :-1])
    with pytest.raises(EmptySample):
        score_origin(tensor[0, :, :0], actuals[0])



@pytest.mark.parametrize("crps_shape, errors_shape", [
    ((3, 1), (3, 1)),  # one column, which would broadcast to every node
    ((3, 7), (2, 7)),  # two arrays over different origins
    ((0, 7), (0, 7)),  # no origins to average
    ((3, 5), (3, 5)),  # too few nodes
])
def test_score_tables_rejects_misaligned_node_scores(small_hierarchy, crps_shape, errors_shape):
    shapes = re.escape(f"shapes {crps_shape} and {errors_shape} are not (T, 7)")
    with pytest.raises(AlignmentError, match=shapes):
        score_tables(np.ones(crps_shape), np.ones(errors_shape), small_hierarchy)

def test_ragged_samples_raise_alignment_error():
    # the samples are made regular before they are sorted
    with pytest.raises(AlignmentError, match="regular arrays"):
        score_origin([[1.0, 2.0], [3.0]], [0.0, 0.0])


def test_rank_weights_are_built_once_per_size_and_read_only():
    rank = _rank_weights(7)
    assert _rank_weights(7) is rank and not rank.flags.writeable
    np.testing.assert_array_equal(rank, (2.0 * np.arange(7) - 6.0) / 49.0)
