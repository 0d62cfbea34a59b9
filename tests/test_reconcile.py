import itertools
import pickle
import tracemalloc
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from temporec.errors import DimensionMismatch, LengthMismatch, ReconcileError
from temporec.hierarchy import aggregate, build_hierarchy, build_summing_matrix
from temporec.reconcile import (
    FIXED_METHODS,
    WeightMatrix,
    _lineage,
    check_coherence,
    fixed_weights,
    reconcile,
    reconcile_tensor,
    weights_from_levels,
    wls_weights,
)
from temporec.sampling import JointSample, assemble

from conftest import dense_map, oracle_summing_matrix, random_hierarchy


def test_bu_fixture(small_hierarchy):
    expected = np.array(
        [
            [0, 0, 0, 1, 0, 0, 0],
            [0, 0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0, 0, 1],
        ],
        dtype=float,
    )
    np.testing.assert_array_equal(dense_map(fixed_weights("BU", small_hierarchy)), expected)


def test_ba_fixture(small_hierarchy):
    expected = np.hstack([np.zeros((4, 3)), np.full((4, 4), 0.25)])
    np.testing.assert_array_equal(dense_map(fixed_weights("BA", small_hierarchy)), expected)


def test_ga_fixture(small_hierarchy):
    np.testing.assert_array_equal(
        dense_map(fixed_weights("GA", small_hierarchy)), np.full((4, 7), 1.0 / 7.0)
    )


def test_la_fixture(small_hierarchy):
    third = 1.0 / 3.0
    expected = np.array(
        [
            [third, third, 0, third, 0, 0, 0],
            [third, third, 0, 0, third, 0, 0],
            [third, 0, third, 0, 0, third, 0],
            [third, 0, third, 0, 0, 0, third],
        ]
    )
    np.testing.assert_allclose(dense_map(fixed_weights("LA", small_hierarchy)), expected, atol=1e-15)


def test_degenerate_hierarchy_all_methods():
    h = build_hierarchy([1])
    for method in ("BU", "BA", "GA", "LA"):
        np.testing.assert_array_equal(dense_map(fixed_weights(method, h)), [[1.0]])
    np.testing.assert_allclose(dense_map(wls_weights(h)), [[1.0]], atol=1e-12)


def _wls_oracle(h):
    """Exact-rational (S' W^-1 S)^-1 S' W^-1 via Fraction arithmetic."""
    S = [
        [Fraction(1, fl) if pos * fl <= j < (pos + 1) * fl else Fraction(0)
         for j in range(h.m)]
        for fl in h.f
        for pos in range(h.m // fl)
    ]
    w_inv = [Fraction(1, fl * fl) for fl in h.f for _ in range(h.m // fl)]
    M, m = h.M, h.m
    gram = [[sum(S[i][a] * w_inv[i] * S[i][b] for i in range(M)) for b in range(m)]
            for a in range(m)]
    rhs = [[S[i][a] * w_inv[i] for i in range(M)] for a in range(m)]
    # Gauss-Jordan on [gram | rhs] in exact arithmetic
    aug = [gram[a] + rhs[a] for a in range(m)]
    for col in range(m):
        pivot = next(r for r in range(col, m) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        factor = aug[col][col]
        aug[col] = [x / factor for x in aug[col]]
        for r in range(m):
            if r != col and aug[r][col] != 0:
                scale = aug[r][col]
                aug[r] = [x - scale * y for x, y in zip(aug[r], aug[col])]
    return np.array([[float(x) for x in row[m:]] for row in aug])


def test_wls_two_level_fixture():
    h = build_hierarchy([2, 1])
    expected = np.array(
        [
            [1 / 9, 17 / 18, -1 / 18],
            [1 / 9, -1 / 18, 17 / 18],
        ]
    )
    P = dense_map(wls_weights(h))
    np.testing.assert_allclose(P, expected, atol=1e-12)
    np.testing.assert_allclose(P, _wls_oracle(h), atol=1e-12)


def test_wls_oracle_on_random_hierarchies():
    rng = np.random.default_rng(17)
    for _ in range(5):
        h = random_hierarchy(rng, max_cycle=8)
        np.testing.assert_allclose(dense_map(wls_weights(h)), _wls_oracle(h), atol=1e-10)


def test_wls_left_inverse_of_s():
    rng = np.random.default_rng(2)
    for _ in range(20):
        h = random_hierarchy(rng)
        P = dense_map(wls_weights(h))
        S = oracle_summing_matrix(h)
        np.testing.assert_allclose(P @ S, np.eye(h.m), atol=1e-10)


def _gls(S, w):
    """(S' W^-1 S)^-1 S' W^-1 for W = diag(w), densely."""
    rhs = S.T / w
    return np.linalg.solve(rhs @ S, rhs)


def test_wls_weighting_as_documented_in_both_units():
    # W = diag(f_l^2) on common-unit nodes is W = diag(f_l^4) on native
    # window sums, and it is not OLS (W = I) on common units
    rng = np.random.default_rng(23)
    for h in [random_hierarchy(rng) for _ in range(20)] + [build_hierarchy([24, 12, 8, 6, 4, 3, 2, 1])]:
        P = dense_map(wls_weights(h))
        S = oracle_summing_matrix(h)
        f = h.node_windows
        np.testing.assert_allclose(P, _gls(S, f**2), atol=1e-10)
        # native sums are f * common values; a bottom node is its own sum
        np.testing.assert_allclose(P, _gls(f[:, None] * S, f**4) * f, atol=1e-10)
        np.testing.assert_allclose(P @ S, np.eye(h.m), atol=1e-10)
        if h.L > 1:
            assert np.abs(P - _gls(S, np.ones(h.M))).max() > 1e-3


def test_wls_apply_allocates_only_its_output(daily_hierarchy):
    # the dense product is written into the output's bottom rows, so an
    # application holds no m x N temporary beside its result; a stack is
    # the stack of its origins' results
    h = daily_hierarchy
    P = wls_weights(h)
    Y = np.random.default_rng(4).normal(size=(3, h.M, 400))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = P.apply(Y[0])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * out.nbytes, peak / out.nbytes
    np.testing.assert_array_equal(out, aggregate(out[h.levels[-1][1]], h))
    np.testing.assert_array_equal(P.apply(Y), np.stack([P.apply(y) for y in Y]))


def _traced_peak(fn):
    """``fn()`` and the peak memory it allocates, traced by tracemalloc."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("method", ["BA", "GA"])
def test_averaging_maps_allocate_one_row(daily_hierarchy, method):
    # S @ P @ Y repeats one mean row, so the map returns that row broadcast
    # to all M rows as a read-only view, for one sample and for a stack
    h = daily_hierarchy
    P = fixed_weights(method, h)
    Y = np.random.default_rng(4).normal(size=(3, h.M, 400))
    for values in (Y[0], Y):
        out, peak = _traced_peak(lambda: P.apply(values))
        row_bytes = values[..., :1, :].nbytes
        assert peak < row_bytes + 2048, (peak, row_bytes)
        assert out.shape == values.shape and out.strides[-2] == 0 and not out.flags.writeable
        rows = h.levels[-1][1] if method == "BA" else slice(None)
        np.testing.assert_array_equal(out[..., :1, :], values[..., rows, :].mean(-2, keepdims=True))


FIVE_MINUTE = (288, 144, 96, 72, 48, 36, 24, 12, 6, 3, 1)


@pytest.mark.parametrize("f, method", [(FIVE_MINUTE, "LA"), (FIVE_MINUTE, "BA"), ((288, 1), "LA")])
def test_check_coherence_allocates_only_its_residual(f, method):
    # the windows are summed into the residual's rows, and a finite sample's
    # bottom block is never scanned for non-finite entries: with one day
    # total over 288 periods, a scan's (m, N) mask outweighs the residual;
    # numpy's ufuncs add their fixed 64 KB buffer for BA's operand
    # broadcast along the rows
    h = build_hierarchy(f)
    S = build_summing_matrix(h)
    Y = fixed_weights(method, h).apply(np.random.default_rng(6).normal(size=(h.M, 500)))
    check, peak = _traced_peak(lambda: check_coherence(Y, S))
    assert check.ok
    residual_bytes = (h.M - h.m) * Y.shape[1] * Y.itemsize
    slack = 4096 + (2**16 if method == "BA" else 0)
    assert peak < residual_bytes + slack, (peak, residual_bytes)


def test_weights_from_levels_fixture(small_hierarchy):
    v = np.array([0.2, 0.3, 0.5])
    expected = np.array(
        [
            [0.2, 0.3, 0.0, 0.5, 0.0, 0.0, 0.0],
            [0.2, 0.3, 0.0, 0.0, 0.5, 0.0, 0.0],
            [0.2, 0.0, 0.3, 0.0, 0.0, 0.5, 0.0],
            [0.2, 0.0, 0.3, 0.0, 0.0, 0.0, 0.5],
        ]
    )
    np.testing.assert_array_equal(dense_map(weights_from_levels(v, small_hierarchy)), expected)


def test_weights_from_levels_special_cases(small_hierarchy):
    h = small_hierarchy
    bu_vec = np.array([0.0, 0.0, 1.0])
    np.testing.assert_array_equal(
        dense_map(weights_from_levels(bu_vec, h)), dense_map(fixed_weights("BU", h))
    )
    la_vec = np.full(3, 1.0 / 3.0)
    np.testing.assert_array_equal(
        dense_map(weights_from_levels(la_vec, h)), dense_map(fixed_weights("LA", h))
    )


def test_weights_from_levels_length_check(small_hierarchy):
    with pytest.raises(LengthMismatch):
        weights_from_levels([1.0, 2.0], small_hierarchy)


def _node_layout(w, h):
    """The m x M matrix of the lineage map of an M-vector of node weights:
    the bottom rows of ``_lineage(w, I_M, h)``."""
    return _lineage(np.asarray(w, dtype=float), np.eye(h.M), h)[h.levels[-1][1]]


def test_lineage_node_layout_fixture(small_hierarchy):
    v = [11.0, 21.0, 22.0, 31.0, 32.0, 33.0, 34.0]  # node order: levels coarse to fine
    expected = np.array(
        [
            [11, 21, 0, 31, 0, 0, 0],
            [11, 21, 0, 0, 32, 0, 0],
            [11, 0, 22, 0, 0, 33, 0],
            [11, 0, 22, 0, 0, 0, 34],
        ],
        dtype=float,
    )
    np.testing.assert_array_equal(_node_layout(v, small_hierarchy), expected)


def test_lineage_node_layout_special_cases(small_hierarchy):
    h = small_hierarchy
    bu = np.concatenate([np.zeros(h.M - h.m), np.ones(h.m)])
    np.testing.assert_array_equal(_node_layout(bu, h), dense_map(fixed_weights("BU", h)))
    np.testing.assert_array_equal(
        _node_layout(np.full(h.M, 1.0 / 3.0), h), dense_map(fixed_weights("LA", h))
    )


def test_weights_from_levels_shape_and_finite_check(small_hierarchy):
    h = small_hierarchy
    with pytest.raises(LengthMismatch):
        weights_from_levels(np.ones((1, h.L)), h)
    for bad in (np.nan, np.inf, -np.inf):
        v = np.ones(h.L)
        v[1] = bad
        with pytest.raises(LengthMismatch, match="finite"):
            weights_from_levels(v, h)


def _random_joint(h, rng, n=8):
    return JointSample(matrix=rng.normal(size=(h.M, n)), scheme="stacked", hierarchy=h)


def test_reconcile_bu_keeps_bottom(small_hierarchy):
    h = small_hierarchy
    rng = np.random.default_rng(1)
    S = build_summing_matrix(h)
    joint = _random_joint(h, rng)
    rec = reconcile(S, fixed_weights("BU", h), joint)
    bottom = joint.matrix[h.M - h.m :]
    np.testing.assert_allclose(rec.matrix, oracle_summing_matrix(h) @ bottom, atol=1e-12)


def test_reconcile_fixes_coherent_points(small_hierarchy):
    h = small_hierarchy
    rng = np.random.default_rng(3)
    S = build_summing_matrix(h)
    coherent = JointSample(
        matrix=oracle_summing_matrix(h) @ rng.normal(size=(h.m, 6)), scheme="stacked", hierarchy=h
    )
    for P in (fixed_weights("BU", h), wls_weights(h)):
        rec = reconcile(S, P, coherent)
        np.testing.assert_allclose(rec.matrix, coherent.matrix, atol=1e-10)


def test_reconcile_ga_all_ones(small_hierarchy):
    h = small_hierarchy
    S = build_summing_matrix(h)
    ones = JointSample(matrix=np.ones((h.M, 5)), scheme="stacked", hierarchy=h)
    rec = reconcile(S, fixed_weights("GA", h), ones)
    np.testing.assert_allclose(rec.matrix, np.ones((h.M, 5)), atol=1e-12)


def test_reconcile_dimension_mismatch(small_hierarchy):
    other = build_hierarchy([2, 1])
    S = build_summing_matrix(small_hierarchy)
    joint = JointSample(matrix=np.zeros((3, 4)), scheme="stacked", hierarchy=other)
    with pytest.raises(DimensionMismatch):
        reconcile(S, fixed_weights("BU", small_hierarchy), joint)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_check_coherence_reconciled_and_raw():
    # on a tree and on the overlapping daily hierarchy, for a lineage map and
    # for BA, whose rows share one row; numpy warnings are errors here
    rng = np.random.default_rng(9)
    for f, method in itertools.product([(4, 2, 1), (24, 12, 8, 6, 4, 3, 2, 1)], ["LA", "BA"]):
        h = build_hierarchy(f)
        S = build_summing_matrix(h)
        joint = _random_joint(h, rng)
        rec = reconcile(S, fixed_weights(method, h), joint).matrix
        ok, violation = check_coherence(rec, S, tol=1e-9)
        assert ok and violation <= 1e-9
        # independently simulated levels are generically incoherent
        ok, violation = check_coherence(joint.matrix, S, tol=1e-9)
        assert not ok and violation > 1e-3
        # and the zero matrix is trivially coherent
        assert check_coherence(np.zeros((h.M, 3)), S).ok

        def planted(row, col, value):
            bad = rec.copy()
            bad[row, col] = value
            return bad

        upper = h.M - h.m
        # a non-finite bottom entry gives (False, nan), without a numpy warning
        for row, value in [(h.M - 1, np.nan), (upper, np.inf), (h.M - 1, -np.inf)]:
            ok, violation = check_coherence(planted(row, 1, value), S)
            assert not ok and np.isnan(violation), (f, method, row, value)
        # NaN above the bottom propagates through the maximum, at any level
        for row in (0, 1, upper - 1):
            ok, violation = check_coherence(planted(row, 3, np.nan), S)
            assert not ok and np.isnan(violation), (f, method, row)
        # an infinite entry above the bottom gives an infinite violation
        for row, value in [(0, np.inf), (upper - 1, -np.inf)]:
            ok, violation = check_coherence(planted(row, 0, value), S)
            assert not ok and violation == np.inf, (f, method, row, value)
        # a broadcast sample with one non-finite entry in its shared row is
        # non-finite in every row, bottom included
        for value in (np.nan, np.inf):
            row = rec[0].copy()
            row[2] = value
            ok, violation = check_coherence(np.broadcast_to(row, rec.shape), S)
            assert not ok and np.isnan(violation), (f, method, value)
    # a single level has no upper rows: only non-finite entries can fail
    flat = build_hierarchy([1])
    S1 = build_summing_matrix(flat)
    assert check_coherence(rng.normal(size=(1, 4)), S1) == (True, 0.0)
    for value in (np.nan, np.inf):
        ok, violation = check_coherence(np.array([[0.0, value, 1.0]]), S1)
        assert not ok and np.isnan(violation)
    ok, violation = check_coherence(np.broadcast_to([0.0, np.inf], (1, 2)), S1)
    assert not ok and np.isnan(violation)


def test_check_coherence_finds_a_wrong_child_map():
    # the check derives its windows from the level layout alone: a BU map
    # walking a child map that pairs a level with windows that do not
    # divide its own fills the upper rows wrongly, and the check sees it
    h = build_hierarchy([6, 3, 2, 1])
    correct = h.children
    assert correct[1] == (slice(1, 3), slice(6, 12), 3)
    # level 3's two nodes read the first two nodes of level 2, windows [0, 2) and [2, 4)
    object.__setattr__(h, "children", (correct[0], (slice(1, 3), slice(3, 5), 1), correct[2]))
    S = build_summing_matrix(h)
    rng = np.random.default_rng(23)
    out = fixed_weights("BU", h).apply(rng.normal(size=(h.M, 50)))
    upper = h.M - h.m
    planted = np.abs(out[:upper] - oracle_summing_matrix(h)[:upper] @ out[upper:]).max()
    assert planted > 1e-2
    ok, violation = check_coherence(out, S)
    assert not ok and violation >= planted * (1 - 1e-12)


def test_check_coherence_tolerance_is_relative_to_the_bottom_scale(small_hierarchy):
    # rounding on data in large units exceeds an absolute 1e-9; the bound is
    # tol times the largest bottom magnitude, floored at 1
    h = small_hierarchy
    S = build_summing_matrix(h)
    rng = np.random.default_rng(21)
    Y = rng.uniform(0.5e9, 1.5e9, size=(h.M, 200))
    coherent = reconcile_tensor(fixed_weights("BU", h), Y)
    # a violation above the absolute 1e-9 but below tol * max |bottom| passes,
    # and is reported as is
    off = coherent.copy()
    off[0, 3] += 1e-3
    ok, violation = check_coherence(off, S)
    assert ok and violation == pytest.approx(1e-3, rel=1e-3)
    off = coherent.copy()
    off[0, 3] += 1e-6 * np.abs(coherent[h.M - h.m:]).max()
    ok, violation = check_coherence(off, S)
    assert not ok and violation >= 1e-6 * 0.5e9


def test_check_coherence_matches_the_oracle_on_random_hierarchies():
    rng = np.random.default_rng(72)
    for _ in range(50):
        h = random_hierarchy(rng)
        O = oracle_summing_matrix(h)
        Y = rng.normal(size=(h.M, 6))
        upper = h.M - h.m
        expected = np.abs(Y[:upper] - O[:upper] @ Y[upper:]).max(initial=0.0)
        ok, violation = check_coherence(Y, build_summing_matrix(h), tol=0.0)
        assert violation == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert ok == (upper == 0)


def test_projection_idempotent_for_left_inverses():
    rng = np.random.default_rng(14)
    for _ in range(10):
        h = random_hierarchy(rng)
        S = oracle_summing_matrix(h)
        for P in (dense_map(fixed_weights("BU", h)), dense_map(wls_weights(h))):
            SP = S @ P
            np.testing.assert_allclose(SP @ SP, SP, atol=1e-9)


def test_equal_rows_for_averaging_methods():
    rng = np.random.default_rng(15)
    h = random_hierarchy(rng)
    S = build_summing_matrix(h)
    joint = _random_joint(h, rng)
    for method in ("BA", "GA"):
        rec = reconcile(S, fixed_weights(method, h), joint)
        assert np.abs(rec.matrix - rec.matrix[0]).max() <= 1e-12


def test_bu_of_ranked_sorts_bottom_block():
    rng = np.random.default_rng(16)
    h = build_hierarchy([4, 2, 1])
    levels = [rng.normal(size=(h.nodes_at(lev), 7)) for lev in range(1, h.L + 1)]
    joint = assemble(levels, h, "stacked")
    S = build_summing_matrix(h)
    rec = reconcile(S, fixed_weights("BU", h), assemble(levels, h, "ranked"))
    bottom = joint.matrix[h.M - h.m :]
    np.testing.assert_allclose(
        rec.matrix[h.M - h.m :], np.sort(bottom, axis=1), atol=1e-12
    )


def _lineage_loop(per_node_weight, h):
    """Reference: row r holds the weight of its level-l ancestor, one loop per entry.

    ``per_node_weight(lev, k)`` takes the 1-based level and the 0-based
    flat index of the ancestor in node order.
    """
    entries = np.zeros((h.m, h.M))
    first = 0  # flat index of the level's first node
    for lev, fl in enumerate(h.f, start=1):
        for r in range(h.m):
            k = first + r // fl  # the level-l node whose window holds bottom node r
            entries[r, k] = per_node_weight(lev, k)
        first += h.m // fl
    return entries


@pytest.mark.parametrize(
    "f", [(4, 2, 1), (24, 12, 8, 6, 4, 3, 2, 1), (288, 144, 96, 72, 48, 36, 24, 12, 6, 3, 1)]
)
def test_lineage_weights_match_loop_reference(f):
    h = build_hierarchy(f)
    rng = np.random.default_rng(h.M)
    v = rng.normal(size=h.L)
    np.testing.assert_array_equal(
        dense_map(weights_from_levels(v, h)), _lineage_loop(lambda lev, k: v[lev - 1], h)
    )
    np.testing.assert_array_equal(
        dense_map(fixed_weights("LA", h)), _lineage_loop(lambda lev, k: 1.0 / h.L, h)
    )
    np.testing.assert_array_equal(
        dense_map(fixed_weights("BU", h)), _lineage_loop(lambda lev, k: float(lev == h.L), h)
    )
    # the level layout is the node layout with each level's weight repeated
    np.testing.assert_array_equal(
        _node_layout(np.repeat(v, h.m // np.array(h.f)), h), dense_map(weights_from_levels(v, h))
    )
    w = rng.normal(size=h.M)
    np.testing.assert_array_equal(_node_layout(w, h), _lineage_loop(lambda lev, k: w[k], h))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_lineage_operator_matches_matrix_and_its_transpose(seed):
    rng = np.random.default_rng(seed)
    h = random_hierarchy(rng)
    T, N = int(rng.integers(1, 4)), int(rng.integers(1, 6))
    w = rng.normal(size=h.M)  # signed per-node weights
    Y = rng.normal(size=(T, h.M, N))
    bottom_rows = h.levels[-1][1]
    bottom = _lineage(w, Y, h)[:, bottom_rows]
    P = WeightMatrix(partial(_lineage, w, h=h), "nodes", h)
    np.testing.assert_allclose(bottom, np.matmul(dense_map(P), Y), rtol=0, atol=1e-12)
    S = build_summing_matrix(h)
    for sample in aggregate(bottom, h):
        assert check_coherence(sample, S, tol=1e-12).ok
    # S^T D through the operator: the unit-weight lineage sum of D / f_l
    B = rng.normal(size=(T, h.m, N))
    D = rng.normal(size=(T, h.M, N))
    StD = _lineage(np.ones(h.M), D / h.node_windows[:, None], h)[:, bottom_rows]
    assert np.vdot(aggregate(B, h), D) == pytest.approx(np.vdot(B, StD), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("f", [(4, 2, 1), (24, 12, 6, 3, 1)])
def test_lineage_on_a_chain_equals_level_by_level_accumulation(f):
    # on a chain every bottom row receives its ancestors' terms one level at
    # a time, coarse to fine, so the push-down adds in the same order as a
    # zeroed accumulator and the result is equal bit for bit
    h = build_hierarchy(f)
    rng = np.random.default_rng(len(f))
    w, Y = rng.normal(size=h.M), rng.normal(size=(3, h.M, 5))
    expected = np.zeros((3, h.m, 5))
    for fl, rows in h.levels:
        expected += np.repeat(w[rows, None] * Y[:, rows], fl, axis=1)
    np.testing.assert_array_equal(_lineage(w, Y, h)[:, h.levels[-1][1]], expected)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_lineage_returns_the_aggregate_of_its_bottom_rows(seed):
    # the sample is coherent by construction: its coarser levels are the
    # window means of its bottom rows, bit for bit, overlapping levels included
    rng = np.random.default_rng(seed)
    h = random_hierarchy(rng)
    T, N = int(rng.integers(1, 4)), int(rng.integers(1, 6))
    out = _lineage(rng.normal(size=h.M), rng.normal(size=(T, h.M, N)), h)
    assert out.shape == (T, h.M, N)
    np.testing.assert_array_equal(out, aggregate(out[:, h.levels[-1][1]], h))


def test_weight_maps_compare_by_identity(small_hierarchy):
    P = fixed_weights("BU", small_hierarchy)
    assert P == P
    assert P != fixed_weights("BU", small_hierarchy)
    assert hash(P) == hash(P)
    assert len({P, fixed_weights("BU", small_hierarchy)}) == 2


def test_reconcile_tensor_is_coherent_and_matches_dense():
    rng = np.random.default_rng(8)
    for f in [(4, 2, 1), (24, 12, 8, 6, 4, 3, 2, 1), (288, 144, 96, 72, 48, 36, 24, 12, 6, 3, 1)]:
        h = build_hierarchy(f)
        S = build_summing_matrix(h)
        tensor = rng.normal(size=(3, h.M, 6))
        maps = [fixed_weights(method, h) for method in FIXED_METHODS] + [
            wls_weights(h),
            weights_from_levels(rng.normal(size=h.L), h),
            WeightMatrix(partial(_lineage, rng.normal(size=h.M), h=h), "nodes", h),
        ]
        for P in maps:
            out = reconcile_tensor(P, tensor)
            assert out.shape == tensor.shape
            np.testing.assert_allclose(
                out, np.matmul(oracle_summing_matrix(h) @ dense_map(P), tensor), rtol=0, atol=1e-12
            )
            for mat in out:
                assert check_coherence(mat, S, tol=1e-12).ok
            np.testing.assert_array_equal(reconcile_tensor(P, tensor[1]), out[1])
            # every map is a module-level function with bound arguments, so it pickles
            np.testing.assert_array_equal(pickle.loads(pickle.dumps(P)).apply(tensor), out)


def test_reconcile_tensor_dimension_mismatch(small_hierarchy):
    P = fixed_weights("BU", small_hierarchy)
    with pytest.raises(DimensionMismatch):
        reconcile_tensor(P, np.zeros((2, small_hierarchy.m, 3)))


def test_fixed_weights_and_coherence_reject_bad_input(small_hierarchy):
    h = small_hierarchy
    S = build_summing_matrix(h)
    with pytest.raises(ReconcileError, match="unknown fixed method 'XX'"):
        fixed_weights("XX", h)
    # a 1-D vector is one column: checked when it has M entries, rejected otherwise
    assert check_coherence(aggregate(np.arange(4.0)[:, None], h)[:, 0], S).ok
    with pytest.raises(DimensionMismatch, match="expected 7 rows, got 6"):
        check_coherence(np.zeros(h.M - 1), S)
    with pytest.raises(DimensionMismatch, match="expected 7 rows, got 8"):
        check_coherence(np.zeros((h.M + 1, 3)), S)
    # a stack of samples is rejected by its shape, whatever its first axis
    with pytest.raises(DimensionMismatch, match=r"got shape \(7, 7, 3\)"):
        check_coherence(np.zeros((h.M, h.M, 3)), S)
    with pytest.raises(DimensionMismatch, match=r"got shape \(2, 7, 3\)"):
        check_coherence(np.zeros((2, h.M, 3)), S)


def test_reconcile_tensor_rejects_a_map_with_the_wrong_rows(small_hierarchy):
    h = small_hierarchy
    short = WeightMatrix(partial(np.matmul, np.ones((h.m - 1, h.M))), "short", h)
    with pytest.raises(DimensionMismatch, match=r"short map took shape \(2, 7, 3\) to \(2, 3, 3\)"):
        reconcile_tensor(short, np.zeros((2, h.M, 3)))


def test_empty_samples_give_empty_results(daily_hierarchy):
    # the window walks pass explicit window counts, so an empty batch or a
    # sample without columns reshapes like any other
    h = daily_hierarchy
    S = build_summing_matrix(h)
    assert aggregate(np.zeros((h.m, 0)), h).shape == (h.M, 0)
    assert aggregate(np.zeros((0, h.m, 3)), h).shape == (0, h.M, 3)
    assert check_coherence(np.zeros((h.M, 0)), S) == (True, 0.0)
    maps = [fixed_weights(method, h) for method in FIXED_METHODS]
    maps += [weights_from_levels(np.full(h.L, 1.0 / h.L), h), wls_weights(h)]
    for P in maps:
        for shape in [(h.M, 0), (0, h.M, 5), (2, h.M, 0)]:
            out = reconcile_tensor(P, np.zeros(shape))
            assert out.shape == shape, (P.method, shape)
