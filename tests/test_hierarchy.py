import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from temporec.errors import (
    DimensionMismatch,
    MissingBottom,
    NonDivisor,
    NotDecreasing,
)
from temporec.hierarchy import _window_means, aggregate, build_hierarchy, build_summing_matrix
from temporec.reconcile import check_coherence

from conftest import oracle_summing_matrix, random_hierarchy


def test_counts_small(small_hierarchy):
    h = small_hierarchy
    assert h.L == 3
    assert h.M == 7
    assert h.m == 4
    # the level layout: each level's window and its rows, coarse to fine
    assert h.levels == ((4, slice(0, 1)), (2, slice(1, 3)), (1, slice(3, 7)))
    assert [h.nodes_at(lev) for lev in (1, 2, 3)] == [1, 2, 4]
    for level in (0, 4):
        with pytest.raises(IndexError):
            h.nodes_at(level)


def test_counts_daily(daily_hierarchy):
    assert daily_hierarchy.L == 8
    assert daily_hierarchy.M == 60
    assert daily_hierarchy.m == 24


def test_single_level():
    h = build_hierarchy([1])
    assert (h.L, h.M, h.m) == (1, 1, 1)


def test_non_divisor_rejected():
    with pytest.raises(NonDivisor):
        build_hierarchy([4, 3, 1])


def test_not_decreasing_rejected():
    with pytest.raises(NotDecreasing):
        build_hierarchy([4, 4, 1])
    with pytest.raises(NotDecreasing):
        build_hierarchy([2, 4, 1])
    with pytest.raises(NotDecreasing):
        build_hierarchy([])


def test_missing_bottom_rejected():
    with pytest.raises(MissingBottom):
        build_hierarchy([4, 2])


FIVE_MINUTE = (288, 144, 96, 72, 48, 36, 24, 12, 6, 3, 1)


def test_summing_matrix_fixture(small_hierarchy):
    expected = np.array(
        [
            [0.25, 0.25, 0.25, 0.25],
            [0.5, 0.5, 0.0, 0.0],
            [0.0, 0.0, 0.5, 0.5],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    np.testing.assert_array_equal(aggregate(np.eye(4), small_hierarchy), expected)
    assert build_summing_matrix(small_hierarchy).hierarchy == small_hierarchy


def test_summing_matrix_single():
    np.testing.assert_array_equal(aggregate(np.eye(1), build_hierarchy([1])), np.eye(1))


def test_summing_matrix_daily_matches_oracle(daily_hierarchy):
    # the program's dense S, aggregate of I_m, is exact on the named designs
    S = aggregate(np.eye(daily_hierarchy.m), daily_hierarchy)
    assert S.shape == (60, 24)
    np.testing.assert_array_equal(S, oracle_summing_matrix(daily_hierarchy))


def test_summing_matrix_five_minute_matches_oracle():
    h = build_hierarchy(FIVE_MINUTE)
    np.testing.assert_array_equal(aggregate(np.eye(h.m), h), oracle_summing_matrix(h))


def test_summing_matrix_matches_oracle_on_random_hierarchies():
    # overlapping hierarchies included. aggregate reaches 1/f_l as a chain of
    # window means along the child map, each rounded once, so an entry may
    # differ from the oracle's 1/f_l by rounding: a few hierarchies in a
    # hundred with cycles up to 60 do, by less than one machine epsilon
    # relative. The tolerance is two; the zero pattern is exact.
    rng = np.random.default_rng(71)
    for _ in range(300):
        h = random_hierarchy(rng, max_cycle=60)
        S, oracle = aggregate(np.eye(h.m), h), oracle_summing_matrix(h)
        np.testing.assert_array_equal(S == 0, oracle == 0)
        np.testing.assert_allclose(S, oracle, rtol=2 * np.finfo(float).eps, atol=0)


def test_coherence_window_means_match_the_oracle_upper_rows():
    # check_coherence compares each upper row with the window means of the
    # bottom rows; on I_m those means are the oracle's upper rows, bit for bit
    rng = np.random.default_rng(72)
    for h in [random_hierarchy(rng, max_cycle=60) for _ in range(100)] + [build_hierarchy(FIVE_MINUTE)]:
        oracle = oracle_summing_matrix(h)
        np.testing.assert_array_equal(_window_means(np.eye(h.m), h), oracle[: h.M - h.m])
        # so every column of the oracle's S passes with no violation at all
        assert check_coherence(oracle, build_summing_matrix(h), tol=0.0) == (True, 0.0)


def test_row_sums_are_one():
    rng = np.random.default_rng(42)
    for _ in range(50):
        h = random_hierarchy(rng)
        assert np.abs(aggregate(np.eye(h.m), h).sum(axis=1) - 1.0).max() <= 1e-12


def test_aggregate_examples(small_hierarchy):
    # (1/4) * 10 and (1/2) * (3, 7), worked by hand
    h = small_hierarchy
    bottom = np.array([1.0, 2.0, 3.0, 4.0])
    nodes = aggregate(bottom[:, None], h)[:, 0]
    np.testing.assert_array_equal(nodes[h.levels[0][1]], [2.5])
    np.testing.assert_array_equal(nodes[h.levels[1][1]], [1.5, 3.5])
    np.testing.assert_array_equal(nodes[h.levels[2][1]], bottom)


def test_node_windows():
    rng = np.random.default_rng(53)
    for _ in range(20):
        h = random_hierarchy(rng)
        assert h.node_windows.shape == (h.M,)
        assert not h.node_windows.flags.writeable
        for lev in range(1, h.L + 1):
            np.testing.assert_array_equal(h.node_windows[h.levels[lev - 1][1]], h.f[lev - 1])


def test_scaled_vector_matches_aggregation():
    # common-unit node values times node_windows are the native window sums
    rng = np.random.default_rng(11)
    for _ in range(20):
        h = random_hierarchy(rng)
        bottom = rng.normal(size=h.m)
        native = aggregate(bottom[:, None], h)[:, 0] * h.node_windows
        for lev in range(1, h.L + 1):
            np.testing.assert_allclose(
                native[h.levels[lev - 1][1]],
                bottom.reshape(-1, h.f[lev - 1]).sum(axis=1),
                rtol=1e-10, atol=1e-12,
            )


@pytest.mark.parametrize("f", [(4, 2, 1), (24, 12, 8, 6, 4, 3, 2, 1), FIVE_MINUTE])
def test_aggregate_matches_summing_matrix(f):
    h = build_hierarchy(f)
    S = oracle_summing_matrix(h)
    rng = np.random.default_rng(len(f))
    single = rng.normal(size=(h.m, 7))
    out = aggregate(single, h)
    assert out.shape == (h.M, 7)
    np.testing.assert_allclose(out, S @ single, rtol=0, atol=1e-12)
    batch = rng.normal(size=(3, h.m, 5))
    out = aggregate(batch, h)
    assert out.shape == (3, h.M, 5)
    np.testing.assert_allclose(out, np.matmul(S, batch), rtol=0, atol=1e-12)
    # the bottom block is the input itself
    np.testing.assert_array_equal(out[:, h.M - h.m :, :], batch)


def test_aggregate_rejects_wrong_row_count(small_hierarchy):
    with pytest.raises(DimensionMismatch):
        aggregate(np.zeros((small_hierarchy.M, 3)), small_hierarchy)
    with pytest.raises(DimensionMismatch):
        aggregate(np.zeros(small_hierarchy.m), small_hierarchy)


def _child_levels(h):
    """The child map as 0-based level indices: {level: child level}."""
    level_of = {rows.start: lev for lev, (_, rows) in enumerate(h.levels)}
    return {level_of[rows.start]: level_of[child.start] for rows, child, _ in h.children}


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_child_map_is_a_divisor_tree(seed):
    h = random_hierarchy(np.random.default_rng(seed), max_cycle=72)
    assert len(h.children) == h.L - 1
    child_of = _child_levels(h)
    for (rows, child, k), (lev, c) in zip(h.children, child_of.items()):
        assert rows == h.levels[lev][1] and child == h.levels[c][1]
        # the coarsest finer level whose window divides f_l
        assert c > lev and h.f[lev] % h.f[c] == 0 and k == h.f[lev] // h.f[c]
        assert all(h.f[lev] % h.f[j] for j in range(lev + 1, c))
    for lev in range(h.L):
        chain = [lev]
        while chain[-1] in child_of:
            chain.append(child_of[chain[-1]])
        assert chain[-1] == h.L - 1


def test_child_map_of_the_five_minute_hierarchy():
    h = build_hierarchy(FIVE_MINUTE)
    tree = {h.f[lev]: h.f[c] for lev, c in _child_levels(h).items()}
    assert tree == {
        288: 144, 144: 72, 96: 48, 72: 36, 48: 24, 36: 12, 24: 12, 12: 6, 6: 3, 3: 1,
    }


def test_non_positive_entry_rejected():
    with pytest.raises(NotDecreasing, match="must be positive"):
        build_hierarchy([4, 0, 1])


def test_non_integral_entry_rejected():
    # a non-integral entry is rejected, not truncated; an integral float passes
    with pytest.raises(NotDecreasing, match="must be integers"):
        build_hierarchy([24, 12.5, 1.9])
    for bad in (float("nan"), float("inf")):
        with pytest.raises(NotDecreasing, match="must be integers"):
            build_hierarchy([4, bad, 1])
    assert build_hierarchy([24, 12.0, 1]).f == (24, 12, 1)
