import numpy as np
import pytest

from temporec.errors import (
    DimensionMismatch,
    MissingBottom,
    NonDivisor,
    NotDecreasing,
    PartialCycle,
)
from temporec.hierarchy import (
    aggregate,
    aggregate_to_level,
    build_hierarchy,
    build_summing_matrix,
    from_common_units,
    to_common_units,
)

from conftest import random_hierarchy


def test_counts_small(small_hierarchy):
    assert small_hierarchy.L == 3
    assert small_hierarchy.M == 7
    assert small_hierarchy.m == 4


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
    S = build_summing_matrix(small_hierarchy)
    np.testing.assert_array_equal(S.entries, expected)


def test_summing_matrix_single():
    S = build_summing_matrix(build_hierarchy([1]))
    np.testing.assert_array_equal(S.entries, np.eye(1))


def _oracle_summing_matrix(h):
    """Independent construction: place each node's window entry by entry."""
    out = np.zeros((h.M, h.m))
    row = 0
    for fl in h.f:
        for j in range(h.m // fl):
            for k in range(fl):
                out[row, j * fl + k] = 1.0 / fl
            row += 1
    return out


def test_summing_matrix_daily_matches_oracle(daily_hierarchy):
    S = build_summing_matrix(daily_hierarchy)
    assert S.shape == (60, 24)
    np.testing.assert_array_equal(S.entries, _oracle_summing_matrix(daily_hierarchy))


def test_row_sums_are_one():
    rng = np.random.default_rng(42)
    for _ in range(50):
        h = random_hierarchy(rng)
        S = build_summing_matrix(h)
        assert np.abs(S.entries.sum(axis=1) - 1.0).max() <= 1e-12


def test_aggregate_examples(small_hierarchy):
    bottom = [1.0, 2.0, 3.0, 4.0]
    np.testing.assert_array_equal(aggregate_to_level(bottom, small_hierarchy, 1), [10.0])
    np.testing.assert_array_equal(aggregate_to_level(bottom, small_hierarchy, 2), [3.0, 7.0])
    np.testing.assert_array_equal(aggregate_to_level(bottom, small_hierarchy, 3), bottom)


def test_aggregate_partial_cycle(small_hierarchy):
    with pytest.raises(PartialCycle):
        aggregate_to_level([1.0, 2.0, 3.0], small_hierarchy, 1)


def test_unit_conversion_examples(small_hierarchy):
    # (1/4) * 10 and (1/2) * (3, 7), worked by hand
    np.testing.assert_allclose(to_common_units([10.0], small_hierarchy, 1), [2.5])
    np.testing.assert_allclose(to_common_units([3.0, 7.0], small_hierarchy, 2), [1.5, 3.5])
    np.testing.assert_array_equal(
        to_common_units([1.0, 2.0], small_hierarchy, 3), [1.0, 2.0]
    )


def test_node_windows():
    rng = np.random.default_rng(53)
    for _ in range(20):
        h = random_hierarchy(rng)
        assert h.node_windows.shape == (h.M,)
        assert not h.node_windows.flags.writeable
        for lev in range(1, h.L + 1):
            np.testing.assert_array_equal(h.node_windows[h.level_slice(lev)], h.f[lev - 1])


def test_unit_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(20):
        h = random_hierarchy(rng)
        for lev in range(1, h.L + 1):
            native = rng.normal(size=h.nodes_at(lev)) * 10
            back = from_common_units(to_common_units(native, h, lev), h, lev)
            np.testing.assert_allclose(back, native, rtol=1e-12)


def test_scaled_vector_matches_aggregation():
    rng = np.random.default_rng(11)
    for _ in range(20):
        h = random_hierarchy(rng)
        S = build_summing_matrix(h)
        bottom = rng.normal(size=h.m)
        y = S.entries @ bottom
        for lev in range(1, h.L + 1):
            native = from_common_units(y[h.level_slice(lev)], h, lev)
            np.testing.assert_allclose(
                native, aggregate_to_level(bottom, h, lev), rtol=1e-10, atol=1e-12
            )


def test_node_id_bijection():
    rng = np.random.default_rng(5)
    for _ in range(20):
        h = random_hierarchy(rng)
        for flat in range(1, h.M + 1):
            node = h.node_id(flat)
            assert node.flat == flat
            assert h.flat_index(node.level, node.position) == flat
        with pytest.raises(IndexError):
            h.node_id(h.M + 1)
        with pytest.raises(IndexError):
            h.flat_index(1, h.nodes_at(1) + 1)


@pytest.mark.parametrize(
    "f",
    [(4, 2, 1), (24, 12, 8, 6, 4, 3, 2, 1), (288, 144, 96, 72, 48, 36, 24, 12, 6, 3, 1)],
)
def test_aggregate_matches_summing_matrix(f):
    h = build_hierarchy(f)
    S = build_summing_matrix(h).entries
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
