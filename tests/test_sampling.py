import numpy as np
import pytest

from temporec.errors import ColumnMismatch, MissingLevel, RowCountMismatch, SamplingError
from temporec.hierarchy import build_hierarchy
from temporec.sampling import JointSample, LevelSample, assemble, permute, rank, stack

from conftest import random_hierarchy


def _two_level():
    h = build_hierarchy([2, 1])
    z1 = LevelSample(level=1, matrix=[[1.0, 2.0]])
    z2 = LevelSample(level=2, matrix=[[3.0, 4.0], [5.0, 6.0]])
    return h, z1, z2


def test_stack_concatenates():
    h, z1, z2 = _two_level()
    joint = stack([z2, z1], h)  # order of inputs must not matter
    np.testing.assert_array_equal(joint.matrix, [[1, 2], [3, 4], [5, 6]])
    assert joint.scheme == "stacked"


def test_stack_single_level():
    h = build_hierarchy([1])
    z = LevelSample(level=1, matrix=[[1.0, 2.0, 3.0]])
    np.testing.assert_array_equal(stack([z], h).matrix, z.matrix)


def test_stack_column_mismatch():
    h, z1, _ = _two_level()
    z2 = LevelSample(level=2, matrix=np.zeros((2, 3)))
    with pytest.raises(ColumnMismatch):
        stack([z1, z2], h)


def test_stack_missing_and_duplicate_levels():
    h, z1, z2 = _two_level()
    with pytest.raises(MissingLevel):
        stack([z1], h)
    with pytest.raises(MissingLevel):
        stack([z1, z1, z2], h)


def test_stack_row_count_mismatch():
    h, z1, _ = _two_level()
    bad = LevelSample(level=2, matrix=np.zeros((3, 2)))
    with pytest.raises(RowCountMismatch):
        stack([z1, bad], h)


def test_level_sample_validation():
    with pytest.raises(SamplingError):
        LevelSample(level=1, matrix=[[1.0]])  # single path
    with pytest.raises(SamplingError):
        LevelSample(level=1, matrix=[[1.0, np.inf]])


def _joint(h, matrix):
    return JointSample(matrix=np.asarray(matrix, float), scheme="stacked", hierarchy=h)


def test_rank_sorts_rows():
    h = build_hierarchy([2, 1])
    joint = _joint(h, [[3, 1, 2], [0.5, 0.2, 0.9], [2, 2, 1]])
    ranked = rank(joint)
    np.testing.assert_array_equal(ranked.matrix, [[1, 2, 3], [0.2, 0.5, 0.9], [1, 2, 2]])
    assert ranked.scheme == "ranked"


def test_rank_idempotent_on_sorted():
    h = build_hierarchy([2, 1])
    joint = _joint(h, [[1, 2, 3], [1, 1, 2], [0, 0, 0]])
    np.testing.assert_array_equal(rank(joint).matrix, joint.matrix)


def test_rank_requires_stacked():
    h = build_hierarchy([2, 1])
    ranked = rank(_joint(h, np.zeros((3, 2))))
    with pytest.raises(SamplingError):
        rank(ranked)


def test_permute_deterministic():
    h = build_hierarchy([2, 1])
    joint = _joint(h, np.arange(12.0).reshape(3, 4))
    first = permute(joint, seed=99)
    second = permute(joint, seed=99)
    np.testing.assert_array_equal(first.matrix, second.matrix)
    assert first.scheme == "permuted"
    other = permute(joint, seed=100)
    assert not np.array_equal(first.matrix, other.matrix)


def test_permute_single_column_and_constant_row():
    h = build_hierarchy([1])
    one_col = JointSample(matrix=np.array([[5.0]]), scheme="stacked", hierarchy=h)
    np.testing.assert_array_equal(permute(one_col, seed=1).matrix, one_col.matrix)
    const = JointSample(matrix=np.array([[2.0, 2.0, 2.0]]), scheme="stacked", hierarchy=h)
    np.testing.assert_array_equal(permute(const, seed=3).matrix, const.matrix)


def test_permute_requires_seed():
    h = build_hierarchy([1])
    joint = JointSample(matrix=np.array([[1.0, 2.0]]), scheme="stacked", hierarchy=h)
    with pytest.raises(SamplingError):
        permute(joint, seed=None)


def test_row_multisets_preserved():
    rng = np.random.default_rng(21)
    for _ in range(10):
        h = random_hierarchy(rng)
        matrix = rng.normal(size=(h.M, 17))
        joint = _joint(h, matrix)
        for out in (rank(joint), permute(joint, seed=4)):
            np.testing.assert_array_equal(
                np.sort(out.matrix, axis=1), np.sort(matrix, axis=1)
            )


def test_schemes_share_marginals():
    # per-row empirical CDFs coincide across all three schemes
    rng = np.random.default_rng(33)
    h = random_hierarchy(rng)
    levels = [
        LevelSample(level=lev, matrix=rng.normal(size=(h.nodes_at(lev), 9)))
        for lev in range(1, h.L + 1)
    ]
    outputs = [
        assemble(levels, h, "stacked"),
        assemble(levels, h, "ranked"),
        assemble(levels, h, "permuted", seed=0),
    ]
    reference = np.sort(outputs[0].matrix, axis=1)
    for out in outputs[1:]:
        np.testing.assert_array_equal(np.sort(out.matrix, axis=1), reference)


def test_rank_idempotence_property():
    rng = np.random.default_rng(8)
    h = random_hierarchy(rng)
    joint = _joint(h, rng.normal(size=(h.M, 11)))
    once = rank(joint)
    again = np.sort(once.matrix, axis=1)
    np.testing.assert_array_equal(once.matrix, again)


def test_assemble_rejects_unknown_scheme(small_hierarchy):
    h = small_hierarchy
    levels = [LevelSample(level=lev, matrix=np.zeros((h.nodes_at(lev), 3))) for lev in (1, 2, 3)]
    with pytest.raises(SamplingError, match="unknown scheme 'bogus'"):
        assemble(levels, h, "bogus")


def test_sample_shapes_rejected():
    h, _, _ = _two_level()
    with pytest.raises(SamplingError, match="must be 2-D"):
        LevelSample(level=1, matrix=[1.0, 2.0, 3.0])
    with pytest.raises(SamplingError, match="joint sample has 2 rows, hierarchy has 3 nodes"):
        JointSample(matrix=np.zeros((2, 4)), scheme="stacked", hierarchy=h)
