import tracemalloc
from collections.abc import Sequence

import numpy as np
import pytest

from temporec.errors import ColumnMismatch, MissingLevel, RowCountMismatch, SamplingError
from temporec.hierarchy import build_hierarchy
from temporec.cvopt import CvResult
from temporec.sampling import SCHEMES, JointSample, OriginData, assemble, assemble_origins
from temporec.simkit import Dataset, LevelForecaster

from conftest import random_hierarchy
from test_scoring import _make_origins


def _two_level():
    h = build_hierarchy([2, 1])
    z1 = [[1.0, 2.0]]
    z2 = [[3.0, 4.0], [5.0, 6.0]]
    return h, z1, z2


def _levels(h, matrix):
    """The level matrices, coarse to fine, whose stacked joint sample is ``matrix``."""
    matrix = np.asarray(matrix, dtype=float)
    return [matrix[rows] for _, rows in h.levels]


def test_stack_concatenates():
    h, z1, z2 = _two_level()
    joint = assemble([z1, z2], h, "stacked")
    np.testing.assert_array_equal(joint.matrix, [[1, 2], [3, 4], [5, 6]])
    assert joint.scheme == "stacked"
    # a matrix is its level by its place, coarse to fine, so one out of
    # place has the wrong node count for the level it stands in
    with pytest.raises(RowCountMismatch, match=r"level 1 sample has shape \(2, 2\)"):
        assemble([z2, z1], h, "stacked")


def test_stack_single_level():
    h = build_hierarchy([1])
    z = [[1.0, 2.0, 3.0]]
    np.testing.assert_array_equal(assemble([z], h, "stacked").matrix, z)


def test_stack_column_mismatch():
    h, z1, _ = _two_level()
    z2 = np.zeros((2, 3))
    with pytest.raises(ColumnMismatch):
        assemble([z1, z2], h, "stacked")


def test_stack_missing_and_duplicate_levels():
    h, z1, z2 = _two_level()
    with pytest.raises(MissingLevel):
        assemble([z1], h, "stacked")
    with pytest.raises(MissingLevel):
        assemble([z1, z1, z2], h, "stacked")


def test_stack_row_count_mismatch():
    h, z1, _ = _two_level()
    bad = np.zeros((3, 2))
    with pytest.raises(RowCountMismatch, match=r"level 2 sample has shape \(3, 2\), expected 2 rows"):
        assemble([z1, bad], h, "stacked")


def test_level_sample_validation():
    h = build_hierarchy([1])
    with pytest.raises(SamplingError, match="level 1 sample needs at least 2 paths, got 1"):
        assemble([[[1.0]]], h, "stacked")
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(SamplingError, match="level 1 sample has non-finite entries"):
            assemble([[[1.0, bad, 2.0]]], h, "stacked")


def test_a_non_finite_level_names_its_origin(small_hierarchy):
    # the check runs at assembly, so its message names the origin it read
    h = small_hierarchy
    first, second = _make_origins(h, np.random.default_rng(5), n_origins=2, n_paths=4)
    levels = [*second.levels[:-1], np.where(second.levels[-1] > 0, np.inf, 0.0)]
    broken = OriginData(levels=levels, actual=second.actual, origin=second.origin)
    for scheme in SCHEMES:
        with pytest.raises(
            SamplingError, match=f"^origin {second.origin}: level 3 sample has non-finite entries$"
        ):
            assemble_origins([first, broken], h, scheme, seed=1)


def test_rank_sorts_rows():
    h = build_hierarchy([2, 1])
    levels = _levels(h, [[3, 1, 2], [0.5, 0.2, 0.9], [2, 2, 1]])
    ranked = assemble(levels, h, "ranked")
    np.testing.assert_array_equal(ranked.matrix, [[1, 2, 3], [0.2, 0.5, 0.9], [1, 2, 2]])
    assert ranked.scheme == "ranked"


def test_rank_idempotent_on_sorted():
    h = build_hierarchy([2, 1])
    matrix = [[1, 2, 3], [1, 1, 2], [0, 0, 0]]
    np.testing.assert_array_equal(assemble(_levels(h, matrix), h, "ranked").matrix, matrix)


def test_permute_deterministic():
    h = build_hierarchy([2, 1])
    levels = _levels(h, np.arange(12.0).reshape(3, 4))
    first = assemble(levels, h, "permuted", seed=99)
    second = assemble(levels, h, "permuted", seed=99)
    np.testing.assert_array_equal(first.matrix, second.matrix)
    assert first.scheme == "permuted"
    other = assemble(levels, h, "permuted", seed=100)
    assert not np.array_equal(first.matrix, other.matrix)


def test_permute_constant_row():
    h = build_hierarchy([1])
    const = _levels(h, [[2.0, 2.0, 2.0]])
    np.testing.assert_array_equal(assemble(const, h, "permuted", seed=3).matrix, [[2.0, 2.0, 2.0]])


def test_permute_requires_seed():
    h = build_hierarchy([1])
    with pytest.raises(SamplingError, match="permuted scheme requires a seed"):
        assemble(_levels(h, [[1.0, 2.0]]), h, "permuted")


def test_row_multisets_preserved():
    rng = np.random.default_rng(21)
    for _ in range(10):
        h = random_hierarchy(rng)
        matrix = rng.normal(size=(h.M, 17))
        levels = _levels(h, matrix)
        for out in (assemble(levels, h, "ranked"), assemble(levels, h, "permuted", seed=4)):
            np.testing.assert_array_equal(
                np.sort(out.matrix, axis=1), np.sort(matrix, axis=1)
            )


def test_schemes_share_marginals():
    # per-row empirical CDFs coincide across all three schemes
    rng = np.random.default_rng(33)
    h = random_hierarchy(rng)
    levels = [rng.normal(size=(h.nodes_at(lev), 9)) for lev in range(1, h.L + 1)]
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
    once = assemble(_levels(h, rng.normal(size=(h.M, 11))), h, "ranked")
    np.testing.assert_array_equal(once.matrix, np.sort(once.matrix, axis=1))
    np.testing.assert_array_equal(assemble(_levels(h, once.matrix), h, "ranked").matrix, once.matrix)


def test_assemble_rejects_unknown_scheme(small_hierarchy):
    h = small_hierarchy
    levels = [np.zeros((h.nodes_at(lev), 3)) for lev in (1, 2, 3)]
    with pytest.raises(SamplingError, match="unknown scheme 'bogus'"):
        assemble(levels, h, "bogus")


def test_sample_shapes_rejected():
    h, _, _ = _two_level()
    with pytest.raises(RowCountMismatch, match=r"level 1 sample has shape \(3,\)"):
        assemble([[1.0, 2.0, 3.0], np.zeros((2, 3))], h, "stacked")
    with pytest.raises(SamplingError, match="joint sample has 2 rows, hierarchy has 3 nodes"):
        JointSample(matrix=np.zeros((2, 4)), scheme="stacked", hierarchy=h)


def test_assemble_origins_slots_equal_assemble(daily_hierarchy):
    # the two entry points share one path: for the schemes that draw no
    # randomness, each tensor slot is that origin's own sample bit for bit
    h = daily_hierarchy
    origins = _make_origins(h, np.random.default_rng(61), n_origins=3, n_paths=9)
    for scheme in ("stacked", "ranked"):
        tensor, actuals = assemble_origins(origins, h, scheme)
        for t, origin in enumerate(origins):
            np.testing.assert_array_equal(tensor[t], assemble(origin.levels, h, scheme).matrix)
            np.testing.assert_array_equal(actuals[t], origin.actual)


def test_assemble_origins_couples_in_its_tensor(daily_hierarchy):
    # each origin is written and coupled in its own slot of the returned
    # tensor, so no scheme holds an origin-sized copy on the side
    h = daily_hierarchy
    n_paths = 200
    origins = _make_origins(h, np.random.default_rng(67), n_origins=5, n_paths=n_paths)
    sample_bytes = h.M * n_paths * 8
    for scheme in SCHEMES:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tensor, actuals = assemble_origins(origins, h, scheme, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        extra = (peak - base - tensor.nbytes - actuals.nbytes) / sample_bytes
        assert extra < 0.5, (scheme, extra)


class _CountedOrigins(Sequence):
    """Prebuilt origins that count how often each one is read."""

    def __init__(self, origins):
        self.origins, self.reads = origins, [0] * len(origins)

    def __len__(self):
        return len(self.origins)

    def __getitem__(self, index):
        origin = self.origins[index]  # IndexError ends a default iteration
        self.reads[index] += 1
        return origin


def test_assemble_origins_reads_each_origin_once(daily_hierarchy):
    # a split that draws its origins on access draws each one once per
    # assembly, straight into its tensor slot
    h = daily_hierarchy
    origins = _make_origins(h, np.random.default_rng(71), n_origins=4, n_paths=7)
    for scheme in SCHEMES:
        counted = _CountedOrigins(origins)
        tensor, actuals = assemble_origins(counted, h, scheme, seed=2)
        assert counted.reads == [1] * len(origins), scheme
        expected, expected_actuals = assemble_origins(origins, h, scheme, seed=2)
        np.testing.assert_array_equal(tensor, expected)
        np.testing.assert_array_equal(actuals, expected_actuals)


# each record that stores an array, built on a caller's (3, 4) array, and
# how to read the stored array back
ARRAY_RECORDS = {
    "OriginData.levels": (
        lambda a: OriginData(levels=[a], actual=np.zeros(3)), lambda r: r.levels[0],
    ),
    "JointSample": (
        lambda a: JointSample(matrix=a, scheme="stacked", hierarchy=build_hierarchy([2, 1])),
        lambda r: r.matrix,
    ),
    "OriginData": (lambda a: OriginData(levels=(), actual=a), lambda r: r.actual),
    "LevelForecaster": (
        lambda a: LevelForecaster(level=1, phi=0.5, intercept=0.0, residuals=a),
        lambda r: r.residuals,
    ),
    "CvResult": (
        lambda a: CvResult(v=a, objective=0.0, iterations=0),
        lambda r: r.v,
    ),
}


@pytest.mark.parametrize("name", ARRAY_RECORDS)
def test_records_freeze_a_view_and_leave_the_callers_array_writable(name):
    make, stored_in = ARRAY_RECORDS[name]
    a = np.zeros((3, 4))
    stored = stored_in(make(a))
    assert not stored.flags.writeable
    assert a.flags.writeable and np.shares_memory(stored, a)  # a view, not a copy
    a[0, 0] = 1.0
    with pytest.raises(ValueError):
        stored[0, 0] = 2.0


# the records above and the dataset, each built on a caller's array
RECORD_MAKERS = {
    **{name: make for name, (make, _) in ARRAY_RECORDS.items()},
    "Dataset": lambda a: Dataset(bottom=a, forecasters=(), val_range=range(1),
                                 test_range=range(1), make_origin=lambda cycle: None),
}


@pytest.mark.parametrize("name", RECORD_MAKERS)
def test_records_compare_and_hash_by_identity(name):
    make = RECORD_MAKERS[name]
    first, second = make(np.zeros((3, 4))), make(np.zeros((3, 4)))
    assert first == first and first != second
    assert len({first, second, first}) == 2
