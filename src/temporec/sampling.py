"""Assembly of the joint sample matrix from per-level sample paths.

Each level contributes an (f_1/f_l) x N matrix of simulated paths in common
units. Three schemes turn those blocks into one M x N joint sample:

* ``stacked``  - plain vertical concatenation; keeps the dependence within
  each level, treats levels as independent.
* ``ranked``   - rows of the stacked matrix sorted ascending; column i then
  holds the (i/N)-quantile of every node, a comonotonic coupling.
* ``permuted`` - rows of the stacked matrix shuffled independently, which
  destroys all cross-row dependence.

Sorting and shuffling act within rows only, so the marginal (per node)
distribution of every scheme is identical; only the coupling differs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ColumnMismatch, MissingLevel, RowCountMismatch, SamplingError
from .hierarchy import HierarchySpec

__all__ = [
    "SCHEMES",
    "LevelSample",
    "JointSample",
    "OriginData",
    "stack",
    "rank",
    "permute",
    "assemble",
]

SCHEMES = ("stacked", "ranked", "permuted")


@dataclass(frozen=True)
class LevelSample:
    """Sample paths for one hierarchy level at one forecast origin.

    ``matrix`` has one row per node of the level (f_1/f_l rows) and one
    column per sample path, in common (bottom-level) units.
    """

    level: int
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        if mat.ndim != 2:
            raise SamplingError(f"level {self.level} sample must be 2-D")
        if mat.shape[1] < 2:
            raise SamplingError(
                f"level {self.level} sample needs at least 2 paths, got {mat.shape[1]}"
            )
        if not np.isfinite(mat).all():
            raise SamplingError(f"level {self.level} sample has non-finite entries")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def n_paths(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class JointSample:
    """M x N joint sample over all nodes, tagged with its assembly scheme."""

    matrix: np.ndarray
    scheme: str
    hierarchy: HierarchySpec

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        if mat.shape[0] != self.hierarchy.M:
            raise SamplingError(
                f"joint sample has {mat.shape[0]} rows, hierarchy has "
                f"{self.hierarchy.M} nodes"
            )
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


@dataclass(frozen=True)
class OriginData:
    """Everything one forecast origin contributes to evaluation: the
    per-level base samples and the realized node values in common units.
    ``origin`` labels it (its cycle index); the permuted scheme keys the
    row permutations on it, so origins assembled together need distinct
    labels."""

    levels: tuple[LevelSample, ...]
    actual: np.ndarray
    origin: int = 0

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        actual = np.asarray(self.actual, dtype=float)
        actual.setflags(write=False)
        object.__setattr__(self, "actual", actual)


def stack(levels: Sequence[LevelSample], h: HierarchySpec) -> JointSample:
    """Concatenate per-level sample matrices into the stacked joint sample.

    Args:
        levels: exactly one ``LevelSample`` per hierarchy level, any order.
        h: hierarchy the samples belong to.

    Raises:
        MissingLevel: a level is absent or duplicated.
        ColumnMismatch: levels disagree on the number of paths.
        RowCountMismatch: a matrix has the wrong number of rows for its level.
    """
    by_level = {}
    for ls in levels:
        if ls.level in by_level:
            raise MissingLevel(f"duplicate sample for level {ls.level}")
        by_level[ls.level] = ls
    expected = set(range(1, h.L + 1))
    if set(by_level) != expected:
        missing = sorted(expected - set(by_level))
        extra = sorted(set(by_level) - expected)
        raise MissingLevel(f"missing levels {missing}, unexpected levels {extra}")

    ordered = [by_level[lev] for lev in range(1, h.L + 1)]
    n_paths = {ls.n_paths for ls in ordered}
    if len(n_paths) != 1:
        raise ColumnMismatch(f"levels have differing path counts {sorted(n_paths)}")
    for ls in ordered:
        want = h.nodes_at(ls.level)
        if ls.matrix.shape[0] != want:
            raise RowCountMismatch(
                f"level {ls.level} has {ls.matrix.shape[0]} rows, expected {want}"
            )
    return JointSample(
        matrix=np.vstack([ls.matrix for ls in ordered]), scheme="stacked", hierarchy=h
    )


def rank(stacked: JointSample) -> JointSample:
    """Sort each row of a stacked sample ascending (comonotonic coupling)."""
    _require_stacked(stacked, "rank")
    return JointSample(
        matrix=np.sort(stacked.matrix, axis=1),
        scheme="ranked",
        hierarchy=stacked.hierarchy,
    )


def permute(stacked: JointSample, seed: int) -> JointSample:
    """Shuffle each row of a stacked sample independently.

    One Philox 4x64 counter-based generator keyed by ``seed`` shuffles every
    row, so the result is reproducible across platforms.
    """
    _require_stacked(stacked, "permute")
    if seed is None:
        raise SamplingError("permute requires a seed")
    gen = np.random.Generator(np.random.Philox(key=seed % 2**64))
    return JointSample(
        matrix=gen.permuted(stacked.matrix, axis=1),
        scheme="permuted",
        hierarchy=stacked.hierarchy,
    )


def assemble(
    levels: Sequence[LevelSample],
    h: HierarchySpec,
    scheme: str,
    seed: int | None = None,
) -> JointSample:
    """Stack per-level samples and apply the requested scheme."""
    joint = stack(levels, h)
    if scheme == "stacked":
        return joint
    if scheme == "ranked":
        return rank(joint)
    if scheme == "permuted":
        return permute(joint, seed=seed)
    raise SamplingError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")


def _require_stacked(sample: JointSample, op: str) -> None:
    if sample.scheme != "stacked":
        raise SamplingError(f"{op} expects a stacked sample, got {sample.scheme!r}")
