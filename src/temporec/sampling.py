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

``assemble`` builds one origin's sample, ``assemble_origins`` a (T, M, N)
tensor of them; both write each level into its rows of the output and
couple the rows there, so no scheme copies a sample. ``assemble`` keys the
permuted scheme with ``seed``, ``assemble_origins`` each origin with
``SeedSequence([seed, label])``, so the two shuffle differently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AlignmentError, ColumnMismatch, MissingLevel, RowCountMismatch, SamplingError
from .hierarchy import HierarchySpec

__all__ = [
    "SCHEMES",
    "LevelSample",
    "JointSample",
    "OriginData",
    "assemble",
    "assemble_origins",
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


def assemble(
    levels: Sequence[LevelSample],
    h: HierarchySpec,
    scheme: str,
    seed: int | None = None,
) -> JointSample:
    """One origin's joint sample: its level matrices stacked and coupled
    under ``scheme``. The permuted scheme needs a ``seed``, which keys its
    Philox generator as given.

    Raises:
        MissingLevel: a level is absent or duplicated.
        ColumnMismatch: levels disagree on the number of paths.
        RowCountMismatch: a matrix has the wrong number of rows for its level.
        SamplingError: the scheme is unknown, or permuted without a seed.
    """
    ordered = _in_level_order(levels, h)
    out = np.empty((h.M, ordered[0].n_paths))
    _couple(out, ordered, h, scheme, seed)
    return JointSample(matrix=out, scheme=scheme, hierarchy=h)


def assemble_origins(
    origins: Sequence[OriginData],
    h: HierarchySpec,
    scheme: str,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Assemble every origin's joint sample under one scheme.

    Returns the (T, M, N) tensor of joint samples, each coupled in its own
    slot, and the (T, M) matrix of common-unit actuals. Each origin is read
    once, so a sequence that draws its origins on access draws each
    straight into its slot. For the permuted scheme each origin shuffles
    under its own key, ``SeedSequence([seed, origin.origin])``, so its rows
    depend neither on its position in the list nor on other origins, and
    validation and test origins (different cycles) never share a
    permutation; a label that repeats raises ``AlignmentError``, and so do
    origins whose path counts differ or whose actuals are not M-vectors.
    Raises as ``assemble`` on a bad level set or scheme.
    """
    if not origins:
        raise AlignmentError("no forecast origins supplied")
    tensor = actuals = first = None
    labels = set()
    for t, origin in enumerate(origins):
        if scheme == "permuted":
            if origin.origin in labels:
                raise AlignmentError(
                    f"origin label {origin.origin} appears more than once; the permuted "
                    "scheme needs a distinct label per origin"
                )
            labels.add(origin.origin)
        ordered = _in_level_order(origin.levels, h)
        shape = (h.M, ordered[0].n_paths)
        if tensor is None:
            tensor = np.empty((len(origins),) + shape)
            actuals = np.empty((len(origins), h.M))
            first = origin.origin
        if shape != tensor.shape[1:]:
            raise AlignmentError(
                f"origin {origin.origin} has a joint sample of shape {shape}, "
                f"origin {first} one of shape {tensor.shape[1:]}"
            )
        _couple(tensor[t], ordered, h, scheme, _origin_seed(seed, origin.origin))
        if origin.actual.shape != (h.M,):
            raise AlignmentError(
                f"origin {origin.origin} has actuals of shape {origin.actual.shape}, "
                f"expected {(h.M,)}"
            )
        actuals[t] = origin.actual
    return tensor, actuals


def _origin_seed(base: int, label: int) -> int:
    return int(np.random.SeedSequence([base % 2**64, label % 2**64]).generate_state(1)[0])


def _in_level_order(levels: Sequence[LevelSample], h: HierarchySpec) -> list[LevelSample]:
    """Exactly one sample per level of ``h``, levels 1..L, checked to share
    one path count and to have each level's node count as rows."""
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
    return ordered


def _couple(out, ordered: list[LevelSample], h: HierarchySpec, scheme: str, seed) -> None:
    """Write each level's matrix into its rows of the (M, N) ``out`` and
    couple the rows there: sorted for ranked, shuffled by one Philox 4x64
    counter-based generator keyed by ``seed`` for permuted, so the result is
    reproducible across platforms."""
    if scheme not in SCHEMES:
        raise SamplingError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")
    if scheme == "permuted" and seed is None:
        raise SamplingError("the permuted scheme requires a seed")
    for ls, (_, rows) in zip(ordered, h.levels):
        out[rows] = ls.matrix
    if scheme == "ranked":
        out.sort(axis=-1)
    elif scheme == "permuted":
        np.random.Generator(np.random.Philox(key=seed % 2**64)).permuted(out, axis=-1, out=out)
