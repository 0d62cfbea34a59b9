"""Assembly of the joint sample matrix from per-level sample paths.

Each level contributes an (f_1/f_l) x N matrix of simulated paths in common
units, the levels coarse to fine as ``HierarchySpec.levels``; a matrix is
its level by its place in that order. Three schemes turn those blocks into
one M x N joint sample:

* ``stacked``  - plain vertical concatenation; keeps the dependence within
  each level, treats levels as independent.
* ``ranked``   - rows of the stacked matrix sorted ascending; column i then
  holds the (i/N)-quantile of every node, a comonotonic coupling.
* ``permuted`` - rows of the stacked matrix shuffled independently, which
  destroys all cross-row dependence.

Sorting and shuffling act within rows only, so the marginal (per node)
distribution of every scheme is identical; only the coupling differs.

``assemble`` builds one origin's sample, ``assemble_origins`` a (T, M, N)
tensor of them; both check the level matrices, the one place they are
checked, then write each level into its rows of the output and couple the
rows there, so no scheme copies a sample. ``assemble`` keys the
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
    "JointSample",
    "OriginData",
    "assemble",
    "assemble_origins",
]

SCHEMES = ("stacked", "ranked", "permuted")


def _read_only(a) -> np.ndarray:
    """A read-only float view of ``a``; the caller's array stays writable."""
    arr = np.asarray(a, dtype=float).view()
    arr.setflags(write=False)
    return arr


def _freeze(record, name: str) -> np.ndarray:
    """Store ``_read_only(record.name)`` in a frozen record's field and return it."""
    object.__setattr__(record, name, _read_only(getattr(record, name)))
    return getattr(record, name)


@dataclass(frozen=True, eq=False)
class JointSample:
    """M x N joint sample over all nodes, tagged with its assembly scheme."""

    matrix: np.ndarray
    scheme: str
    hierarchy: HierarchySpec

    def __post_init__(self):
        mat = _freeze(self, "matrix")
        if mat.shape[0] != self.hierarchy.M:
            raise SamplingError(
                f"joint sample has {mat.shape[0]} rows, hierarchy has "
                f"{self.hierarchy.M} nodes"
            )


@dataclass(frozen=True, eq=False)
class OriginData:
    """Everything one forecast origin contributes to evaluation: the base
    samples, one (f_1/f_l) x N matrix of paths per level, coarse to fine,
    and the realized node values, both in common units. Each is stored as
    a read-only view; assembly checks the matrices. ``origin`` labels the
    origin (its cycle index); the permuted scheme keys the row permutations
    on it, so origins assembled together need distinct labels."""

    levels: tuple[np.ndarray, ...]
    actual: np.ndarray
    origin: int = 0

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(map(_read_only, self.levels)))
        _freeze(self, "actual")


def assemble(
    levels: Sequence[np.ndarray],
    h: HierarchySpec,
    scheme: str,
    seed: int | None = None,
) -> JointSample:
    """One origin's joint sample: its level matrices, coarse to fine,
    stacked and coupled under ``scheme``. The permuted scheme needs a
    ``seed``, which keys its Philox generator as given.

    Raises:
        MissingLevel: not exactly one matrix per level.
        RowCountMismatch: a matrix is not 2-D with its level's node count
            as rows, which a level out of place is not.
        ColumnMismatch: levels disagree on the number of paths.
        SamplingError: fewer than 2 paths, a non-finite entry, an unknown
            scheme, or permuted without a seed.
    """
    levels = _checked(levels, h)
    out = np.empty((h.M, levels[0].shape[1]))
    _couple(out, levels, h, scheme, seed)
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
    Raises as ``assemble`` on a bad level set, with the origin's label in
    the message, or on a bad scheme.
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
        levels = _checked(origin.levels, h, f"origin {origin.origin}: ")
        shape = (h.M, levels[0].shape[1])
        if tensor is None:
            tensor = np.empty((len(origins),) + shape)
            actuals = np.empty((len(origins), h.M))
            first = origin.origin
        if shape != tensor.shape[1:]:
            raise AlignmentError(
                f"origin {origin.origin} has a joint sample of shape {shape}, "
                f"origin {first} one of shape {tensor.shape[1:]}"
            )
        _couple(tensor[t], levels, h, scheme, _origin_seed(seed, origin.origin))
        if origin.actual.shape != (h.M,):
            raise AlignmentError(
                f"origin {origin.origin} has actuals of shape {origin.actual.shape}, "
                f"expected {(h.M,)}"
            )
        actuals[t] = origin.actual
    return tensor, actuals


def _origin_seed(base: int, label: int) -> int:
    return int(np.random.SeedSequence([base % 2**64, label % 2**64]).generate_state(1)[0])


def _checked(levels: Sequence[np.ndarray], h: HierarchySpec, at: str = "") -> list[np.ndarray]:
    """Exactly one float matrix per level of ``h``, coarse to fine, each with
    its level's node count as rows and level 1's path count, at least 2, and
    every entry finite. ``at`` prefixes each message."""
    mats = [np.asarray(z, dtype=float) for z in levels]
    if len(mats) != h.L:
        raise MissingLevel(f"{at}expected {h.L} level samples, coarse to fine, got {len(mats)}")
    for lev, mat in enumerate(mats, start=1):
        if mat.ndim != 2 or mat.shape[0] != h.nodes_at(lev):
            raise RowCountMismatch(
                f"{at}level {lev} sample has shape {mat.shape}, expected "
                f"{h.nodes_at(lev)} rows by one column per path"
            )
        if mat.shape[1] != mats[0].shape[1]:
            raise ColumnMismatch(
                f"{at}level {lev} sample has {mat.shape[1]} paths, level 1 has {mats[0].shape[1]}"
            )
        if mat.shape[1] < 2:
            raise SamplingError(f"{at}level {lev} sample needs at least 2 paths, got {mat.shape[1]}")
        # min and max carry any NaN or infinity, without a temporary the size of the matrix
        if not (np.isfinite(mat.min()) and np.isfinite(mat.max())):
            raise SamplingError(f"{at}level {lev} sample has non-finite entries")
    return mats


def _couple(out, levels: list[np.ndarray], h: HierarchySpec, scheme: str, seed) -> None:
    """Write each level's matrix into its rows of the (M, N) ``out`` and
    couple the rows there: sorted for ranked, shuffled by one Philox 4x64
    counter-based generator keyed by ``seed`` for permuted, so the result is
    reproducible across platforms."""
    if scheme not in SCHEMES:
        raise SamplingError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")
    if scheme == "permuted" and seed is None:
        raise SamplingError("the permuted scheme requires a seed")
    for mat, (_, rows) in zip(levels, h.levels):
        out[rows] = mat
    if scheme == "ranked":
        out.sort(axis=-1)
    elif scheme == "permuted":
        np.random.Generator(np.random.Philox(key=seed % 2**64)).permuted(out, axis=-1, out=out)
