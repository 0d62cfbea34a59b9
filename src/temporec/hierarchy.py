"""Temporal hierarchy structure, summing matrix, and unit conversions.

A hierarchy is described by a frequency vector ``f = (f_1, ..., f_L)`` giving
the number of bottom periods covered by one node at each level, ordered
coarse to fine. ``f_1`` is the cycle length (e.g. 24 for a daily cycle of
hourly data) and ``f_L`` must be 1. Levels need not nest into a tree: an
entry is valid whenever it divides the cycle length, so overlapping designs
such as (24, 12, 8, 6, 4, 3, 2, 1) are supported. Each level aggregates the
bottom level directly.

Node enumeration is fixed once and shared by every matrix in the package:
levels top to bottom, nodes left to right within a level.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, MissingBottom, NonDivisor, NotDecreasing, PartialCycle

__all__ = [
    "HierarchySpec",
    "NodeId",
    "SummingMatrix",
    "build_hierarchy",
    "build_summing_matrix",
    "aggregate",
    "aggregate_to_level",
    "to_common_units",
    "from_common_units",
]


@dataclass(frozen=True)
class NodeId:
    """Identifies one node both by (level, position) and by flat index.

    ``level`` runs 1..L coarse to fine, ``position`` runs 1..(f_1/f_l) left
    to right within the level, and ``flat`` runs 1..M over the whole
    hierarchy in enumeration order.
    """

    level: int
    position: int
    flat: int


@dataclass(frozen=True)
class HierarchySpec:
    """Validated frequency vector plus derived node counts.

    Attributes:
        f: sampling intervals per level, strictly decreasing, ending at 1.
        L: number of levels.
        M: total number of nodes, sum over levels of f_1/f_l.
        m: number of bottom-level nodes, equal to the cycle length f_1.
        node_windows: f_l of each node's level in enumeration order (length
            M, read-only): the per-node factor from common to native units.
    """

    f: tuple[int, ...]

    @property
    def L(self) -> int:
        return len(self.f)

    @property
    def M(self) -> int:
        return sum(self.f[0] // fl for fl in self.f)

    @property
    def m(self) -> int:
        return self.f[0]

    @property
    def cycle_length(self) -> int:
        return self.f[0]

    @cached_property
    def node_windows(self) -> np.ndarray:
        windows = np.repeat(np.array(self.f, dtype=float), [self.f[0] // fl for fl in self.f])
        windows.setflags(write=False)
        return windows

    def nodes_at(self, level: int) -> int:
        """Number of nodes at a level (1-based)."""
        self._check_level(level)
        return self.f[0] // self.f[level - 1]

    def level_offset(self, level: int) -> int:
        """Flat index (0-based) of the first node of a level."""
        self._check_level(level)
        return sum(self.f[0] // fl for fl in self.f[: level - 1])

    def level_slice(self, level: int) -> slice:
        """Row slice covering a level in any M-row matrix."""
        start = self.level_offset(level)
        return slice(start, start + self.nodes_at(level))

    def flat_index(self, level: int, position: int) -> int:
        """1-based flat index of node ``position`` at ``level``."""
        if not 1 <= position <= self.nodes_at(level):
            raise IndexError(f"position {position} out of range at level {level}")
        return self.level_offset(level) + position

    def node_id(self, flat: int) -> NodeId:
        """Invert the flat enumeration back to (level, position)."""
        if not 1 <= flat <= self.M:
            raise IndexError(f"flat index {flat} out of range 1..{self.M}")
        rest = flat - 1
        for level, fl in enumerate(self.f, start=1):
            count = self.f[0] // fl
            if rest < count:
                return NodeId(level=level, position=rest + 1, flat=flat)
            rest -= count
        raise AssertionError("unreachable")

    def ancestor_position(self, level: int, bottom: int) -> int:
        """Position of the level-``level`` node whose window contains bottom
        node ``bottom`` (both 1-based)."""
        if not 1 <= bottom <= self.m:
            raise IndexError(f"bottom node {bottom} out of range 1..{self.m}")
        return (bottom - 1) // self.f[level - 1] + 1

    def _check_level(self, level: int) -> None:
        if not 1 <= level <= self.L:
            raise IndexError(f"level {level} out of range 1..{self.L}")


def build_hierarchy(f: Sequence[int]) -> HierarchySpec:
    """Validate a frequency vector and return the hierarchy spec.

    Args:
        f: sampling intervals coarse to fine, e.g. ``[4, 2, 1]`` or
            ``[24, 12, 8, 6, 4, 3, 2, 1]``.

    Raises:
        NotDecreasing: entries are not strictly decreasing positive integers.
        NonDivisor: an entry does not divide the cycle length ``f[0]``.
        MissingBottom: the last entry is not 1.
    """
    freqs = tuple(int(v) for v in f)
    if not freqs:
        raise NotDecreasing("frequency vector must be nonempty")
    if any(v <= 0 for v in freqs):
        raise NotDecreasing(f"frequencies must be positive, got {freqs}")
    if any(a <= b for a, b in zip(freqs, freqs[1:])):
        raise NotDecreasing(f"frequencies must be strictly decreasing, got {freqs}")
    bad = [v for v in freqs if freqs[0] % v != 0]
    if bad:
        raise NonDivisor(f"{bad} do not divide the cycle length {freqs[0]}")
    if freqs[-1] != 1:
        raise MissingBottom(f"finest interval must be 1, got {freqs[-1]}")
    return HierarchySpec(f=freqs)


@dataclass(frozen=True)
class SummingMatrix:
    """The M x m aggregation-constraint matrix.

    The block for level l is (1/f_l) * (I kron row-of-f_l-ones): each row
    holds the scaled window of bottom periods the node covers, so every row
    sums to one and the bottom block is the identity. Multiplying a
    bottom-level vector by this matrix yields the full vector of node values
    in common (bottom-level) units.
    """

    entries: np.ndarray
    hierarchy: HierarchySpec

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape


def build_summing_matrix(h: HierarchySpec) -> SummingMatrix:
    """Build the summing matrix for a hierarchy."""
    blocks = [
        np.kron(np.eye(h.m // fl), np.full(fl, 1.0 / fl))
        for fl in h.f
    ]
    entries = np.vstack(blocks)
    entries.setflags(write=False)
    return SummingMatrix(entries=entries, hierarchy=h)


def aggregate(bottom: np.ndarray, h: HierarchySpec) -> np.ndarray:
    """Apply the summing matrix without building it: (..., m, N) -> (..., M, N).

    The rows of level l are means over consecutive windows of f_l bottom
    rows, so the result equals ``build_summing_matrix(h).entries @ bottom``
    up to rounding, in common units. Leading axes are batch axes.
    """
    values = np.asarray(bottom, dtype=float)
    if values.ndim < 2 or values.shape[-2] != h.m:
        raise DimensionMismatch(f"expected {h.m} bottom rows, got shape {values.shape}")
    batch, n = values.shape[:-2], values.shape[-1]
    out = np.empty(batch + (h.M, n))
    for level, fl in enumerate(h.f, start=1):
        windows = values.reshape(batch + (h.m // fl, fl, n))
        np.mean(windows, axis=-2, out=out[..., h.level_slice(level), :])
    return out


def aggregate_to_level(bottom: np.ndarray, h: HierarchySpec, level: int) -> np.ndarray:
    """Sum a bottom-level series over consecutive windows of one level.

    Values stay in native units: the level-1 aggregate of a daily cycle of
    hourly energy is the total energy for the day.

    Raises:
        PartialCycle: series length is not a whole number of cycles.
    """
    h._check_level(level)
    values = np.asarray(bottom, dtype=float)
    if values.ndim != 1:
        raise PartialCycle("bottom series must be one-dimensional")
    if values.size % h.cycle_length != 0:
        raise PartialCycle(
            f"series length {values.size} is not a multiple of the cycle "
            f"length {h.cycle_length}"
        )
    fl = h.f[level - 1]
    return values.reshape(-1, fl).sum(axis=1)


def to_common_units(values: np.ndarray, h: HierarchySpec, level: int) -> np.ndarray:
    """Rescale native level values to bottom-level units (divide by f_l)."""
    h._check_level(level)
    return np.asarray(values, dtype=float) / h.f[level - 1]


def from_common_units(values: np.ndarray, h: HierarchySpec, level: int) -> np.ndarray:
    """Rescale bottom-level units back to a level's native units."""
    h._check_level(level)
    return np.asarray(values, dtype=float) * h.f[level - 1]
