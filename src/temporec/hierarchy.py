"""Temporal hierarchy structure and the summing matrix.

A hierarchy is described by a frequency vector ``f = (f_1, ..., f_L)`` giving
the number of bottom periods covered by one node at each level, ordered
coarse to fine. ``f_1`` is the cycle length (e.g. 24 for a daily cycle of
hourly data) and ``f_L`` must be 1. Levels need not nest into a tree: an
entry is valid whenever it divides the cycle length, so overlapping designs
such as (24, 12, 8, 6, 4, 3, 2, 1) are supported. Each level aggregates the
bottom level directly.

Node enumeration is fixed once and shared by every matrix in the package:
levels top to bottom, nodes left to right within a level.
``HierarchySpec.levels`` holds that layout, each level's window f_l and its
row slice, once per hierarchy; level l's rows of any M-row matrix are
``levels[l - 1][1]``.

Every node value inside the package is in common (bottom-level) units: a
level-l node holds the mean of the f_l bottom periods it covers, which is
what ``aggregate`` computes. A level's native value (the window sum) is the
common-unit value times f_l; ``HierarchySpec.node_windows`` holds that factor
and is applied only when reports are scored.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, MissingBottom, NonDivisor, NotDecreasing

__all__ = [
    "HierarchySpec",
    "SummingMatrix",
    "build_hierarchy",
    "build_summing_matrix",
    "aggregate",
]


@dataclass(frozen=True)
class HierarchySpec:
    """Validated frequency vector plus derived node counts.

    Attributes:
        f: sampling intervals per level, strictly decreasing, ending at 1.
        L: number of levels.
        M: total number of nodes, sum over levels of f_1/f_l.
        m: number of bottom-level nodes, equal to the cycle length f_1.
        levels: the level layout, coarse to fine: one ``(f_l, rows)`` pair
            per level, ``rows`` the slice of the level's nodes in node
            order. Every per-level loop in the package iterates it.
        node_windows: f_l of each node's level in enumeration order (length
            M, read-only): the per-node factor from common to native units.
    """

    f: tuple[int, ...]

    @property
    def L(self) -> int:
        return len(self.f)

    @property
    def M(self) -> int:
        return self.levels[-1][1].stop

    @property
    def m(self) -> int:
        return self.f[0]

    @property
    def cycle_length(self) -> int:
        return self.f[0]

    @cached_property
    def levels(self) -> tuple[tuple[int, slice], ...]:
        layout, start = [], 0
        for fl in self.f:
            layout.append((fl, slice(start, start + self.f[0] // fl)))
            start += self.f[0] // fl
        return tuple(layout)

    @cached_property
    def node_windows(self) -> np.ndarray:
        windows = np.repeat(np.array(self.f, dtype=float), [self.f[0] // fl for fl in self.f])
        windows.setflags(write=False)
        return windows

    def nodes_at(self, level: int) -> int:
        """Number of nodes at a level (1-based)."""
        if not 1 <= level <= self.L:
            raise IndexError(f"level {level} out of range 1..{self.L}")
        return self.f[0] // self.f[level - 1]


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
    for fl, rows in h.levels:
        windows = values.reshape(batch + (h.m // fl, fl, n))
        np.mean(windows, axis=-2, out=out[..., rows, :])
    return out
