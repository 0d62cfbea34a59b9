"""Temporal hierarchy structure and the summing matrix.

A hierarchy is described by a frequency vector ``f = (f_1, ..., f_L)`` giving
the number of bottom periods covered by one node at each level, ordered
coarse to fine. ``f_1`` is the cycle length (e.g. 24 for a daily cycle of
hourly data) and ``f_L`` must be 1. Levels need not nest into a tree: an
entry is valid whenever it divides the cycle length, so overlapping designs
such as (24, 12, 8, 6, 4, 3, 2, 1) are supported.

The levels themselves still form a tree: a non-bottom level's child is the
coarsest finer level whose window divides f_l, so every level reaches the
bottom along exactly one chain (in the daily example 24 -> 12 -> 6 -> 3 -> 1
and 8 -> 4 -> 2 -> 1). ``HierarchySpec.children`` holds that map, and
``_Walk`` walks it in place over one (..., M, N) buffer, through views
built once: ``fill_means`` fills each level with window means of its
child, fine to coarse, and ``lineage`` first adds each level's rows into
its child's windows, coarse to fine, so that every bottom row holds the
sum over the nodes that contain it. The coherence check does not follow
that map: ``_window_means`` derives its own divisors from the windows of
``levels``, sums each level, fine to coarse, from the coarsest level
already summed whose window divides its own, and divides once by the
windows at the end.

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
            order. The package's per-level loops iterate it; the walks'
            window arithmetic follows ``children``, the coherence check's
            is derived from ``levels`` alone.
        children: the child map, one ``(rows, child_rows, k)`` triple per
            non-bottom level, coarse to fine: the level's rows, the rows of
            its child (the coarsest finer level whose window divides f_l)
            and k = f_l / f_child, the child nodes per node.
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
    def children(self) -> tuple[tuple[slice, slice, int], ...]:
        tree = []
        for i, (fl, rows) in enumerate(self.levels[:-1]):
            fc, child = next((fc, child) for fc, child in self.levels[i + 1 :] if fl % fc == 0)
            tree.append((rows, child, fl // fc))
        return tuple(tree)

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
    values = tuple(f)
    if not all(float(v).is_integer() for v in values):
        raise NotDecreasing(f"frequencies must be integers, got {values}")
    freqs = tuple(int(v) for v in values)
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
    """The M x m aggregation-constraint matrix S of a hierarchy.

    Row k of S holds 1/f_l on each of the f_l bottom periods that node k
    covers, so every row sums to one and the bottom block is the identity:
    S @ bottom is the full vector of node values in common (bottom-level)
    units. ``aggregate`` applies S; the dense S is ``aggregate(np.eye(h.m), h)``.
    """

    hierarchy: HierarchySpec


def build_summing_matrix(h: HierarchySpec) -> SummingMatrix:
    """The summing matrix of a hierarchy, applied by ``aggregate``."""
    return SummingMatrix(hierarchy=h)


def aggregate(bottom: np.ndarray, h: HierarchySpec) -> np.ndarray:
    """Apply the summing matrix without building it: (..., m, N) -> (..., M, N).

    The bottom rows are copied in and ``fill_means`` fills every coarser
    level from its child, so the rows of level l are means over consecutive
    windows of f_l bottom rows, in common units: S @ bottom up to rounding,
    with the dense S never formed. Leading axes are batch axes, and an
    empty batch or a sample without columns gives an empty result.
    """
    values = np.asarray(bottom, dtype=float)
    if values.ndim < 2 or values.shape[-2] != h.m:
        raise DimensionMismatch(f"expected {h.m} bottom rows, got shape {values.shape}")
    out = np.empty(values.shape[:-2] + (h.M, values.shape[-1]))
    out[..., h.levels[-1][1], :] = values
    return _Walk(out, h).fill_means()


class _Walk:
    """The child-map walks over one (..., M, N) buffer, ``buf``, in place,
    through views of each non-bottom level and of its child in windows of k."""

    def __init__(self, buf: np.ndarray, h: HierarchySpec):
        self.buf = buf
        steps = []
        for rows, child, k in h.children:
            part = buf[..., child, :]
            windows = part.reshape(part.shape[:-2] + (part.shape[-2] // k, k, part.shape[-1]))
            steps.append((buf[..., rows, :], windows, k))
        self._down = tuple((windows, level[..., None, :]) for level, windows, _ in steps)
        self._up = tuple(reversed(steps))

    def fill_means(self) -> np.ndarray:
        """Overwrite each level with its child's window means, fine to coarse."""
        for level, windows, k in self._up:
            np.add.reduce(windows, axis=-2, out=level)
            level /= k
        return self.buf

    def lineage(self) -> np.ndarray:
        """S @ P_1 @ buf, the lineage map of unit weights: add each level's
        rows into its child's windows, coarse to fine, then ``fill_means``."""
        for windows, level in self._down:
            windows += level
        return self.fill_means()


def _window_means(bottom: np.ndarray, h: HierarchySpec) -> np.ndarray:
    """The upper M - m rows of S @ bottom for an (m, N) ``bottom``, as a new
    array: each level's window sums, fine to coarse, each summed from the
    coarsest level already summed whose window divides its own (the bottom
    rows first), then divided once by the windows f_l. The divisors come
    from ``levels`` alone and no level is averaged on the way, so that
    ``check_coherence`` stays independent of the walks it checks."""
    n = bottom.shape[1]
    out = np.empty((h.M - h.m, n))
    summed = [(1, bottom)]  # (window, window sums), fine to coarse
    for fl, rows in reversed(h.levels[:-1]):
        fc, sums = next((fc, sums) for fc, sums in reversed(summed) if fl % fc == 0)
        np.add.reduce(sums.reshape(h.m // fl, fl // fc, n), axis=1, out=out[rows])
        summed.append((fl, out[rows]))
    for fl, rows in h.levels[:-1]:  # by scalars: a broadcast divisor costs a 64 KB buffer
        out[rows] /= fl
    return out
