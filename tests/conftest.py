import numpy as np
import pytest

from temporec.hierarchy import HierarchySpec, build_hierarchy
from temporec.reconcile import WeightMatrix


def random_hierarchy(rng: np.random.Generator, max_cycle: int = 24) -> HierarchySpec:
    """Random valid frequency vector: a decreasing chain of divisors of f1."""
    f1 = int(rng.integers(1, max_cycle + 1))
    divisors = [d for d in range(1, f1 + 1) if f1 % d == 0]
    keep = [d for d in divisors if d in (1, f1) or rng.random() < 0.5]
    return build_hierarchy(sorted(keep, reverse=True))


def oracle_summing_matrix(h: HierarchySpec) -> np.ndarray:
    """Independent construction: place each node's window entry by entry."""
    out = np.zeros((h.M, h.m))
    row = 0
    for fl in h.f:
        for j in range(h.m // fl):
            for k in range(fl):
                out[row, j * fl + k] = 1.0 / fl
            row += 1
    return out


def dense_map(P: WeightMatrix) -> np.ndarray:
    """The dense m x M matrix of a map: the bottom rows of ``P.apply(I_M)``."""
    h = P.hierarchy
    return P.apply(np.eye(h.M))[h.levels[-1][1]]


@pytest.fixture
def small_hierarchy() -> HierarchySpec:
    """The three-level example hierarchy used throughout the fixtures."""
    return build_hierarchy([4, 2, 1])


@pytest.fixture
def daily_hierarchy() -> HierarchySpec:
    """The eight-level overlapping daily/hourly hierarchy."""
    return build_hierarchy([24, 12, 8, 6, 4, 3, 2, 1])
