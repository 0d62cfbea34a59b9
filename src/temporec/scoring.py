"""Sample-based scoring: CRPS, median point forecasts, level-wise tables.

The continuous ranked probability score of an ensemble {x_1..x_N} against a
realization z is estimated in energy form,

    (1/N) sum_i |x_i - z|  -  (1/(2N^2)) sum_i sum_j |x_i - x_j|,

computed in O(N log N) by sorting (the double sum of a sorted vector
telescopes into a weighted single sum). Scores for a hierarchy are averaged
per node over forecast origins, then per level over nodes, then over levels;
that triple average is both the reported table layout and the objective the
cross-validated weights minimize. Evaluation tables report each node in its
level's native units, its common-unit score times the window f_l; the
cross-validation criterion stays in common units, where the realizations it
scores against live.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AlignmentError, EmptySample, ScoringError
from .hierarchy import HierarchySpec
from .reconcile import WeightMatrix, reconcile_tensor, weights_from_levels
from .sampling import OriginData, assemble

__all__ = [
    "ScoreTable",
    "crps_sample",
    "median_point",
    "score_hierarchy",
    "assemble_origins",
    "cv_criterion",
    "cv_objective",
]


@dataclass(frozen=True)
class ScoreTable:
    """Per-level mean scores (coarse to fine) and their overall mean.

    ``origin_scores[t][l]`` is the level-l mean score of origin t alone, the
    value ``score_hierarchy`` returns for that origin on its own.
    """

    level_scores: tuple[float, ...]
    overall: float
    metric: str
    origin_scores: tuple[tuple[float, ...], ...]


def crps_sample(sample, z: float) -> float:
    """CRPS of one ensemble against one realization (energy form)."""
    x = np.asarray(sample, dtype=float).ravel()
    if x.size == 0:
        raise EmptySample("cannot score an empty sample")
    return float(_crps_rows(x[None, :], np.array([float(z)]))[0])


def median_point(sample) -> float:
    """Empirical median; for even sizes the mean of the central pair."""
    x = np.asarray(sample, dtype=float).ravel()
    if x.size == 0:
        raise EmptySample("cannot take the median of an empty sample")
    return float(np.median(x))


def _crps_rows(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Vectorized energy-form CRPS along the last axis.

    ``x`` has shape (..., N) and ``z`` shape (...,); returns shape (...,).
    """
    n = x.shape[-1]
    xs = np.sort(x, axis=-1)
    dev = x - z[..., None]
    term1 = np.abs(dev, out=dev).mean(axis=-1)
    weights = 2.0 * np.arange(n) - n + 1.0
    term2 = (xs * weights).sum(axis=-1) / (n * n)
    return term1 - term2


def _node_scores(
    tensor: np.ndarray,
    actuals: np.ndarray,
    h: HierarchySpec,
    metric: str,
    units: str,
) -> np.ndarray:
    """Per-origin node scores, shape (T, M).

    ``tensor`` holds one M x N sample per origin, shape (T, M, N);
    ``actuals`` the realized common-unit node values, shape (T, M). Both
    metrics are positively homogeneous, score(c x, c z) = c score(x, z), so
    native units are the common-unit scores times each node's window f_l.
    """
    if units not in ("native", "common"):
        raise ScoringError(f"units must be 'native' or 'common', got {units!r}")
    if metric == "crps":
        scores = _crps_rows(tensor, actuals)
    elif metric == "mae":
        scores = np.abs(np.median(tensor, axis=-1) - actuals)
    else:
        raise ScoringError(f"metric must be 'crps' or 'mae', got {metric!r}")
    return scores * h.node_windows if units == "native" else scores


def _level_means(node_scores: np.ndarray, h: HierarchySpec) -> np.ndarray:
    """Mean over the nodes of each level: (..., M) -> (..., L)."""
    return np.stack(
        [node_scores[..., h.level_slice(lev)].mean(axis=-1) for lev in range(1, h.L + 1)],
        axis=-1,
    )


def score_hierarchy(
    samples: Sequence,
    actuals: Sequence[np.ndarray],
    h: HierarchySpec,
    metric: str = "crps",
    units: str = "native",
) -> ScoreTable:
    """Score joint samples over forecast origins, level by level.

    Args:
        samples: one M x N sample per origin - reconciled or raw; anything
            with a ``matrix`` attribute or array-like - or a (T, M, N) array
            holding them all, which is scored without a copy.
        actuals: realized node values per origin, length-M vectors in
            common units.
        h: the hierarchy.
        metric: ``"crps"`` for the ensemble score, ``"mae"`` for the
            absolute error of the ensemble median.
        units: ``"native"`` reports each node in its level's own units,
            its score times the window f_l (the reporting convention);
            ``"common"`` scores the bottom-level-unit values directly.

    Raises:
        AlignmentError: origin counts or shapes do not line up.

    The returned table also carries every origin's own level scores, equal
    to scoring that origin alone.
    """
    if isinstance(samples, np.ndarray):
        mats = np.asarray(samples, dtype=float)  # a (T, M, N) stack, scored in place
    else:
        mats = [np.asarray(getattr(s, "matrix", s), dtype=float) for s in samples]
    acts = [np.asarray(a, dtype=float).ravel() for a in actuals]
    if len(mats) != len(acts):
        raise AlignmentError(f"{len(mats)} samples but {len(acts)} actual vectors")
    if not len(mats):
        raise AlignmentError("no forecast origins to score")
    for mat, act in zip(mats, acts):
        if mat.ndim != 2 or mat.shape[0] != h.M:
            raise AlignmentError(f"sample shape {mat.shape} does not have {h.M} rows")
        if act.shape != (h.M,):
            raise AlignmentError(f"actuals shape {act.shape} is not ({h.M},)")
    if len({mat.shape[1] for mat in mats}) != 1:
        raise AlignmentError("origins disagree on the number of sample paths")

    tensor = mats if isinstance(mats, np.ndarray) else np.stack(mats)
    metric = metric.lower()
    node_scores = _node_scores(tensor, np.stack(acts), h, metric, units)
    level_scores = tuple(float(s) for s in _level_means(node_scores.mean(axis=0), h))
    return ScoreTable(
        level_scores=level_scores,
        overall=float(np.mean(level_scores)),
        metric=metric.upper(),
        origin_scores=tuple(
            tuple(float(s) for s in row) for row in _level_means(node_scores, h)
        ),
    )


def assemble_origins(
    origins: Sequence[OriginData],
    h: HierarchySpec,
    scheme: str,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Assemble every origin's joint sample under one scheme.

    Returns the (T, M, N) tensor of joint samples and the (T, M) matrix of
    common-unit actuals. For the permuted scheme each origin shuffles under
    its own substream derived from (seed, ``origin.origin``), so its rows
    depend neither on its position in the list nor on other origins, and
    validation and test origins (different cycles) never share a
    permutation; a label that repeats raises ``AlignmentError``.
    """
    if not origins:
        raise AlignmentError("no validation origins supplied")
    if scheme == "permuted":
        repeated = [label for label, n in Counter(o.origin for o in origins).items() if n > 1]
        if repeated:
            raise AlignmentError(
                f"origin label {repeated[0]} appears more than once; the permuted "
                "scheme needs a distinct label per origin"
            )
    joints = [
        assemble(origin.levels, h, scheme, seed=_origin_seed(seed, origin.origin)).matrix
        for origin in origins
    ]
    return np.stack(joints), np.stack([origin.actual for origin in origins])


def _origin_seed(base: int, label: int) -> int:
    return int(np.random.SeedSequence([base % 2**64, label % 2**64]).generate_state(1)[0])


def cv_criterion(
    P: WeightMatrix,
    joint_tensor: np.ndarray,
    actuals: np.ndarray,
    h: HierarchySpec,
) -> float:
    """Level-averaged CRPS of the reconciled samples in common units.

    Every origin's joint sample is projected through S @ P by
    ``reconcile_tensor``, each node
    scored against its realized value, node scores averaged over origins,
    then over nodes within a level, then over levels. Origin averaging (in
    place of summing) is a monotone rescaling that keeps objective values
    comparable across validation lengths without moving the minimizer.
    """
    reconciled = reconcile_tensor(P, joint_tensor)
    node_scores = _node_scores(reconciled, actuals, h, metric="crps", units="common")
    return float(np.mean(_level_means(node_scores.mean(axis=0), h)))


def cv_objective(
    v,
    scheme: str,
    origins: Sequence[OriginData],
    h: HierarchySpec,
    seed: int = 0,
) -> float:
    """Cross-validation objective for a vector of per-level weights.

    Builds the level-constrained weight matrix from ``v``, reconciles every
    validation origin's joint sample under ``scheme``, and returns the
    level-averaged CRPS (common units).
    """
    joint_tensor, actuals = assemble_origins(origins, h, scheme, seed=seed)
    return cv_criterion(weights_from_levels(v, h), joint_tensor, actuals, h)
