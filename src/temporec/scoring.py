"""Sample-based scoring: CRPS, median point forecasts, level-wise tables.

The continuous ranked probability score of an ensemble {x_1..x_N} against a
realization z is estimated in energy form,

    (1/N) sum_i |x_i - z|  -  (1/(2N^2)) sum_i sum_j |x_i - x_j|.

On a row sorted ascending the double sum telescopes into the single sum
``xs @ rank`` with ``rank_i = (2i - N + 1) / N^2``, and the median (the
point forecast the MAE scores) is the middle order statistic, or the mean
of the central pair for even N. One private kernel, ``_sorted_scores``,
computes both from sorted rows, and every score in the package comes from
it. It scores in the buffer it is handed, so no score allocates a
sample-sized temporary: ``score_origin`` sorts one copy of one origin's
(M, N) sample, ``cv_criterion`` sorts its reconciled sample in place, and
the cutting-plane oracle in ``cvopt`` hands it a copy of rows that are
sorted already. Scores for a hierarchy are averaged per node over
forecast origins, then per level over nodes, then over levels; that
triple average is both the reported table layout (``score_tables``) and
the objective the cross-validated weights minimize. ``score_hierarchy``
chains the two steps over a (T, M, N) stack or any iterable of origins,
read one at a time; the experiment driver calls them itself, so that it
scores each test origin under every scheme and method before it draws the
next. Evaluation tables report each node in its level's native units, its
common-unit score times the window f_l; the cross-validation criterion
stays in common units and weighs each node's CRPS by its share of that
average, ``_node_weights``, the one definition that ``cv_criterion`` and
the cutting-plane oracle share. Scoring takes joint samples as given:
``sampling.assemble_origins`` builds and seeds them, and ``cv_objective``
only chains it with ``cv_criterion``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import AlignmentError, EmptySample
from .hierarchy import HierarchySpec
from .reconcile import WeightMatrix, reconcile_tensor, weights_from_levels
from .sampling import OriginData, assemble_origins

__all__ = [
    "ScoreTable",
    "crps_sample",
    "median_point",
    "score_origin",
    "score_tables",
    "score_hierarchy",
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
    x = np.sort(np.asarray(sample, dtype=float).ravel())
    if x.size == 0:
        raise EmptySample("cannot score an empty sample")
    crps, _ = _sorted_scores(x[None, :], np.array([float(z)]))
    return float(crps[0])


def median_point(sample) -> float:
    """Empirical median; for even sizes the mean of the central pair."""
    x = np.sort(np.asarray(sample, dtype=float).ravel())
    if x.size == 0:
        raise EmptySample("cannot take the median of an empty sample")
    # scored against its own middle value, the discarded CRPS stays finite
    _, median = _sorted_scores(x[None, :], x[None, x.size // 2])
    return float(median[0])


def _rank_weights(n: int) -> np.ndarray:
    """Weights of the N order statistics in the pair term: (2i - N + 1) / N^2."""
    return (2.0 * np.arange(n) - n + 1.0) / (n * n)


def _sorted_scores(xs: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Energy-form CRPS and median of rows sorted ascending.

    ``xs`` has shape (..., N), nondecreasing along the last axis, and ``z``
    shape (...,); returns two arrays of shape (...,). The median equals
    ``np.median`` bit for bit: the middle order statistic for odd N (read,
    not averaged with itself), the mean of the central pair for even N,
    and 0.0 where those are -0.0 (``np.median`` sums from +0.0). ``xs`` is
    consumed: once the median and the pair term are read, it holds ``|xs - z|``.
    """
    n = xs.shape[-1]
    mid = n // 2
    median = (xs[..., mid] if n % 2 else (xs[..., mid - 1] + xs[..., mid]) / 2) + 0.0
    pair = xs @ _rank_weights(n)
    xs -= z[..., None]
    return np.abs(xs, out=xs).mean(axis=-1) - pair, median


def _level_means(node_scores: np.ndarray, h: HierarchySpec) -> np.ndarray:
    """Mean over the nodes of each level: (..., M) -> (..., L)."""
    return np.stack([node_scores[..., rows].mean(axis=-1) for _, rows in h.levels], axis=-1)


def score_origin(sample, actual, overwrite: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """One origin's node scores in common units.

    ``sample`` is an (M, N) joint sample, reconciled or raw, and ``actual``
    the M realized values. Returns each node's CRPS and the absolute error
    of its ensemble median, two (M,) arrays, both from one sort of the
    rows: of a copy, or with ``overwrite`` of the sample itself, which is
    then left holding scratch values.

    Raises:
        AlignmentError: the sample is not 2-D, or its rows do not match the
            actuals.
        EmptySample: the sample has no paths.
    """
    mat, act = _regular(sample), _regular(actual)
    if mat.ndim != 2 or act.shape != mat.shape[:1]:
        raise AlignmentError(f"sample shape {mat.shape} does not match actuals shape {act.shape}")
    if not mat.shape[1]:
        raise EmptySample("cannot score samples without paths")
    if overwrite:
        mat.sort(axis=-1)
    else:
        mat = np.sort(mat, axis=-1)
    crps, median = _sorted_scores(mat, act)
    return crps, np.abs(median - act)


def score_tables(
    crps: np.ndarray,
    errors: np.ndarray,
    h: HierarchySpec,
) -> tuple[ScoreTable, ScoreTable]:
    """The CRPS and MAE tables of (T, M) node scores in common units, one
    ``score_origin`` result per row, each node reported in its level's
    native units."""
    native = h.node_windows
    return _table(crps * native, h, "CRPS"), _table(errors * native, h, "MAE")


def score_hierarchy(
    samples: Iterable[np.ndarray],
    actuals: np.ndarray,
    h: HierarchySpec,
) -> tuple[ScoreTable, ScoreTable]:
    """Score joint samples over forecast origins, level by level, in native units.

    Args:
        samples: one M x N sample per origin, reconciled or raw: a (T, M, N)
            array or any iterable of T such samples, read one at a time
            and scored by ``score_origin``.
        actuals: realized node values per origin, a (T, M) array in common
            units.
        h: the hierarchy.

    Returns:
        The CRPS table and the table of absolute errors of the ensemble
        median (MAE), in that order, each node in its level's native units
        (``score_tables``).

    Raises:
        AlignmentError: the samples or actuals are ragged, or their origin
            counts or shapes do not line up.
        EmptySample: the samples have no paths.

    An error raised while iterating ``samples`` propagates, and no table is
    returned. Each table also carries every origin's own level scores, equal
    to scoring that origin alone. Both scores are positively homogeneous,
    score(c x, c z) = c score(x, z), so native units are the common-unit
    node scores times each node's window f_l.
    """
    acts = _regular(actuals)
    if acts.ndim != 2 or acts.shape[1] != h.M:
        raise AlignmentError(f"actuals shape {acts.shape} is not (T, {h.M})")
    if not len(acts):
        raise AlignmentError("no forecast origins to score")
    crps, errors = np.empty_like(acts), np.empty_like(acts)
    expected, t = f"({h.M}, N)", -1
    for t, sample in enumerate(samples):
        if t == len(acts):
            raise AlignmentError(f"more samples than the {len(acts)} origins of actuals")
        mat = _regular(sample)
        if mat.ndim != 2 or mat.shape[0] != h.M or (t and mat.shape != expected):
            raise AlignmentError(f"origin {t}'s sample has shape {mat.shape}, expected {expected}")
        expected = mat.shape
        crps[t], errors[t] = score_origin(mat, acts[t])
    if t + 1 != len(acts):
        raise AlignmentError(f"{t + 1} samples for the {len(acts)} origins of actuals")
    return score_tables(crps, errors, h)


def _regular(values) -> np.ndarray:
    """``values`` as a float array; a ragged nesting raises ``AlignmentError``."""
    try:
        return np.asarray(values, dtype=float)
    except ValueError as exc:
        raise AlignmentError(f"samples and actuals must be regular arrays: {exc}") from exc


def _aligned(samples, actuals, h: HierarchySpec) -> tuple[np.ndarray, np.ndarray]:
    """The (T, M, N) samples and (T, M) actuals as float arrays, shapes checked."""
    tensor, acts = _regular(samples), _regular(actuals)
    if tensor.ndim != 3 or tensor.shape[1] != h.M:
        raise AlignmentError(f"samples shape {tensor.shape} is not (T, {h.M}, N)")
    if acts.shape != tensor.shape[:2]:
        raise AlignmentError(f"actuals shape {acts.shape} is not {tensor.shape[:2]}")
    if not len(tensor):
        raise AlignmentError("no forecast origins to score")
    if not tensor.shape[2]:
        raise EmptySample("cannot score samples without paths")
    return tensor, acts


def _node_weights(h: HierarchySpec, T: int) -> np.ndarray:
    """Each node's share of the level-averaged objective over T origins:
    one of m / f_l nodes in one of L levels, so f_l / (L * m * T)."""
    return h.node_windows / (h.L * h.m * T)


def _table(node_scores: np.ndarray, h: HierarchySpec, metric: str) -> ScoreTable:
    """Average (T, M) node scores over origins, nodes within a level, levels."""
    level_scores = tuple(float(s) for s in _level_means(node_scores.mean(axis=0), h))
    return ScoreTable(
        level_scores=level_scores,
        overall=float(np.mean(level_scores)),
        metric=metric,
        origin_scores=tuple(
            tuple(float(s) for s in row) for row in _level_means(node_scores, h)
        ),
    )


def cv_criterion(
    P: WeightMatrix,
    joint_tensor: np.ndarray,
    actuals: np.ndarray,
    h: HierarchySpec,
) -> float:
    """Level-averaged CRPS of the reconciled samples in common units.

    Every origin's joint sample is projected through S @ P by
    ``reconcile_tensor``; the rows of that new array are sorted and scored
    in its own buffer, and each node's CRPS against its realized value is
    weighted by ``_node_weights``: the average over origins, then over
    nodes within a level, then over levels, in one weighted sum. Origin
    averaging (in place of summing) is a monotone rescaling that keeps
    objective values comparable across validation lengths without moving
    the minimizer. Raises as ``score_hierarchy`` on misaligned or empty input.
    """
    tensor, acts = _aligned(reconcile_tensor(P, joint_tensor), actuals, h)
    tensor.sort(axis=-1)
    crps, _ = _sorted_scores(tensor, acts)
    return float((crps * _node_weights(h, len(tensor))).sum())


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
