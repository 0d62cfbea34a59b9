"""Sample-based scoring: CRPS, median errors, level-wise tables.

The continuous ranked probability score of an ensemble {x_1..x_N} against a
realization z is estimated in energy form,

    (1/N) sum_i |x_i - z|  -  (1/(2N^2)) sum_i sum_j |x_i - x_j|.

On a row sorted ascending the double sum telescopes into the single sum
``xs @ rank`` with ``rank_i = (2i - N + 1) / N^2``. One private kernel,
``_sorted_crps``, computes it from sorted rows, in the buffer it is handed,
and every sample score comes from it through one of two callers.
``score_origin`` sorts one origin's (M, N) sample, a copy or with
``overwrite`` the sample itself, or once the one row that all rows of a
broadcast share, takes the error of each row's median (the point forecast
the MAE scores), then hands the rows over; it scores
``score_hierarchy``, ``cv_criterion`` (which reconciles one origin at a
time into a new array) and the experiment driver's test pass, and one row's
CRPS is ``score_origin(x[None, :], [z])[0][0]``. ``_cv_oracle``, the
cutting-plane search's objective, hands it a copy of one origin's rows,
sorted already. Scores for a hierarchy are averaged per node over forecast
origins, then per level over nodes, then over levels; that triple average
is both the reported table layout (``score_tables``) and the objective the
cross-validated weights minimize. ``score_hierarchy`` chains the two steps
over a (T, M, N) stack or any iterable of origins, read one at a time; the
experiment driver calls them itself, so that it scores each test origin
under every scheme and method before it draws the next. Evaluation tables
report each node in its level's native units, its common-unit score times
the window f_l; the cross-validation criterion stays in common units and
weighs each node's CRPS by its share of that average, ``_node_weights``,
the one definition that ``cv_criterion`` and ``_cv_oracle`` share. Scoring
takes joint samples as given: ``sampling.assemble_origins`` builds and
seeds them, and ``cv_objective`` only chains it with ``cv_criterion``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import AlignmentError, EmptySample
from .hierarchy import HierarchySpec, _Walk
from .reconcile import WeightMatrix, _level_weights, reconcile_tensor, weights_from_levels
from .sampling import OriginData, assemble_origins

__all__ = [
    "ScoreTable",
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


@lru_cache(maxsize=16)
def _rank_weights(n: int) -> np.ndarray:
    """Weights of the N order statistics in the pair term: (2i - N + 1) / N^2,
    read-only and kept for the 16 sample sizes used last (a run scores a
    few), so a search builds its one vector once."""
    rank = (2.0 * np.arange(n) - n + 1.0) / (n * n)
    rank.setflags(write=False)
    return rank


def _sorted_crps(xs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Energy-form CRPS of rows sorted ascending.

    ``xs`` has shape (..., N), nondecreasing along the last axis, and ``z``
    shape (...,); returns an array of shape (...,). ``xs`` is consumed:
    once the pair term is read, it holds ``|xs - z|``.
    """
    pair = xs @ _rank_weights(xs.shape[-1])
    xs -= z[..., None]
    return np.abs(xs, out=xs).mean(axis=-1) - pair


def _level_means(node_scores: np.ndarray, h: HierarchySpec) -> np.ndarray:
    """Mean over the nodes of each level: (..., M) -> (..., L)."""
    return np.stack([node_scores[..., rows].mean(axis=-1) for _, rows in h.levels], axis=-1)


def score_origin(sample, actual, overwrite: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """One origin's node scores in common units.

    ``sample`` is an (M, N) joint sample, reconciled or raw, and ``actual``
    the M realized values. Returns each node's CRPS and the absolute error
    of its ensemble median, two (M,) arrays, both from one sort of the
    rows: of a copy, or with ``overwrite`` of a writable sample itself,
    which is then left holding scratch values. A sample whose rows share
    one row (row stride 0, as the ``BA`` and ``GA`` maps return it) has that
    row sorted once and handed to the kernel repeated M times, which scores
    it bit for bit as its repeated copy. Each row's median equals ``np.median``
    bit for bit but for the sign of a zero, which the error drops: the middle
    value for odd N (read, not averaged with itself), the mean of the
    central pair for even N, read before the kernel overwrites the rows.

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
    if not mat.strides[0]:  # every row is one row (a broadcast): sort it once
        mat = np.repeat(np.sort(mat[:1], axis=-1), len(mat), axis=0)
    elif overwrite and mat.flags.writeable:
        mat.sort(axis=-1)
    else:
        mat = np.sort(mat, axis=-1)
    mid = mat.shape[1] // 2
    median = mat[:, mid] if mat.shape[1] % 2 else (mat[:, mid - 1] + mat[:, mid]) / 2
    errors = np.abs(median - act)
    return _sorted_crps(mat, act), errors


def score_tables(
    crps: np.ndarray,
    errors: np.ndarray,
    h: HierarchySpec,
) -> tuple[ScoreTable, ScoreTable]:
    """The CRPS and MAE tables of (T, M) node scores in common units, one
    ``score_origin`` result per row, each node reported in its level's
    native units.

    Raises:
        AlignmentError: the two arrays are not (T, M) with one T > 0.
    """
    crps, errors = _regular(crps), _regular(errors)
    if crps.ndim != 2 or crps.shape[1] != h.M or errors.shape != crps.shape or not len(crps):
        raise AlignmentError(
            f"node scores of shapes {crps.shape} and {errors.shape} are not (T, {h.M}), T > 0"
        )
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

    The shapes are checked first. Then each origin's (M, N) joint sample in
    turn is projected through S @ P by ``reconcile_tensor`` into a new
    array, which ``score_origin`` sorts and scores in place (a broadcast
    map's one row in a repeated copy), so one call holds one sample-sized
    buffer whatever the number of origins. Each
    node's CRPS against its realized value is weighted by
    ``_node_weights``: the average over origins, then over nodes within a
    level, then over levels, in one weighted sum. Origin averaging (in
    place of summing) is a monotone rescaling that keeps objective values
    comparable across validation lengths without moving the minimizer.

    Raises:
        AlignmentError: ``P`` was built for another hierarchy than ``h``, the
            samples are not (T, M, N) with T > 0, or the actuals are not (T, M).
        EmptySample: the samples have no paths.
    """
    if P.hierarchy != h:
        raise AlignmentError(f"map built for frequencies {P.hierarchy.f}, not {h.f}")
    tensor, acts = _regular(joint_tensor), _regular(actuals)
    if tensor.ndim != 3 or tensor.shape[1] != h.M:
        raise AlignmentError(f"samples shape {tensor.shape} is not (T, {h.M}, N)")
    if acts.shape != tensor.shape[:2]:
        raise AlignmentError(f"actuals shape {acts.shape} is not {tensor.shape[:2]}")
    if not len(tensor):
        raise AlignmentError("no forecast origins to score")
    if not tensor.shape[2]:
        raise EmptySample("cannot score samples without paths")
    crps = np.empty_like(acts)
    for t, sample in enumerate(tensor):
        # one expression, so each reconciled buffer is freed before the next
        crps[t], _ = score_origin(reconcile_tensor(P, sample), acts[t], overwrite=True)
    return float((crps * _node_weights(h, len(tensor))).sum())


def _cv_oracle(joint_tensor: np.ndarray, actuals: np.ndarray, h: HierarchySpec):
    """The cutting-plane oracle: ``evaluate(v)`` returns (objective, subgradient in v).

    Precondition: every input row is nondecreasing and v lies on the
    simplex, so the reconciled rows are sorted already and are scored as
    they are; the objective is convex and piecewise linear in v and equals
    ``cv_criterion(weights_from_levels(v, h), ...)`` bit for bit; v is
    checked as ``weights_from_levels`` checks it. Like ``cv_criterion`` it
    works one (M, N) origin at a time, in a ``_Walk`` over a workspace and a
    scoring scratch allocated once per search: the weighted origin takes the
    walk's ``lineage``, the kernel scores a copy of it, and the workspace
    then carries the CRPS derivative, divided by each node's window, through
    ``lineage`` again, the pull-back. Its products with the origin's sample,
    summed over each level's rows, are added into the gradient, which is
    scaled by the windows f_l once at the end.
    """
    T, M, n = joint_tensor.shape
    node_weight = _node_weights(h, T)
    n_rank = n * _rank_weights(n)
    # node_weight / node_windows is 1 / (L m T) at every node, so the
    # derivative's weighting and the pull-back's 1 / f_l are one scalar
    unit = 1.0 / (h.L * h.m * T * n)
    level_starts = [rows.start for _, rows in h.levels]
    walk = _Walk(np.empty((M, n)), h)
    scratch = np.empty((M, n))

    def evaluate(v: np.ndarray):
        w = _level_weights(v, h)
        crps = np.empty_like(actuals)
        grad = np.zeros(h.L)
        for t, (sample, actual) in enumerate(zip(joint_tensor, actuals)):
            np.multiply(w[:, None], sample, out=walk.buf)
            x = walk.lineage()
            np.copyto(scratch, x)
            crps[t] = _sorted_crps(scratch, actual)
            # d crps / dx = (sign(x - z) - N rank) / N, weighted per node and
            # divided by f_l, in the workspace
            x -= actual[:, None]
            np.sign(x, out=x)
            x -= n_rank
            x *= unit
            # S^T d: the unit-weight walk leaves it in the bottom rows; their
            # window means over a level-l node, times f_l, are the window
            # sums that v_l pairs with Y_l
            x = walk.lineage()
            x *= sample
            grad += np.add.reduceat(x.sum(axis=1), level_starts)
        grad *= h.f
        return float((crps * node_weight).sum()), grad

    return evaluate


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
