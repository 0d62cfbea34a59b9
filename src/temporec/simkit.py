"""Synthetic truth process and per-level base forecasters.

The bottom-level truth is a stationary AR(1) path. Each hierarchy level is
then modelled independently: an AR(1)-plus-intercept fit on the level's own
training aggregate, with multi-step sample paths generated recursively and
innovations drawn by bootstrapping the fit residuals. That keeps the
within-level temporal dependence of the paths while making no
distributional assumption, and it gives the reconciliation layer the same
shape of input a production forecasting model would: one (f_1/f_l) x N
matrix per level per forecast origin.

Levels are fitted and simulated in common units (window means, the values
``aggregate`` gives), not in native window sums. The least-squares fit and
the residual bootstrap are scale-equivariant: dividing a series by f_l
leaves phi unchanged and divides the intercept and the residuals by f_l,
so the paths equal native-unit paths divided by f_l up to rounding.

Forecast origins advance one whole cycle at a time and model parameters are
fitted once, on the training window only.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DataError, SimkitError, TooShort
from .hierarchy import HierarchySpec, aggregate
from .sampling import LevelSample, OriginData

__all__ = [
    "SyntheticScenario",
    "LevelForecaster",
    "Dataset",
    "simulate_truth",
    "fit_level",
    "sample_paths",
    "build_dataset",
    "dataset_from_series",
]


@dataclass(frozen=True)
class SyntheticScenario:
    """Parameters of the bottom-level AR(1) truth process.

    ``x_t = mu + phi * x_{t-1} + sigma * eps_t`` with standard normal
    innovations, started from the stationary distribution. ``sigma = 0`` is
    allowed as the degenerate noise-free limit. ``clip_at_zero`` floors the
    path at zero for nonnegative quantities like generated power.
    """

    phi: float
    sigma: float
    mu: float = 0.0
    cycle_length: int = 24
    train_cycles: int = 30
    val_cycles: int = 10
    test_cycles: int = 10
    seed: int = 0
    clip_at_zero: bool = False

    def __post_init__(self):
        if not abs(self.phi) < 1:
            raise SimkitError(f"autoregressive coefficient must satisfy |phi| < 1, got {self.phi}")
        if not 0 <= self.sigma < np.inf:
            raise SimkitError(f"innovation scale must be finite and nonnegative, got {self.sigma}")
        if not np.isfinite(self.stationary_mean):  # NaN or infinite mu included
            raise SimkitError(f"stationary mean mu/(1-phi) must be finite, got mu={self.mu}")
        if min(self.train_cycles, self.val_cycles, self.test_cycles) < 1:
            raise SimkitError("train/val/test cycle counts must all be at least 1")
        if self.cycle_length < 1:
            raise SimkitError("cycle length must be positive")

    @property
    def total_cycles(self) -> int:
        return self.train_cycles + self.val_cycles + self.test_cycles

    @property
    def stationary_mean(self) -> float:
        return self.mu / (1.0 - self.phi)


@dataclass(frozen=True)
class LevelForecaster:
    """AR(1)+intercept fit for one level, with its residual pool."""

    level: int
    phi: float
    intercept: float
    residuals: np.ndarray

    def __post_init__(self):
        res = np.asarray(self.residuals, dtype=float)
        if res.size == 0:
            raise SimkitError("residual pool must be nonempty")
        res.setflags(write=False)
        object.__setattr__(self, "residuals", res)


def simulate_truth(scn: SyntheticScenario) -> np.ndarray:
    """Simulate the bottom-level truth path for all configured cycles.

    The path starts from a draw of the stationary distribution (or its mean
    when ``sigma`` is zero), so a long run averages to mu/(1-phi).
    """
    n = scn.cycle_length * scn.total_cycles
    rng = np.random.default_rng(scn.seed)
    mean = scn.stationary_mean
    out = np.empty(n)
    if scn.sigma == 0.0:
        out.fill(mean)
    else:
        sd_stat = scn.sigma / np.sqrt(1.0 - scn.phi**2)
        prev = rng.normal(mean, sd_stat)
        noise = rng.normal(0.0, scn.sigma, size=n)
        for t in range(n):
            prev = scn.mu + scn.phi * prev + noise[t]
            out[t] = prev
    if scn.clip_at_zero:
        np.clip(out, 0.0, None, out=out)
    out.setflags(write=False)
    return out


def fit_level(series: np.ndarray, level: int) -> LevelForecaster:
    """Least-squares AR(1)+intercept fit on one level's training series.

    Falls back to an intercept-only model (phi = 0) when the series is
    constant and the slope is unidentifiable.

    Raises:
        TooShort: fewer than 10 observations.
        SimkitError: the series has a NaN or infinite value.
    """
    values = np.asarray(series, dtype=float).ravel()
    if values.size < 10:
        raise TooShort(f"need at least 10 observations to fit, got {values.size}")
    if not np.isfinite(values).all():
        raise SimkitError(f"level {level} training series is not finite; cannot fit it")
    lagged = values[:-1]
    target = values[1:]
    design = np.column_stack([np.ones_like(lagged), lagged])
    coef, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < 2:
        mean = float(values.mean())
        return LevelForecaster(level=level, phi=0.0, intercept=mean, residuals=values - mean)
    intercept, phi = coef
    return LevelForecaster(
        level=level,
        phi=float(phi),
        intercept=float(intercept),
        residuals=target - design @ coef,
    )


def sample_paths(
    fc: LevelForecaster,
    origin_state: float,
    horizon: int,
    n_paths: int,
    seed,
) -> LevelSample:
    """Generate recursive multi-step sample paths from one forecast origin.

    Innovations are drawn by residual bootstrap, so each column is one
    dependent path of the fitted recursion started at ``origin_state`` (the
    last observed value at this level), in the units of the fitted series.
    """
    if horizon < 1:
        raise SimkitError(f"horizon must be at least 1, got {horizon}")
    if n_paths < 2:
        raise SimkitError(f"need at least 2 sample paths, got {n_paths}")
    rng = np.random.default_rng(seed)
    draws = rng.choice(fc.residuals, size=(horizon, n_paths), replace=True)
    paths = np.empty((horizon, n_paths))
    prev = np.full(n_paths, float(origin_state))
    for t in range(horizon):
        prev = fc.intercept + fc.phi * prev + draws[t]
        paths[t] = prev
    return LevelSample(level=fc.level, matrix=paths)


class _Split(Sequence):
    """The origins of one split, labelled by ``cycles``: every read draws
    its origins with ``make_origin``, and none is kept. A slice is the
    split of the sliced cycles."""

    def __init__(self, cycles: range, make_origin: Callable[[int], OriginData]):
        self.cycles, self.make_origin = cycles, make_origin

    def __len__(self) -> int:
        return len(self.cycles)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return _Split(self.cycles[index], self.make_origin)
        return self.make_origin(self.cycles[index])

    def __iter__(self):
        return map(self.make_origin, self.cycles)


@dataclass(frozen=True)
class Dataset:
    """Fitted forecasters plus the validation and test origins. Each split
    is a sequence over the cycles that label its origins, ``val_range`` or
    ``test_range``, that draws an origin with ``make_origin`` on every read
    and keeps none: read an origin once and bind it."""

    bottom: np.ndarray
    forecasters: tuple[LevelForecaster, ...]
    val_range: range
    test_range: range
    make_origin: Callable[[int], OriginData]

    @property
    def val_origins(self) -> Sequence[OriginData]:
        return _Split(self.val_range, self.make_origin)

    @property
    def test_origins(self) -> Sequence[OriginData]:
        return _Split(self.test_range, self.make_origin)


def dataset_from_series(
    bottom: np.ndarray,
    h: HierarchySpec,
    train_cycles: int,
    val_cycles: int,
    test_cycles: int,
    n_paths: int,
    seed: int = 0,
) -> Dataset:
    """Split a bottom-level series and fit per-level models on the training
    window; the dataset draws an origin's base samples each time it is read.

    The split is by whole cycles in chronological order: the first
    ``train_cycles`` cycles train the models, the next ``val_cycles`` are
    validation origins, the following ``test_cycles`` are test origins.
    Per-origin sample paths use independent substreams of ``seed``, so a
    given origin's samples do not depend on how many origins follow it, nor
    on which origin is read first or how often. The fits and the checks of
    the series and of ``n_paths`` run here, before any origin is drawn.

    One ``aggregate`` call turns the cycles into an (M, cycles) table of
    common-unit node values; each level's training series, each origin's
    starting state and the actuals are read from it. Its window sums are
    bounded by max |value| * f_1; a series for which that bound is not
    finite raises ``SimkitError`` before any sum is taken.
    """
    values = np.asarray(bottom, dtype=float).ravel()
    f1 = h.cycle_length
    total = train_cycles + val_cycles + test_cycles
    if values.size < total * f1:
        raise DataError(
            f"need {total} cycles of {f1} periods ({total * f1} values), "
            f"got {values.size}"
        )
    if n_paths < 2:
        raise SimkitError(f"need at least 2 sample paths, got {n_paths}")
    values = values[: total * f1]
    largest = float(np.abs(values).max(initial=0.0))
    if not np.isfinite(largest * f1):
        raise SimkitError(
            f"level 1 window sums are not finite: max |value| * f_1 = {largest:.6g} * {f1}"
        )

    nodes = aggregate(values.reshape(total, f1).T, h)
    # a level's series runs through its nodes cycle by cycle
    forecasters = tuple(
        fit_level(nodes[rows, :train_cycles].T.ravel(), lev)
        for lev, (_, rows) in enumerate(h.levels, start=1)
    )

    def make_origin(cycle: int) -> OriginData:
        samples = []
        for fc, (_, rows) in zip(forecasters, h.levels):
            state = nodes[rows.stop - 1, cycle - 1]  # the level's last node one cycle back
            path_seed = np.random.SeedSequence([seed % 2**64, cycle, fc.level])
            samples.append(sample_paths(fc, state, h.nodes_at(fc.level), n_paths, path_seed))
        return OriginData(levels=tuple(samples), actual=nodes[:, cycle], origin=cycle)

    return Dataset(
        bottom=values,
        forecasters=forecasters,
        val_range=range(train_cycles, train_cycles + val_cycles),
        test_range=range(train_cycles + val_cycles, total),
        make_origin=make_origin,
    )


def build_dataset(
    scn: SyntheticScenario,
    h: HierarchySpec,
    n_paths: int,
) -> Dataset:
    """Simulate a scenario's truth path and assemble the full dataset."""
    if h.cycle_length != scn.cycle_length:
        raise SimkitError(
            f"hierarchy cycle length {h.cycle_length} does not match "
            f"scenario cycle length {scn.cycle_length}"
        )
    return dataset_from_series(
        simulate_truth(scn),
        h,
        scn.train_cycles,
        scn.val_cycles,
        scn.test_cycles,
        n_paths,
        seed=scn.seed,
    )
