"""End-to-end experiment driver and command-line entry point.

A run ingests a bottom-level series (CSV) or simulates one, splits it into
train/validation/test by whole cycles, fits one forecaster per level on the
training window, selects cross-validated weights on the validation origins,
then reconciles and scores every test origin for each requested scheme and
method. Outputs are plain CSV files plus a manifest of the resolved
configuration; identical configurations produce byte-identical files.

Configuration is a flat ``key = value`` text file ('#' starts a comment).
Keys, with defaults:

    frequencies     = 24,12,8,6,4,3,2,1   sampling intervals, coarse to fine
    data            =                     CSV path; empty means synthetic
    synthetic       = false               force synthetic even if data set
    phi             = 0.7                 AR coefficient of the truth process
    sigma           = 1.0                 innovation scale
    mu              = 1.0                 AR intercept
    clip_at_zero    = false               floor the truth path at zero
    train_cycles    = 30                  cycles used for model fitting
    val_cycles      = 10                  cycles used for weight selection
    test_cycles     = 10                  cycles used for evaluation
    n_paths         = 200                 sample paths per level per origin
    schemes         = ranked              any of stacked,ranked,permuted
    methods         = bu,ba,ga,la,wls,cv  reconciliation methods
    cv_regimes      = simplex             any of simplex,affine,free
    cv_starts       = 6                   optimizer starts
    cv_maxiter      = 0                   iteration cap per start (0 = default)
    seed            = 0
    out             = temporec-out        output directory
    coherence_tol   = 1e-9

Every key can also be set by an environment variable with the ``TEMPOREC_``
prefix (e.g. ``TEMPOREC_SEED=7``); command-line flags win over environment
variables, which win over the config file.

The ``cv`` method expands to one report row per configured regime, labelled
``cv-<regime>``. A no-reconciliation baseline row (scheme and method
``none``) is always included.

Input CSV schema: header ``timestamp,value``; ISO-8601 UTC timestamps at
bottom-period (hourly) resolution, whole-hour steps, strictly increasing,
gap-free; finite values in native units. Output files: ``crps.csv`` and ``mae.csv`` (one row per
scheme/method, per-level columns coarse to fine plus the mean),
``cv_weights.csv``, ``origin_scores.csv`` (tidy per-origin per-level
scores), ``diagnostics.csv`` (per-origin coherence violations), and
``manifest.txt``.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure. Every package error maps to one of them by its family
(``EXIT_CODES``):

    2  ConfigError, HierarchyError (bad frequencies), SimkitError (a
       synthetic scenario or training window that cannot be fitted, e.g.
       ``train_cycles = 1``)
    3  DataError (unreadable, malformed, non-finite, non-hourly-step,
       gapped or too short CSV input), PartialCycle (a series that is not
       whole cycles)
    4  NumericalError, SamplingError, ReconcileError, ScoringError, and
       LAPACK failures (``numpy.linalg.LinAlgError``)
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
import typing
from dataclasses import dataclass, fields
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from .cvopt import REGIMES, CvResult, optimize_weights
from .errors import (
    ConfigError,
    DataError,
    GapError,
    HierarchyError,
    NonMonotoneTimestamps,
    NumericalError,
    PartialCycle,
    ReconcileError,
    SamplingError,
    SchemaError,
    ScoringError,
    SimkitError,
    TemporecError,
)
from .hierarchy import HierarchySpec, build_hierarchy, build_summing_matrix
from .reconcile import (
    check_coherence,
    fixed_weights,
    reconcile_tensor,
    weights_from_levels,
    wls_weights,
)
from .sampling import SCHEMES
from .scoring import assemble_origins, score_hierarchy
from .simkit import SyntheticScenario, build_dataset, dataset_from_series

__all__ = [
    "RunConfig", "ReportRow", "load_config", "ingest_csv", "run_experiment", "exit_code", "main",
]

ENV_PREFIX = "TEMPOREC_"
EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

# Exit code of each error family; the most derived listed class wins.
EXIT_CODES = {
    ConfigError: EXIT_CONFIG,
    HierarchyError: EXIT_CONFIG,
    SimkitError: EXIT_CONFIG,
    DataError: EXIT_DATA,
    PartialCycle: EXIT_DATA,
    NumericalError: EXIT_NUMERIC,
    SamplingError: EXIT_NUMERIC,
    ReconcileError: EXIT_NUMERIC,
    ScoringError: EXIT_NUMERIC,
    np.linalg.LinAlgError: EXIT_NUMERIC,
}
EXIT_LABELS = {
    EXIT_CONFIG: "configuration error",
    EXIT_DATA: "data error",
    EXIT_NUMERIC: "numerical failure",
}

FIXED_METHOD_TOKENS = ("bu", "ba", "ga", "la", "wls")


@dataclass(frozen=True)
class RunConfig:
    """Resolved configuration of one experiment run."""

    frequencies: tuple[int, ...] = (24, 12, 8, 6, 4, 3, 2, 1)
    data: str = ""
    synthetic: bool = False
    phi: float = 0.7
    sigma: float = 1.0
    mu: float = 1.0
    clip_at_zero: bool = False
    train_cycles: int = 30
    val_cycles: int = 10
    test_cycles: int = 10
    n_paths: int = 200
    schemes: tuple[str, ...] = ("ranked",)
    methods: tuple[str, ...] = ("bu", "ba", "ga", "la", "wls", "cv")
    cv_regimes: tuple[str, ...] = ("simplex",)
    cv_starts: int = 6
    cv_maxiter: int = 0
    seed: int = 0
    out: str = "temporec-out"
    coherence_tol: float = 1e-9

    def validate(self) -> None:
        try:
            build_hierarchy(self.frequencies)
        except TemporecError as exc:
            raise ConfigError(f"invalid frequencies: {exc}") from exc
        bad = [s for s in self.schemes if s not in SCHEMES]
        if bad or not self.schemes:
            raise ConfigError(f"schemes must be drawn from {SCHEMES}, got {self.schemes}")
        allowed = set(FIXED_METHOD_TOKENS) | {"cv"}
        bad = [m for m in self.methods if m not in allowed]
        if bad or not self.methods:
            raise ConfigError(f"unknown methods {bad}, allowed: {sorted(allowed)}")
        bad = [r for r in self.cv_regimes if r not in REGIMES]
        if bad:
            raise ConfigError(f"cv regimes must be drawn from {REGIMES}, got {self.cv_regimes}")
        if "cv" in self.methods and not self.cv_regimes:
            raise ConfigError("method 'cv' requested but no cv_regimes configured")
        if self.n_paths < 2:
            raise ConfigError(f"n_paths must be at least 2, got {self.n_paths}")
        if min(self.train_cycles, self.val_cycles, self.test_cycles) < 1:
            raise ConfigError("train/val/test cycle counts must all be at least 1")
        if self.coherence_tol <= 0:
            raise ConfigError("coherence_tol must be positive")

    def method_labels(self) -> tuple[str, ...]:
        labels = []
        for m in self.methods:
            if m == "cv":
                labels.extend(f"cv-{r}" for r in self.cv_regimes)
            else:
                labels.append(m)
        return tuple(labels)


@dataclass(frozen=True)
class ReportRow:
    """One line of the CRPS or MAE report."""

    scheme: str
    method: str
    level_scores: tuple[float, ...]
    overall: float


def _parse_value(name: str, raw: str, kind):
    raw = raw.strip()
    try:
        if kind is bool:
            if raw.lower() in ("true", "1", "yes", "on"):
                return True
            if raw.lower() in ("false", "0", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind is str:
            return raw
        # tuple-valued fields: comma separated, items of the annotated type
        item = typing.get_args(kind)[0]
        return tuple(item(p.strip()) for p in raw.split(",") if p.strip())
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {name}: {raw!r} ({exc})") from exc


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        values[key.strip()] = raw.strip()
    return values


def load_config(
    config_path: str | None = None,
    overrides: dict | None = None,
    env: dict | None = None,
) -> RunConfig:
    """Resolve a run configuration from file, environment, and overrides."""
    env = os.environ if env is None else env
    kinds = typing.get_type_hints(RunConfig)

    raw: dict = {}
    if config_path:
        raw.update(_read_config_file(config_path))
    for name in kinds:
        env_key = ENV_PREFIX + name.upper()
        if env_key in env:
            raw[name] = env[env_key]
    unknown = set(raw) - set(kinds)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    resolved = {name: _parse_value(name, value, kinds[name]) for name, value in raw.items()}
    for name, value in (overrides or {}).items():
        if value is None:
            continue
        resolved[name] = (
            _parse_value(name, value, kinds[name]) if isinstance(value, str) else value
        )
    cfg = RunConfig(**resolved)
    cfg.validate()
    return cfg


def ingest_csv(path: str) -> np.ndarray:
    """Read and validate a ``timestamp,value`` CSV into a bottom series.

    Timestamps must be ISO-8601 UTC at hourly (bottom-period) resolution,
    strictly increasing and gap-free.

    Raises:
        SchemaError: wrong header, unparsable timestamp, unparsable or
            non-finite value, or a step that is not a whole number of hours
            (the message names the line).
        NonMonotoneTimestamps: duplicated or out-of-order rows.
        GapError: missing periods (the message names them).
    """
    try:
        handle = open(path, newline="")
    except OSError as exc:
        raise SchemaError(f"cannot open {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [c.strip().lower() for c in header] != ["timestamp", "value"]:
            raise SchemaError(f"{path}: expected header 'timestamp,value', got {header}")
        stamps: list[datetime] = []
        linenos: list[int] = []
        values: list[float] = []
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise SchemaError(f"{path}:{lineno}: expected 2 columns, got {len(row)}")
            stamps.append(_parse_timestamp(row[0], path, lineno))
            linenos.append(lineno)
            try:
                value = float(row[1])
            except ValueError as exc:
                raise SchemaError(f"{path}:{lineno}: bad value {row[1]!r}") from exc
            if not math.isfinite(value):
                raise SchemaError(f"{path}:{lineno}: value {row[1]!r} is not finite")
            values.append(value)
    if not values:
        raise SchemaError(f"{path}: no data rows")
    step = timedelta(hours=1)
    gaps = []
    for prev, cur, lineno in zip(stamps, stamps[1:], linenos[1:]):
        if cur <= prev:
            raise NonMonotoneTimestamps(
                f"{path}: timestamp {cur.isoformat()} does not follow {prev.isoformat()}"
            )
        if (cur - prev) % step:
            raise SchemaError(
                f"{path}:{lineno}: step {cur - prev} from the previous row is not "
                "a whole number of hours"
            )
        missing = (cur - prev) // step - 1
        if missing:
            gaps.append(f"{(prev + step).isoformat()} .. {(cur - step).isoformat()}" if missing > 1 else (prev + step).isoformat())
    if gaps:
        raise GapError(f"{path}: missing periods: " + "; ".join(gaps))
    return np.asarray(values, dtype=float)


def _parse_timestamp(raw: str, path: str, lineno: int) -> datetime:
    text = raw.strip()
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    try:
        stamp = datetime.fromisoformat(text)
    except ValueError as exc:
        raise SchemaError(f"{path}:{lineno}: bad timestamp {raw!r}") from exc
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return stamp.astimezone(timezone.utc)


def _build_weight_matrix(label: str, h: HierarchySpec, cv_for_scheme: dict):
    if label in FIXED_METHOD_TOKENS:
        if label == "wls":
            return wls_weights(h)
        return fixed_weights(label.upper(), h)
    return weights_from_levels(cv_for_scheme[label].v, h)


def run_experiment(cfg: RunConfig):
    """Run the full pipeline and write all artifacts under ``cfg.out``.

    Returns the list of CRPS report rows (the MAE rows are written to disk
    alongside). On an unexpected failure the rows finished so far are still
    flushed, together with a ``failure.txt`` naming the error.
    """
    cfg.validate()
    h = build_hierarchy(cfg.frequencies)
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)

    if cfg.synthetic or not cfg.data:
        scn = SyntheticScenario(
            phi=cfg.phi,
            sigma=cfg.sigma,
            mu=cfg.mu,
            cycle_length=h.cycle_length,
            train_cycles=cfg.train_cycles,
            val_cycles=cfg.val_cycles,
            test_cycles=cfg.test_cycles,
            seed=cfg.seed,
            clip_at_zero=cfg.clip_at_zero,
        )
        dataset = build_dataset(scn, h, cfg.n_paths)
    else:
        bottom = ingest_csv(cfg.data)
        dataset = dataset_from_series(
            bottom, h, cfg.train_cycles, cfg.val_cycles, cfg.test_cycles,
            cfg.n_paths, seed=cfg.seed,
        )

    S = build_summing_matrix(h)
    labels = cfg.method_labels()
    cv_labels = [lab for lab in labels if lab.startswith("cv-")]

    # weight selection sees only validation origins
    cv_results: dict[tuple[str, str], CvResult] = {}
    for scheme in cfg.schemes:
        for lab in cv_labels:
            regime = lab.removeprefix("cv-")
            cv_results[(scheme, lab)] = optimize_weights(
                dataset.val_origins,
                scheme,
                regime,
                h,
                seed=cfg.seed,
                n_starts=cfg.cv_starts,
                maxiter=cfg.cv_maxiter or None,
            )
    _write_cv_weights(outdir / "cv_weights.csv", cv_results, h)

    crps_rows: list[ReportRow] = []
    mae_rows: list[ReportRow] = []
    origin_rows: list[tuple] = []
    diag_rows: list[tuple] = []

    def add_rows(scheme: str, method: str, tensor: np.ndarray, actuals: np.ndarray):
        crps = score_hierarchy(tensor, actuals, h, metric="crps")
        mae = score_hierarchy(tensor, actuals, h, metric="mae")
        crps_rows.append(ReportRow(scheme, method, crps.level_scores, crps.overall))
        mae_rows.append(ReportRow(scheme, method, mae.level_scores, mae.overall))
        for origin, oc, om in zip(dataset.test_origins, crps.origin_scores, mae.origin_scores):
            for lev in range(h.L):
                origin_rows.append(
                    (scheme, method, origin.origin, f"{h.f[lev]}h", oc[lev], om[lev])
                )

    try:
        # no-reconciliation baseline: the raw stacked sample, scored directly
        base_tensor, base_actuals = assemble_origins(dataset.test_origins, h, "stacked", seed=cfg.seed)
        add_rows("none", "none", base_tensor, base_actuals)

        for scheme in cfg.schemes:
            tensor, actuals = assemble_origins(dataset.test_origins, h, scheme, seed=cfg.seed)
            cv_for_scheme = {lab: res for (sch, lab), res in cv_results.items() if sch == scheme}
            for lab in labels:
                reconciled = reconcile_tensor(_build_weight_matrix(lab, h, cv_for_scheme), tensor)
                for idx, mat in enumerate(reconciled):
                    ok, violation = check_coherence(mat, S, tol=cfg.coherence_tol)
                    diag_rows.append((scheme, lab, dataset.test_origins[idx].origin, violation))
                    if not ok:
                        raise NumericalError(
                            f"reconciled sample violates coherence: scheme={scheme} "
                            f"method={lab} origin={dataset.test_origins[idx].origin} "
                            f"violation={violation:.3e} tol={cfg.coherence_tol:.3e}"
                        )
                add_rows(scheme, lab, reconciled, actuals)
    except Exception as exc:
        _flush_reports(outdir, h, crps_rows, mae_rows, origin_rows, diag_rows)
        (outdir / "failure.txt").write_text(f"{type(exc).__name__}: {exc}\n")
        raise

    _flush_reports(outdir, h, crps_rows, mae_rows, origin_rows, diag_rows)
    _write_manifest(outdir / "manifest.txt", cfg)
    (outdir / "failure.txt").unlink(missing_ok=True)
    return crps_rows


def _level_labels(h: HierarchySpec) -> list[str]:
    return [f"{fl}h" for fl in h.f]


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, newline="")
    os.replace(tmp, path)


def _format_report(rows: list[ReportRow], h: HierarchySpec) -> str:
    lines = ["scheme,method," + ",".join(_level_labels(h)) + ",mean"]
    for row in rows:
        scores = ",".join(f"{s:.4f}" for s in row.level_scores)
        lines.append(f"{row.scheme},{row.method},{scores},{row.overall:.4f}")
    return "\n".join(lines) + "\n"


def _flush_reports(outdir: Path, h, crps_rows, mae_rows, origin_rows, diag_rows) -> None:
    _atomic_write(outdir / "crps.csv", _format_report(crps_rows, h))
    _atomic_write(outdir / "mae.csv", _format_report(mae_rows, h))
    lines = ["scheme,method,origin,level,crps,mae"]
    for scheme, method, origin, level, crps, mae in origin_rows:
        lines.append(f"{scheme},{method},{origin},{level},{crps:.4f},{mae:.4f}")
    _atomic_write(outdir / "origin_scores.csv", "\n".join(lines) + "\n")
    lines = ["scheme,method,origin,coherence_violation"]
    for scheme, method, origin, violation in diag_rows:
        lines.append(f"{scheme},{method},{origin},{violation:.3e}")
    _atomic_write(outdir / "diagnostics.csv", "\n".join(lines) + "\n")


def _write_cv_weights(path: Path, cv_results: dict, h: HierarchySpec) -> None:
    lines = ["scheme,regime," + ",".join(_level_labels(h)) + ",sum,objective,iterations"]
    for (scheme, lab), res in cv_results.items():
        weights = ",".join(f"{w:.4f}" for w in res.v)
        lines.append(
            f"{scheme},{res.regime},{weights},{res.v.sum():.4f},"
            f"{res.objective:.6f},{res.iterations}"
        )
    _atomic_write(path, "\n".join(lines) + "\n")


def _write_manifest(path: Path, cfg: RunConfig) -> None:
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        lines.append(f"{f.name} = {value}")
    _atomic_write(path, "\n".join(lines) + "\n")


def exit_code(exc: BaseException) -> int | None:
    """The documented exit code of an error, or None if its family is unmapped."""
    for cls in type(exc).__mro__:
        if cls in EXIT_CODES:
            return EXIT_CODES[cls]
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="temporec",
        description="Reconcile and score probabilistic forecasts over a temporal hierarchy.",
    )
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--seed", type=int, help="random seed")
    parser.add_argument("--out", help="output directory")
    parser.add_argument(
        "--synthetic", action="store_true", default=None,
        help="use the synthetic scenario even if a data file is configured",
    )
    parser.add_argument("--methods", help="comma-separated method list")
    parser.add_argument("--schemes", help="comma-separated scheme list")
    parser.add_argument("--cv-regime", dest="cv_regimes", help="comma-separated regime list")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(
            args.config,
            overrides={
                "seed": args.seed,
                "out": args.out,
                "synthetic": args.synthetic,
                "methods": args.methods,
                "schemes": args.schemes,
                "cv_regimes": args.cv_regimes,
            },
        )
        rows = run_experiment(cfg)
    except (TemporecError, np.linalg.LinAlgError) as exc:
        code = exit_code(exc)
        if code is None:
            raise
        print(f"{EXIT_LABELS[code]}: {exc}", file=sys.stderr)
        return code

    h = build_hierarchy(cfg.frequencies)
    print("CRPS (native units per level; lower is better)")
    print(f"{'scheme':>10} {'method':>12} " + " ".join(f"{lab:>8}" for lab in _level_labels(h)) + f" {'mean':>8}")
    for row in rows:
        scores = " ".join(f"{s:8.4f}" for s in row.level_scores)
        print(f"{row.scheme:>10} {row.method:>12} {scores} {row.overall:8.4f}")
    print(f"reports written to {cfg.out}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
