"""End-to-end experiment driver and command-line entry point.

A run ingests a bottom-level series (CSV) or simulates one, splits it into
train/validation/test by whole cycles, fits one forecaster per level on the
training window, selects cross-validated weights on the validation origins,
then reconciles and scores every test origin for each requested scheme and
method. A run draws the validation origins only when it searches, once per
search, and keeps none of them. Its test pass draws each test origin once
and couples, reconciles, checks and scores it under every scheme and method
before it draws the next, so it holds a few single-origin samples at a
time. Everything up to scoring is in common units (window means); the
reported scores are in each level's native units (window sums). Outputs
are plain CSV files plus ``manifest.txt``, a config file that reproduces
the run; identical configurations produce byte-identical files.

Configuration is a flat ``key = value`` UTF-8 text file ('#' starts a comment
and values are stripped). Keys, with defaults:

    frequencies     = 24,12,8,6,4,3,2,1   sampling intervals, coarse to fine
    data            =                     CSV path; empty means synthetic
    synthetic       = false               force synthetic even if data set
    phi             = 0.7                 AR coefficient of the truth process
    sigma           = 1.0                 innovation scale
    mu              = 1.0                 AR intercept
    clip_at_zero    = false               floor the truth path at zero
    train_cycles    = 30                  cycles used for model fitting (at least 10)
    val_cycles      = 10                  cycles used for weight selection
    test_cycles     = 10                  cycles used for evaluation
    n_paths         = 200                 sample paths per level per origin
    schemes         = ranked              any of stacked,ranked,permuted
    methods         = bu,ba,ga,la,wls,cv  reconciliation methods
    cv_regimes      = simplex             any of simplex,affine,free
    cv_starts       = 6                   Nelder-Mead starts (at least 3)
    cv_maxiter      = 0                   iteration / LP-solve cap (0 = default)
    seed            = 0                   nonnegative
    out             = temporec-out        output directory; not empty
    coherence_tol   = 1e-9                positive; relative, see below

Float values (phi, sigma, mu, coherence_tol) must be finite; n_paths is at
least 2, train_cycles at least 10 (a fit needs 10 observations, and level 1
has one per cycle), the other cycle counts at least 1, cv_starts at least 3
(a search never runs fewer starts) and cv_maxiter nonnegative. An empty out
(``out =`` or ``TEMPOREC_OUT=``) would write the reports into the current
directory, so it is rejected. A data or out value that holds a '#' or a
line break could not be written in the file, so it is rejected too, as is
one with a NUL (no file has that name) or one that is not UTF-8 text. A
value out of bounds, a key set twice in the config file, or a token
repeated in schemes, methods or cv_regimes, is a configuration error that
names the key. A ``RunConfig`` checks itself on construction: each value,
typed or text, is parsed from its text form, so one that exists is valid
and reads back equal from its manifest.

coherence_tol is relative: a reconciled sample passes the coherence check
when its worst absolute violation (reported in ``diagnostics.csv``) is at
most coherence_tol times max(1, its largest bottom-level magnitude).

A search under ``simplex`` on sorted samples (the ``ranked`` scheme) is the
certified cutting-plane search: cv_starts does not apply to it, and
cv_maxiter caps its LP solves instead of the Nelder-Mead iterations of
each start.

Every key can also be set by an environment variable with the ``TEMPOREC_``
prefix (e.g. ``TEMPOREC_SEED=7``); command-line flags win over environment
variables, which win over the config file.

The ``cv`` method expands to one report row per configured regime, labelled
``cv-<regime>``. A no-reconciliation baseline row (scheme and method
``none``) is always included.

Input CSV schema: UTF-8 text (a byte-order mark is allowed), header
``timestamp,value``; ISO-8601 UTC timestamps (no offset means UTC) at
bottom-period (hourly) resolution, whole-hour steps, strictly increasing,
gap-free; finite values in native units. Cycle 0 starts at the first row,
whatever its hour (a series that starts at 05:00 has 05:00-to-04:00
cycles), and the rows after the train + validation + test cycles are
dropped. Output files: ``crps.csv`` and
``mae.csv`` (one row per scheme/method, per-level columns coarse to fine
plus the mean), ``cv_weights.csv`` (weights, row sum, optimality ``gap``
of a certified search or empty, objective, iterations),
``origin_scores.csv`` (tidy per-origin per-level scores),
``diagnostics.csv`` (per-origin coherence violations), and
``manifest.txt``. Every run that can make its out directory rewrites all
six with the rows it finished; a failed run also writes ``failure.txt``
naming the error, which the next successful run removes.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure. Every package error maps to one of them by its family
(``EXIT_CODES``):

    2  ConfigError (including an out directory or report file that
       cannot be written; a failed run keeps its own error's code),
       HierarchyError (bad frequencies), SimkitError (a synthetic
       scenario or training window that cannot be fitted, e.g.
       ``phi = 1``)
    3  DataError (unreadable, malformed, non-finite, non-hourly-step,
       gapped or too short CSV input)
    4  NumericalError, SamplingError, ReconcileError, ScoringError, and
       LAPACK failures (``numpy.linalg.LinAlgError``)

The command prints each warning, such as a weight search's that stopped
at its cap, as one ``warning: <message>`` line on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import math
import os
import sys
import typing
import warnings
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
    ReconcileError,
    SamplingError,
    SchemaError,
    ScoringError,
    SimkitError,
    TemporecError,
)
from .hierarchy import build_hierarchy, build_summing_matrix
from .reconcile import (
    _coherence_bound,
    check_coherence,
    fixed_weights,
    reconcile_tensor,
    weights_from_levels,
    wls_weights,
)
from .sampling import SCHEMES, assemble_origins
# perfbench/runner.py times the scoring layer as cli.score_hierarchy, so it stays bound
from .scoring import ScoreTable, score_hierarchy, score_origin, score_tables  # noqa: F401
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
# Smallest accepted value of each bounded integer setting.
MINIMA = {
    "n_paths": 2, "train_cycles": 10, "val_cycles": 1, "test_cycles": 1,
    "cv_starts": 3, "cv_maxiter": 0, "seed": 0,
}
# Tokens each list setting may hold, each at most once; only cv_regimes may be empty.
CHOICES = {"schemes": SCHEMES, "methods": (*FIXED_METHOD_TOKENS, "cv"), "cv_regimes": REGIMES}


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

    def __post_init__(self):
        # a typed value is parsed from its text form, so it takes the config file's path
        for name, kind in KINDS.items():
            value = _parse_value(name, _text(getattr(self, name)), kind)
            object.__setattr__(self, name, value)
            if kind is float and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
            if kind is str and ("#" in value or "".join(value.splitlines()) != value):
                raise ConfigError(f"{name} must hold no '#' and no line break, got {value!r}")
            # a NUL names no file; a lone surrogate (a non-UTF-8 argument) writes no manifest
            if kind is str and ("\0" in value or value.encode("utf-8", "ignore").decode() != value):
                raise ConfigError(f"{name} must be UTF-8 text without NUL, got {value!r}")
        try:
            build_hierarchy(self.frequencies)
        except TemporecError as exc:
            raise ConfigError(f"invalid frequencies: {exc}") from exc
        for name, allowed in CHOICES.items():
            tokens = getattr(self, name)
            if not set(tokens) <= set(allowed) or (not tokens and name != "cv_regimes"):
                raise ConfigError(f"{name} must be drawn from {allowed}, got {tokens}")
            repeated = next((t for i, t in enumerate(tokens) if t in tokens[:i]), None)
            if repeated is not None:
                raise ConfigError(f"{name} lists {repeated!r} more than once")
        if "cv" in self.methods and not self.cv_regimes:
            raise ConfigError("method 'cv' requested but no cv_regimes configured")
        for name, low in MINIMA.items():
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be at least {low}, got {getattr(self, name)}")
        if self.coherence_tol <= 0:
            raise ConfigError("coherence_tol must be positive")
        if not self.out:
            raise ConfigError("out must be a directory path, got an empty value")

    def method_labels(self) -> tuple[str, ...]:
        labels = []
        for m in self.methods:
            if m == "cv":
                labels.extend(f"cv-{r}" for r in self.cv_regimes)
            else:
                labels.append(m)
        return tuple(labels)


KINDS = typing.get_type_hints(RunConfig)  # each setting's type, which its text parses to


@dataclass(frozen=True)
class ReportRow:
    """One line of the CRPS or MAE report."""

    scheme: str
    method: str
    level_scores: tuple[float, ...]
    overall: float


def _text(value) -> str:
    """A setting's text form, as the config file and the manifest write it;
    ``None`` is the empty value."""
    if value is None:
        return ""
    if isinstance(value, (tuple, list)):
        return ",".join(str(v) for v in value)
    return str(value)


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
    except ValueError as exc:
        raise ConfigError(f"bad value for {name}: {raw!r} ({exc})") from exc


def _read_config_file(path: str) -> dict:
    values, set_on = {}, {}
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key in set_on:
            raise ConfigError(f"{path}:{lineno}: key {key!r} is already set on line {set_on[key]}")
        values[key], set_on[key] = raw.strip(), lineno
    return values


def load_config(
    config_path: str | None = None,
    overrides: dict | None = None,
    env: dict | None = None,
) -> RunConfig:
    """Resolve a run configuration from file, environment, and overrides; a
    ``None`` override is unset. ``RunConfig`` parses and checks every value."""
    env = os.environ if env is None else env
    raw: dict = _read_config_file(config_path) if config_path else {}
    for name in KINDS:
        env_key = ENV_PREFIX + name.upper()
        if env_key in env:
            raw[name] = env[env_key]
    raw.update((name, value) for name, value in (overrides or {}).items() if value is not None)
    unknown = set(raw) - set(KINDS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return RunConfig(**raw)


def ingest_csv(path: str) -> np.ndarray:
    """Read and validate a ``timestamp,value`` CSV into a bottom series.

    The file is UTF-8 text, with or without a byte-order mark. Timestamps
    must be ISO-8601 UTC at hourly (bottom-period) resolution, strictly
    increasing and gap-free; a timestamp without an offset is read as UTC.

    Raises:
        SchemaError: unreadable or non-UTF-8 file, wrong header, unparsable
            timestamp, unparsable or non-finite value, or a step that is
            not a whole number of hours (the message names the line).
        NonMonotoneTimestamps: duplicated or out-of-order rows (the
            message names the line).
        GapError: missing periods (the message names them, each with the
            line that follows it).
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot open {path}: {exc}") from exc
    reader = csv.reader(io.StringIO(text, newline=""))
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
                f"{path}:{lineno}: timestamp {cur.isoformat()} does not follow {prev.isoformat()}"
            )
        if (cur - prev) % step:
            raise SchemaError(
                f"{path}:{lineno}: step {cur - prev} from the previous row is not "
                "a whole number of hours"
            )
        missing = (cur - prev) // step - 1
        if missing:
            span = (prev + step).isoformat() + (f" .. {(cur - step).isoformat()}" if missing > 1 else "")
            gaps.append(f"{span} before line {lineno}")
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


def run_experiment(cfg: RunConfig):
    """Run the full pipeline and write all artifacts under ``cfg.out``.

    Returns the CRPS report rows, the no-reconciliation baseline first (the
    MAE rows are written to disk alongside). Every run that can make
    ``cfg.out`` rewrites all six report files with the rows it finished; a
    run that fails after that also writes a ``failure.txt`` naming the error.
    """
    h = build_hierarchy(cfg.frequencies)
    S = build_summing_matrix(h)
    outdir = Path(cfg.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create the output directory out = {cfg.out!r}: {exc}") from exc
    labels = cfg.method_labels()
    cv_results: dict[tuple[str, str], CvResult] = {}
    results: list[tuple[str, str, ScoreTable, ScoreTable]] = []  # scheme, method, CRPS, MAE
    diagnostics: list[tuple[str, str, int, float]] = []
    origins: tuple[int, ...] = ()

    try:
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
        # the labels, not the split: each test origin is drawn once, in the test pass
        origins = tuple(dataset.test_range)

        # weight selection sees only validation origins
        for scheme in cfg.schemes:
            for regime in cfg.cv_regimes if "cv" in cfg.methods else ():
                cv_results[(scheme, regime)] = optimize_weights(
                    dataset.val_origins,
                    scheme,
                    regime,
                    h,
                    seed=cfg.seed,
                    n_starts=cfg.cv_starts,
                    maxiter=cfg.cv_maxiter or None,
                )

        # a fixed map does not depend on the scheme, so each is built once
        fixed = {lab: wls_weights(h) if lab == "wls" else fixed_weights(lab.upper(), h)
                 for lab in labels if lab in FIXED_METHOD_TOKENS}
        pairs = [
            (scheme, lab, fixed[lab] if lab in fixed
             else weights_from_levels(cv_results[(scheme, lab.removeprefix("cv-"))].v, h))
            for scheme in cfg.schemes for lab in labels
        ]
        logs: list[list] = [[] for _ in pairs]  # each pair's diagnostics rows

        def reconciled_scores(k, label, sample, actual):
            """Pair k's map applied to one origin's sample, checked, logged and
            scored; the reconciled buffer dies with this call's scope."""
            scheme, lab, P = pairs[k]
            mat = reconcile_tensor(P, sample)
            ok, violation = check_coherence(mat, S, tol=cfg.coherence_tol)
            logs[k].append((scheme, lab, label, violation))
            if not ok:
                bound = _coherence_bound(mat[h.M - h.m:], cfg.coherence_tol)
                raise NumericalError(
                    f"reconciled sample violates coherence: scheme={scheme} "
                    f"method={lab} origin={label} "
                    f"violation={violation:.3e} bound={bound:.3e} "
                    f"(coherence_tol={cfg.coherence_tol:.3e} times max(1, max |bottom|))"
                )
            return score_origin(mat, actual, overwrite=True)

        # common-unit node CRPS and errors per origin: the baseline, then each pair
        scores = np.empty((1 + len(pairs), 2, len(origins), h.M))
        live, failure = len(pairs), None  # pairs[live:] stopped at failure
        for t, origin in enumerate(dataset.test_origins):
            for s, scheme in enumerate(cfg.schemes):
                (sample,), (actual,) = assemble_origins([origin], h, scheme, seed=cfg.seed)
                if not s:
                    # no-reconciliation baseline, scored on the first scheme's raw
                    # sample: a scheme only reorders each row's paths
                    scores[0, :, t] = score_origin(sample, actual)
                for k in range(s * len(labels), min((s + 1) * len(labels), live)):
                    try:
                        scores[k + 1, :, t] = reconciled_scores(k, origin.origin, sample, actual)
                    except (TemporecError, np.linalg.LinAlgError) as exc:
                        # this pair and the ones after it stop; the earlier ones
                        # finish, as in a pass that ran each pair in turn
                        live, failure = k, exc
                        break
        results = [
            (scheme, lab, *score_tables(*scores[k], h))
            for k, (scheme, lab, _) in enumerate([("none", "none", None), *pairs[:live]])
        ]
        diagnostics = [row for log in logs[: live + 1] for row in log]
        if failure is not None:
            raise failure
    except Exception as exc:
        # the run's own error is the one raised, even if its reports cannot be written
        with contextlib.suppress(ConfigError):
            _write_reports(outdir, cfg, results, origins, diagnostics, cv_results)
        with contextlib.suppress(OSError):
            (outdir / "failure.txt").write_text(f"{type(exc).__name__}: {exc}\n", encoding="utf-8")
        raise

    _write_reports(outdir, cfg, results, origins, diagnostics, cv_results)
    try:
        (outdir / "failure.txt").unlink(missing_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot remove failure.txt in out = {cfg.out!r}: {exc}") from exc
    return [
        ReportRow(scheme, method, crps.level_scores, crps.overall)
        for scheme, method, crps, _ in results
    ]


def _write_reports(outdir: Path, cfg: RunConfig, results, origins, diagnostics, cv_results):
    """Render the six report files of one run, each written atomically.

    ``results`` holds (scheme, method, CRPS table, MAE table) records and
    ``origins`` the test origin labels their per-origin scores belong to.
    A file that cannot be written raises ``ConfigError``, and its
    temporary copy is removed.
    """
    levels = [f"{fl}h" for fl in cfg.frequencies]
    score_header = ",".join(["scheme", "method", *levels, "mean"])
    reports = {
        "crps.csv": [score_header],
        "mae.csv": [score_header],
        "origin_scores.csv": ["scheme,method,origin,level,crps,mae"],
        "diagnostics.csv": ["scheme,method,origin,coherence_violation"],
        "cv_weights.csv": [",".join(["scheme", "regime", *levels, "sum,gap,objective,iterations"])],
        "manifest.txt": [f"{f.name} = {_text(getattr(cfg, f.name))}" for f in fields(cfg)],
    }
    for scheme, method, crps, mae in results:
        for name, table in (("crps.csv", crps), ("mae.csv", mae)):
            scores = ",".join(f"{s:.4f}" for s in table.level_scores)
            reports[name].append(f"{scheme},{method},{scores},{table.overall:.4f}")
        for origin, oc, om in zip(origins, crps.origin_scores, mae.origin_scores):
            for level, c, m in zip(levels, oc, om):
                reports["origin_scores.csv"].append(
                    f"{scheme},{method},{origin},{level},{c:.4f},{m:.4f}"
                )
    for scheme, method, origin, violation in diagnostics:
        reports["diagnostics.csv"].append(f"{scheme},{method},{origin},{violation:.3e}")
    for (scheme, regime), res in cv_results.items():
        weights = ",".join(f"{w:.4f}" for w in res.v)
        gap = "" if res.gap is None else f"{res.gap:.3e}"
        reports["cv_weights.csv"].append(
            f"{scheme},{regime},{weights},{res.v.sum():.4f},{gap},{res.objective:.6f},"
            f"{res.iterations}"
        )
    for name, lines in reports.items():
        tmp = outdir / (name + ".tmp")
        try:
            tmp.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")
            os.replace(tmp, outdir / name)
        except OSError as exc:
            with contextlib.suppress(OSError):
                tmp.unlink(missing_ok=True)
            raise ConfigError(f"cannot write {name} in out = {cfg.out!r}: {exc}") from exc


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
    # every flag's dest is its config key
    overrides = vars(parser.parse_args(argv))
    config = overrides.pop("config")

    with warnings.catch_warnings():
        # one line per warning, with no source path or line; restored on exit
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            cfg = load_config(config, overrides=overrides)
            rows = run_experiment(cfg)
        except (TemporecError, np.linalg.LinAlgError) as exc:
            code = exit_code(exc)
            if code is None:
                raise
            print(f"{EXIT_LABELS[code]}: {exc}", file=sys.stderr)
            return code

    print("CRPS (native units per level; lower is better)")
    print(f"{'scheme':>10} {'method':>12} " + " ".join(f"{fl:>7}h" for fl in cfg.frequencies) + f" {'mean':>8}")
    for row in rows:
        scores = " ".join(f"{s:8.4f}" for s in row.level_scores)
        print(f"{row.scheme:>10} {row.method:>12} {scores} {row.overall:8.4f}")
    print(f"reports written to {cfg.out}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
