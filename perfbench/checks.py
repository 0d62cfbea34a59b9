"""Checks on the report files one ``run_experiment`` call leaves behind.

``check_outputs`` returns a list of problems; an empty list means the run
passed. The reports print weights with 4 decimals and objectives with 6, so
comparisons against exact values allow for that rounding and nothing more.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

WEIGHT_DECIMALS = 4
OBJECTIVE_ROUNDING = 5e-7


def read_table(path: Path) -> tuple[list[str], list[dict]]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return list(reader.fieldnames or []), list(reader)


def check_outputs(outdir: Path, expect: dict) -> list[str]:
    """Check the reports in ``outdir`` against what the configuration implies.

    ``expect`` holds ``schemes``, ``labels`` (report method labels),
    ``levels`` (level column names), ``test_cycles``, ``coherence_tol``,
    ``searches`` (the expected ``(scheme, regime)`` rows of
    ``cv_weights.csv``) and ``starts`` mapping each scheme to the public
    ``cv_objective`` at the bottom-up and equal-weight vectors.
    """
    problems: list[str] = []
    outdir = Path(outdir)
    if (outdir / "failure.txt").exists():
        problems.append("failure.txt: " + (outdir / "failure.txt").read_text().strip())
    for name in ("crps.csv", "mae.csv", "diagnostics.csv", "cv_weights.csv", "origin_scores.csv"):
        if not (outdir / name).exists():
            problems.append(f"{name}: missing")
    if problems:
        return problems

    n_rows = 1 + len(expect["schemes"]) * len(expect["labels"])
    for name in ("crps.csv", "mae.csv"):
        header, rows = read_table(outdir / name)
        if header != ["scheme", "method", *expect["levels"], "mean"]:
            problems.append(f"{name}: header {header}")
        if len(rows) != n_rows:
            problems.append(f"{name}: {len(rows)} rows, expected {n_rows}")
        for row in rows:
            values = [row.get(col) for col in header[2:]]
            if not all(_finite(v) for v in values):
                problems.append(f"{name}: non-finite score in {row['scheme']},{row['method']}")

    _, diag = read_table(outdir / "diagnostics.csv")
    n_diag = len(expect["schemes"]) * len(expect["labels"]) * expect["test_cycles"]
    if len(diag) != n_diag:
        problems.append(f"diagnostics.csv: {len(diag)} rows, expected {n_diag}")
    for row in diag:
        violation = row["coherence_violation"]
        if not (_finite(violation) and float(violation) <= expect["coherence_tol"]):
            problems.append(
                f"diagnostics.csv: violation {violation} > {expect['coherence_tol']} "
                f"at {row['scheme']},{row['method']},{row['origin']}"
            )

    _, weights = read_table(outdir / "cv_weights.csv")
    want = set(expect["searches"])
    got = {(row["scheme"], row["regime"]) for row in weights}
    if got != want or len(weights) != len(want):
        problems.append(f"cv_weights.csv: searches {sorted(got)}, expected {sorted(want)}")
    levels = expect["levels"]
    slack = len(levels) * 0.5 * 10.0**-WEIGHT_DECIMALS
    for row in weights:
        tag = f"cv_weights.csv: {row['scheme']},{row['regime']}"
        try:
            v = [float(row[col]) for col in levels]
            total, objective = float(row["sum"]), float(row["objective"])
            iterations = int(row["iterations"])
        except (TypeError, ValueError):
            problems.append(f"{tag}: unparsable row")
            continue
        constrained = row["regime"] in ("simplex", "affine")  # "free" need not sum to 1
        if constrained and (abs(total - 1.0) > 1e-9 or abs(sum(v) - 1.0) > slack + 1e-9):
            problems.append(f"{tag}: weights sum to {sum(v)} (sum column {total})")
        if row["regime"] == "simplex" and min(v) < 0:
            problems.append(f"{tag}: negative simplex weight {min(v)}")
        if iterations < 0:
            problems.append(f"{tag}: negative iteration count")
        reference = min(expect["starts"].get(row["scheme"], (math.inf,)))
        if not objective <= reference + OBJECTIVE_ROUNDING + 1e-6 * abs(reference):
            problems.append(f"{tag}: objective {objective} exceeds the start-vector bound {reference}")
    return problems


def _finite(text) -> bool:
    try:
        return math.isfinite(float(text))
    except (TypeError, ValueError):
        return False


def quality(outdir: Path, starts: dict) -> dict:
    """Quality figures of one run's reports.

    ``cv_objective`` sums the searched objectives and ``cv_objective_rel``
    divides that by the sum of the equal-weight objectives of the same
    schemes (``starts`` as in ``check_outputs``). Without a search,
    ``cv_objective_rel`` is the bottom-up objective over the equal-weight
    one, summed over the schemes. ``test_crps`` is the mean of the reconciled
    rows' ``mean`` column, ``test_crps_rel`` the same divided by the
    ``none,none`` baseline's.
    """
    _, weights = read_table(Path(outdir) / "cv_weights.csv")
    _, crps = read_table(Path(outdir) / "crps.csv")
    baseline = [float(r["mean"]) for r in crps if (r["scheme"], r["method"]) == ("none", "none")]
    reconciled = [float(r["mean"]) for r in crps if (r["scheme"], r["method"]) != ("none", "none")]
    test_crps = sum(reconciled) / len(reconciled)
    if weights:
        cv_objective = sum(float(r["objective"]) for r in weights)
        cv_objective_rel = cv_objective / sum(starts[r["scheme"]][1] for r in weights)
    else:
        cv_objective = None
        cv_objective_rel = sum(bu for bu, _ in starts.values()) / sum(eq for _, eq in starts.values())
    return {
        "cv_objective": cv_objective,
        "cv_objective_rel": cv_objective_rel,
        "test_crps": test_crps,
        "test_crps_rel": test_crps / baseline[0],
        "iterations": sum(int(r["iterations"]) for r in weights),
    }
