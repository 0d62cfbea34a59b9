"""Benchmark of the temporec batch experiment, end to end and layer by layer.

Run from the root of a temporec source checkout:

    python3 perfbench/run.py --workload daily-default --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0

With ``--trace 0`` it runs ``temporec.cli.run_experiment`` on the workload
again and again until ``--seconds`` have passed, each run in a fresh child
process, one at a time, and reports the end-to-end metrics. With
``--trace 1`` it makes one untraced and one traced run, checks that their
reports are byte-identical, runs the isolated layer probes, and reports the
per-layer metrics. ``--workload all`` does both for every benchmark
workload. Every run's reports are checked (see ``checks.py``); a run that
fails a check counts as failed. The last line of standard output is a JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from datetime import datetime, timedelta, timezone
from pathlib import Path

from checks import check_outputs, quality

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
RUN_BUDGET_S = 170.0
SETUP_SAMPLES = 9
PROBE_MIN_S = 0.05
PROBE_MIN_REPS = 5

FIVEMIN = "288,144,96,72,48,36,24,12,6,3,1"

# config keys per workload; `seed` and `out` are added per run
WORKLOADS = {
    "daily-default": {
        "why": "CLI defaults (M=60, ranked, simplex CV) but 50 iterations per start: the paper's headline run, where the CV search dominates",
        # every start runs to the cap, so the work does not depend on the seed
        "config": {"cv_maxiter": "50"},
    },
    "fivemin-fixed": {
        "why": "CSV ingest, M=492, three schemes, fixed methods, 500 paths: no CV search, so reconcile, scoring and reports show",
        "config": {
            "frequencies": FIVEMIN, "data": "series.csv", "schemes": "stacked,ranked,permuted",
            "methods": "bu,ba,ga,la,wls", "n_paths": "500",
        },
        "csv_cycles": 50,
    },
    "fivemin-cv-nonconvex": {
        "why": "M=492 affine CV on stacked and permuted samples with capped iterations: costly, non-convex objective evaluations",
        "config": {
            "frequencies": FIVEMIN, "synthetic": "true", "schemes": "stacked,permuted",
            "methods": "bu,cv", "cv_regimes": "affine", "cv_starts": "3", "cv_maxiter": "40",
        },
    },
    # small run for the benchmark's own tests; not listed in BENCHMARK.json
    "smoke": {
        "why": "4,2,1 hierarchy, every method and regime, a few cycles",
        "config": {
            "frequencies": "4,2,1", "data": "series.csv", "schemes": "stacked,ranked,permuted",
            "methods": "bu,ba,ga,la,wls,cv", "cv_regimes": "simplex,affine,free",
            "train_cycles": "12", "val_cycles": "4", "test_cycles": "4", "n_paths": "40",
            "cv_starts": "3", "cv_maxiter": "30",
        },
        "csv_cycles": 20,
    },
}
BENCH_WORKLOADS = ("daily-default", "fivemin-fixed", "fivemin-cv-nonconvex")

END_TO_END = {
    "run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "cv_objective_rel": "ratio",
    "test_crps_rel": "ratio",
}
PER_LAYER = {
    "cvopt.search_s": "s", "cvopt.self_s": "s", "cvopt.iterations": "count",
    "cvopt.evals_per_iter": "evals/iter", "cvopt.search_share": "ratio",
    "scoring.cv_eval_s": "s", "scoring.cv_evals": "count", "scoring.cv_eval_p50_ms": "ms",
    "scoring.cv_eval_p99_ms": "ms", "scoring.score_s": "s", "scoring.score_calls": "count",
    "reconcile.cv_weights_s": "s", "reconcile.cv_weights_calls": "count",
    "reconcile.weights_s": "s", "reconcile.coherence_s": "s", "reconcile.coherence_calls": "count",
    "reconcile.dense_flops": "flop-computed",
    "sampling.assemble_s": "s", "sampling.assemble_calls": "count",
    "sampling.cv_assemble_s": "s", "sampling.bytes": "B-computed",
    "simkit.dataset_s": "s",
    "cli.ingest_s": "s", "cli.ingest_rows": "count", "cli.self_s": "s", "cli.report_bytes": "B",
    "trace.run_s": "s", "trace.overhead_s": "s",
    "probe.cv_eval_ms": "ms", "probe.reconcile_ms": "ms", "probe.assemble_stacked_ms": "ms",
    "probe.assemble_ranked_ms": "ms", "probe.assemble_permuted_ms": "ms",
}


class BenchError(Exception):
    """No run of a workload passed its checks, so there is no result."""


# One BLAS thread: on a small shared machine a second thread adds CPU time
# without lowering run_s, and makes run_s depend on the neighbours' load.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1"}


def environment() -> dict:
    import ctypes

    import numpy
    import scipy
    import temporec

    blas_threads = None
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                blas_threads = fn()
                break
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "caches": caches,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "temporec": temporec.__version__,
    }


# --- inputs ----------------------------------------------------------------

def write_series(path: Path, cycles: int, cycle_length: int, seed: int) -> None:
    """Hourly-stamped AR(1) plus a one-cycle sine, seeded."""
    import numpy as np

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5E12E5]))
    n = cycles * cycle_length
    noise = rng.normal(size=n)
    ar = np.empty(n)
    state = 0.0
    for t in range(n):
        state = 0.7 * state + noise[t]
        ar[t] = state
    values = 10.0 + 3.0 * np.sin(2 * np.pi * np.arange(n) / cycle_length) + ar
    start = datetime(2021, 1, 1, tzinfo=timezone.utc)
    lines = ["timestamp,value"]
    for t, value in enumerate(values.tolist()):
        stamp = start + timedelta(hours=t)
        lines.append(f"{stamp.strftime('%Y-%m-%dT%H:%M:%SZ')},{value!r}")
    path.write_text("\n".join(lines) + "\n")


def prepare(workload: str, seed: int, tag: str) -> Path:
    """Write the workload's config (and CSV) into a fresh work directory."""
    spec = WORKLOADS[workload]
    workdir = WORK / f"{workload}-{seed}-{tag}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    config = dict(spec["config"], seed=str(seed), out="out")
    (workdir / "run.conf").write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
    if "csv_cycles" in spec:
        cycle_length = int(config["frequencies"].split(",")[0])
        write_series(workdir / config["data"], spec["csv_cycles"], cycle_length, seed)
    return workdir


class Inputs:
    """The resolved config and dataset of one work directory, built through
    the public API, for the output checks and the probes."""

    def __init__(self, workdir: Path):
        from temporec import build_hierarchy, cv_objective
        from temporec.cli import load_config

        self.cfg = load_config(str(workdir / "run.conf"), env={})
        self.h = build_hierarchy(self.cfg.frequencies)
        self.dataset = self._dataset(workdir)
        cfg, h = self.cfg, self.h
        bu = [0.0] * (h.L - 1) + [1.0]
        equal = [1.0 / h.L] * h.L

        def objective(v, scheme):
            return cv_objective(v, scheme, self.dataset.val_origins, h, seed=cfg.seed)

        regimes = [lab.removeprefix("cv-") for lab in cfg.method_labels() if lab.startswith("cv-")]
        self.starts = {scheme: (objective(bu, scheme), objective(equal, scheme)) for scheme in cfg.schemes}
        self.expect = {
            "schemes": cfg.schemes,
            "labels": cfg.method_labels(),
            "levels": [f"{f}h" for f in cfg.frequencies],
            "test_cycles": cfg.test_cycles,
            "coherence_tol": cfg.coherence_tol,
            "searches": [(scheme, regime) for scheme in cfg.schemes for regime in regimes],
            "starts": self.starts,
        }

    def _dataset(self, workdir: Path):
        from temporec import SyntheticScenario, build_dataset, dataset_from_series
        from temporec.cli import ingest_csv

        cfg, h = self.cfg, self.h
        if cfg.synthetic or not cfg.data:
            scn = SyntheticScenario(
                phi=cfg.phi, sigma=cfg.sigma, mu=cfg.mu, cycle_length=h.cycle_length,
                train_cycles=cfg.train_cycles, val_cycles=cfg.val_cycles,
                test_cycles=cfg.test_cycles, seed=cfg.seed, clip_at_zero=cfg.clip_at_zero,
            )
            return build_dataset(scn, h, cfg.n_paths)
        return dataset_from_series(
            ingest_csv(str(workdir / cfg.data)), h, cfg.train_cycles, cfg.val_cycles,
            cfg.test_cycles, cfg.n_paths, seed=cfg.seed,
        )


# --- runs ------------------------------------------------------------------

class Runner:
    """Spawns runner.py children one at a time under one deadline."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ, **BLAS_ENV)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
        )

    def spawn(self, *extra: str) -> dict:
        timeout = max(1.0, self.deadline - time.monotonic())
        args = [sys.executable, str(HERE / "runner.py"), "run.conf", *extra]
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                args, cwd=self.workdir, env=self.env, capture_output=True, text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return {"ok": False, "error": f"timed out after {timeout:.0f} s"}
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return {"ok": False, "error": f"exit {proc.returncode}: {tail[0]}"}
        report = json.loads(lines[-1])
        report["setup_s"] = report["t_ready"] - t0
        return report

    def run(self, inputs: Inputs, *extra: str) -> dict:
        """One checked run; ``problems`` is empty when it passed."""
        outdir = self.workdir / "out"
        shutil.rmtree(outdir, ignore_errors=True)
        report = self.spawn(*extra)
        if not report["ok"]:
            report["problems"] = [report.get("error", "run failed")]
            return report
        report["problems"] = check_outputs(outdir, inputs.expect)
        report["hashes"] = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(outdir.iterdir())
        }
        report["report_bytes"] = sum(p.stat().st_size for p in outdir.iterdir())
        if not report["problems"]:
            report["quality"] = quality(outdir, inputs.starts)
        return report


def measure_end_to_end(runner: Runner, inputs: Inputs, seconds: float) -> dict:
    runs = []
    begin = time.monotonic()
    while not runs or time.monotonic() - begin < seconds:
        report = runner.run(inputs)
        if runs and runs[0].get("hashes") and report.get("hashes") != runs[0]["hashes"]:
            report["problems"].append("reports differ from the first run with the same seed")
        runs.append(report)
        if report.get("error", "").startswith("timed out"):
            break
    setups = [r["setup_s"] for r in runs if "setup_s" in r]
    while len(setups) < SETUP_SAMPLES and time.monotonic() < runner.deadline - 10:
        report = runner.spawn("--setup-only")
        if not report["ok"]:
            break
        setups.append(report["setup_s"])
    good = [r for r in runs if not r["problems"]]
    metrics, info = {}, {}
    if good:
        metrics = {
            "run_s": min(r["run_s"] for r in good),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_kib"] / 1024 for r in good),
            "cv_objective_rel": good[0]["quality"]["cv_objective_rel"],
            "test_crps_rel": good[0]["quality"]["test_crps_rel"],
        }
        info = {k: good[0]["quality"][k] for k in ("cv_objective", "test_crps")}
    return {"runs": runs, "metrics": metrics, "info": info}


def measure_layers(runner: Runner, inputs: Inputs) -> dict:
    plain = runner.run(inputs)
    traced = runner.run(inputs, "--spans", "spans.json")
    runs = [plain, traced]
    if not plain["problems"] and not traced["problems"] and plain["hashes"] != traced["hashes"]:
        differ = sorted(k for k in plain["hashes"] if plain["hashes"][k] != traced["hashes"].get(k))
        traced["problems"].append(f"traced reports differ from untraced: {differ}")
    metrics = {}
    if not plain["problems"] and not traced["problems"]:
        with open(runner.workdir / "spans.json") as fh:
            spans = json.load(fh)["spans"]
        metrics = layer_metrics(spans, traced, plain, inputs)
        probes, problems = run_probes(inputs)
        metrics.update(probes)
        traced["problems"].extend(problems)
    return {"runs": runs, "metrics": metrics if not traced["problems"] else {}}


def layer_metrics(spans: list, traced: dict, plain: dict, inputs: Inputs) -> dict:
    """Per-layer totals, self times, counts and computed sizes from spans
    ``[name, start, end, parent, shapes]``."""
    import numpy as np

    h = inputs.h
    dur = [end - start for _, start, end, _, _ in spans]
    inner = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            inner[parent] += dur[i]

    def pick(*names):
        return [i for i, span in enumerate(spans) if span[0] in names]

    def total(*names):
        return sum(dur[i] for i in pick(*names))

    def self_time(*names):
        return sum(dur[i] - inner[i] for i in pick(*names))

    run_s = traced["run_s"]
    evals = pick("cvopt.cv_criterion")
    eval_ms = np.array([dur[i] * 1e3 for i in evals]) if evals else np.zeros(1)
    iterations = traced["quality"]["iterations"]
    cli_weights = pick("cli.fixed_weights", "cli.wls_weights", "cli.weights_from_levels")
    cli_tensors = [spans[i][4]["result"][0] for i in pick("cli.assemble_origins")]
    all_tensors = cli_tensors + [spans[i][4]["result"][0] for i in pick("cvopt.assemble_origins")]

    flops = 0
    for i in evals:  # P @ Y then S @ (P Y) per origin
        T, M, N = spans[i][4]["args"][0]
        flops += 4 * h.m * M * T * N
    if cli_tensors:  # S @ P, then the einsum over the test tensor, per method
        T, M, N = cli_tensors[-1]
        flops += len(cli_weights) * (2 * M * h.m * M + 2 * M * M * T * N)
    for i in pick("cli.check_coherence"):  # S @ bottom
        M, N = spans[i][4]["args"][0]
        flops += 2 * M * h.m * N

    search = total("cli.optimize_weights")
    top_level = sum(dur[i] for i, span in enumerate(spans) if span[3] < 0)
    ingest = pick("cli.ingest_csv")
    return {
        "cvopt.search_s": search,
        "cvopt.self_s": self_time("cli.optimize_weights"),
        "cvopt.iterations": iterations,
        "cvopt.evals_per_iter": len(evals) / iterations if iterations else 0.0,
        "cvopt.search_share": search / run_s,
        "scoring.cv_eval_s": self_time("cvopt.cv_criterion"),
        "scoring.cv_evals": len(evals),
        "scoring.cv_eval_p50_ms": float(np.percentile(eval_ms, 50)),
        "scoring.cv_eval_p99_ms": float(np.percentile(eval_ms, 99)),
        "scoring.score_s": total("cli.score_hierarchy"),
        "scoring.score_calls": len(pick("cli.score_hierarchy")),
        "reconcile.cv_weights_s": total("cvopt.weights_from_levels"),
        "reconcile.cv_weights_calls": len(pick("cvopt.weights_from_levels")),
        "reconcile.weights_s": sum(dur[i] for i in cli_weights),
        "reconcile.coherence_s": total("cli.check_coherence"),
        "reconcile.coherence_calls": len(pick("cli.check_coherence")),
        "reconcile.dense_flops": flops,
        "sampling.assemble_s": total("cli.assemble_origins"),
        "sampling.assemble_calls": len(cli_tensors),
        "sampling.cv_assemble_s": total("cvopt.assemble_origins"),
        "sampling.bytes": sum(8 * int(np.prod(shape)) for shape in all_tensors),
        "simkit.dataset_s": total("cli.build_dataset", "cli.dataset_from_series"),
        "cli.ingest_s": total("cli.ingest_csv"),
        "cli.ingest_rows": sum(spans[i][4]["result"][0][0] for i in ingest),
        "cli.self_s": run_s - top_level,
        "cli.report_bytes": traced["report_bytes"],
        "trace.run_s": run_s,
        "trace.overhead_s": run_s - plain["run_s"],
    }


def timed_ms(fn) -> float:
    """Median wall time of ``fn()`` in ms over at least PROBE_MIN_REPS calls
    and PROBE_MIN_S seconds."""
    samples = []
    begin = time.perf_counter()
    while len(samples) < PROBE_MIN_REPS or time.perf_counter() - begin < PROBE_MIN_S:
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples)


def run_probes(inputs: Inputs) -> tuple[dict, list[str]]:
    """Time single public calls on the workload's own inputs."""
    from temporec import (
        SCHEMES, assemble, assemble_origins, build_summing_matrix, check_coherence,
        cv_criterion, reconcile, weights_from_levels,
    )

    cfg, h, ds = inputs.cfg, inputs.h, inputs.dataset
    scheme = cfg.schemes[0]
    P = weights_from_levels([1.0 / h.L] * h.L, h)
    S = build_summing_matrix(h)
    metrics, problems = {}, []

    for name in SCHEMES:
        metrics[f"probe.assemble_{name}_ms"] = statistics.median(
            timed_ms(lambda o=o: assemble(o.levels, h, name, seed=cfg.seed)) for o in ds.val_origins
        )

    tensor, actuals = assemble_origins(ds.val_origins, h, scheme, seed=cfg.seed)
    metrics["probe.cv_eval_ms"] = timed_ms(lambda: cv_criterion(P, tensor, actuals, h))

    per_origin = []
    for origin in ds.test_origins:
        Y = assemble(origin.levels, h, scheme, seed=cfg.seed)
        check = check_coherence(reconcile(S, P, Y).matrix, S, tol=cfg.coherence_tol)
        if not check.ok:
            problems.append(f"probe: reconcile() output incoherent by {check.max_violation:.3e}")
        per_origin.append(timed_ms(
            lambda Y=Y: check_coherence(reconcile(S, P, Y).matrix, S, tol=cfg.coherence_tol)
        ))
    metrics["probe.reconcile_ms"] = statistics.median(per_origin)
    return metrics, problems


# --- entry point -------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    workdir = prepare(workload, seed, "layers" if trace else "e2e")
    inputs = Inputs(workdir)
    runner = Runner(workdir, deadline)
    result = measure_layers(runner, inputs) if trace else measure_end_to_end(runner, inputs, seconds)
    failed = [r for r in result["runs"] if r["problems"]]
    for report in failed:
        for problem in report["problems"]:
            print(f"{workload}: FAILED CHECK: {problem}", file=sys.stderr)
    if not result["metrics"]:
        raise BenchError(f"{workload}: no run passed its checks; inputs kept in {workdir}")
    if not failed:
        shutil.rmtree(workdir, ignore_errors=True)
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": not failed,
        "attempted": len(result["runs"]),
        "failed": len(failed),
        "metrics": {k: {"value": result["metrics"][k], "unit": units[k]} for k in units},
        "info": {k: v for k, v in result.get("info", {}).items() if v is not None},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "temporec" / "__init__.py").is_file():
        print(f"error: no temporec source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(SRC))
    import temporec

    if Path(temporec.__file__).resolve().parent != (SRC / "temporec").resolve():
        print(f"error: imported temporec from {temporec.__file__}, not {SRC}", file=sys.stderr)
        return 2

    plan = (
        [(w, t) for w in BENCH_WORKLOADS for t in (False, True)]
        if args.workload == "all" else [(args.workload, bool(args.trace))]
    )
    print("environment: " + json.dumps(environment(), sort_keys=True))
    results = []
    try:
        for workload, trace in plan:
            result = measure(workload, args.seed, args.seconds, trace)
            results.append((workload, result))
            for name, metric in result["metrics"].items():
                print(f"{workload:22s} {name:28s} {metric['value']:>14.6g} {metric['unit']}")
            for name, value in result.pop("info").items():
                print(f"{workload:22s} {name:28s} {value:>14.6g} CRPS (raw, not gated)")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        summary = results[0][1]
    else:
        summary = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{w}.{k}": v for w, r in results for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
