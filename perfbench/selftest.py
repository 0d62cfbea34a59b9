"""Tests of the benchmark itself. Run from the root of a source checkout:

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402

pytestmark = pytest.mark.skipif(
    Path.cwd().resolve() != ROOT, reason="run from the root of the checkout"
)


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, units", [("0", run.END_TO_END), ("1", run.PER_LAYER)])
def test_smoke_prints_every_metric_with_its_unit(trace, units):
    proc = bench("--workload", "smoke", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, unit in units.items():
        assert any(line.split()[1:2] == [name] and line.split()[3:4] == [unit] for line in lines)
    assert lines[0].startswith("environment: ")
    env = json.loads(lines[0].removeprefix("environment: "))
    assert {"nproc", "blas_threads", "caches", "python", "numpy", "scipy", "temporec"} <= set(env)


@pytest.fixture(scope="module")
def good_outputs(tmp_path_factory):
    """The reports of one checked smoke run, and what they are checked against."""
    workdir = run.prepare("smoke", 5, "selftest")
    try:
        inputs = run.Inputs(workdir)
        report = run.Runner(workdir, time.monotonic() + 120).run(inputs)
        assert report["ok"] and report["problems"] == []
        saved = tmp_path_factory.mktemp("reports")
        shutil.copytree(workdir / "out", saved, dirs_exist_ok=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return saved, inputs.expect


def corrupt(src: Path, dst: Path, name: str, edit) -> Path:
    shutil.copytree(src, dst)
    path = dst / name
    lines = path.read_text().splitlines()
    lines[1] = edit(lines[1].split(","))
    path.write_text("\n".join(lines) + "\n")
    return dst


def test_checks_accept_a_good_run(good_outputs):
    outdir, expect = good_outputs
    assert checks.check_outputs(outdir, expect) == []


def test_checks_reject_incoherent_diagnostics(good_outputs, tmp_path):
    outdir, expect = good_outputs
    bad = corrupt(outdir, tmp_path / "out", "diagnostics.csv",
                  lambda cells: ",".join(cells[:-1] + ["3.000e-04"]))
    problems = checks.check_outputs(bad, expect)
    assert len(problems) == 1 and problems[0].startswith("diagnostics.csv: violation 3.000e-04")


def test_checks_reject_weights_not_summing_to_one(good_outputs, tmp_path):
    outdir, expect = good_outputs
    # the first row is a simplex search; move weight off the last level
    bad = corrupt(outdir, tmp_path / "out", "cv_weights.csv",
                  lambda cells: ",".join(cells[:2] + ["0.2500"] + cells[3:]))
    problems = checks.check_outputs(bad, expect)
    assert problems and all("weights sum to" in p for p in problems)


def test_checks_reject_an_objective_above_the_start_bound(good_outputs, tmp_path):
    outdir, expect = good_outputs
    bad = corrupt(outdir, tmp_path / "out", "cv_weights.csv",
                  lambda cells: ",".join(cells[:-2] + ["99.000000", cells[-1]]))
    problems = checks.check_outputs(bad, expect)
    assert len(problems) == 1 and "exceeds the start-vector bound" in problems[0]


def test_benchmark_json_lists_the_metrics_run_py_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w: run.WORKLOADS[w]["why"] for w in run.BENCH_WORKLOADS
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "daily-default", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")
