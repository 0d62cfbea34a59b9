import importlib.util
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _bench_run_module():
    """perfbench/run.py as a module; it imports its sibling ``checks``."""
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _smoke_workdir(run, workdir: Path) -> None:
    """The ``smoke`` workload's config and CSV at seed 0, as the benchmark
    writes them, in ``workdir``."""
    spec = run.WORKLOADS["smoke"]
    config = dict(spec["config"], seed="0", out="out")
    (workdir / "run.conf").write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
    cycle_length = int(config["frequencies"].split(",")[0])
    run.write_series(workdir / config["data"], spec["csv_cycles"], cycle_length, seed=0)


def test_benchmark_probes_run_on_the_smoke_inputs(tmp_path):
    # the probes call assemble, reconcile and check_coherence on the
    # workload's own origins, which only a traced benchmark run reaches
    run = _bench_run_module()
    _smoke_workdir(run, tmp_path)

    metrics, problems = run.run_probes(run.Inputs(tmp_path))
    assert problems == []
    assert set(metrics) == {name for name in run.PER_LAYER if name.startswith("probe.")}
    assert all(math.isfinite(value) and value > 0 for value in metrics.values())


# smoke caps its searches at 30 iterations, so some stop unconverged, as in
# the benchmark's own runs
@pytest.mark.filterwarnings("ignore::temporec.errors.DidNotConverge")
def test_smoke_run_passes_the_benchmark_output_check(tmp_path, monkeypatch):
    # the benchmark counts a run whose reports fail check_outputs as failed;
    # smoke runs every method, BA and GA included, and the check holds
    # every diagnostics.csv violation to the absolute coherence_tol
    from temporec.cli import run_experiment

    run = _bench_run_module()
    _smoke_workdir(run, tmp_path)
    inputs = run.Inputs(tmp_path)
    monkeypatch.chdir(tmp_path)  # the config names its CSV and out directory relatively
    run_experiment(inputs.cfg)
    assert run.check_outputs(tmp_path / "out", inputs.expect) == []
