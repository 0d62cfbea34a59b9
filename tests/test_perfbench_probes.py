import importlib.util
import math
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _bench_run_module():
    """perfbench/run.py as a module; it imports its sibling ``checks``."""
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_probes_run_on_the_smoke_inputs(tmp_path):
    # the probes call assemble, reconcile and check_coherence on the
    # workload's own origins, which only a traced benchmark run reaches
    run = _bench_run_module()
    spec = run.WORKLOADS["smoke"]
    config = dict(spec["config"], seed="0", out="out")
    (tmp_path / "run.conf").write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
    cycle_length = int(config["frequencies"].split(",")[0])
    run.write_series(tmp_path / config["data"], spec["csv_cycles"], cycle_length, seed=0)

    metrics, problems = run.run_probes(run.Inputs(tmp_path))
    assert problems == []
    assert set(metrics) == {name for name in run.PER_LAYER if name.startswith("probe.")}
    assert all(math.isfinite(value) and value > 0 for value in metrics.values())
