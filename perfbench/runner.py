"""One experiment run in its own process, started by ``run.py``.

Usage: ``python3 runner.py CONFIG [--setup-only] [--spans FILE]``

The process imports temporec, resolves ``CONFIG`` with the public
``load_config`` and notes the monotonic clock, which ``run.py`` compares
with the moment it spawned the process to get the set-up time. Unless
``--setup-only`` is given it then times one ``run_experiment`` call. With
``--spans FILE`` the public functions bound in the ``temporec.cli`` and
``temporec.cvopt`` namespaces are wrapped first, and the spans they record
are written to ``FILE`` when the run ends. The last line of standard output
is one JSON object describing the run.
"""

from __future__ import annotations

import json
import sys
import time

import temporec
from temporec.cli import load_config

# The public functions of each layer, as bound where run_experiment calls them.
WRAPPED = {
    "temporec.cli": (
        "ingest_csv", "build_dataset", "dataset_from_series", "optimize_weights",
        "assemble_origins", "score_hierarchy", "check_coherence",
        "fixed_weights", "wls_weights", "weights_from_levels",
    ),
    "temporec.cvopt": ("assemble_origins", "cv_criterion", "weights_from_levels"),
}


class Tracer:
    """Records one span per wrapped call: name, start, end, parent index and
    the shapes of the array arguments and results. Spans stay in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            span[4] = {"args": _shapes(args), "result": _shapes(result)}
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module_name, names in WRAPPED.items():
            module = sys.modules[module_name]
            for fname in names:
                short = module_name.rsplit(".", 1)[1]
                setattr(module, fname, self.wrap(f"{short}.{fname}", getattr(module, fname)))


def _shapes(value) -> list:
    items = value if isinstance(value, tuple) else (value,)
    return [list(v.shape) for v in items if hasattr(v, "shape") and hasattr(v, "dtype")]


def peak_rss_kib() -> int:
    """High-water resident set of this process's memory map. Unlike
    ``ru_maxrss``, it does not inherit the spawning process's size."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    config_path = argv[0]
    cfg = load_config(config_path, env={})
    report = {"t_ready": time.monotonic(), "ok": False}
    if "--setup-only" in argv:
        report["ok"] = True
        print(json.dumps(report))
        return 0

    tracer = None
    if "--spans" in argv:
        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter()
    try:
        temporec.cli.run_experiment(cfg)
    except Exception as exc:  # reported to run.py, which counts the run failed
        report["error"] = f"{type(exc).__name__}: {exc}"
    else:
        report["ok"] = True
    t1 = time.perf_counter()
    report["run_s"] = t1 - t0
    report["run_start"] = t0
    report["peak_rss_kib"] = peak_rss_kib()
    if tracer is not None:
        with open(argv[argv.index("--spans") + 1], "w") as fh:
            json.dump({"run_start": t0, "run_end": t1, "spans": tracer.spans}, fh)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
