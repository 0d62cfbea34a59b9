import os
import subprocess
import sys
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

import temporec
from temporec import cli, errors
from temporec.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_NUMERIC,
    RunConfig,
    exit_code,
    ingest_csv,
    load_config,
    main,
    run_experiment,
)
from temporec.errors import ConfigError, GapError, NonMonotoneTimestamps, SchemaError


def write_csv(path, values, start="2026-01-01T00:00:00+00:00", stamps=None):
    t0 = datetime.fromisoformat(start)
    if stamps is None:
        stamps = [(t0 + timedelta(hours=i)).isoformat() for i in range(len(values))]
    lines = ["timestamp,value"] + [f"{s},{v}" for s, v in zip(stamps, values)]
    path.write_text("\n".join(lines) + "\n")
    return path


def test_ingest_well_formed(tmp_path):
    path = write_csv(tmp_path / "ok.csv", [1.0, 2.0, 3.0])
    series = ingest_csv(path)
    np.testing.assert_array_equal(series, [1.0, 2.0, 3.0])


def test_ingest_accepts_z_suffix(tmp_path):
    stamps = ["2026-01-01T00:00:00Z", "2026-01-01T01:00:00Z"]
    path = write_csv(tmp_path / "z.csv", [1.0, 2.0], stamps=stamps)
    assert ingest_csv(path).size == 2


def test_ingest_duplicate_timestamp(tmp_path):
    stamps = ["2026-01-01T00:00:00+00:00"] * 2
    path = write_csv(tmp_path / "dup.csv", [1.0, 2.0], stamps=stamps)
    with pytest.raises(NonMonotoneTimestamps):
        ingest_csv(path)


def test_ingest_gap_names_missing_hour(tmp_path):
    stamps = ["2026-01-01T00:00:00+00:00", "2026-01-01T02:00:00+00:00"]
    path = write_csv(tmp_path / "gap.csv", [1.0, 2.0], stamps=stamps)
    with pytest.raises(GapError) as err:
        ingest_csv(path)
    assert "2026-01-01T01:00:00" in str(err.value)


def test_ingest_schema_errors(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("time,power\n2026-01-01T00:00:00Z,1.0\n")
    with pytest.raises(SchemaError):
        ingest_csv(bad_header)
    bad_value = write_csv(tmp_path / "v.csv", ["not-a-number"])
    with pytest.raises(SchemaError):
        ingest_csv(bad_value)
    with pytest.raises(SchemaError):
        ingest_csv(tmp_path / "absent.csv")


def test_load_config_precedence(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("seed = 3\nn_paths = 16  # comment\nschemes = stacked\n")
    cfg = load_config(str(cfg_file), env={})
    assert cfg.seed == 3 and cfg.n_paths == 16 and cfg.schemes == ("stacked",)
    cfg = load_config(str(cfg_file), env={"TEMPOREC_SEED": "5"})
    assert cfg.seed == 5
    cfg = load_config(str(cfg_file), overrides={"seed": 7}, env={"TEMPOREC_SEED": "5"})
    assert cfg.seed == 7


def test_load_config_rejects_unknown_keys(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("bogus = 1\n")
    with pytest.raises(ConfigError):
        load_config(str(cfg_file), env={})


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(schemes=("bogus",)).validate()
    with pytest.raises(ConfigError):
        RunConfig(methods=("nope",)).validate()
    with pytest.raises(ConfigError):
        RunConfig(n_paths=1).validate()
    with pytest.raises(ConfigError):
        RunConfig(frequencies=(4, 3, 1)).validate()
    # out-of-bounds run settings name their key
    for key, value in [
        ("seed", -1), ("cv_starts", -5), ("cv_starts", 0), ("cv_maxiter", -3),
        ("val_cycles", 0), ("coherence_tol", float("nan")), ("sigma", float("nan")),
        ("mu", float("inf")), ("phi", float("-inf")),
    ]:
        with pytest.raises(ConfigError, match=rf"^{key} must be"):
            RunConfig(**{key: value}).validate()
    # the bounds are inclusive
    RunConfig(seed=0, cv_starts=1, cv_maxiter=0, n_paths=2, train_cycles=1).validate()


def _quick_config(out, **kw):
    base = dict(
        frequencies=(4, 2, 1),
        synthetic=True,
        phi=0.6,
        sigma=1.0,
        mu=1.0,
        train_cycles=15,
        val_cycles=4,
        test_cycles=4,
        n_paths=12,
        schemes=("stacked",),
        methods=("bu",),
        seed=1,
        out=str(out),
    )
    base.update(kw)
    return RunConfig(**base)


def test_run_experiment_shape_contract(tmp_path):
    rows = run_experiment(_quick_config(tmp_path / "run"))
    assert len(rows) == 2  # baseline + bottom-up
    assert rows[0].scheme == "none" and rows[0].method == "none"
    assert rows[1].method == "bu"
    assert all(len(r.level_scores) == 3 for r in rows)
    report = (tmp_path / "run" / "crps.csv").read_text().splitlines()
    assert report[0] == "scheme,method,4h,2h,1h,mean"
    assert len(report) == 3


def test_run_experiment_row_count(tmp_path):
    cfg = _quick_config(
        tmp_path / "run",
        schemes=("stacked", "ranked"),
        methods=("bu", "wls", "cv"),
        cv_regimes=("simplex", "free"),
        val_cycles=4,
    )
    rows = run_experiment(cfg)
    # 2 schemes x (2 fixed + 2 cv regimes) + baseline
    assert len(rows) == 2 * 4 + 1
    weights = (tmp_path / "run" / "cv_weights.csv").read_text().splitlines()
    assert len(weights) == 1 + 2 * 2


def test_run_experiment_degenerate_scores_zero(tmp_path):
    cfg = _quick_config(tmp_path / "run", sigma=0.0, methods=("bu", "la"))
    rows = run_experiment(cfg)
    for row in rows:
        assert all(abs(s) <= 1e-9 for s in row.level_scores)
    mae = (tmp_path / "run" / "mae.csv").read_text().splitlines()[1:]
    assert all(line.split(",")[-1] == "0.0000" for line in mae)


def test_run_experiment_coherence_diagnostics(tmp_path):
    cfg = _quick_config(tmp_path / "run", methods=("bu", "ga", "wls"))
    run_experiment(cfg)
    lines = (tmp_path / "run" / "diagnostics.csv").read_text().splitlines()[1:]
    assert lines
    for line in lines:
        assert float(line.split(",")[-1]) <= 1e-9


def test_cli_determinism(tmp_path):
    out = tmp_path / "run"
    args = ["--synthetic", "--out", str(out), "--seed", "3",
            "--schemes", "ranked", "--methods", "bu,cv"]
    env_cfg = tmp_path / "run.cfg"
    env_cfg.write_text(
        "frequencies = 4,2,1\ntrain_cycles = 15\nval_cycles = 4\n"
        "test_cycles = 4\nn_paths = 12\n"
    )
    args = ["--config", str(env_cfg)] + args
    assert main(args) == 0
    names = ["crps.csv", "mae.csv", "cv_weights.csv", "origin_scores.csv",
             "diagnostics.csv", "manifest.txt"]
    first = {name: (out / name).read_bytes() for name in names}
    assert main(args) == 0
    second = {name: (out / name).read_bytes() for name in names}
    assert first == second


def test_default_run_reports_certified_gap(tmp_path):
    # the default configuration (ranked samples, simplex weights) takes the
    # cutting-plane search, whose row carries its optimality gap
    run_experiment(RunConfig(out=str(tmp_path / "run")))
    header, row = (tmp_path / "run" / "cv_weights.csv").read_text().splitlines()
    record = dict(zip(header.split(","), row.split(",")))
    assert (record["scheme"], record["regime"]) == ("ranked", "simplex")
    assert 0.0 <= float(record["gap"]) <= 1e-7


def test_nelder_mead_rows_leave_the_gap_empty(tmp_path):
    run_experiment(_quick_config(tmp_path / "run", methods=("cv",), cv_regimes=("affine",)))
    header, row = (tmp_path / "run" / "cv_weights.csv").read_text().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["gap"] == ""


def test_leakage_guard(tmp_path):
    # perturbing only the test period must leave the CV weights unchanged
    h_cycle = 4
    train, val, test = 15, 5, 5
    n = (train + val + test) * h_cycle
    rng = np.random.default_rng(0)
    series = rng.normal(1.0, 1.0, size=n).cumsum() * 0.1 + 5.0
    csv_a = write_csv(tmp_path / "a.csv", np.round(series, 6))
    perturbed = series.copy()
    perturbed[(train + val) * h_cycle :] += rng.normal(0, 5.0, size=test * h_cycle)
    csv_b = write_csv(tmp_path / "b.csv", np.round(perturbed, 6))

    def run(csv_path, out):
        cfg = RunConfig(
            frequencies=(4, 2, 1), data=str(csv_path), train_cycles=train,
            val_cycles=val, test_cycles=test, n_paths=12, schemes=("ranked",),
            methods=("cv",), seed=2, out=str(out),
        )
        run_experiment(cfg)
        return (out / "cv_weights.csv").read_bytes(), (out / "crps.csv").read_bytes()

    weights_a, crps_a = run(csv_a, tmp_path / "out_a")
    weights_b, crps_b = run(csv_b, tmp_path / "out_b")
    assert weights_a == weights_b
    assert crps_a != crps_b  # the perturbation did reach the evaluation


def test_main_exit_codes(tmp_path):
    assert main(["--schemes", "bogus", "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    cfg_file = tmp_path / "bad_data.cfg"
    cfg_file.write_text(
        f"data = {tmp_path / 'missing.csv'}\nfrequencies = 4,2,1\n"
        "train_cycles = 12\nval_cycles = 2\ntest_cycles = 2\nn_paths = 8\n"
    )
    assert main(["--config", str(cfg_file), "--out", str(tmp_path / "y")]) == EXIT_DATA


def test_method_label_expansion():
    cfg = RunConfig(methods=("bu", "cv"), cv_regimes=("simplex", "affine"))
    assert cfg.method_labels() == ("bu", "cv-simplex", "cv-affine")


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e999"])
def test_ingest_non_finite_value_names_line(tmp_path, bad):
    path = write_csv(tmp_path / "nf.csv", ["1.0", "2.0", bad, "4.0"])
    with pytest.raises(SchemaError, match=r"nf\.csv:4: .*not finite"):
        ingest_csv(path)


def test_main_non_finite_data_exits_3_without_lapack_noise(tmp_path, capfd):
    values = [str(1.0 + 0.1 * i) for i in range(4 * 16)]
    values[5] = "nan"
    data = write_csv(tmp_path / "nan.csv", values)
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        f"data = {data}\nfrequencies = 4,2,1\ntrain_cycles = 12\nval_cycles = 2\n"
        "test_cycles = 2\nn_paths = 8\nmethods = bu,wls\n"
    )
    assert main(["--config", str(cfg_file), "--out", str(tmp_path / "out")]) == EXIT_DATA
    err = capfd.readouterr().err
    assert "DLASCL" not in err
    assert "nan.csv:7:" in err


@pytest.mark.parametrize(
    "stamps, line",
    [
        # half-hourly
        (["2026-01-01T00:00:00Z", "2026-01-01T00:30:00Z", "2026-01-01T01:00:00Z"], 3),
        # off the hourly step after a regular start
        (["2026-01-01T00:00:00Z", "2026-01-01T01:00:00Z", "2026-01-01T02:15:00Z"], 4),
    ],
)
def test_ingest_non_hourly_step_names_line(tmp_path, stamps, line):
    path = write_csv(tmp_path / "step.csv", [1.0] * len(stamps), stamps=stamps)
    with pytest.raises(SchemaError, match=rf"step\.csv:{line}: .*whole number of hours"):
        ingest_csv(path)


def _error_classes(cls=errors.TemporecError):
    for sub in cls.__subclasses__():
        yield sub
        yield from _error_classes(sub)


def test_every_package_error_has_an_exit_code():
    classes = list(_error_classes())
    assert len(classes) > 20
    for cls in classes:
        assert exit_code(cls("x")) in (EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC), cls.__name__
    assert exit_code(errors.TooShort("x")) == EXIT_CONFIG
    assert exit_code(errors.GapError("x")) == EXIT_DATA
    assert exit_code(errors.NonFinite("x")) == EXIT_NUMERIC
    assert exit_code(errors.MissingLevel("x")) == EXIT_NUMERIC
    assert exit_code(errors.TemporecError("x")) is None


def test_main_too_short_training_exits_2(tmp_path, capfd):
    args = ["--synthetic", "--out", str(tmp_path / "out"), "--methods", "bu"]
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("train_cycles = 1\nval_cycles = 1\ntest_cycles = 1\nn_paths = 8\n")
    assert main(["--config", str(cfg_file)] + args) == EXIT_CONFIG
    err = capfd.readouterr().err
    assert err.startswith("configuration error: ") and "Traceback" not in err


def test_main_negative_seed_exits_2(tmp_path, capfd):
    assert main(["--seed", "-1", "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capfd.readouterr().err
    assert err.startswith("configuration error: seed must be at least 0")
    assert "Traceback" not in err


def test_module_entry_point_runs_without_runtime_warning():
    src = Path(temporec.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "temporec.cli", "--help"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0
    assert "RuntimeWarning" not in proc.stderr


REPORTS = ["crps.csv", "mae.csv", "origin_scores.csv", "diagnostics.csv", "cv_weights.csv",
           "manifest.txt"]


def test_failed_data_step_rewrites_stale_reports(tmp_path):
    out = tmp_path / "out"
    run_experiment(_quick_config(out))
    missing = tmp_path / "missing.csv"
    cfg_file = tmp_path / "bad_data.cfg"
    cfg_file.write_text(
        f"data = {missing}\nfrequencies = 4,2,1\n"
        "train_cycles = 12\nval_cycles = 2\ntest_cycles = 2\nn_paths = 8\n"
    )
    assert main(["--config", str(cfg_file), "--out", str(out)]) == EXIT_DATA
    failure = (out / "failure.txt").read_text()
    assert failure.startswith("SchemaError: cannot open") and "missing.csv" in failure
    # the previous run's reports are replaced by header-only ones
    assert (out / "crps.csv").read_text() == "scheme,method,4h,2h,1h,mean\n"
    for name in REPORTS[1:5]:
        assert len((out / name).read_text().splitlines()) == 1, name
    assert f"data = {missing}" in (out / "manifest.txt").read_text().splitlines()
    # the next successful run clears the failure
    run_experiment(_quick_config(out))
    assert not (out / "failure.txt").exists()


def test_mid_run_failure_keeps_finished_rows(tmp_path, monkeypatch):
    real = cli.reconcile_tensor

    def incoherent_for_la(P, tensor):
        reconciled = real(P, tensor)
        if P.method == "LA":
            reconciled[:, 0, :] += 1.0
        return reconciled

    monkeypatch.setattr(cli, "reconcile_tensor", incoherent_for_la)
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "frequencies = 4,2,1\nsynthetic = true\ntrain_cycles = 15\nval_cycles = 4\n"
        "test_cycles = 4\nn_paths = 12\nschemes = stacked\nmethods = bu,la,wls\n"
    )
    out = tmp_path / "out"
    assert main(["--config", str(cfg_file), "--out", str(out)]) == EXIT_NUMERIC
    assert (out / "failure.txt").read_text().startswith("NumericalError: ")
    assert "method=la" in (out / "failure.txt").read_text()
    rows = [line.split(",")[:2] for line in (out / "crps.csv").read_text().splitlines()[1:]]
    assert rows == [["none", "none"], ["stacked", "bu"]]
    assert len((out / "mae.csv").read_text().splitlines()) == 3
    # every bottom-up origin plus the first la origin, which failed the check
    diagnostics = (out / "diagnostics.csv").read_text().splitlines()[1:]
    assert [line.split(",")[1] for line in diagnostics] == ["bu"] * 4 + ["la"]
    assert all((out / name).exists() for name in REPORTS)
