import difflib
import os
import re
import subprocess
import sys
import tracemalloc
import typing
import warnings
from dataclasses import fields
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import temporec
from temporec import cli, errors, simkit
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
from temporec.hierarchy import build_hierarchy


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


def _hours(*offsets):
    t0 = datetime(2024, 1, 5, tzinfo=timezone.utc)
    return [(t0 + timedelta(hours=k)).isoformat() for k in offsets]


@pytest.mark.parametrize("hours, error, message", [
    # data rows 3 and 4 swapped: line 4 skips an hour, line 5 steps back
    ((0, 1, 3, 2, 4), NonMonotoneTimestamps,
     ":5: timestamp 2024-01-05T02:00:00+00:00 does not follow 2024-01-05T03:00:00+00:00"),
    ((0, 1, 1, 2), NonMonotoneTimestamps,
     ":4: timestamp 2024-01-05T01:00:00+00:00 does not follow 2024-01-05T01:00:00+00:00"),
    ((0, 1, 4, 5, 7), GapError,
     ": missing periods: 2024-01-05T02:00:00+00:00 .. 2024-01-05T03:00:00+00:00 before "
     "line 4; 2024-01-05T06:00:00+00:00 before line 6"),
])
def test_ingest_order_and_gap_errors_name_the_line(tmp_path, hours, error, message):
    path = write_csv(tmp_path / "bad.csv", [1.0] * len(hours), stamps=_hours(*hours))
    with pytest.raises(error) as err:
        ingest_csv(path)
    assert str(err.value) == f"{path}{message}"


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


@pytest.mark.parametrize("value", ["1", 1], ids=["str", "int"])
def test_load_config_rejects_unknown_override_keys(value):
    # a parsed (str) and a typed override value take the same path
    with pytest.raises(ConfigError, match=r"unknown config keys: \['bogus'\]"):
        load_config(overrides={"bogus": value}, env={})


def test_config_validation():
    # a RunConfig checks itself on construction
    with pytest.raises(ConfigError):
        RunConfig(schemes=("bogus",))
    with pytest.raises(ConfigError):
        RunConfig(methods=("nope",))
    with pytest.raises(ConfigError):
        RunConfig(n_paths=1)
    with pytest.raises(ConfigError):
        RunConfig(frequencies=(4, 3, 1))
    # out-of-bounds run settings name their key
    for key, value in [
        ("seed", -1), ("cv_starts", -5), ("cv_starts", 0), ("cv_starts", 2), ("cv_maxiter", -3),
        ("train_cycles", 9), ("val_cycles", 0), ("coherence_tol", float("nan")),
        ("sigma", float("nan")), ("mu", float("inf")), ("phi", float("-inf")), ("out", ""),
    ]:
        with pytest.raises(ConfigError, match=rf"^{key} must be"):
            RunConfig(**{key: value})
    # the bounds are inclusive
    RunConfig(seed=0, cv_starts=3, cv_maxiter=0, n_paths=2, train_cycles=10)
    # a repeated token would duplicate report rows; the error names key and token
    for key, value, token in [
        ("schemes", ("ranked", "stacked", "ranked"), "ranked"),
        ("methods", ("bu", "bu", "cv"), "bu"),
        ("cv_regimes", ("simplex", "simplex"), "simplex"),
    ]:
        with pytest.raises(ConfigError, match=rf"^{key} lists '{token}' more than once"):
            RunConfig(**{key: value})


@pytest.mark.parametrize("key, value", [("n_paths", 20.0), ("seed", 1.5)])
def test_int_settings_reject_non_integral_values(key, value):
    # a float passes the minimum check, so without this it fails in numpy's allocation;
    # a direct RunConfig and a load_config override take the same parse
    with pytest.raises(ConfigError, match=rf"^bad value for {key}: '{value!r}'"):
        RunConfig(**{key: value})
    with pytest.raises(ConfigError, match=rf"^bad value for {key}: '{value!r}'"):
        load_config(overrides={key: value}, env={})


def test_typed_and_text_values_of_a_setting_agree():
    assert RunConfig(phi="0.7").phi == 0.7
    assert RunConfig(synthetic="false").synthetic is False
    assert RunConfig(schemes="ranked").schemes == ("ranked",)
    assert RunConfig(phi="0.7") == RunConfig(phi=0.7) == RunConfig()
    # None is the empty value, as an empty file value is
    assert RunConfig(data=None).data == ""
    with pytest.raises(ConfigError, match="^out must be a directory path"):
        RunConfig(out=None)
    for key, value in [("phi", "abc"), ("frequencies", (4.0, 2, 1)), ("synthetic", 2)]:
        with pytest.raises(ConfigError, match=rf"^bad value for {key}: "):
            RunConfig(**{key: value})


@pytest.mark.parametrize("text", ["run#1", "a\nb", "a\r\nb", "a\rb", "a\x1cb", "a\u2028b"])
@pytest.mark.parametrize("key", ["out", "data"])
def test_a_path_the_config_file_cannot_hold_is_rejected(key, text):
    with pytest.raises(ConfigError, match=rf"^{key} must hold no '#' and no line break"):
        load_config(overrides={key: text}, env={})
    with pytest.raises(ConfigError, match=rf"^{key} must hold no '#' and no line break"):
        RunConfig(**{key: text})


def test_main_rejects_an_out_the_manifest_cannot_hold(tmp_path, capfd):
    out = tmp_path / "run#1"
    assert main(["--synthetic", "--out", str(out)]) == EXIT_CONFIG
    err = capfd.readouterr().err
    assert err.startswith("configuration error: out must hold no '#'") and "Traceback" not in err
    assert not out.exists() and not (tmp_path / "run").exists()


# "\udcff" is how Python reads the byte 0xff of an argument or a variable
@pytest.mark.parametrize("text", ["nul\0x", "\0", "sg\udcff", "\ud800"])
@pytest.mark.parametrize("key", ["out", "data"])
def test_a_path_no_file_or_manifest_can_hold_is_rejected(key, text):
    with pytest.raises(ConfigError, match=rf"^{key} must be UTF-8 text without NUL, got "):
        load_config(overrides={key: text}, env={})
    with pytest.raises(ConfigError, match=rf"^{key} must be UTF-8 text without NUL, got "):
        load_config(env={f"TEMPOREC_{key.upper()}": text})


@pytest.mark.parametrize("name", ["sg\udcff", "nul\0x"])
def test_main_rejects_an_out_no_file_or_manifest_can_hold(tmp_path, capfd, name):
    # each once created the directory or raised from mkdir, with a traceback
    out = tmp_path / "runs" / name
    assert main(["--synthetic", "--out", str(out), "--methods", "bu"]) == EXIT_CONFIG
    err = capfd.readouterr().err
    assert err.startswith("configuration error: out must be UTF-8 text without NUL")
    assert "Traceback" not in err and list(tmp_path.iterdir()) == []


# paths the config file can hold, and short ones with the characters it,
# a file name or UTF-8 cannot
_PATH_TEXT = (st.text(st.sampled_from(["a", "/", " ", "\t", "\u00e9", "="]), min_size=1, max_size=8)
              | st.text(st.sampled_from(["a", " ", "#", "\n", "\r", "\x85", "\u2028", "\0", "\udcff"]),
                        max_size=4))


@settings(max_examples=150, deadline=None)
@given(
    data=_PATH_TEXT,
    out=_PATH_TEXT,
    phi=st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(["1e-3", " 2 "]),
    coherence_tol=st.floats(min_value=0, exclude_min=True, allow_infinity=False),
    frequencies=st.sampled_from([[4, 2, 1], (12, 6, 3, 1), "6, 3, 1", (8, 4, 2, 1), [2.0, 1]]),
    schemes=st.lists(st.sampled_from(["ranked", "stacked", "permuted"]), min_size=1,
                     max_size=3, unique=True),
    methods=st.sampled_from([["bu"], ("wls", "cv"), "cv,la"]),
    cv_regimes=st.sampled_from([["affine"], ("simplex", "free"), "free", []]),
    synthetic=st.sampled_from([True, False, "on", "No"]),
    n_paths=st.integers(2, 10**6) | st.just(" 7"),
)
def test_every_constructed_config_reads_back_from_its_manifest(tmp_path_factory, **values):
    try:
        cfg = RunConfig(**values)
    except ConfigError:
        return
    folder = tmp_path_factory.mktemp("manifest")
    cli._write_reports(folder, cfg, [], (), [], {})
    assert load_config(str(folder / "manifest.txt"), env={}) == cfg


def _key_table(text, first_line):
    """The (key, default) pairs of a documented key table, its value column
    read as 20 characters after '= ' (data's default is empty)."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.strip().startswith(first_line))
    rows = []
    for line in lines[start:]:
        if not line.strip() or line.startswith("```"):
            break
        key, _, rest = line.partition("=")
        rows.append((key.strip(), rest[1:21].strip()))
    return rows


@pytest.mark.parametrize("source", ["docstring", "README"])
def test_documented_key_tables_match_run_config(source):
    if source == "docstring":
        text = cli.__doc__
    else:
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text().split("## Command line", 1)[1]
    rows = _key_table(text, "frequencies")
    kinds = typing.get_type_hints(RunConfig)
    assert [key for key, _ in rows] == [f.name for f in fields(RunConfig)]
    default = RunConfig()
    for key, value in rows:
        assert cli._parse_value(key, value, kinds[key]) == getattr(default, key), key


def test_every_flag_reaches_its_key(tmp_path):
    out = tmp_path / "run"
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "frequencies = 4,2,1\ntrain_cycles = 12\nval_cycles = 2\ntest_cycles = 2\n"
        "n_paths = 8\n"
    )
    assert main(["--config", str(cfg_file), "--seed", "4", "--out", str(out), "--synthetic",
                 "--methods", "bu,cv", "--schemes", "stacked,permuted",
                 "--cv-regime", "affine"]) == 0
    lines = (out / "manifest.txt").read_text().splitlines()
    assert dict(line.split(" = ", 1) for line in lines).items() >= {
        "seed": "4", "out": str(out), "synthetic": "True", "methods": "bu,cv",
        "schemes": "stacked,permuted", "cv_regimes": "affine",
    }.items()


def test_manifest_reproduces_a_run_configured_with_typed_overrides(tmp_path):
    out = tmp_path / "run"
    cfg = load_config(overrides={
        "schemes": ["ranked", "stacked"], "frequencies": (4, 2, 1), "seed": 3,
        "synthetic": True, "out": out, "methods": "bu,la", "train_cycles": 12,
        "val_cycles": 2, "test_cycles": 2, "n_paths": 8,
    }, env={})
    assert cfg.schemes == ("ranked", "stacked") and cfg.out == str(out)
    run_experiment(cfg)
    assert load_config(str(out / "manifest.txt"), env={}) == cfg


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


GOLDEN = Path(__file__).resolve().parent / "golden"


def test_golden_reports(tmp_path):
    # a refactor with no intended numeric change leaves these reports byte
    # for byte as checked in; diagnostics.csv (rounding noise) and
    # manifest.txt (paths) are left out
    run_experiment(_quick_config(
        tmp_path / "run", test_cycles=3, schemes=("stacked", "ranked", "permuted"),
        methods=("bu", "ba", "ga", "la", "wls", "cv"), cv_regimes=("simplex", "affine", "free"),
        seed=5,
    ))
    # the comparison is byte for byte; the message lists every changed line
    # in full, which pytest's own assertion diff would truncate
    changed = []
    for name in ("crps.csv", "mae.csv", "origin_scores.csv", "cv_weights.csv"):
        new, old = (tmp_path / "run" / name).read_text(), (GOLDEN / name).read_text()
        if new != old:
            changed += difflib.unified_diff(
                old.splitlines(keepends=True), new.splitlines(keepends=True),
                f"golden/{name}", f"run/{name}", n=0,
            )
    assert not changed, "reports differ from tests/golden/:\n" + "".join(changed)


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


def test_main_exit_codes(tmp_path, capsys, monkeypatch):
    assert main(["--schemes", "bogus", "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    cfg_file = tmp_path / "bad_data.cfg"
    cfg_file.write_text(
        f"data = {tmp_path / 'missing.csv'}\nfrequencies = 4,2,1\n"
        "train_cycles = 12\nval_cycles = 2\ntest_cycles = 2\nn_paths = 8\n"
    )
    assert main(["--config", str(cfg_file), "--out", str(tmp_path / "y")]) == EXIT_DATA
    # an out that cannot be a directory: an existing file, or a path below one
    taken = tmp_path / "taken"
    taken.write_text("")
    for out in (taken, taken / "sub"):
        assert main(["--methods", "bu", "--out", str(out)]) == EXIT_CONFIG
        assert f"out = {str(out)!r}" in capsys.readouterr().err
    # an empty out, from the config file or the environment, would write the
    # reports into the working directory and remove its failure.txt
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    (cwd / "failure.txt").write_text("kept\n")
    monkeypatch.chdir(cwd)
    (cwd / "empty_out.cfg").write_text("out =\n")
    assert main(["--config", "empty_out.cfg", "--methods", "bu"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error: out must be")
    monkeypatch.setenv("TEMPOREC_OUT", "")
    assert main(["--methods", "bu"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error: out must be")
    assert sorted(p.name for p in cwd.iterdir()) == ["empty_out.cfg", "failure.txt"]


def test_main_reraises_an_error_without_an_exit_code(tmp_path, capsys, monkeypatch):
    # an error whose family has no exit code propagates unlabelled, and the
    # one-line warning printer is put back on the way out
    def fail(cfg):
        raise errors.TemporecError("boom")

    monkeypatch.setattr(cli, "run_experiment", fail)
    showwarning = warnings.showwarning
    with pytest.raises(errors.TemporecError, match="^boom$"):
        main(["--methods", "bu", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    for label in ("configuration error", "data error", "numerical failure"):
        assert label not in err
    assert warnings.showwarning is showwarning


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


def test_main_overflowing_scenario_exits_2_without_lapack_noise(tmp_path, capfd):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("frequencies = 4,2,1\nmu = 1e308\nn_paths = 8\nmethods = bu\n")
    assert main(["--config", str(cfg_file), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    out, err = capfd.readouterr()
    assert "DLASCL" not in out and "DLASCL" not in err
    assert err.startswith("configuration error: ") and "stationary mean" in err


@pytest.mark.parametrize("case", ["window-sums", "truth-path", "level-fit"])
def test_main_overflowing_window_sums_exit_2_without_runtime_warning(tmp_path, case):
    # a child process with default warning filters: numpy's overflow warning
    # would reach its stderr, where an in-process run hands it to pytest;
    # each overflow is named in one line, and its inputs were all finite
    config, message = {
        "window-sums": ("frequencies = 4,2,1\nphi = 0\nmu = 1e308\nn_paths = 8\n",
                        "level 1 window sums are not finite"),
        "truth-path": ("sigma = 1e308\n", "the simulated truth path overflows"),
        # hourly cycles that pass the window-sum bound, whose bottom fit overflows
        "level-fit": ("data = big.csv\ntrain_cycles = 12\nval_cycles = 2\ntest_cycles = 2\n",
                      "level 8 fit is not finite"),
    }[case]
    rng = np.random.default_rng(0)
    write_csv(tmp_path / "big.csv", 1e306 * (1.0 + 0.5 * rng.normal(size=16 * 24)))
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{config}methods = bu\n")
    src = Path(temporec.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "temporec.cli",
         "--config", str(cfg_file), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr.startswith(f"configuration error: {message}")
    assert len(proc.stderr.splitlines()) == 1 and "RuntimeWarning" not in proc.stderr


def test_main_prints_one_warning_line_per_capped_search(tmp_path):
    # four searches stop at their cap; Python's default filter would show
    # one message from one source line once, with its path and source line
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "frequencies = 4,2,1\ntrain_cycles = 12\nval_cycles = 3\ntest_cycles = 2\n"
        "n_paths = 20\nschemes = stacked,permuted\nmethods = bu,cv\n"
        "cv_regimes = affine,free\ncv_maxiter = 3\n"
    )
    src = Path(temporec.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "temporec.cli",
         "--config", str(cfg_file), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0
    assert proc.stderr.splitlines() == [
        f"warning: {scheme} scheme, {regime} regime: no start converged within 3 iterations; "
        "returning best point"
        for scheme in ("stacked", "permuted") for regime in ("affine", "free")
    ]


def _data_config(tmp_path, data, extra=""):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        f"data = {data}\nfrequencies = 4,2,1\ntrain_cycles = 12\nval_cycles = 2\n"
        f"test_cycles = 2\nn_paths = 8\nmethods = bu\n{extra}"
    )
    return cfg_file


def test_main_non_utf8_csv_exits_3(tmp_path, capfd):
    data = write_csv(tmp_path / "latin.csv", [str(1.0 + 0.1 * i) for i in range(4 * 16)])
    data.write_bytes(data.read_bytes().replace(b"1.5", b"1\xff5", 1))
    cfg_file = _data_config(tmp_path, data)
    assert main(["--config", str(cfg_file), "--out", str(tmp_path / "out")]) == EXIT_DATA
    err = capfd.readouterr().err
    assert err.startswith(f"data error: cannot open {data}: ") and "Traceback" not in err


def test_main_non_utf8_config_exits_2(tmp_path, capfd):
    cfg_file = tmp_path / "latin.cfg"
    cfg_file.write_bytes(b"seed = 1\n# caf\xe9\n")
    assert main(["--config", str(cfg_file), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capfd.readouterr().err
    assert err.startswith(f"configuration error: cannot read config file {cfg_file}: ")
    assert "Traceback" not in err


def test_main_byte_order_mark_is_ignored(tmp_path, capfd):
    # a UTF-8 byte-order mark on the CSV or the config file changes no report
    data = write_csv(tmp_path / "plain.csv", [str(1.0 + 0.1 * i) for i in range(4 * 16)])
    plain = _data_config(tmp_path, data)
    assert main(["--config", str(plain), "--out", str(tmp_path / "plain")]) == 0
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + data.read_bytes())
    cfg_file = tmp_path / "marked.cfg"
    cfg_file.write_bytes(b"\xef\xbb\xbf" + _data_config(tmp_path, marked).read_bytes())
    assert main(["--config", str(cfg_file), "--out", str(tmp_path / "marked")]) == 0
    assert "error" not in capfd.readouterr().err
    for name in ("crps.csv", "mae.csv", "origin_scores.csv", "cv_weights.csv"):
        assert (tmp_path / "marked" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


@pytest.mark.parametrize("config, csv_text, code, needle", [
    ("cv_regimes = simplex,bogus\n", None, EXIT_CONFIG, "cv_regimes must be drawn from"),
    ("cv_regimes =\n", None, EXIT_CONFIG, "no cv_regimes configured"),
    ("coherence_tol = 0\n", None, EXIT_CONFIG, "coherence_tol must be positive"),
    ("synthetic = maybe\n", None, EXIT_CONFIG, "bad value for synthetic: 'maybe'"),
    ("phi = abc\n", None, EXIT_CONFIG, "bad value for phi: 'abc'"),
    ("frequencies = 4.0,2,1\n", None, EXIT_CONFIG, "bad value for frequencies: '4.0,2,1'"),
    (None, None, EXIT_CONFIG, "cannot read config file {cfg}"),
    ("seed = 1\nn_paths 8\n", None, EXIT_CONFIG, "{cfg}:2: expected 'key = value'"),
    ("", "timestamp,value\n2026-01-01T00:00:00Z,1.0,2.0\n", EXIT_DATA,
     "{csv}:2: expected 2 columns, got 3"),
    ("", "timestamp,value\n", EXIT_DATA, "{csv}: no data rows"),
    ("", "timestamp,value\n2026-01-01T00:00:00Z,1.0\nyesterday,2.0\n", EXIT_DATA,
     "{csv}:3: bad timestamp 'yesterday'"),
])
def test_main_bad_input_names_key_or_line(tmp_path, capfd, config, csv_text, code, needle):
    cfg_file, data = tmp_path / "run.cfg", tmp_path / "in.csv"
    if csv_text is not None:
        data.write_text(csv_text)
        config = f"data = {data}\n" + config
    if config is not None:
        cfg_file.write_text(config)
    assert main(["--config", str(cfg_file), "--out", str(tmp_path / "out")]) == code
    err = capfd.readouterr().err
    assert err.startswith(f"{cli.EXIT_LABELS[code]}: ")
    assert needle.format(cfg=cfg_file, csv=data) in err
    assert "Traceback" not in err


def test_ingest_reads_naive_timestamps_as_utc(tmp_path):
    # a naive stamp between two UTC ones: gap-free and increasing only if it
    # is read as UTC
    stamps = ["2026-01-01T00:00:00Z", "2026-01-01T01:00:00", "2026-01-01T02:00:00+00:00"]
    path = write_csv(tmp_path / "naive.csv", [1.0, 2.0, 3.0], stamps=stamps)
    np.testing.assert_array_equal(ingest_csv(path), [1.0, 2.0, 3.0])


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=30),
    st.lists(
        st.sampled_from(["Z", timezone.utc, timezone(timedelta(hours=5, minutes=30)),
                         timezone(timedelta(hours=-3))]),
        min_size=30, max_size=30,
    ),
    st.data(),
)
def test_ingest_round_trip_and_dropped_hour(tmp_path_factory, values, forms, data):
    t0 = datetime(2026, 3, 29, tzinfo=timezone.utc)
    utc = [t0 + timedelta(hours=i) for i in range(len(values))]
    stamps = [
        t.strftime("%Y-%m-%dT%H:%M:%SZ") if form == "Z" else t.astimezone(form).isoformat()
        for t, form in zip(utc, forms)
    ]
    folder = tmp_path_factory.mktemp("ingest")
    series = ingest_csv(write_csv(folder / "all.csv", values, stamps=stamps))
    assert series.tolist() == values
    assert np.array_equal(np.signbit(series), np.signbit(values))
    drop = data.draw(st.integers(1, len(values) - 2), label="dropped row")
    gapped = write_csv(folder / "gap.csv", values[:drop] + values[drop + 1 :],
                       stamps=stamps[:drop] + stamps[drop + 1 :])
    # the row after the dropped one is data row drop + 1, on line drop + 2
    with pytest.raises(
        GapError, match=f"missing periods: {re.escape(utc[drop].isoformat())} before line {drop + 2}$"
    ):
        ingest_csv(gapped)


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
            reconciled[..., 0, :] += 1.0
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


def test_unwritable_report_exits_2_without_traceback(tmp_path, capfd):
    out = tmp_path / "out"
    (out / "crps.csv").mkdir(parents=True)
    args = ["--synthetic", "--methods", "bu", "--out", str(out)]
    (tmp_path / "ok.cfg").write_text("frequencies = 4,2,1\ntrain_cycles = 15\nval_cycles = 4\n"
                                     "test_cycles = 4\nn_paths = 12\n")
    assert main(["--config", str(tmp_path / "ok.cfg")] + args) == EXIT_CONFIG
    err = capfd.readouterr().err
    assert err.startswith("configuration error: cannot write crps.csv in out = ")
    assert str(out) in err and "Traceback" not in err
    assert not list(out.glob("*.tmp"))
    # a run that fails on its own keeps its error's exit code
    cfg_file = tmp_path / "bad_data.cfg"
    cfg_file.write_text(f"data = {tmp_path / 'missing.csv'}\nfrequencies = 4,2,1\n")
    assert main(["--config", str(cfg_file), "--out", str(out)]) == EXIT_DATA
    err = capfd.readouterr().err
    assert err.startswith("data error: cannot open") and "Traceback" not in err
    assert (out / "failure.txt").read_text().startswith("SchemaError: cannot open")
    assert not list(out.glob("*.tmp"))
    # a failure.txt that cannot be removed after a successful run
    (out / "crps.csv").rmdir()
    (out / "failure.txt").unlink()
    (out / "failure.txt").mkdir()
    assert main(["--config", str(tmp_path / "ok.cfg")] + args) == EXIT_CONFIG
    assert capfd.readouterr().err.startswith("configuration error: cannot remove failure.txt")


def test_repeated_config_key_is_rejected(tmp_path, capfd):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("seed = 1\nn_paths = 8\n# seed = 3\nseed = 2\n")
    with pytest.raises(ConfigError, match=r"run.cfg:4: key 'seed' is already set on line 1$"):
        load_config(str(cfg_file), env={})
    assert main(["--config", str(cfg_file), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capfd.readouterr().err
    assert "key 'seed' is already set on line 1" in err and "Traceback" not in err


def test_config_comments_blank_lines_and_false_synthetic(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("# a comment-only line\n\n   \nsynthetic = false\n  # indented\n")
    assert load_config(str(cfg_file), env={}).synthetic is False


def test_ingest_skips_blank_lines(tmp_path):
    path = write_csv(tmp_path / "series.csv", [1.0, 2.0, 3.0])
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:2] + ["", "  "] + lines[2:]) + "\n")
    np.testing.assert_array_equal(ingest_csv(str(path)), [1.0, 2.0, 3.0])


def test_run_builds_each_fixed_map_once(tmp_path, monkeypatch):
    # a fixed map does not depend on the scheme, so three schemes share one
    # build of each; WLS's is a dense solve
    built = []

    def recorded(builder):
        def build(*args):
            P = builder(*args)
            built.append(P.method)
            return P
        return build

    monkeypatch.setattr(cli, "fixed_weights", recorded(cli.fixed_weights))
    monkeypatch.setattr(cli, "wls_weights", recorded(cli.wls_weights))
    cfg = _quick_config(
        tmp_path / "run", schemes=("stacked", "ranked", "permuted"),
        methods=("bu", "ba", "ga", "la", "wls"),
    )
    assert len(run_experiment(cfg)) == 1 + 3 * 5
    assert sorted(built) == ["BA", "BU", "GA", "LA", "WLS"]


def test_test_pass_holds_a_few_origin_samples(tmp_path):
    # the test pass draws one origin at a time and couples, reconciles,
    # checks and scores it under every scheme and method before the next, so
    # its peak is a few single-origin samples whatever the number of test
    # origins; a pass that keeps the test split or a (T, M, N) tensor of it
    # needs two samples more per test origin
    cfg = RunConfig(
        frequencies=(24, 12, 8, 6, 4, 3, 2, 1), synthetic=True, train_cycles=10,
        val_cycles=8, test_cycles=8, n_paths=800, schemes=("stacked", "ranked", "permuted"),
        methods=cli.FIXED_METHOD_TOKENS, out=str(tmp_path / "run"),
    )
    sample = build_hierarchy(cfg.frequencies).M * cfg.n_paths * 8  # one origin's M x N floats
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 6.5 * sample, (peak / sample, "origin samples")


def test_run_rows_equal_the_library_scores(tmp_path):
    # the driver scores origin by origin, under every scheme and method in
    # turn; its rows equal those of the public API run split-wide:
    # score_hierarchy over assemble_origins of the test split, raw for the
    # baseline and through reconcile_tensor for each pair, bit for bit
    cfg = _quick_config(tmp_path / "run", schemes=("stacked", "ranked", "permuted"),
                        methods=cli.FIXED_METHOD_TOKENS, seed=5)
    rows = run_experiment(cfg)
    h = build_hierarchy(cfg.frequencies)
    scn = temporec.SyntheticScenario(
        phi=cfg.phi, sigma=cfg.sigma, mu=cfg.mu, cycle_length=h.cycle_length,
        train_cycles=cfg.train_cycles, val_cycles=cfg.val_cycles,
        test_cycles=cfg.test_cycles, seed=cfg.seed, clip_at_zero=cfg.clip_at_zero,
    )
    origins = [*temporec.build_dataset(scn, h, cfg.n_paths).test_origins]

    def row(scheme, method, samples, actuals):
        crps, _ = temporec.score_hierarchy(samples, actuals, h)
        return cli.ReportRow(scheme, method, crps.level_scores, crps.overall)

    expected = []
    for scheme in cfg.schemes:
        tensor, actuals = temporec.assemble_origins(origins, h, scheme, seed=cfg.seed)
        if not expected:
            expected.append(row("none", "none", tensor, actuals))
        for lab in cfg.method_labels():
            P = temporec.wls_weights(h) if lab == "wls" else temporec.fixed_weights(lab.upper(), h)
            expected.append(row(scheme, lab, temporec.reconcile_tensor(P, tensor), actuals))
    assert len(rows) == 1 + 3 * 5
    assert rows == expected


def _counted_sample_paths(monkeypatch):
    calls = []

    def counted(fc, *args):
        calls.append(fc.level)
        return real(fc, *args)

    real = simkit.sample_paths
    monkeypatch.setattr(simkit, "sample_paths", counted)
    return calls


def test_run_without_cv_builds_only_the_test_split(tmp_path, monkeypatch):
    calls = _counted_sample_paths(monkeypatch)
    cfg = _quick_config(tmp_path / "run", schemes=("stacked", "ranked", "permuted"),
                        methods=("bu", "la"), val_cycles=5, test_cycles=3)
    run_experiment(cfg)
    # one call per level and test origin, whatever the number of schemes,
    # and none for a validation origin
    assert len(calls) == len(cfg.frequencies) * cfg.test_cycles


def test_cv_run_draws_validation_per_search_and_test_once(tmp_path, monkeypatch):
    # the validation split is not kept: each search draws it into its one
    # tensor; each test origin is drawn once for every scheme and method
    calls = _counted_sample_paths(monkeypatch)
    cfg = _quick_config(tmp_path / "run", schemes=("stacked", "ranked"), methods=("bu", "cv"),
                        cv_regimes=("simplex", "affine"), val_cycles=5, test_cycles=3)
    run_experiment(cfg)
    searches = len(cfg.schemes) * len(cfg.cv_regimes)
    assert len(calls) == len(cfg.frequencies) * (searches * cfg.val_cycles + cfg.test_cycles)


def test_failure_stops_the_failing_pair_and_the_ones_after_it(tmp_path, monkeypatch):
    # WLS fails at its third stacked origin and BU at its first ranked one
    # (a ranked sample has sorted rows); the reports are those of a pass
    # that runs each (scheme, method) pair over every origin in turn: the
    # stacked WLS failure is raised, and no ranked row or diagnostic is left
    real = cli.reconcile_tensor
    stacked_wls = []

    def failing(P, sample):
        reconciled = real(P, sample)
        ranked = bool(np.all(np.diff(sample, axis=-1) >= 0))
        if P.method == "WLS" and not ranked:
            stacked_wls.append(P.method)
            if len(stacked_wls) == 3:
                reconciled[..., 0, :] += 1.0
        if P.method == "BU" and ranked:
            reconciled[..., 0, :] += 1.0
        return reconciled

    monkeypatch.setattr(cli, "reconcile_tensor", failing)
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "frequencies = 4,2,1\nsynthetic = true\ntrain_cycles = 15\nval_cycles = 4\n"
        "test_cycles = 4\nn_paths = 12\nschemes = stacked,ranked\nmethods = bu,la,wls\n"
    )
    out = tmp_path / "out"
    assert main(["--config", str(cfg_file), "--out", str(out)]) == EXIT_NUMERIC
    failure = (out / "failure.txt").read_text()
    third = 15 + 4 + 2  # the cycle of the third test origin
    assert failure.startswith("NumericalError: ")
    assert f"scheme=stacked method=wls origin={third} " in failure
    rows = [line.split(",")[:2] for line in (out / "crps.csv").read_text().splitlines()[1:]]
    assert rows == [["none", "none"], ["stacked", "bu"], ["stacked", "la"]]
    lines = (out / "diagnostics.csv").read_text().splitlines()[1:]
    diagnostics = [line.split(",") for line in lines]
    assert [(d[0], d[1]) for d in diagnostics] == (
        [("stacked", "bu")] * 4 + [("stacked", "la")] * 4 + [("stacked", "wls")] * 3
    )
    assert [int(d[2]) for d in diagnostics[-3:]] == [19, 20, third]
