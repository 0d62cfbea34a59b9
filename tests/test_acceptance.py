"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import time
from contextlib import contextmanager
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from temporec.cvopt import optimize_weights
from temporec.hierarchy import aggregate, build_hierarchy, build_summing_matrix
from temporec.reconcile import (
    WeightMatrix,
    _lineage,
    check_coherence,
    fixed_weights,
    reconcile,
    reconcile_tensor,
    weights_from_levels,
    wls_weights,
)
from temporec.sampling import SCHEMES, assemble, assemble_origins
from temporec.scoring import _sorted_crps, cv_objective, score_hierarchy
from temporec.simkit import SyntheticScenario, build_dataset
from temporec.cli import main

from conftest import dense_map, oracle_summing_matrix, random_hierarchy
from test_cvopt import bottom_only_instance
from test_reconcile import _wls_oracle
from test_scoring import crps_brute_force


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"\nacceptance[{name}]: FAIL")
        raise
    print(f"\nacceptance[{name}]: PASS")


def _all_weight_matrices(h, rng):
    yield fixed_weights("BU", h)
    yield fixed_weights("BA", h)
    yield fixed_weights("GA", h)
    yield fixed_weights("LA", h)
    yield wls_weights(h)
    yield weights_from_levels(rng.normal(size=h.L), h)
    # the lineage map of signed node weights, one per node
    yield WeightMatrix(partial(_lineage, rng.normal(size=h.M), h=h), "nodes", h)


def test_coherence_suite():
    with criterion("coherence-suite"):
        start = time.monotonic()
        rng = np.random.default_rng(1234)
        for _ in range(100):
            h = random_hierarchy(rng, max_cycle=24)
            S = build_summing_matrix(h)
            levels = [rng.normal(size=(h.nodes_at(lev), 50)) for lev in range(1, h.L + 1)]
            joints = [assemble(levels, h, scheme, seed=7) for scheme in SCHEMES]
            for P in _all_weight_matrices(h, rng):
                for joint in joints:
                    rec = reconcile(S, P, joint)
                    ok, violation = check_coherence(rec.matrix, S, tol=1e-9)
                    assert ok, (h.f, P.method, joint.scheme, violation)
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"coherence suite took {elapsed:.1f}s"


def test_matrix_fixtures():
    with criterion("matrix-fixtures"):
        h = build_hierarchy([4, 2, 1])
        S = aggregate(np.eye(h.m), h)
        expected_S = np.array(
            [
                [0.25, 0.25, 0.25, 0.25],
                [0.5, 0.5, 0.0, 0.0],
                [0.0, 0.0, 0.5, 0.5],
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        assert np.abs(S - expected_S).max() <= 1e-12

        expected_bu = np.hstack([np.zeros((4, 3)), np.eye(4)])
        assert np.abs(dense_map(fixed_weights("BU", h)) - expected_bu).max() <= 1e-12

        expected_ba = np.hstack([np.zeros((4, 3)), np.full((4, 4), 0.25)])
        assert np.abs(dense_map(fixed_weights("BA", h)) - expected_ba).max() <= 1e-12

        third = 1.0 / 3.0
        expected_la = np.array(
            [
                [third, third, 0, third, 0, 0, 0],
                [third, third, 0, 0, third, 0, 0],
                [third, 0, third, 0, 0, third, 0],
                [third, 0, third, 0, 0, 0, third],
            ]
        )
        assert np.abs(dense_map(fixed_weights("LA", h)) - expected_la).max() <= 1e-12

        # daily hierarchy against a literal Kronecker expansion
        daily = build_hierarchy([24, 12, 8, 6, 4, 3, 2, 1])
        oracle = np.vstack(
            [
                (1.0 / fl) * np.kron(np.eye(24 // fl), np.ones((1, fl)))
                for fl in daily.f
            ]
        )
        built = aggregate(np.eye(daily.m), daily)
        assert built.shape == (60, 24)
        assert np.abs(built - oracle).max() <= 1e-12


def test_wls_identity():
    with criterion("wls-identity"):
        rng = np.random.default_rng(99)
        hierarchies = [random_hierarchy(rng) for _ in range(100)]
        hierarchies.append(build_hierarchy([24, 12, 8, 6, 4, 3, 2, 1]))
        hierarchies.append(build_hierarchy([288, 144, 96, 72, 48, 36, 24, 12, 6, 3, 1]))
        for h in hierarchies:
            P = dense_map(wls_weights(h))
            S = oracle_summing_matrix(h)
            assert np.abs(P @ S - np.eye(h.m)).max() <= 1e-10

        h2 = build_hierarchy([2, 1])
        expected = np.array(
            [
                [float(Fraction(1, 9)), float(Fraction(17, 18)), float(Fraction(-1, 18))],
                [float(Fraction(1, 9)), float(Fraction(-1, 18)), float(Fraction(17, 18))],
            ]
        )
        P2 = dense_map(wls_weights(h2))
        assert np.abs(P2 - expected).max() <= 1e-12
        assert np.abs(P2 - _wls_oracle(h2)).max() <= 1e-12


def sorted_crps(sample, z):
    """The CRPS kernel on one sorted row."""
    return _sorted_crps(np.sort(sample)[None, :], np.array([z]))[0]


def test_crps_oracle():
    with criterion("crps-oracle"):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            n = int(rng.integers(1, 201))
            sample = rng.normal(loc=rng.normal(), scale=rng.uniform(0.05, 4.0), size=n)
            z = rng.normal()
            fast = sorted_crps(sample, z)
            assert abs(fast - crps_brute_force(sample, z)) <= 1e-10
            c = rng.normal()
            a = rng.uniform(0.1, 3.0)
            assert abs(sorted_crps(sample + c, z + c) - fast) <= 1e-10
            assert abs(sorted_crps(a * sample, a * z) - a * fast) <= 1e-10


def test_cv_special_cases():
    with criterion("cv-special-cases"):
        h = build_hierarchy([4, 2, 1])
        scn = SyntheticScenario(phi=0.6, sigma=1.0, mu=1.0, cycle_length=4,
                                train_cycles=25, val_cycles=8, test_cycles=2, seed=13)
        ds = build_dataset(scn, h, n_paths=60)
        origins = ds.val_origins
        S = oracle_summing_matrix(h)

        bu_vec = np.array([0.0, 0.0, 1.0])
        la_vec = np.full(3, 1.0 / 3.0)
        for scheme in ("stacked", "ranked", "permuted"):
            tensor, actuals = assemble_origins(origins, h, scheme, seed=0)
            bu = fixed_weights("BU", h)
            reconciled = np.stack([S @ (dense_map(bu) @ mat) for mat in tensor])
            direct, _ = score_hierarchy(reconciled, actuals, h)
            common = np.mean(np.array(direct.level_scores) / h.f)  # the criterion's units
            assert abs(cv_objective(bu_vec, scheme, origins, h) - common) <= 1e-10

        res = optimize_weights(origins, "ranked", "simplex", h, seed=0)
        assert res.objective <= cv_objective(bu_vec, "ranked", origins, h) + 1e-12
        assert res.objective <= cv_objective(la_vec, "ranked", origins, h) + 1e-12
        assert abs(res.v.sum() - 1.0) <= 1e-8
        assert res.v.min() >= -1e-8


def test_toy_optimum_recovery():
    with criterion("toy-optimum"):
        start = time.monotonic()
        h, origins = bottom_only_instance()
        res = optimize_weights(origins, "ranked", "simplex", h, seed=0)
        assert res.v[-1] >= 0.5
        grid = np.arange(0.0, 1.0001, 0.05)
        objs = [
            cv_objective(np.array([v1, 1.0 - v1]), "ranked", origins, h) for v1 in grid
        ]
        best = grid[int(np.argmin(objs))]
        assert np.abs(res.v - np.array([best, 1.0 - best])).max() <= 0.02
        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"toy optimum took {elapsed:.1f}s"


def test_qualitative_replication():
    with criterion("qualitative-replication"):
        start = time.monotonic()
        h = build_hierarchy([24, 12, 8, 6, 4, 3, 2, 1])
        scn = SyntheticScenario(phi=0.7, sigma=1.0, mu=1.0, cycle_length=24,
                                train_cycles=12, val_cycles=12, test_cycles=30,
                                seed=2)
        ds = build_dataset(scn, h, n_paths=1000)

        res = optimize_weights(ds.val_origins, "ranked", "simplex", h, seed=2,
                               maxiter=150)
        tensor, actuals = assemble_origins(ds.test_origins, h, "ranked", seed=2)
        reconciled = reconcile_tensor(weights_from_levels(res.v, h), tensor)
        cv_table, _ = score_hierarchy(reconciled, actuals, h)

        base_tensor, base_actuals = assemble_origins(ds.test_origins, h, "stacked", seed=2)
        base_table, _ = score_hierarchy(base_tensor, base_actuals, h)

        assert cv_table.overall < base_table.overall, (
            f"cv {cv_table.overall:.4f} vs baseline {base_table.overall:.4f}"
        )
        coarse_gain = 1.0 - cv_table.level_scores[0] / base_table.level_scores[0]
        fine_gain = 1.0 - cv_table.level_scores[-1] / base_table.level_scores[-1]
        assert coarse_gain > fine_gain, (coarse_gain, fine_gain)
        elapsed = time.monotonic() - start
        assert elapsed < 300.0, f"replication run took {elapsed:.1f}s"


def test_cli_determinism(tmp_path):
    with criterion("cli-determinism"):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "frequencies = 4,2,1\ntrain_cycles = 15\nval_cycles = 4\n"
            "test_cycles = 4\nn_paths = 12\nschemes = ranked\nmethods = bu,cv\n"
        )
        out = tmp_path / "out"
        args = ["--config", str(cfg), "--synthetic", "--seed", "3", "--out", str(out)]
        assert main(args) == 0
        names = ["crps.csv", "mae.csv", "cv_weights.csv", "origin_scores.csv",
                 "diagnostics.csv", "manifest.txt"]
        first = {name: (out / name).read_bytes() for name in names}
        assert main(args) == 0
        second = {name: (out / name).read_bytes() for name in names}
        assert first == second
