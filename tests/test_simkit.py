import numpy as np
import pytest

from temporec.errors import SimkitError, TooShort
from temporec.hierarchy import aggregate, build_hierarchy
from temporec.simkit import (
    LevelForecaster,
    SyntheticScenario,
    build_dataset,
    dataset_from_series,
    fit_level,
    sample_paths,
    simulate_truth,
)


def test_noise_free_truth_is_fixed_point():
    scn = SyntheticScenario(phi=0.5, sigma=0.0, mu=3.0, cycle_length=4,
                            train_cycles=2, val_cycles=1, test_cycles=1, seed=0)
    series = simulate_truth(scn)
    assert series.shape == (16,)
    np.testing.assert_allclose(series, 6.0)  # 3 / (1 - 0.5)


def test_truth_deterministic():
    scn = SyntheticScenario(phi=0.7, sigma=1.0, mu=1.0, cycle_length=8,
                            train_cycles=3, val_cycles=1, test_cycles=1, seed=42)
    np.testing.assert_array_equal(simulate_truth(scn), simulate_truth(scn))


def test_truth_long_run_mean():
    # 1e5 points; the sample mean of an AR(1) has variance
    # (sigma_x^2 / n) * (1 + phi) / (1 - phi)
    scn = SyntheticScenario(phi=0.6, sigma=1.0, mu=0.8, cycle_length=100,
                            train_cycles=998, val_cycles=1, test_cycles=1, seed=11)
    series = simulate_truth(scn)
    n = series.size
    assert n == 100_000
    var_x = 1.0 / (1.0 - 0.6**2)
    se = np.sqrt(var_x / n * (1 + 0.6) / (1 - 0.6))
    assert abs(series.mean() - scn.stationary_mean) <= 3 * se


def test_truth_clipping():
    scn = SyntheticScenario(phi=0.5, sigma=2.0, mu=0.0, cycle_length=24,
                            train_cycles=5, val_cycles=1, test_cycles=1, seed=2,
                            clip_at_zero=True)
    assert simulate_truth(scn).min() >= 0.0


def test_scenario_validation():
    with pytest.raises(SimkitError):
        SyntheticScenario(phi=1.0, sigma=1.0)
    with pytest.raises(SimkitError):
        SyntheticScenario(phi=0.5, sigma=-1.0)
    with pytest.raises(SimkitError):
        SyntheticScenario(phi=0.5, sigma=1.0, train_cycles=0)


def test_fit_recovers_noiseless_decay():
    phi, intercept = 0.8, 0.5
    series = np.empty(50)
    series[0] = 10.0  # away from the fixed point so the slope is identified
    for t in range(1, 50):
        series[t] = intercept + phi * series[t - 1]
    fc = fit_level(series, 1)
    assert fc.phi == pytest.approx(phi, abs=1e-8)
    assert fc.intercept == pytest.approx(intercept, abs=1e-8)


def test_fit_white_noise_phi_near_zero():
    rng = np.random.default_rng(3)
    fc = fit_level(rng.normal(size=10_000), 1)
    assert abs(fc.phi) <= 0.1


def test_fit_constant_series_falls_back():
    fc = fit_level(np.full(20, 7.0), 1)
    assert fc.phi == 0.0
    assert fc.intercept == 7.0
    np.testing.assert_array_equal(fc.residuals, np.zeros(20))


def test_fit_too_short():
    with pytest.raises(TooShort):
        fit_level(np.arange(9.0), 1)


def test_paths_degenerate_when_residuals_zero():
    fc = fit_level(np.full(20, 4.0), 1)
    ls = sample_paths(fc, origin_state=4.0, horizon=3, n_paths=5, seed=0)
    # intercept-only model from a constant series reproduces the constant
    np.testing.assert_allclose(ls.matrix, 4.0)
    assert ls.level == 1


def test_paths_shape_and_determinism():
    rng = np.random.default_rng(1)
    fc = fit_level(rng.normal(size=100), 2)
    one = sample_paths(fc, 0.3, horizon=1, n_paths=6, seed=9)
    assert one.matrix.shape == (1, 6)
    again = sample_paths(fc, 0.3, horizon=1, n_paths=6, seed=9)
    np.testing.assert_array_equal(one.matrix, again.matrix)


def test_paths_one_step_mean():
    rng = np.random.default_rng(8)
    series = simulate_truth(SyntheticScenario(phi=0.7, sigma=1.0, mu=0.5,
                                              cycle_length=100, train_cycles=8,
                                              val_cycles=1, test_cycles=1, seed=4))
    fc = fit_level(series, 1)
    state = 2.0
    ls = sample_paths(fc, state, horizon=1, n_paths=10_000, seed=5)
    expected = fc.intercept + fc.phi * state
    se = fc.residuals.std() / np.sqrt(10_000)
    assert abs(ls.matrix.mean() - expected) <= 3 * se + abs(fc.residuals.mean())


def test_paths_lag_one_autocorrelation():
    series = simulate_truth(SyntheticScenario(phi=0.7, sigma=1.0, mu=0.5,
                                              cycle_length=100, train_cycles=48,
                                              val_cycles=1, test_cycles=1, seed=6))
    fc = fit_level(series, 1)
    ls = sample_paths(fc, series[-1], horizon=60, n_paths=1000, seed=7)
    x = ls.matrix[10:]  # drop the start-up transient
    rho = np.corrcoef(x[:-1].ravel(), x[1:].ravel())[0, 1]
    assert abs(rho - fc.phi) <= 0.1


def test_paths_scale_equivariant():
    # fitting and sampling x / f gives the paths of x divided by f, so levels
    # can be modelled in common units instead of native window sums
    series = simulate_truth(SyntheticScenario(phi=0.6, sigma=1.0, mu=2.0, cycle_length=10,
                                              train_cycles=8, val_cycles=1, test_cycles=1, seed=3))
    native = sample_paths(fit_level(series, 1), series[-1], horizon=12, n_paths=50, seed=4)
    for f in (2, 24, 288):
        common = sample_paths(fit_level(series / f, 1), series[-1] / f, horizon=12, n_paths=50, seed=4)
        np.testing.assert_allclose(common.matrix, native.matrix / f, rtol=1e-12)


def test_dataset_consistency():
    h = build_hierarchy([4, 2, 1])
    scn = SyntheticScenario(phi=0.6, sigma=1.0, mu=1.0, cycle_length=4,
                            train_cycles=20, val_cycles=5, test_cycles=5, seed=9)
    ds = build_dataset(scn, h, n_paths=10)
    assert len(ds.val_origins) == 5
    assert len(ds.test_origins) == 5
    # each level is fitted on its common-unit node values, cycle by cycle
    nodes = aggregate(ds.bottom[: 20 * 4].reshape(20, 4).T, h)
    for fc in ds.forecasters:
        refit = fit_level(nodes[h.levels[fc.level - 1][1]].T.ravel(), fc.level)
        assert refit.phi == fc.phi
        assert refit.intercept == fc.intercept
        np.testing.assert_array_equal(refit.residuals, fc.residuals)
    # actuals are the common-unit node values of the origin's cycle
    for origin in [*ds.val_origins, *ds.test_origins]:
        cycle = ds.bottom[origin.origin * 4 : (origin.origin + 1) * 4]
        np.testing.assert_array_equal(origin.actual, aggregate(cycle[:, None], h)[:, 0])
    # level samples carry the right shapes
    for ls in ds.val_origins[0].levels:
        assert ls.matrix.shape == (h.nodes_at(ls.level), 10)


def test_dataset_deterministic():
    h = build_hierarchy([4, 2, 1])
    scn = SyntheticScenario(phi=0.6, sigma=1.0, mu=1.0, cycle_length=4,
                            train_cycles=15, val_cycles=3, test_cycles=3, seed=21)
    a = build_dataset(scn, h, n_paths=8)
    b = build_dataset(scn, h, n_paths=8)
    np.testing.assert_array_equal(a.bottom, b.bottom)
    for oa, ob in zip([*a.val_origins, *a.test_origins], [*b.val_origins, *b.test_origins]):
        np.testing.assert_array_equal(oa.actual, ob.actual)
        for la, lb in zip(oa.levels, ob.levels):
            np.testing.assert_array_equal(la.matrix, lb.matrix)


def test_dataset_splits_do_not_depend_on_build_order():
    # each origin is seeded by cycle and level, so a split drawn first or
    # second, and an origin read again, hold the same samples, bit for bit
    h = build_hierarchy([4, 2, 1])
    scn = SyntheticScenario(phi=0.6, sigma=1.0, mu=1.0, cycle_length=4,
                            train_cycles=12, val_cycles=3, test_cycles=4, seed=5)
    a = build_dataset(scn, h, n_paths=8)
    b = build_dataset(scn, h, n_paths=8)
    a_val, a_test = [*a.val_origins], [*a.test_origins]
    b_test, b_val = [*b.test_origins], [*b.val_origins]
    assert [o.origin for o in a_val + a_test] == list(a.val_range) + list(a.test_range)

    def assert_same(oa, ob):
        assert oa.origin == ob.origin
        assert oa.actual.tobytes() == ob.actual.tobytes()
        for la, lb in zip(oa.levels, ob.levels):
            assert la.matrix.tobytes() == lb.matrix.tobytes()

    for oa, ob in zip(a_val + a_test, b_val + b_test):
        assert_same(oa, ob)
    # two reads of one origin draw it twice, bit-identical
    assert a.test_origins[1] is not a.test_origins[1]
    assert_same(a.test_origins[1], a_test[1])
    assert_same(a.val_origins[-1], b_val[-1])
    # a slice is the split of the sliced cycles
    part = a.test_origins[1:3]
    assert len(part) == 2
    for oa, ob in zip(part, a_test[1:3]):
        assert_same(oa, ob)


def test_dataset_checks_paths_before_any_split():
    h = build_hierarchy([2, 1])
    with pytest.raises(SimkitError, match="at least 2 sample paths, got 1"):
        dataset_from_series(np.arange(40.0), h, 10, 5, 5, n_paths=1)


def test_dataset_needs_enough_cycles():
    h = build_hierarchy([2, 1])
    with pytest.raises(Exception) as err:
        dataset_from_series(np.zeros(10), h, 10, 5, 5, n_paths=4)
    assert "cycles" in str(err.value)


def test_mismatched_cycle_length_rejected():
    h = build_hierarchy([4, 2, 1])
    scn = SyntheticScenario(phi=0.5, sigma=1.0, cycle_length=8,
                            train_cycles=10, val_cycles=2, test_cycles=2)
    with pytest.raises(SimkitError):
        build_dataset(scn, h, n_paths=4)


def test_scenario_forecaster_and_paths_bounds():
    with pytest.raises(SimkitError, match="cycle length must be positive"):
        SyntheticScenario(phi=0.5, sigma=1.0, cycle_length=0)
    with pytest.raises(SimkitError, match="residual pool must be nonempty"):
        LevelForecaster(level=1, phi=0.5, intercept=0.0, residuals=[])
    fc = LevelForecaster(level=1, phi=0.5, intercept=0.0, residuals=[-1.0, 1.0])
    with pytest.raises(SimkitError, match="horizon must be at least 1"):
        sample_paths(fc, 0.0, horizon=0, n_paths=4, seed=0)
    with pytest.raises(SimkitError, match="at least 2 sample paths"):
        sample_paths(fc, 0.0, horizon=3, n_paths=1, seed=0)


def test_non_finite_inputs_raise_simkit_error_without_lapack_noise(capfd):
    # a non-finite series reaching the least-squares fit made LAPACK print
    # to stdout and raise a bare LinAlgError
    with pytest.raises(SimkitError, match="innovation scale"):
        SyntheticScenario(phi=0.5, sigma=float("nan"))
    with pytest.raises(SimkitError, match="stationary mean"):
        SyntheticScenario(phi=0.5, sigma=1.0, mu=float("inf"))
    with pytest.raises(SimkitError, match="stationary mean"):
        SyntheticScenario(phi=0.7, sigma=1.0, mu=1e308)
    series = np.arange(20.0)
    series[4] = np.nan
    with pytest.raises(SimkitError, match="level 3"):
        fit_level(series, 3)
    # window sums of a series near the float range would overflow, with
    # numpy's RuntimeWarning (an error under this suite's filter); the bound
    # max |value| * f_1 is checked before any sum is taken
    h = build_hierarchy([4, 2, 1])
    scn = SyntheticScenario(phi=0.0, sigma=1.0, mu=1e308, cycle_length=4,
                            train_cycles=12, val_cycles=1, test_cycles=1)
    with pytest.raises(SimkitError, match=r"level 1 .* max \|value\| \* f_1 = 1e\+308 \* 4"):
        build_dataset(scn, h, n_paths=4)
    out, err = capfd.readouterr()
    assert "DLASCL" not in out and "DLASCL" not in err
