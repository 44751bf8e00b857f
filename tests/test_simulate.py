"""Spectral simulator as its own sanity check."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import simulate_panel_by_frequency
from stkrig import (ModelParams, SimulationSpec, cov_freq, cov_zero,
                    simulate_panel, simulate_white_panel)
from stkrig.covmodel import _BLOCK_POINTS


def _spec(seed=0, nugget=0.0, include_noise=False, n=128):
    rng = np.random.default_rng(77)
    locs = rng.uniform(0.0, 2.0, (4, 2))
    params = ModelParams(sigma_e2=1.0, nu=1.0, c_coeffs=(0.1, 0.4),
                         nugget=nugget, d=2)
    return SimulationSpec(locations=locs, n=n, params=params, seed=seed,
                          include_measurement_error=include_noise)


def test_simulation_is_deterministic_in_the_seed():
    a = simulate_panel(_spec(seed=5))
    b = simulate_panel(_spec(seed=5))
    c = simulate_panel(_spec(seed=6))
    assert np.array_equal(a.observations, b.observations)
    assert not np.array_equal(a.observations, c.observations)


@pytest.mark.parametrize("m, n", [(1, 33), (1, 34), (6, 33), (6, 34), (40, 161), (40, 162)])
@pytest.mark.parametrize("noise", [False, True])
def test_one_loop_over_the_grid_draws_the_old_panel(m, n, noise):
    # w = 0 and w = pi share the interior's blocks; the panel is bit for bit
    # the one the separate edge blocks drew, one frequency at a time. At
    # m = 40 one frequency alone already takes the Bessel table at nu = 0.8,
    # and the 81 or 82 grid frequencies of n = 161 or 162 leave the last of
    # the blocks of 21 partial
    assert _BLOCK_POINTS // (40 * 39 // 2) == 21
    rng = np.random.default_rng(n + m)
    for nu in (1.0, 1.25, 0.8):
        params = ModelParams(sigma_e2=1.3, nu=nu, c_coeffs=(0.1, 0.4), nugget=0.2, d=2)
        spec = SimulationSpec(locations=rng.uniform(0.0, 2.0, (m, 2)), n=n, params=params,
                              seed=int(rng.integers(1000)), include_measurement_error=noise)
        assert np.array_equal(simulate_panel(spec).observations,
                              simulate_panel_by_frequency(spec))


def test_simulation_evaluates_one_triangle_per_grid_frequency(kernel_points):
    # per block of grid frequencies one kernel call, per frequency the
    # m(m-1)/2 strict triangle
    for n in (33, 34):
        simulate_panel(_spec(n=n))
        assert all(points % (4 * 3 // 2) == 0 for points in kernel_points)
        assert sum(kernel_points) == 4 * 3 // 2 * (n // 2 + 1)
        kernel_points.clear()


def test_simulation_in_blocks_moves_where_a_block_takes_the_table():
    # at m = 8 one frequency's 28 kernel points take kve, a block of them
    # the Bessel table, which is within about 1e-13 of kve; each value is
    # a sum over every frequency, so the bound is relative to the panel's
    # scale, not to values that sum to near zero
    rng = np.random.default_rng(8)
    params = ModelParams(sigma_e2=1.3, nu=1.37, c_coeffs=(0.1, 0.4), d=2)
    spec = SimulationSpec(locations=rng.uniform(0.0, 6.0, (8, 2)), n=265, params=params, seed=4)
    blocked, looped = simulate_panel(spec).observations, simulate_panel_by_frequency(spec)
    assert not np.array_equal(blocked, looped)
    assert_allclose(blocked, looped, rtol=0.0, atol=1e-13 * np.abs(looped).max())


def test_overflowing_site_distances_are_rejected_without_a_warning():
    # sites on both sides of the origin: their distance overflows
    params = ModelParams(sigma_e2=1.0, nu=1.0, c_coeffs=(0.0,), d=2)
    far = SimulationSpec(locations=[[1e308, 0.0], [-1e308, 1.0]], n=32, params=params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="distance between sites 0 and 1 is not finite"):
            simulate_panel(far)


def test_spec_validation():
    rng = np.random.default_rng(1)
    locs = rng.uniform(0.0, 1.0, (3, 2))
    params = ModelParams(sigma_e2=1.0, nu=1.0, c_coeffs=(0.0,), d=2)
    with pytest.raises(ValueError):
        SimulationSpec(locations=locs, n=4, params=params)
    with pytest.raises(ValueError):
        SimulationSpec(locations=np.zeros((3, 3)), n=32, params=params)
    dup = locs.copy()
    dup[1] = dup[0]
    with pytest.raises(ValueError):
        simulate_panel(SimulationSpec(locations=dup, n=32, params=params))


def test_marginal_variance_matches_model():
    # Var z_t = (2 pi / n) * sum_k C(0, w_k) over the full frequency grid
    spec = _spec(seed=9, n=256)
    panel = simulate_panel(spec)
    wk = 2.0 * np.pi * np.arange(256) / 256
    # the simulator leaves the mean ordinate at zero, so skip w = 0
    theory = 2.0 * np.pi / 256 * float(np.sum(cov_zero(wk[1:], spec.params)))
    sample = float(np.mean(panel.observations ** 2))
    assert abs(sample / theory - 1.0) <= 0.25


def test_cross_site_covariance_matches_model():
    rng = np.random.default_rng(31)
    locs = np.array([[0.0, 0.0], [0.8, 0.0]])
    params = ModelParams(sigma_e2=1.0, nu=1.0, c_coeffs=(0.0, 0.4), d=2)
    n, reps = 64, 300
    acc = 0.0
    for rep in range(reps):
        panel = simulate_panel(SimulationSpec(locations=locs, n=n,
                                              params=params, seed=71000 + rep))
        acc += float(np.mean(panel.observations[0] * panel.observations[1]))
    acc /= reps
    wk = 2.0 * np.pi * np.arange(1, n) / n
    theory = 2.0 * np.pi / n * float(np.sum(cov_freq(0.8, wk, params)))
    assert abs(acc / theory - 1.0) <= 0.1


def test_measurement_error_is_additive_noise():
    clean = simulate_panel(_spec(seed=4, nugget=0.6, include_noise=False))
    noisy = simulate_panel(_spec(seed=4, nugget=0.6, include_noise=True))
    diff = noisy.observations - clean.observations
    # same seed: the field draws coincide and the difference is pure noise
    assert abs(float(np.var(diff)) - 0.6) <= 0.1
    assert abs(float(np.mean(diff))) <= 0.05
    lag1 = np.mean(diff[:, 1:] * diff[:, :-1]) / np.var(diff)
    assert abs(lag1) <= 0.1


def test_zero_nugget_ignores_noise_flag():
    a = simulate_panel(_spec(seed=8, nugget=0.0, include_noise=False))
    b = simulate_panel(_spec(seed=8, nugget=0.0, include_noise=True))
    assert np.array_equal(a.observations, b.observations)


def test_white_panel_shape_and_level():
    panel = simulate_white_panel(3, 512, variance=2.5, seed=12)
    assert panel.m == 3 and panel.n == 512
    assert panel.site_ids == ("site0", "site1", "site2")
    assert abs(float(np.var(panel.observations)) / 2.5 - 1.0) <= 0.15
    custom = simulate_white_panel(2, 16, locations=[[0.0, 0.0], [3.0, 1.0]],
                                  site_ids=("a", "b"), seed=1)
    assert custom.site_ids == ("a", "b")
    assert_allclose(custom.locations, [[0.0, 0.0], [3.0, 1.0]])


def test_simulated_panel_carries_spec_metadata():
    spec = _spec(seed=2, n=32)
    panel = simulate_panel(spec)
    assert panel.n == 32 and panel.m == 4
    assert_allclose(panel.locations, spec.locations)


def _spec_at(locations):
    return SimulationSpec(locations=locations, n=16, params=_spec().params)


@pytest.mark.parametrize("call, match", [
    (lambda: _spec_at(np.zeros((2, 2, 2))), r"locations must have shape \(m, d\)"),
    (lambda: _spec_at(np.zeros((0, 2))), r"locations must have shape \(m, d\)"),
    (lambda: _spec_at([[0.0, np.nan]]), "locations contain non-finite values"),
    (lambda: simulate_white_panel(2, 8, variance=0.0), "variance must be positive"),
    (lambda: simulate_white_panel(2, 8, variance=np.inf), "variance must be positive"),
    (lambda: simulate_white_panel(2, 8, locations=[[0.0, 0.0]]), "got 1 locations for 2 sites"),
], ids=["3d-locations", "no-sites", "nan-location", "zero-variance", "infinite-variance",
        "location-count"])
def test_malformed_simulation_inputs_are_refused(call, match):
    with pytest.raises(ValueError, match=match):
        call()
