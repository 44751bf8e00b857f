"""Frequency-domain prediction, series reconstruction, and forecasting."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import ar1_series, invert_gauss, synthesize_brute_force
from stkrig import (ModelParams, SimulationSpec, TimeSeriesPanel,
                    assemble_system, cov_zero, dft_panel, forecast,
                    fourier_frequencies, krige_series, predict_dft,
                    reconstruct_series, simulate_panel)
from stkrig.krige import (_enforce_stationarity, estimate_target_mean)


def _setup(seed=0, m=5, box=3.0):
    rng = np.random.default_rng(seed)
    locs = rng.uniform(0.0, box, (m, 2))
    target = rng.uniform(0.5, box - 0.5, 2)
    params = ModelParams(sigma_e2=1.0, nu=1.0, c_coeffs=(0.2, 0.4),
                         nugget=0.3, d=2)
    return locs, target, params


def test_assemble_system_structure():
    locs, target, params = _setup(seed=1)
    f, g0, c0 = assemble_system(locs, target, 1.1, params)
    assert f.shape == (5, 5) and g0.shape == (5,)
    assert_allclose(f, f.T, atol=1e-14)
    assert_allclose(np.diag(f),
                    (cov_zero(1.1, params) + 0.3 / (2.0 * np.pi)) * np.ones(5),
                    rtol=1e-13)
    assert c0 == pytest.approx(cov_zero(1.1, params))
    noisy = assemble_system(locs, target, 1.1, params, include_target_noise=True)
    assert noisy[2] == pytest.approx(c0 + 0.3 / (2.0 * np.pi))
    with pytest.raises(ValueError):
        assemble_system(locs, np.zeros(3), 1.1, params)


def test_prediction_matches_full_inverse_oracle():
    # conditional mean and variance computed with an elimination inverse
    for seed in range(5):
        locs, target, params = _setup(seed=seed)
        rng = np.random.default_rng(100 + seed)
        panel = TimeSeriesPanel(locs, rng.normal(size=(5, 33)))
        spectral = dft_panel(panel)
        systems = [assemble_system(locs, target, w, params)
                   for w in spectral.frequencies]
        pred = predict_dft(spectral, systems)
        for k in (0, 7, 15):
            f, g0, c0 = systems[k]
            f_inv = invert_gauss(f)
            w = f_inv @ g0
            assert_allclose(pred.predicted[k], w @ spectral.dft[:, k], atol=1e-8)
            assert_allclose(pred.mse[k], c0 - np.real(w @ g0), atol=1e-8)


def test_prediction_variance_bounds():
    locs, target, params = _setup(seed=3)
    freqs = fourier_frequencies(65)
    systems = [assemble_system(locs, target, w, params) for w in freqs]
    rng = np.random.default_rng(4)
    panel = TimeSeriesPanel(locs, rng.normal(size=(5, 65)))
    pred = predict_dft(dft_panel(panel), systems)
    c0s = np.array([s[2] for s in systems])
    assert np.all(pred.mse >= 0.0)
    assert np.all(pred.mse <= c0s + 1e-12)


def test_near_coincident_target_pins_variance():
    locs, _, _ = _setup(seed=5)
    params = ModelParams(sigma_e2=1.0, nu=1.0, c_coeffs=(0.2, 0.4), d=2)
    target = locs[2] + np.array([1e-6, 0.0])
    f, g0, c0 = assemble_system(locs, target, 0.9, params)
    rng = np.random.default_rng(6)
    panel = TimeSeriesPanel(locs, rng.normal(size=(5, 9)))
    spectral = dft_panel(panel)
    systems = [(f, g0, c0)] * spectral.n_frequencies
    pred = predict_dft(spectral, systems)
    assert np.all(pred.mse / c0 <= 1e-4)


def test_singular_system_marks_frequency_failed():
    # two essentially coincident sites, no nugget: the system is rank deficient
    locs = np.array([[0.0, 0.0], [0.0, 1e-15], [1.0, 0.0]])
    params = ModelParams(sigma_e2=1.0, nu=1.0, c_coeffs=(0.0,), d=2)
    rng = np.random.default_rng(7)
    panel = TimeSeriesPanel(locs, rng.normal(size=(3, 9)))
    spectral = dft_panel(panel)
    systems = [assemble_system(locs, [0.5, 0.5], w, params)
               for w in spectral.frequencies]
    pred = predict_dft(spectral, systems)
    # either the ladder repaired it (jitter used) or the frequency failed
    assert len(pred.failed) > 0 or np.any(pred.jitter > 0.0)
    for k in pred.failed:
        assert np.isnan(pred.predicted[k])


def test_predict_dft_counts_the_systems():
    locs, target, params = _setup(seed=2)
    rng = np.random.default_rng(3)
    spectral = dft_panel(TimeSeriesPanel(locs, rng.normal(size=(5, 17))))
    systems = [assemble_system(locs, target, w, params) for w in spectral.frequencies]
    for wrong in (systems[:-1], systems + systems[:2]):
        with pytest.raises(ValueError, match="got %d systems for 8 frequencies" % len(wrong)):
            predict_dft(spectral, iter(wrong))


def test_krige_series_streams_the_same_prediction():
    # krige_series hands predict_dft a generator; the result is the one a
    # list of the same systems gives
    locs, target, params = _setup(seed=9, m=7)
    rng = np.random.default_rng(10)
    panel = TimeSeriesPanel(locs, rng.normal(size=(7, 65)))
    spectral = dft_panel(panel)
    listed = predict_dft(spectral, [assemble_system(locs, target, w, params)
                                    for w in spectral.frequencies])
    out = krige_series(panel, target, params)
    assert np.array_equal(out.predicted_dft, listed.predicted)
    assert np.array_equal(out.mse, listed.mse)


def test_krige_series_evaluates_one_triangle_per_frequency(kernel_points):
    # per frequency: one m(m+1)/2 triangle of F and the m entries of g0
    m = 30
    locs, target, params = _setup(seed=15, m=m, box=6.0)
    panel = TimeSeriesPanel(locs, np.random.default_rng(16).normal(size=(m, 33)))
    out = krige_series(panel, target, replace(params, nu=0.8))
    n_freq = out.frequencies.size
    assert 0 < sum(kernel_points) <= n_freq * (m * (m + 1) // 2 + m)


def test_krige_series_holds_one_system_at_a_time():
    # m=40, n=1025: a list of the 512 systems alone is 6.6 MB of matrices
    locs, target, params = _setup(seed=11, m=40, box=6.0)
    panel = TimeSeriesPanel(locs, np.random.default_rng(12).normal(size=(40, 1025)))
    tracemalloc.start()
    try:
        krige_series(panel, target, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3e6


def test_estimate_target_mean_weights():
    locs = np.array([[0.0, 0.0], [2.0, 0.0]])
    means = np.array([1.0, 5.0])
    # twice as far from the second site: weights 4:1
    got = estimate_target_mean(locs, [0.5, 0.0], means)
    w = np.array([1.0 / 0.25, 1.0 / 2.25])
    assert got == pytest.approx(float(w @ means / w.sum()))
    assert estimate_target_mean(locs, [2.0, 0.0], means) == 5.0
    with pytest.raises(ValueError):
        estimate_target_mean(locs, [0.0, 0.0], np.ones(3))


def test_reconstruct_series_matches_brute_force():
    n = 17
    rng = np.random.default_rng(8)
    z = rng.normal(size=n)
    z -= z.mean()
    spectral = dft_panel(TimeSeriesPanel(np.array([[0.0, 0.0]]),
                                         z[None, :]), remove_mean=False)
    pred = spectral.dft[0]
    rebuilt = reconstruct_series(pred, n, site_mean=2.5)
    full = np.zeros(n, dtype=complex)
    full[1 : pred.size + 1] = pred
    full[n - pred.size :] = np.conj(pred[::-1])
    assert_allclose(rebuilt, synthesize_brute_force(full, n) + 2.5, atol=1e-10)


def test_reconstruct_series_rejects_bad_input():
    with pytest.raises(ValueError):
        reconstruct_series(np.ones(3, dtype=complex), 17)
    bad = np.ones(8, dtype=complex)
    bad[2] = np.nan
    with pytest.raises(ValueError):
        reconstruct_series(bad, 17)


def test_self_prediction_reproduces_centered_series():
    # target on an observed site, no nugget, odd length: exact reproduction
    rng = np.random.default_rng(9)
    locs = rng.uniform(0.0, 2.0, (4, 2))
    params = ModelParams(sigma_e2=1.0, nu=1.0, c_coeffs=(0.1, 0.3), d=2)
    panel = simulate_panel(SimulationSpec(locations=locs, n=65, params=params,
                                          seed=10))
    out = krige_series(panel, locs[1], params)
    centered = panel.observations[1] - panel.observations[1].mean()
    assert_allclose(out.reconstructed - out.site_mean, centered, atol=1e-8)
    assert out.site_mean == pytest.approx(panel.observations[1].mean())


def test_krige_series_threads_agree():
    locs, target, params = _setup(seed=11)
    panel = simulate_panel(SimulationSpec(locations=locs, n=64, params=params,
                                          seed=12), )
    one = krige_series(panel, target, params, threads=1)
    four = krige_series(panel, target, params, threads=4)
    assert np.array_equal(one.reconstructed, four.reconstructed)
    assert np.array_equal(one.predicted_dft, four.predicted_dft)
    assert np.array_equal(one.mse, four.mse)


def test_krige_series_reports_and_serializes():
    locs, target, params = _setup(seed=13)
    panel = simulate_panel(SimulationSpec(locations=locs, n=33, params=params,
                                          seed=14))
    out = krige_series(panel, target, params)
    assert out.jitter_report["n_failed"] == 0
    assert out.reconstructed.size == 33
    blob = out.to_dict()
    assert blob["n"] == 33
    assert len(blob["predicted_dft_real"]) == out.frequencies.size
    assert all(v is None or np.isfinite(v) for v in blob["mse"])


def test_target_noise_raises_mse_by_nugget_spectrum():
    locs, target, params = _setup(seed=15)
    panel = simulate_panel(SimulationSpec(locations=locs, n=33, params=params,
                                          seed=16))
    bare = krige_series(panel, target, params)
    noisy = krige_series(panel, target, params, include_target_noise=True)
    assert_allclose(noisy.mse - bare.mse,
                    params.nugget / (2.0 * np.pi) * np.ones_like(bare.mse),
                    atol=1e-12)
    assert np.array_equal(noisy.predicted_dft, bare.predicted_dft)


def test_enforce_stationarity_reflection():
    repaired, changed = _enforce_stationarity(np.array([1.2]))
    assert changed
    assert_allclose(repaired, [1.0 / 1.2], rtol=1e-12)
    same, changed = _enforce_stationarity(np.array([0.5]))
    assert not changed
    assert_allclose(same, [0.5], rtol=1e-15)


def test_forecast_white_noise_selects_order_zero():
    hits = 0
    for rep in range(50):
        z = np.random.default_rng(61000 + rep).normal(size=256)
        out = forecast(z, horizons=3)
        hits += out.ar_order == 0
        if out.ar_order == 0:
            assert_allclose(out.forecasts, np.full(3, z.mean()), rtol=1e-12)
    assert hits >= 45


def test_forecast_ar1_recovers_coefficient():
    psis = []
    for rep in range(50):
        z = ar1_series(0.6, 512, seed=62000 + rep)
        out = forecast(z, horizons=2)
        psis.append(out.ar_coefficients[0] if out.ar_order >= 1 else 0.0)
    assert 0.5 <= float(np.median(psis)) <= 0.7


def test_forecast_mse_accumulates_moving_average_weights():
    z = ar1_series(0.7, 600, seed=63001)
    out = forecast(z, horizons=3)
    assert out.ar_order >= 1
    phi = out.ar_coefficients
    # psi weights for the fitted model, then mse_h = s2 * sum_{j<h} psi_j^2
    psi = np.zeros(3)
    psi[0] = 1.0
    for j in range(1, 3):
        acc = 0.0
        for i in range(1, min(j, phi.size) + 1):
            acc += phi[i - 1] * psi[j - i]
        psi[j] = acc
    expected = out.innovation_variance * np.cumsum(psi ** 2)
    assert_allclose(out.forecast_mse, expected, rtol=1e-10)
    assert np.all(np.diff(out.forecast_mse) >= 0.0)


def test_forecast_repairs_nonstationary_fit():
    # a linear trend pushes the AR fit onto the unit root
    with pytest.warns(UserWarning, match="nonstationary"):
        out = forecast(np.arange(40.0), horizons=1, max_order=2)
    assert out.ar_order >= 1
    roots = np.roots(np.concatenate(([1.0], -out.ar_coefficients)))
    assert np.all(np.abs(roots) < 1.0 + 1e-8)


def test_forecast_constant_series():
    out = forecast(np.full(64, 3.25), horizons=4)
    assert out.ar_order == 0
    assert_allclose(out.forecasts, np.full(4, 3.25))
    assert_allclose(out.forecast_mse, np.zeros(4))
    assert out.innovation_variance == 0.0


def test_forecast_validation():
    z = np.random.default_rng(64002).normal(size=40)
    with pytest.raises(ValueError):
        forecast(z, horizons=-1)
    with pytest.raises(ValueError):
        forecast(z, horizons=2, max_order=20)
    with pytest.raises(ValueError):
        forecast(np.ones((4, 4)), horizons=1)
    empty = forecast(z, horizons=0, max_order=2)
    assert empty.forecasts.size == 0 and empty.forecast_mse.size == 0
