"""Frequency-domain prediction, series reconstruction, and forecasting."""

import inspect
import json
import os
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import (ar1_series, ar_fits_by_simplex, ar_forecasts_by_loops, arma_series,
                     invert_gauss, synthesize_brute_force)
from stkrig import (ModelParams, SimulationSpec, TimeSeriesPanel,
                    assemble_system, cov_freq, cov_matrix, cov_zero, dft_panel, forecast,
                    fourier_frequencies, krige_series, predict_dft,
                    reconstruct_series, simulate_panel)
import stkrig.krige
from stkrig.krige import (_ar_paths, _ar_transfer, _enforce_stationarity,
                          estimate_target_mean)
from stkrig.numerics import SingularMatrixError

with open(os.path.join(os.path.dirname(__file__), "fixtures",
                       "pilot_thresholds.json")) as _handle:
    FORECAST_SEEDS = json.load(_handle)["forecast_rates"]


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
    with pytest.raises(ValueError, match="omega contains non-finite values"):
        assemble_system(locs, target, np.nan, params)


@pytest.mark.parametrize("nu", [1.0, 1.25, 0.8])
@pytest.mark.parametrize("nugget", [0.0, 0.3])
def test_assemble_system_equals_the_public_covariances(nu, nugget):
    # one kernel call on the triangle and the target distances gives what
    # the three public functions give, bit for bit; a target on a site too
    locs, target, params = _setup(seed=int(4 * nu), m=7)
    params = replace(params, nu=nu, nugget=nugget)
    dmat = np.linalg.norm(locs[:, None, :] - locs[None, :, :], axis=-1)
    for tgt in (target, locs[2]):
        h0 = np.linalg.norm(locs - tgt[None, :], axis=-1)
        for w in (0.3, 1.1, np.pi):
            for noise in (False, True):
                f, g0, c0 = assemble_system(locs, tgt, w, params, include_target_noise=noise)
                assert np.array_equal(f, cov_matrix(dmat, w, params))
                assert np.array_equal(g0, cov_freq(h0, w, params))
                assert c0 == cov_zero(w, params) + (nugget / (2.0 * np.pi) if noise else 0.0)


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


def test_predict_dft_marks_a_system_no_jitter_repairs_failed():
    locs, target, params = _setup(seed=2)
    spectral = dft_panel(TimeSeriesPanel(locs, np.random.default_rng(3).normal(size=(5, 17))))
    _, g0, c0 = assemble_system(locs, target, 1.0, params)
    pred = predict_dft(spectral, [(-np.eye(5), g0, c0)] * spectral.n_frequencies)
    assert pred.failed == tuple(range(spectral.n_frequencies))
    assert np.isnan(pred.predicted).all() and np.isnan(pred.mse).all()


def test_krige_series_reports_a_failed_frequency(monkeypatch):
    locs, target, params = _setup(seed=4)
    panel = TimeSeriesPanel(locs, np.random.default_rng(5).normal(size=(5, 33)))
    calls, solve = [], stkrig.krige.hpd_solve

    def failing_at_the_fourth(matrix, rhs):
        calls.append(None)
        if len(calls) == 4:
            raise SingularMatrixError("singular", 0.0)
        return solve(matrix, rhs)

    monkeypatch.setattr(stkrig.krige, "hpd_solve", failing_at_the_fourth)
    with pytest.warns(UserWarning, match="^1 of 16 frequencies failed to solve"):
        out = krige_series(panel, target, params)
    assert out.jitter_report["failed_frequencies"] == [3]
    assert out.to_dict()["mse"][3] is None
    assert np.isfinite(out.reconstructed).all()


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
    # per frequency one kernel call: the m(m-1)/2 strict triangle of F and
    # the m entries of g0; C(0, w) comes with it
    m = 30
    locs, target, params = _setup(seed=15, m=m, box=6.0)
    panel = TimeSeriesPanel(locs, np.random.default_rng(16).normal(size=(m, 33)))
    out = krige_series(panel, target, replace(params, nu=0.8))
    assert kernel_points == [m * (m - 1) // 2 + m] * out.frequencies.size


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
    spectral = dft_panel(TimeSeriesPanel(np.array([[0.0, 0.0]]), z[None, :]))
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


def test_subnormal_covariance_scale_fails_loudly():
    # b0 = 706 puts C(0, w) = e^-706 / (4 pi) ~ 1.9e-308 below the smallest
    # normal double at every frequency; b0 = 700 (C(0, w) ~ 7.8e-306) is
    # still normal and kriges, with no spatial correlation left
    locs, target, params = _setup(seed=17)
    panel = simulate_panel(SimulationSpec(locations=locs, n=33, params=params, seed=18))
    tiny = replace(params, c_coeffs=(706.0,), nugget=0.0)
    assert 0.0 < cov_zero(1.1, tiny) < np.finfo(float).tiny
    with pytest.raises(FloatingPointError, match="not a normal double"):
        assemble_system(locs, target, 1.1, tiny)
    with pytest.raises(FloatingPointError, match="not a normal double"):
        krige_series(panel, target, tiny)
    small = krige_series(panel, target, replace(tiny, c_coeffs=(700.0,)))
    assert np.all(small.mse > 0.0)


def test_overflowing_target_distance_is_rejected_without_a_warning():
    locs, target, params = _setup(seed=19)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="target-to-site distances must be finite"):
            assemble_system(locs, np.array([1e308, 1e308]), 1.1, params)
        with pytest.raises(ValueError, match="target-to-site distances must be finite"):
            assemble_system(locs, np.array([np.inf, 0.0]), 1.1, params)
        # sites on both sides of the origin: their distances overflow, the
        # target's do not
        far = np.column_stack([(-1.0) ** np.arange(5) * 1e154, np.arange(5.0)])
        panel = TimeSeriesPanel(far, np.random.default_rng(20).normal(size=(5, 33)))
        for call in (lambda: assemble_system(far, np.zeros(2), 1.1, params),
                     lambda: krige_series(panel, np.zeros(2), params)):
            with pytest.raises(ValueError, match="distance between sites 0 and 1 is not finite"):
                call()


def test_model_of_another_dimension_is_rejected():
    locs, target, params = _setup(seed=19)
    panel = TimeSeriesPanel(locs, np.random.default_rng(20).normal(size=(locs.shape[0], 33)))
    cubic = replace(params, d=3)
    for call in (lambda: assemble_system(locs, target, 1.1, cubic),
                 lambda: krige_series(panel, target, cubic)):
        with pytest.raises(ValueError, match="locations have dimension 2 but the model has d=3"):
            call()


def test_enforce_stationarity_reflection():
    repaired, changed = _enforce_stationarity(np.array([1.2]))
    assert changed
    assert_allclose(repaired, [1.0 / 1.2], rtol=1e-12)
    same, changed = _enforce_stationarity(np.array([0.5]))
    assert not changed
    assert_allclose(same, [0.5], rtol=1e-15)


def test_enforce_stationarity_drops_negligible_trailing_coefficients():
    # np.roots divides by the leading coefficient of the characteristic
    # polynomial, here phi_2 = 1e-320, and overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        same, changed = _enforce_stationarity(np.array([0.5, 1e-320]))
        assert not changed and same.tolist() == [0.5, 1e-320]
        repaired, changed = _enforce_stationarity(np.array([1.25, 1e-320]))
        assert changed and repaired.shape == (2,)
        assert_allclose(repaired, [0.8, 0.0], rtol=1e-12)
        same, changed = _enforce_stationarity(np.array([5e-324]))
        assert not changed and same.tolist() == [5e-324]


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


@pytest.mark.filterwarnings("error")
def test_forecast_recursion_matches_the_loops_bit_for_bit():
    # the point forecasts and the psi weights come from one recursion; the
    # loops it replaced are the oracle, over orders 0..8 and horizons up
    # to past 3p
    rng = np.random.default_rng(41)
    centered = rng.normal(size=64)
    mu, s2 = 1.75, 0.6
    for p in range(9):
        # stationary: roots of the characteristic polynomial outside the unit circle
        coeffs, _ = _enforce_stationarity(rng.uniform(-0.6, 0.6, p))
        for horizons in sorted({0, 1, 2, p, 3 * p + 1, 50}):
            expected = ar_forecasts_by_loops(centered, mu, coeffs, s2, horizons)
            paths = _ar_paths(centered, coeffs, horizons)
            got = (paths[0] + mu, s2 * np.cumsum(paths[1] ** 2))
            for a, b in zip(got, expected):
                assert a.shape == (horizons,) and a.tobytes() == b.tobytes(), (p, horizons)
    # and through forecast itself, at the order it chooses
    z = arma_series([0.5, -0.3], 0.4, 200, seed=3)
    for horizons in (0, 1, 7, 40):
        out = forecast(z, horizons=horizons)
        mu = float(z.mean())
        expected = ar_forecasts_by_loops(z - mu, mu, out.ar_coefficients,
                                         out.innovation_variance, horizons)
        assert out.forecasts.tobytes() == expected[0].tobytes()
        assert out.forecast_mse.tobytes() == expected[1].tobytes()


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


def test_ar_transfer_matches_the_term_by_term_loop():
    # one matrix product replaced a subtraction per lag; the sums round
    # differently, so the loop's |1 - sum_j phi_j e^{-ijw}|^2 is met to a
    # few ulps of the terms
    n = 101
    phases = np.exp(-1j * np.arange(1, 9)[:, None] * fourier_frequencies(n))
    rng = np.random.default_rng(64005)
    for p in range(9):
        coeffs = rng.uniform(-0.5, 0.5, p)
        acc = np.ones(phases.shape[1], dtype=complex)
        for phi, phase in zip(coeffs, phases):
            acc = acc - phi * phase
        assert_allclose(_ar_transfer(coeffs, phases), (acc * np.conj(acc)).real,
                        rtol=0.0, atol=1e-14 * (1.0 + np.abs(coeffs).sum()) ** 2)


def _forecast_draws(family):
    fx = FORECAST_SEEDS
    if family == "white":
        return [np.random.default_rng(fx["white_seed_base"] + rep).normal(size=256)
                for rep in range(fx["replicates"])]
    if family == "ar1":
        return [ar1_series(0.6, 512, seed=fx["ar_seed_base"] + rep)
                for rep in range(fx["replicates"])]
    if family == "ar2":
        return [arma_series((0.5, -0.3), 0.0, 300, seed=65000 + rep) for rep in range(10)]
    return [arma_series((0.5,), 0.4, 265, seed=66000 + rep) for rep in range(10)]


@pytest.mark.parametrize("family", ["white", "ar1", "ar2", "arma11"])
def test_forecast_solves_each_order_as_the_simplex_search_did(family):
    # criterion 8's series and AR(2) and ARMA(1, 1) draws: the exact solve
    # selects the simplex's order, with its coefficients, at a criterion
    # value no higher than the one the simplex reached
    for z in _forecast_draws(family):
        fits, order, objective = ar_fits_by_simplex(z)
        out = forecast(z, horizons=1)
        assert out.ar_order == order
        assert_allclose(out.ar_coefficients, fits[order][0], rtol=0.0, atol=1e-6)
        reached = fits[order][1]
        assert objective(out.ar_coefficients) <= reached + 1e-12 * abs(reached)


def test_forecast_fits_a_pure_sinusoid_at_a_fourier_frequency():
    # the periodogram is non-zero (beyond rounding) at one ordinate, so the
    # Toeplitz systems of order 3 and up are singular and the criterion is
    # unbounded below at the unit root; the AR(2) still continues the wave
    n = 128
    t = np.arange(1, n + 4)
    wave = np.sin(2.0 * np.pi * 5.0 * t / n)
    with pytest.warns(UserWarning, match="nonstationary"):
        out = forecast(wave[:n], horizons=3)
    assert out.ar_order == 2
    assert np.all(np.isfinite(out.forecast_mse))
    assert_allclose(out.forecasts, wave[n:], atol=1e-4)


def test_forecast_takes_no_optimizer_settings():
    z = np.random.default_rng(64003).normal(size=64)
    assert "optimizer" not in inspect.signature(forecast).parameters
    with pytest.raises(TypeError):
        forecast(z, horizons=1, optimizer={"max_iterations": 100})


@pytest.mark.parametrize("bad", [np.inf, 1e308])
def test_forecast_rejects_series_it_cannot_transform_without_a_warning(bad):
    z = np.random.default_rng(64004).normal(size=40)
    z[::2] = bad
    z[1::2] = -bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite|overflows the double range"):
            forecast(z, horizons=1, max_order=2)
