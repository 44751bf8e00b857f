"""Acceptance gate for the shipped guarantees.

One test per criterion, run in order. Each prints a single summary line with
the measured margin, so ``pytest -v -s tests/test_acceptance.py`` reads as a
checklist. Replicate counts, seeds, and thresholds for the statistical
criteria are frozen in tests/fixtures/pilot_thresholds.json together with the
pilot values they were calibrated against.
"""

import csv
import json
import os
import time

import numpy as np
import pytest

from oracles import ar1_series, bessel_k_quadrature, dft_brute_force, invert_gauss
from stkrig import (FitConfig, ModelParams, SimulationSpec, TimeSeriesPanel,
                    assemble_system, build_distance_bins, c_mod_sq, cov_freq,
                    cov_matrix, cov_zero, cross_periodogram, dft_panel,
                    difference_periodogram, fit, forecast,
                    independence_test, krige_series, periodogram, predict_dft,
                    simulate_panel, simulate_white_panel, whittle_criterion)
from stkrig.cli import main as cli_main
from stkrig.indeptest import _normalized_log_det
from stkrig.numerics import bessel_k, dft_forward, log_gamma

with open(os.path.join(os.path.dirname(__file__), "fixtures",
                       "pilot_thresholds.json")) as _handle:
    PILOT = json.load(_handle)


def test_criterion_01_bessel_function_fidelity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    orders = rng.uniform(0.0, 20.0, 196)
    xs = np.exp(rng.uniform(np.log(1e-6), np.log(50.0), 196))
    grid = list(zip(orders, xs)) + [(0.0, 1e-6), (0.0, 50.0),
                                    (20.0, 1e-6), (20.0, 50.0)]
    worst = 0.0
    for order, x in grid:
        reference = bessel_k_quadrature(order, x)
        worst = max(worst, abs(bessel_k(order, x) - reference) / reference)
    assert worst <= 1e-10

    # small arguments approach the power law 2^(v-1) Gamma(v) x^(-v)
    x = 1e-4
    defect = 0.0
    for order in (0.5, 1.0, 1.5, 2.0, 3.0):
        limit = 2.0 ** (order - 1.0) * np.exp(log_gamma(order)) * x ** (-order)
        defect = max(defect, abs(bessel_k(order, x) / limit - 1.0))
    assert defect <= 1e-3

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print("PASS criterion 1: bessel_k vs quadrature oracle on 200 points, "
          "max rel err %.1e; small-x defect %.1e; %.1fs" % (worst, defect, elapsed))


def test_criterion_02_covariance_validity():
    rng = np.random.default_rng(2)
    worst_eig_ratio = 0.0
    for _ in range(50):
        m = int(rng.integers(3, 13))
        locs = rng.uniform(0.0, 6.0, (m, 2))
        params = ModelParams(
            sigma_e2=float(rng.uniform(0.3, 2.0)), nu=float(rng.uniform(0.6, 2.5)),
            c_coeffs=(float(rng.uniform(-0.8, 0.8)), float(rng.uniform(-0.5, 0.5))),
            d=2)
        dist = np.linalg.norm(locs[:, None, :] - locs[None, :, :], axis=-1)
        for omega in rng.uniform(0.01, np.pi, 20):
            eig = np.linalg.eigvalsh(cov_matrix(dist, omega, params))
            worst_eig_ratio = max(worst_eig_ratio, max(0.0, -eig[0]) / eig[-1])
    assert worst_eig_ratio <= 1e-8

    # planar closed form against the implementation at 100 random tuples
    rng = np.random.default_rng(22)
    worst_form = 0.0
    for _ in range(100):
        nu = float(rng.uniform(0.55, 3.0))
        params = ModelParams(
            sigma_e2=float(rng.uniform(0.2, 3.0)), nu=nu,
            c_coeffs=(float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-0.5, 0.5))),
            d=2)
        h = float(rng.uniform(0.05, 4.0))
        omega = float(rng.uniform(0.0, np.pi))
        mu = 2.0 * nu - 1.0
        c_abs = float(np.sqrt(c_mod_sq(omega, params)))
        direct = (params.sigma_e2
                  / (2.0 * np.pi * 2.0 ** (2.0 * nu - 1.0)
                     * np.exp(log_gamma(2.0 * nu)))
                  * (h / c_abs) ** mu * bessel_k(mu, h * c_abs))
        worst_form = max(worst_form,
                         abs(cov_freq(h, omega, params) / direct - 1.0))
    assert worst_form <= 1e-10

    # the h -> 0 limit lands on the closed-form sill; the approach rate is
    # h^(2 mu) for mu < 1, so keep mu = 2 nu - 1 at least 1/2 and h tiny
    rng = np.random.default_rng(23)
    worst_limit = 0.0
    for _ in range(10):
        params = ModelParams(
            sigma_e2=float(rng.uniform(0.2, 3.0)), nu=float(rng.uniform(0.75, 2.5)),
            c_coeffs=(float(rng.uniform(-0.8, 0.8)),), d=2)
        omega = float(rng.uniform(0.0, np.pi))
        ratio = cov_freq(1e-12, omega, params) / cov_zero(omega, params)
        worst_limit = max(worst_limit, abs(ratio - 1.0))
    assert worst_limit <= 1e-6

    print("PASS criterion 2: 50 covariance matrices PSD (worst eig ratio %.1e); "
          "closed form matches at 100 tuples (%.1e); h->0 defect %.1e"
          % (worst_eig_ratio, worst_form, worst_limit))


def test_criterion_03_spectral_identities():
    rng = np.random.default_rng(3)
    worst_dft = 0.0
    worst_parseval = 0.0
    for n in (2, 3, 4, 5, 8, 9, 16, 17, 31, 32, 33, 63, 64):
        z = rng.normal(size=n)
        half = dft_forward(z)
        worst_dft = max(worst_dft, float(np.max(np.abs(half - dft_brute_force(z)))))
        total = np.abs(half[0]) ** 2 + 2.0 * np.sum(np.abs(half[1:]) ** 2)
        if n % 2 == 0:
            total -= np.abs(half[-1]) ** 2
        worst_parseval = max(worst_parseval,
                             abs(total / (np.sum(z ** 2) / (2.0 * np.pi)) - 1.0))
    assert worst_dft <= 1e-10
    assert worst_parseval <= 1e-8

    # difference periodogram decomposes into the three periodogram terms
    locs = rng.uniform(0.0, 3.0, (4, 2))
    panel = TimeSeriesPanel(locs, rng.normal(size=(4, 65)))
    spectral = dft_panel(panel)
    worst_decomp = 0.0
    for i in range(4):
        for j in range(i + 1, 4):
            combo = (periodogram(spectral, i) + periodogram(spectral, j)
                     - 2.0 * np.real(cross_periodogram(spectral, i, j)))
            worst_decomp = max(worst_decomp, float(np.max(np.abs(
                difference_periodogram(spectral, i, j) - combo))))
    assert worst_decomp <= 1e-10

    print("PASS criterion 3: DFT vs brute force %.1e; Parseval %.1e; "
          "difference-periodogram identity %.1e"
          % (worst_dft, worst_parseval, worst_decomp))


def test_criterion_04_whittle_recovery():
    fx = PILOT["whittle_recovery"]
    truth = ModelParams(sigma_e2=1.0, nu=1.0, c_coeffs=(0.5, 0.8), d=2)
    bumped = ModelParams(sigma_e2=1.5, nu=1.0, c_coeffs=(0.5, 0.8), d=2)
    config = FitConfig(n_coeffs=1, nu_fixed=1.0, multistart=fx["multistart"],
                       seed=0, compute_covariance=False)
    t0 = time.perf_counter()
    wins = 0
    estimates = []
    for rep in range(fx["replicates"]):
        rng = np.random.default_rng(fx["site_seed_base"] + rep)
        locs = rng.uniform(0.0, 10.0, size=(20, 2))
        panel = simulate_panel(SimulationSpec(
            locations=locs, n=512, params=truth, seed=fx["panel_seed_base"] + rep))
        spectral = dft_panel(panel)
        bins = build_distance_bins(panel.locations)
        wins += (whittle_criterion(spectral, bins, truth)
                 < whittle_criterion(spectral, bins, bumped))
        p = fit(panel, config).params
        estimates.append((p.sigma_e2, p.c_coeffs[0], p.c_coeffs[1]))
    estimates = np.asarray(estimates)
    median_sigma = float(np.median(np.abs(estimates[:, 0] - 1.0)))
    median_b0 = float(np.median(np.abs(estimates[:, 1] - 0.5) / 0.5))
    median_b1 = float(np.median(np.abs(estimates[:, 2] - 0.8)))
    elapsed = time.perf_counter() - t0

    assert median_sigma <= fx["tolerance_sigma_rel"]
    assert median_b0 <= fx["tolerance_b0_rel"]
    assert median_b1 <= fx["tolerance_b1_abs"]
    assert wins >= fx["min_ranking_wins"]
    assert elapsed < 300.0
    print("PASS criterion 4: medians over %d fits, sigma rel %.3f, b0 rel %.3f, "
          "|b1-0.8| %.3f; truth beats bumped sill %d/%d; %.0fs"
          % (fx["replicates"], median_sigma, median_b0, median_b1, wins,
             fx["replicates"], elapsed))


def test_criterion_05_kriging_exactness():
    # (a) predictor and variance against a full-inverse oracle
    worst_pred = 0.0
    worst_mse = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        locs = rng.uniform(0.0, 3.0, (5, 2))
        target = rng.uniform(0.5, 2.5, 2)
        params = ModelParams(sigma_e2=1.0, nu=1.0, c_coeffs=(0.2, 0.4),
                             nugget=0.3, d=2)
        panel = TimeSeriesPanel(locs, np.random.default_rng(100 + seed).normal(size=(5, 33)))
        spectral = dft_panel(panel)
        systems = [assemble_system(locs, target, w, params)
                   for w in spectral.frequencies]
        pred = predict_dft(spectral, systems)
        for k in range(spectral.n_frequencies):
            f, g0, c0 = systems[k]
            weights = invert_gauss(f) @ g0
            worst_pred = max(worst_pred, abs(
                pred.predicted[k] - weights @ spectral.dft[:, k]))
            worst_mse = max(worst_mse, abs(
                pred.mse[k] - (c0 - np.real(weights @ g0))))
        # (b) variance bounds hold at every frequency
        c0s = np.array([s[2] for s in systems])
        assert np.all(pred.mse >= 0.0)
        assert np.all(pred.mse <= c0s + 1e-12)
    assert worst_pred <= 1e-8
    assert worst_mse <= 1e-8

    # (c) a target on top of a site pins the variance
    rng = np.random.default_rng(5)
    locs = rng.uniform(0.0, 3.0, (5, 2))
    clean = ModelParams(sigma_e2=1.0, nu=1.0, c_coeffs=(0.2, 0.4), d=2)
    f, g0, c0 = assemble_system(locs, locs[2] + np.array([1e-6, 0.0]), 0.9, clean)
    spectral = dft_panel(TimeSeriesPanel(locs, np.random.default_rng(6).normal(size=(5, 9))))
    near = predict_dft(spectral, [(f, g0, c0)] * spectral.n_frequencies)
    worst_pin = float(np.max(near.mse / c0))
    assert worst_pin <= 1e-4

    # (d) the reported variance is the empirical error variance
    fx = PILOT["kriging_mse"]
    params = ModelParams(sigma_e2=1.0, nu=1.0, c_coeffs=(0.0, 0.6), d=2)
    rng = np.random.default_rng(fx["location_seed"])
    all_locs = rng.uniform(0.0, 2.0, size=(6, 2))
    obs_locs, target = all_locs[:5], all_locs[5]
    probes = np.asarray(fx["probe_indices"])
    t0 = time.perf_counter()
    err2 = []
    mse_ref = None
    for rep in range(fx["replicates"]):
        panel = simulate_panel(SimulationSpec(
            locations=all_locs, n=fx["n"], params=params,
            seed=fx["panel_seed_base"] + rep))
        observed = TimeSeriesPanel(obs_locs, panel.observations[:5])
        out = krige_series(observed, target, params)
        if mse_ref is None:
            mse_ref = out.mse.copy()
        true_dft = dft_forward(panel.observations[5])[1:out.frequencies.size + 1]
        err2.append(np.abs(out.predicted_dft - true_dft) ** 2)
    ratio = np.asarray(err2).mean(axis=0)[probes] / mse_ref[probes]
    worst_ratio = float(np.max(np.abs(ratio - 1.0)))
    elapsed = time.perf_counter() - t0
    assert worst_ratio <= fx["tolerance_rel"]

    print("PASS criterion 5: oracle match %.1e (pred) / %.1e (mse); variance in "
          "bounds; coincident-target ratio %.1e; empirical/reported MSE within "
          "%.3f at %d probes over %d replicates; %.0fs"
          % (worst_pred, worst_mse, worst_pin, worst_ratio, probes.size,
             fx["replicates"], elapsed))


def test_criterion_06_reconstruction_round_trip():
    fx = PILOT["held_out_reconstruction"]
    s = fx["grid_spacing"]
    grid = np.array([[x, y] for x in (0.0, s, 2 * s) for y in (0.0, s, 2 * s)])
    center = 4
    params = ModelParams(sigma_e2=1.0, nu=1.0, c_coeffs=(0.0,), d=2)
    panel = simulate_panel(SimulationSpec(
        locations=grid, n=fx["n"], params=params, seed=fx["seed"]))

    # with the target among the observed sites the centered series comes back
    out_self = krige_series(panel, grid[center], params)
    own = panel.observations[center]
    assert out_self.site_mean == pytest.approx(float(own.mean()))
    worst_self = float(np.max(np.abs(
        (out_self.reconstructed - out_self.site_mean) - (own - own.mean()))))
    assert worst_self <= 1e-8

    # held-out site: reconstruction from the 8 neighbours tracks the truth
    keep = [i for i in range(9) if i != center]
    observed = TimeSeriesPanel(
        locations=panel.locations[keep],
        observations=panel.observations[keep],
        site_ids=tuple(panel.site_ids[i] for i in keep))
    out = krige_series(observed, grid[center], params)
    corr = float(np.corrcoef(out.reconstructed, own)[0, 1])
    assert corr >= fx["threshold"]

    print("PASS criterion 6: self-prediction max defect %.1e; held-out "
          "correlation %.4f >= %.2f" % (worst_self, corr, fx["threshold"]))


def test_criterion_07_independence_test_calibration():
    fx = PILOT["independence_calibration"]
    t0 = time.perf_counter()

    # the length from the original design brief admits no block partition;
    # the test must say so rather than silently rebinning
    with pytest.raises(ValueError, match="admissible"):
        independence_test(simulate_white_panel(3, 1025, seed=0), half_window=16)

    z_scores = np.empty(fx["replicates"])
    rejections = 0
    for rep in range(fx["replicates"]):
        panel = simulate_white_panel(3, fx["n"], variance=1.0,
                                     seed=fx["panel_seed_base"] + rep)
        result = independence_test(panel, half_window=fx["half_window"])
        z_scores[rep] = result.z_score
        rejections += result.p_value < 0.05
    rate = rejections / fx["replicates"]
    mean_s = float(z_scores.mean())
    assert fx["rejection_band"][0] <= rate <= fx["rejection_band"][1]
    assert abs(mean_s) <= fx["mean_s_tolerance"]

    # diagonal smoothed spectrum: the statistic is exactly zero
    log_det, jitter = _normalized_log_det(np.diag([2.0, 3.0, 0.5]).astype(complex))
    assert log_det == 0.0 and jitter == 0.0

    # two sites, window 9, ten blocks: hand-computed null moments
    moments = independence_test(simulate_white_panel(2, 181, seed=1), half_window=4)
    assert moments.mean_null == pytest.approx(0.125, abs=1e-12)
    assert moments.var_null == pytest.approx(0.0015625, abs=1e-15)

    elapsed = time.perf_counter() - t0
    assert elapsed < 180.0
    print("PASS criterion 7: rejection rate %.3f in [%.3f, %.3f], mean S %+.3f "
          "(n=%d stands in for 1025, which admits no window); diagonal and "
          "hand-moment identities exact; %.0fs"
          % (rate, fx["rejection_band"][0], fx["rejection_band"][1], mean_s,
             fx["n"], elapsed))


def test_criterion_08_forecast_sanity():
    fx = PILOT["forecast_rates"]
    order_zero = 0
    for rep in range(fx["replicates"]):
        z = np.random.default_rng(fx["white_seed_base"] + rep).normal(size=256)
        order_zero += forecast(z, horizons=1).ar_order == 0
    assert order_zero >= int(np.ceil(0.9 * fx["replicates"]))

    firsts = []
    for rep in range(fx["replicates"]):
        z = ar1_series(0.6, 512, seed=fx["ar_seed_base"] + rep)
        out = forecast(z, horizons=1)
        firsts.append(out.ar_coefficients[0] if out.ar_order >= 1 else 0.0)
    median_first = float(np.median(firsts))
    assert 0.5 <= median_first <= 0.7

    print("PASS criterion 8: white noise selects order 0 in %d/%d runs; "
          "AR(1) median first coefficient %.3f in [0.5, 0.7]"
          % (order_zero, fx["replicates"], median_first))


def _write_pipeline_inputs(root):
    rng = np.random.default_rng(19)
    loc_path = os.path.join(root, "locations.csv")
    with open(loc_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["site_id", "x1", "x2"])
        for i, point in enumerate(rng.uniform(0.0, 3.0, size=(5, 2))):
            writer.writerow(["s%d" % i, repr(float(point[0])), repr(float(point[1]))])
    model_path = os.path.join(root, "model.json")
    with open(model_path, "w") as handle:
        json.dump({"sigma_e2": 1.0, "nu": 1.0, "c_coeffs": [0.2, 0.4],
                   "nugget": 0.0, "d": 2}, handle)
    return loc_path, model_path


def _run_pipeline(root, loc_path, model_path, threads):
    extra = ["--threads", str(threads)]
    sim = os.path.join(root, "sim")
    assert cli_main(["simulate", "--locations", loc_path, "--model", model_path,
                     "--n", "67", "--seed", "7", "--out", sim] + extra) == 0
    series = os.path.join(sim, "series.csv")
    spectra = os.path.join(root, "spectra")
    assert cli_main(["spectra", "--locations", loc_path, "--series", series,
                     "--out", spectra] + extra) == 0
    fit_path = os.path.join(root, "fit.json")
    assert cli_main(["estimate", "--locations", loc_path, "--series", series,
                     "--nu-fixed", "1.0", "--multistart", "2", "--seed", "1",
                     "--no-covariance", "--out", fit_path] + extra) == 0
    kr = os.path.join(root, "krige")
    assert cli_main(["krige", "--locations", loc_path, "--series", series,
                     "--model", fit_path, "--target", "1.1,0.7",
                     "--out", kr] + extra) == 0
    fc = os.path.join(root, "forecast.json")
    assert cli_main(["forecast", "--reconstructed",
                     os.path.join(kr, "target_series.csv"),
                     "--horizons", "4", "--out", fc] + extra) == 0
    indep = os.path.join(root, "indep.json")
    assert cli_main(["test-indep", "--locations", loc_path, "--series", series,
                     "--out", indep] + extra) == 0
    paths = [os.path.join(sim, "locations.csv"), os.path.join(sim, "series.csv"),
             os.path.join(sim, "simulate.json"),
             os.path.join(spectra, "periodograms.csv"),
             os.path.join(spectra, "difference_periodograms.csv"),
             os.path.join(spectra, "spectra.json"),
             fit_path,
             os.path.join(kr, "kriging.json"),
             os.path.join(kr, "target_series.csv"),
             fc, os.path.splitext(fc)[0] + ".csv", indep]
    snapshot = {}
    for path in paths:
        with open(path, "rb") as handle:
            snapshot[path] = handle.read()
    return snapshot


def test_criterion_09_determinism(tmp_path):
    # identical out paths on every run so the embedded configs match too
    root = str(tmp_path)
    loc_path, model_path = _write_pipeline_inputs(root)
    first = _run_pipeline(root, loc_path, model_path, threads=1)
    second = _run_pipeline(root, loc_path, model_path, threads=1)
    third = _run_pipeline(root, loc_path, model_path, threads=4)
    assert second == first
    assert third == first
    print("PASS criterion 9: %d pipeline outputs bit-identical across a rerun "
          "and across threads {1, 4}" % len(first))


def test_criterion_09_outputs_are_strict_json(tmp_path):
    # no NaN or Infinity token, which strict JSON parsers reject
    def refuse(constant):
        raise ValueError("non-finite number %s" % constant)

    root = str(tmp_path)
    outputs = _run_pipeline(root, *_write_pipeline_inputs(root), threads=1)
    written = [path for path in outputs if path.endswith(".json")]
    assert len(written) == 6
    for path in written:
        assert isinstance(json.loads(outputs[path], parse_constant=refuse), dict)
