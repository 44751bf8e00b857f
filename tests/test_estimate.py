"""Distance bins, the fitting criterion, and the estimator."""

import json
import os
import time
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from stkrig import (DistanceBins, FitConfig, ModelParams, SimulationSpec,
                    TimeSeriesPanel, asymptotic_covariance, build_distance_bins,
                    cov_freq, dft_panel, fit, fourier_frequencies,
                    simulate_panel, variogram_model, whittle_criterion)
from oracles import (binned_difference_periodograms_by_loop, distance_bins_by_scan,
                     tolerance_group_starts_by_loop)
from stkrig.estimate import (EstimationError, EvaluationError,
                             SingularHessianError, _binned_difference_periodograms,
                             _criterion_terms, _tolerance_groups)

FIXTURES = json.load(open(os.path.join(os.path.dirname(__file__), "fixtures",
                                       "pilot_thresholds.json")))


def _as_list(bins):
    """The bins as (distance, pairs) with pairs a tuple of (i, j) tuples, the
    form distance_bins_by_scan returns."""
    groups = np.split(bins.pairs, np.cumsum(bins.counts)[:-1])
    return [(d, tuple(map(tuple, g.tolist())))
            for d, g in zip(bins.distances().tolist(), groups)]


def test_distance_bin_validation():
    b = DistanceBins([1.0, 2.0], [[0, 1], [1, 2], [0, 2]], [2, 1])
    assert len(b) == 2 and b.pairs.shape == (3, 2)
    assert _as_list(b) == [(1.0, ((0, 1), (1, 2))), (2.0, ((0, 2),))]
    for array in (b.representatives, b.pairs, b.counts):
        assert not array.flags.writeable
    bad = [
        ([-1.0], [[0, 1]], [1], "positive"),                        # negative distance
        ([np.nan], [[0, 1]], [1], "positive"),
        ([1.0, 2.0], [[0, 1]], [1, 0], "empty"),                    # empty bin
        ([1.0, 2.0], [[0, 1], [0, 1]], [1, 1], r"\(0, 1\) appears twice"),  # two bins
        ([1.0], [[0, 1], [2, 3], [0, 1]], [3], "appears twice"),    # twice in one
        ([1.0], [[0, 1], [1, 0]], [2], r"\(1, 0\) appears twice"),  # either order
        ([1.0], [[0, -1]], [1], "negative"),
        ([1.0], [[2, 2]], [1], "itself"),
        ([], [], [], "L >= 1"),                                     # no bin
        ([1.0], [[0.0, 1.0]], [1], "of float64"),
        ([1.0, 2.0], [[0, 1]], [1], r"shapes \(2,\), \(1,\)"),
        ([1.0], [[0, 1], [1, 2]], [1], r"\(2, 2\) of int"),
    ]
    for reps, pairs, counts, message in bad:
        with pytest.raises(ValueError, match=message):
            DistanceBins(reps, pairs, counts)


def test_bins_leave_the_callers_arrays_writable():
    reps, pairs, counts = np.array([1.0]), np.array([[0, 1]]), np.array([1])
    DistanceBins(reps, pairs, counts)
    assert reps.flags.writeable and pairs.flags.writeable and counts.flags.writeable


def test_exact_bins_on_unit_square():
    # four corners: distance 1 four times, sqrt(2) twice
    locs = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    bins = build_distance_bins(locs)
    assert len(bins) == 2
    assert_allclose(bins.distances(), [1.0, np.sqrt(2.0)])
    assert list(bins.pair_counts()) == [4, 2]
    summary = bins.summary()
    assert summary["n_bins"] == 2
    assert summary["pair_counts"] == [4, 2]


def test_exact_bins_merge_near_ties():
    locs = np.array([[0.0, 0.0], [1.0, 0.0], [2.0 + 1e-12, 0.0]])
    bins = build_distance_bins(locs)
    assert len(bins) == 2  # 1.0 twice (0-1, 1-2), 2.0 once (0-2)
    assert list(bins.pair_counts()) == [2, 1]


def test_exact_bins_assign_to_nearest_representative():
    rng = np.random.default_rng(17)
    locs = rng.uniform(0.0, 3.0, (9, 2))
    bins = build_distance_bins(locs, tolerance=0.25)
    reps = bins.distances()
    d = np.linalg.norm(locs[bins.pairs[:, 0]] - locs[bins.pairs[:, 1]], axis=1)
    nearest = reps[np.argmin(np.abs(reps[None, :] - d[:, None]), axis=1)]
    assert np.array_equal(nearest, np.repeat(reps, bins.counts))


def test_quantile_bins_partition_all_pairs():
    rng = np.random.default_rng(11)
    locs = rng.uniform(0.0, 1.0, (20, 2))
    bins = build_distance_bins(locs, mode="quantile", n_bins=4)
    counts = sorted(int(c) for c in bins.pair_counts())
    assert counts == [47, 47, 48, 48]
    assert int(bins.pair_counts().sum()) == 190
    assert np.all(np.diff(bins.distances()) > 0.0)


def _grid(shape, spacing):
    axes = [spacing * np.arange(k) for k in shape]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(shape))


@pytest.mark.parametrize("layout, kwargs", [
    ("scattered", {}),
    ("scattered", {"tolerance": 0.2}),
    ("scattered", {"tolerance": 0.0}),
    ("scattered", {"mode": "quantile", "n_bins": 7}),
    ("grid", {}),
    ("grid", {"tolerance": 0.15}),
    ("near-grid", {}),
    ("grid", {"mode": "quantile", "n_bins": 5}),
])
def test_bins_match_pair_scan(layout, kwargs):
    # the vectorised bins against the original O(pairs x bins) scan: same
    # bins, same representatives to the bit, same pairs in the same order
    rng = np.random.default_rng(23)
    layouts = []
    for d in (1, 2, 3):
        if layout == "scattered":
            layouts += [rng.uniform(0.0, 3.0, (m, d)) for m in (2, 3, 17, 40)]
        else:
            shape = {1: (9,), 2: (6, 7), 3: (3, 4, 4)}[d]
            layouts += [_grid(shape, spacing) for spacing in (1.0, 0.1, 0.37)]
            if layout == "near-grid":
                layouts = [g + rng.uniform(-1e-12, 1e-12, g.shape) for g in layouts]
    for locs in layouts:
        bins = build_distance_bins(locs, **kwargs)
        assert _as_list(bins) == distance_bins_by_scan(locs, **kwargs)


def test_quantile_bins_keep_distance_order_when_a_mean_rounds_up():
    # 3x3x3 unit grid, 24 quantile bins: one bin is seven pairs at sqrt(2),
    # whose np.mean rounds one ulp above sqrt(2), and the next bin's mean is
    # sqrt(2) itself; the bins (and their pairs) swap places
    locs = _grid((3, 3, 3), 1.0)
    bins = build_distance_bins(locs, mode="quantile", n_bins=24)
    assert np.all(np.diff(bins.distances()) >= 0.0)
    assert _as_list(bins) == distance_bins_by_scan(locs, mode="quantile", n_bins=24)


@pytest.mark.parametrize("layout", ["scattered", "grid", "line"])
@pytest.mark.parametrize("kwargs", [{}, {"tolerance": 0.3}, {"mode": "quantile", "n_bins": 1},
                                    {"mode": "quantile", "n_bins": 6}])
def test_binned_periodograms_match_pair_loop(layout, kwargs):
    # the array binning against the original loop over each bin's pairs, to
    # the bit, on the full grid and on truncations
    rng = np.random.default_rng(41)
    locs = {"scattered": rng.uniform(0.0, 3.0, (25, 2)),
            "grid": _grid((5, 6), 0.37),
            "line": _grid((14,), 1.0)}[layout]
    spectral = dft_panel(TimeSeriesPanel(locs, rng.normal(size=(len(locs), 41))))
    bins = build_distance_bins(locs, **kwargs)
    for n_frequencies in (spectral.n_frequencies, 7, 1):
        expected = binned_difference_periodograms_by_loop(
            spectral, distance_bins_by_scan(locs, **kwargs), n_frequencies)
        got = _binned_difference_periodograms(spectral, bins, n_frequencies)
        assert np.array_equal(got, expected)


def test_tolerance_groups_match_the_greedy_loop():
    # ties, values a few ulps apart, and tolerances at the rounding edge of
    # v - first, where searchsorted on ranked + tol guesses wrong
    rng = np.random.default_rng(43)
    for trial in range(400):
        size = int(rng.integers(1, 50))
        values = [rng.uniform(0.0, 3.0, size),
                  rng.integers(1, 6, size) * 0.37,
                  1.0 + rng.integers(0, 8, size) * np.spacing(1.0),
                  np.sqrt(rng.integers(1, 30, size).astype(float)) * 0.3][trial % 4]
        ranked = np.sort(values)
        gaps = np.diff(ranked)
        tols = [0.0, 0.1, 1.0, np.inf, np.spacing(1.0), 2.0 * np.spacing(1.0), 0.3 - 0.1 * 2]
        if gaps.size:
            tols.append(float(rng.choice(gaps)))
        for tol in tols:
            assert np.array_equal(_tolerance_groups(ranked, tol),
                                  tolerance_group_starts_by_loop(ranked, tol))


def test_exact_bins_break_midpoint_ties_toward_smaller_distance():
    # sites 0, 1, 3, 4 on a line with tolerance 2: groups {1, 1, 2, 3, 3}
    # and {4}, representatives 2 and 4; the pairs at 3 sit on the midpoint
    locs = np.array([[0.0], [1.0], [3.0], [4.0]])
    bins = build_distance_bins(locs, tolerance=2.0)
    assert list(bins.distances()) == [2.0, 4.0]
    assert list(bins.pair_counts()) == [5, 1]
    assert _as_list(bins) == distance_bins_by_scan(locs, tolerance=2.0)


def test_exact_bins_scale_to_a_thousand_scattered_sites():
    # one bin per pair; the pair-by-pair scan did not finish in 5 minutes
    locs = np.random.default_rng(31).uniform(0.0, 10.0, (1000, 2))
    t0 = time.perf_counter()
    bins = build_distance_bins(locs)
    elapsed = time.perf_counter() - t0
    assert int(bins.pair_counts().sum()) == 1000 * 999 // 2
    assert np.all(np.diff(bins.distances()) >= 0.0)
    assert elapsed < 60.0


def test_bins_reject_bad_input():
    locs = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        build_distance_bins(locs)
    good = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        build_distance_bins(good, mode="quantile")  # n_bins missing
    with pytest.raises(ValueError):
        build_distance_bins(good, mode="nope")
    for tolerance in (-1e-9, np.nan):
        with pytest.raises(ValueError, match="tolerance"):
            build_distance_bins(good, tolerance=tolerance)


def _toy_panel(seed=0, m=6, n=64):
    rng = np.random.default_rng(seed)
    locs = rng.uniform(0.0, 3.0, (m, 2))
    params = ModelParams(sigma_e2=1.0, nu=1.0, c_coeffs=(0.3, 0.5), d=2)
    panel = simulate_panel(SimulationSpec(locations=locs, n=n, params=params,
                                          seed=seed + 1))
    return panel, params


def test_criterion_terms_at_exact_variogram():
    # data equal to the model variogram: each term collapses to log g + 1
    params = ModelParams(sigma_e2=1.2, nu=1.1, c_coeffs=(0.2, 0.3), d=2)
    dists = np.array([0.7, 1.9])
    freqs = fourier_frequencies(32)
    g = np.asarray(variogram_model(dists[:, None], freqs[None, :], params))
    terms = _criterion_terms(g, dists, freqs, params)
    assert_allclose(terms, np.log(g) + 1.0, rtol=1e-12)


def test_criterion_rejects_nonfinite():
    params = ModelParams(sigma_e2=1.0, nu=1.0, c_coeffs=(0.0,), d=2)
    dists = np.array([1.0])
    freqs = fourier_frequencies(16)
    bad = np.ones((1, freqs.size))
    bad[0, 3] = np.inf
    with pytest.raises(EvaluationError):
        _criterion_terms(bad, dists, freqs, params)
    # overflowing parameters fail upstream, inside the covariance evaluation:
    # here C(0, w) = 1e300 e^700 / (4 pi) leaves the double range
    huge = ModelParams(sigma_e2=1e300, nu=1.0, c_coeffs=(-700.0,), d=2)
    with pytest.raises(FloatingPointError), np.errstate(over="ignore"):
        _criterion_terms(np.ones((1, freqs.size)), dists, freqs, huge)
    # h |c(w)| = e^350 is no overflow: C(h, w) underflows to 0 and g = 2 C(0, w)
    far = ModelParams(sigma_e2=1e300, nu=1.0, c_coeffs=(700.0,), d=2)
    assert np.all(np.isfinite(_criterion_terms(np.ones((1, freqs.size)), dists, freqs, far)))


def test_criterion_prefers_truth_on_average():
    truth = ModelParams(sigma_e2=1.0, nu=1.0, c_coeffs=(0.3, 0.5), d=2)
    bumped = ModelParams(sigma_e2=1.5, nu=1.0, c_coeffs=(0.3, 0.5), d=2)
    rng = np.random.default_rng(23)
    locs = rng.uniform(0.0, 3.0, (6, 2))
    bins = build_distance_bins(locs)
    diffs = []
    for rep in range(50):
        panel = simulate_panel(SimulationSpec(locations=locs, n=128, params=truth,
                                              seed=5600 + rep))
        spectral = dft_panel(panel)
        diffs.append(whittle_criterion(spectral, bins, truth)
                     - whittle_criterion(spectral, bins, bumped))
    assert np.mean(diffs) < 0.0


def test_criterion_frequency_truncation_and_bounds():
    panel, params = _toy_panel(seed=3)
    spectral = dft_panel(panel)
    bins = build_distance_bins(panel.locations)
    full = whittle_criterion(spectral, bins, params)
    head = whittle_criterion(spectral, bins, params, n_frequencies=10)
    assert np.isfinite(full) and np.isfinite(head) and full != head
    with pytest.raises(ValueError):
        whittle_criterion(spectral, bins, params, n_frequencies=0)
    with pytest.raises(ValueError):
        whittle_criterion(spectral, bins, params, n_frequencies=10 ** 6)


def test_out_of_range_pair_is_rejected_before_any_work():
    panel, params = _toy_panel(seed=3)
    bins = build_distance_bins(np.vstack([panel.locations, [[9.0, 9.0]]]))
    with pytest.raises(ValueError, match=r"pair \(\d+, 6\) is out of range for 6 sites"):
        whittle_criterion(dft_panel(panel), bins, params)
    with pytest.raises(ValueError, match="out of range for 6 sites"):
        asymptotic_covariance(panel, bins, params, nu_fixed=1.0)


def test_fit_recovers_simulated_truth():
    truth = ModelParams(sigma_e2=1.0, nu=1.0, c_coeffs=(0.5, 0.8), d=2)
    rng = np.random.default_rng(77)
    locs = rng.uniform(0.0, 10.0, (10, 2))
    panel = simulate_panel(SimulationSpec(locations=locs, n=256, params=truth,
                                          seed=78))
    res = fit(panel, FitConfig(n_coeffs=1, nu_fixed=1.0, multistart=2,
                               compute_covariance=False))
    assert res.converged
    assert abs(res.params.sigma_e2 - 1.0) < 0.35
    assert abs(res.params.c_coeffs[0] - 0.5) < 0.35
    assert abs(res.params.c_coeffs[1] - 0.8) < 0.30
    assert res.params.nu == 1.0 and res.params.nugget == 0.0
    assert res.n_restarts == 2
    assert res.param_names == ["sigma_e2", "b0", "b1"]


def test_fit_flat_truth_puts_b1_near_zero():
    fx = FIXTURES["flat_truth_b1"]
    flat = ModelParams(sigma_e2=1.0, nu=1.0, c_coeffs=(0.3, 0.0), d=2)
    cfg = FitConfig(n_coeffs=1, nu_fixed=1.0, multistart=2,
                    compute_covariance=False)
    b1s = []
    for rep in range(fx["replicates"]):
        rng = np.random.default_rng(fx["site_seed_base"] + rep)
        locs = rng.uniform(0.0, 5.0, (10, 2))
        panel = simulate_panel(SimulationSpec(
            locations=locs, n=256, params=flat,
            seed=fx["panel_seed_base"] + rep))
        b1s.append(fit(panel, cfg).params.c_coeffs[1])
    assert np.median(np.abs(b1s)) <= fx["tolerance_abs"]


def test_fit_with_nugget_recovers_measurement_error():
    truth = ModelParams(sigma_e2=1.0, nu=1.0, c_coeffs=(0.3,), nugget=0.5, d=2)
    rng = np.random.default_rng(881)
    locs = rng.uniform(0.0, 4.0, (12, 2))
    panel = simulate_panel(SimulationSpec(locations=locs, n=256, params=truth,
                                          seed=882, include_measurement_error=True))
    res = fit(panel, FitConfig(n_coeffs=0, nu_fixed=1.0, fit_nugget=True,
                               multistart=2, compute_covariance=False))
    assert 0.25 <= res.params.nugget <= 1.0
    assert abs(res.params.sigma_e2 - 1.0) < 0.5


def test_fit_free_smoothness_reproduces_covariance_function():
    truth = ModelParams(sigma_e2=1.0, nu=1.0, c_coeffs=(0.3,), nugget=0.5, d=2)
    rng = np.random.default_rng(881)
    locs = rng.uniform(0.0, 4.0, (12, 2))
    panel = simulate_panel(SimulationSpec(locations=locs, n=256, params=truth,
                                          seed=882, include_measurement_error=True))
    res = fit(panel, FitConfig(n_coeffs=0, fit_nugget=True, multistart=2,
                               compute_covariance=False))
    assert res.params.nu > 0.5
    om = np.array([0.5, 1.5, 2.5])
    for h in (0.5, 1.0, 2.0):
        ratio = cov_freq(h, om, res.params) / cov_freq(h, om, truth)
        assert np.all((ratio > 0.6) & (ratio < 1.6))


def test_fit_checks_nu_fixed_before_any_work():
    # one site forms no pair: binning would fail, but the nu_fixed check
    # comes first
    one = TimeSeriesPanel(np.array([[0.0, 0.0]]), np.zeros((1, 16)))
    with pytest.raises(ValueError, match="nu_fixed must exceed d/4"):
        fit(one, FitConfig(n_coeffs=0, nu_fixed=0.1))


def test_fit_result_serializes():
    panel, _ = _toy_panel(seed=6)
    res = fit(panel, FitConfig(n_coeffs=0, nu_fixed=1.0, multistart=1,
                               compute_covariance=False))
    blob = json.dumps(res.to_dict())
    back = json.loads(blob)
    assert back["params"]["sigma_e2"] == pytest.approx(res.params.sigma_e2)
    assert back["criterion"] == pytest.approx(res.criterion)
    assert back["covariance"] is None


def test_fit_raises_when_every_restart_fails(monkeypatch):
    import stkrig.estimate as est

    def always_fails(*args, **kwargs):
        raise EvaluationError("forced failure")

    panel, _ = _toy_panel(seed=7)
    monkeypatch.setattr(est, "_criterion_terms", always_fails)
    with pytest.raises(EstimationError):
        fit(panel, FitConfig(n_coeffs=0, nu_fixed=1.0, multistart=2,
                             compute_covariance=False))


def test_asymptotic_covariance_properties():
    panel, params = _toy_panel(seed=8, m=8, n=128)
    bins = build_distance_bins(panel.locations)
    res = fit(panel, FitConfig(n_coeffs=1, nu_fixed=1.0, multistart=2,
                               compute_covariance=False))
    cov = asymptotic_covariance(panel, bins, res.params, nu_fixed=1.0)
    assert cov.shape == (3, 3)
    assert_allclose(cov, cov.T, atol=1e-12)
    assert np.all(np.isfinite(cov))
    assert np.all(np.diag(cov) > 0.0)


def test_wald_intervals_cover_sigma():
    fx = FIXTURES["wald_coverage"]
    truth = ModelParams(sigma_e2=1.0, nu=1.0, c_coeffs=(0.4,), d=2)
    cfg = FitConfig(n_coeffs=0, nu_fixed=1.0, multistart=1)
    hits = 0
    for rep in range(fx["replicates"]):
        rng = np.random.default_rng(fx["site_seed_base"] + rep)
        locs = rng.uniform(0.0, 5.0, (10, 2))
        panel = simulate_panel(SimulationSpec(
            locations=locs, n=128, params=truth,
            seed=fx["panel_seed_base"] + rep))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = fit(panel, cfg)
        if res.covariance is None:
            continue
        se = float(np.sqrt(res.covariance[0, 0]))
        if abs(res.params.sigma_e2 - 1.0) <= 1.96 * se:
            hits += 1
    assert hits >= fx["min_covered"]


def test_singular_hessian_error_type():
    assert issubclass(SingularHessianError, RuntimeError)
    err = SingularHessianError("x", np.array([0.0, 1.0]))
    assert err.eigenvalues[0] == 0.0
