"""Distance bins, the fitting criterion, and the estimator."""

import json
import os
import re
import time
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special

from stkrig import (DistanceBins, FitConfig, ModelParams, SimulationSpec,
                    TimeSeriesPanel, asymptotic_covariance, build_distance_bins,
                    cov_freq, dft_panel, fit, fourier_frequencies,
                    simulate_panel, variogram_model, whittle_criterion)
from oracles import (binned_difference_periodograms_by_loop,
                     criterion_hessian_by_central_differences, distance_bins_by_scan,
                     fit_by_simplex, tolerance_group_starts_by_loop)
from stkrig.estimate import (EstimationError, EvaluationError, FitResult,
                             SingularHessianError, _binned_difference_periodograms,
                             _Coordinates, _criterion_terms, _prepare, _Prepared,
                             _quasi_newton,
                             _sandwich, _tolerance_groups)
from stkrig.spectral import _MAX_ORDINATE

FIXTURES = json.load(open(os.path.join(os.path.dirname(__file__), "fixtures",
                                       "pilot_thresholds.json")))


def _as_list(bins):
    """The bins as (distance, pairs) with pairs a tuple of (i, j) tuples, the
    form distance_bins_by_scan returns."""
    groups = np.split(bins.pairs, np.cumsum(bins.counts)[:-1])
    return [(d, tuple(map(tuple, g.tolist())))
            for d, g in zip(bins.representatives.tolist(), groups)]


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
    assert_allclose(bins.representatives, [1.0, np.sqrt(2.0)])
    assert list(bins.counts) == [4, 2]
    summary = bins.summary()
    assert summary["n_bins"] == 2
    assert summary["pair_counts"] == [4, 2]


def test_exact_bins_merge_near_ties():
    locs = np.array([[0.0, 0.0], [1.0, 0.0], [2.0 + 1e-12, 0.0]])
    bins = build_distance_bins(locs)
    assert len(bins) == 2  # 1.0 twice (0-1, 1-2), 2.0 once (0-2)
    assert list(bins.counts) == [2, 1]


def test_exact_bins_assign_to_nearest_representative():
    rng = np.random.default_rng(17)
    locs = rng.uniform(0.0, 3.0, (9, 2))
    bins = build_distance_bins(locs, tolerance=0.25)
    reps = bins.representatives
    d = np.linalg.norm(locs[bins.pairs[:, 0]] - locs[bins.pairs[:, 1]], axis=1)
    nearest = reps[np.argmin(np.abs(reps[None, :] - d[:, None]), axis=1)]
    assert np.array_equal(nearest, np.repeat(reps, bins.counts))


def test_quantile_bins_partition_all_pairs():
    rng = np.random.default_rng(11)
    locs = rng.uniform(0.0, 1.0, (20, 2))
    bins = build_distance_bins(locs, mode="quantile", n_bins=4)
    counts = sorted(int(c) for c in bins.counts)
    assert counts == [47, 47, 48, 48]
    assert int(bins.counts.sum()) == 190
    assert np.all(np.diff(bins.representatives) > 0.0)


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


def test_quantile_bins_past_the_pair_count_are_one_pair_each():
    # 20 sites, 190 pairs; 10^12 sections, mostly empty, would not fit in memory
    locs = np.random.default_rng(29).uniform(0.0, 3.0, (20, 2))
    huge = build_distance_bins(locs, mode="quantile", n_bins=10**12)
    assert list(huge.counts) == [1] * 190
    assert _as_list(huge) == _as_list(build_distance_bins(locs, mode="quantile", n_bins=190))
    assert _as_list(huge) == distance_bins_by_scan(locs, mode="quantile", n_bins=190)


def test_quantile_bins_keep_distance_order_when_a_mean_rounds_up():
    # 3x3x3 unit grid, 24 quantile bins: one bin is seven pairs at sqrt(2),
    # whose np.mean rounds one ulp above sqrt(2), and the next bin's mean is
    # sqrt(2) itself; the bins (and their pairs) swap places
    locs = _grid((3, 3, 3), 1.0)
    bins = build_distance_bins(locs, mode="quantile", n_bins=24)
    assert np.all(np.diff(bins.representatives) >= 0.0)
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
    assert list(bins.representatives) == [2.0, 4.0]
    assert list(bins.counts) == [5, 1]
    assert _as_list(bins) == distance_bins_by_scan(locs, tolerance=2.0)


def test_exact_bins_scale_to_a_thousand_scattered_sites():
    # one bin per pair; the pair-by-pair scan did not finish in 5 minutes
    locs = np.random.default_rng(31).uniform(0.0, 10.0, (1000, 2))
    t0 = time.perf_counter()
    bins = build_distance_bins(locs)
    elapsed = time.perf_counter() - t0
    assert int(bins.counts.sum()) == 1000 * 999 // 2
    assert np.all(np.diff(bins.representatives) >= 0.0)
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
    terms = _criterion_terms(_Prepared(g, dists, freqs), params)
    assert_allclose(terms, np.log(g) + 1.0, rtol=1e-12)


def test_criterion_rejects_nonfinite():
    params = ModelParams(sigma_e2=1.0, nu=1.0, c_coeffs=(0.0,), d=2)
    dists = np.array([1.0])
    freqs = fourier_frequencies(16)
    bad = np.ones((1, freqs.size))
    bad[0, 3] = np.inf
    with pytest.raises(EvaluationError):
        _criterion_terms(_Prepared(bad, dists, freqs), params)
    # overflowing parameters fail upstream, inside the covariance evaluation:
    # here C(0, w) = 1e300 e^700 / (4 pi) leaves the double range
    huge = ModelParams(sigma_e2=1e300, nu=1.0, c_coeffs=(-700.0,), d=2)
    with pytest.raises(FloatingPointError), np.errstate(over="ignore"):
        _criterion_terms(_Prepared(np.ones((1, freqs.size)), dists, freqs), huge)
    # h |c(w)| = e^350 is no overflow: C(h, w) underflows to 0 and g = 2 C(0, w)
    far = ModelParams(sigma_e2=1e300, nu=1.0, c_coeffs=(700.0,), d=2)
    assert np.all(np.isfinite(
        _criterion_terms(_Prepared(np.ones((1, freqs.size)), dists, freqs), far)))


def _near_bound_panel(fraction):
    """4 sites on the unit square, n = 33, scaled so that the largest
    Fourier ordinate is the given fraction of dft_panel's bound."""
    locs = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    obs = np.random.default_rng(5).normal(size=(4, 33))
    largest = np.abs(dft_panel(TimeSeriesPanel(locs, obs)).dft).max()
    return TimeSeriesPanel(locs, obs * (fraction * _MAX_ORDINATE / largest))


def test_criterion_sum_overflow_raises_without_a_warning():
    # every term is finite, but I / g ~ 1e306 at unit scale and their sum is not
    panel = _near_bound_panel(0.3)
    params = ModelParams(sigma_e2=1.0, nu=1.0, c_coeffs=(0.0, 0.0), d=2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(EvaluationError, match="sum over its terms overflows"):
            whittle_criterion(dft_panel(panel), build_distance_bins(panel.locations), params)
    assert caught == []


def test_fit_drops_an_overflowing_covariance_with_one_warning():
    # the fit is finite, but the delta method squares sigma_e2 ~ 1e306
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fit(_near_bound_panel(0.1), FitConfig(nu_fixed=1.0, multistart=2))
    assert result.covariance is None and np.isfinite(result.criterion)
    assert [(w.category, str(w.message).split(":")[0]) for w in caught] == [
        (UserWarning, "asymptotic covariance unavailable")]


def test_fit_near_the_bound_with_nu_free():
    # at the start min g ~ 0.01 and max binned ~ 5e305: mean(binned / g)
    # would overflow before the profiled scale is formed
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fit(_near_bound_panel(0.1), FitConfig())
    assert np.isfinite(result.criterion) and np.isfinite(result.params.sigma_e2)
    assert [(w.category, str(w.message).split(":")[0]) for w in caught] == [
        (UserWarning, "asymptotic covariance unavailable")]


def test_profiled_scale_past_the_double_range_raises_without_a_warning():
    # g is at its floor 1e-300 at a near-zero distance, so the scale is 1e600
    params = ModelParams(sigma_e2=1.0, nu=1.0, c_coeffs=(0.0,), d=2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(EvaluationError, match="scaled by inf"):
            _criterion_terms(_Prepared(np.full((1, 3), 1e300), np.array([1e-300]),
                                       np.array([0.5, 1.0, 1.5])), params, profile=True)
    assert caught == []


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


@pytest.mark.parametrize("make", [
    lambda panel, params: FitConfig(n_frequencies=2.5),
    lambda panel, params: FitConfig(bins_mode="quantile", n_bins=2.5),
    lambda panel, params: FitConfig(n_coeffs=1.5),
    lambda panel, params: FitConfig(multistart=2.5),
    lambda panel, params: whittle_criterion(dft_panel(panel), build_distance_bins(
        panel.locations), params, n_frequencies=2.5),
    lambda panel, params: build_distance_bins(panel.locations, mode="quantile", n_bins=2.5),
])
def test_counts_must_be_whole_numbers(make):
    panel, params = _toy_panel(seed=3)
    with pytest.raises(ValueError, match="must be a whole number, got (2|1).5$"):
        make(panel, params)


@pytest.mark.parametrize("field, value, message", [
    ("fit_nugget", "false", "fit_nugget must be True or False, got 'false'"),
    ("fit_nugget", 1, "fit_nugget must be True or False, got 1"),
    ("compute_covariance", "no", "compute_covariance must be True or False, got 'no'"),
    ("compute_covariance", None, "compute_covariance must be True or False, got None"),
    ("bins_mode", "quantiles", "bins_mode must be 'exact' or 'quantile', got 'quantiles'"),
    ("bins_mode", None, "bins_mode must be 'exact' or 'quantile', got None"),
])
def test_fit_config_checks_its_switches(field, value, message):
    # at construction, before a fit takes the panel's DFT
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        FitConfig(**{field: value})


@pytest.mark.parametrize("fields, message", [
    ({"bins_mode": "quantile"}, "n_bins must be given for bins_mode 'quantile'"),
    ({"bins_mode": "quantile", "n_bins": 0}, "n_bins must be at least 1, got 0"),
    ({"n_bins": -2}, "n_bins must be at least 1, got -2"),
    ({"bin_tolerance": -1.0}, "bin_tolerance must be nonnegative, got -1.0"),
    ({"bin_tolerance": float("nan")}, "bin_tolerance must be nonnegative, got nan"),
    ({"n_frequencies": 0}, "n_frequencies must be at least 1, got 0"),
])
def test_fit_config_checks_its_ranges(fields, message):
    # at construction, as the switches are, not inside fit after the DFT
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        FitConfig(**fields)


def test_fit_config_accepts_the_ends_of_its_ranges():
    config = FitConfig(bins_mode="quantile", n_bins=1, bin_tolerance=0.0, n_frequencies=1)
    assert (config.n_bins, config.bin_tolerance, config.n_frequencies) == (1, 0.0, 1)


def test_fit_config_stores_numpy_bools_as_bools():
    config = FitConfig(fit_nugget=np.True_, compute_covariance=np.False_)
    assert (config.fit_nugget, config.compute_covariance) == (True, False)
    assert type(config.fit_nugget) is bool and type(config.compute_covariance) is bool
    panel, _ = _toy_panel(seed=7)
    res = fit(panel, replace(config, n_coeffs=0, nu_fixed=1.0, multistart=1))
    assert res.param_names == ["sigma_e2", "b0", "nugget"] and res.covariance is None


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


def test_fit_result_with_covariance_serializes_field_by_field():
    panel, _ = _toy_panel(seed=6)
    res = fit(panel, FitConfig(nu_fixed=1.0, multistart=1))
    blob = res.to_dict()
    assert list(blob) == [field.name for field in fields(FitResult)]
    k = len(res.param_names)
    assert len(blob["covariance"]) == k
    assert all(len(row) == k and all(type(v) is float for v in row)
               for row in blob["covariance"])
    by_hand = {"params": res.params.to_dict(), "criterion": res.criterion,
               "covariance": res.covariance.tolist(), "param_names": res.param_names,
               "converged": res.converged, "n_frequencies": res.n_frequencies,
               "bins": res.bins, "n_restarts": res.n_restarts, "restarts": res.restarts}
    assert json.dumps(blob) == json.dumps(by_hand)


@pytest.mark.parametrize("fit_nugget", [False, True])
def test_fit_profiles_the_scale_and_reports_the_full_criterion(fit_nugget):
    # sigma_e2 is concentrated out of the search; the reported point is still
    # a minimum in sigma_e2 (the nugget held fixed), and the reported value
    # is the criterion at the reported parameters
    truth = ModelParams(sigma_e2=1.0, nu=1.0, c_coeffs=(0.3,), nugget=0.5 if fit_nugget else 0.0)
    rng = np.random.default_rng(881)
    locs = rng.uniform(0.0, 4.0, (12, 2))
    panel = simulate_panel(SimulationSpec(locations=locs, n=128, params=truth, seed=882,
                                          include_measurement_error=fit_nugget))
    res = fit(panel, FitConfig(n_coeffs=0, nu_fixed=1.0, fit_nugget=fit_nugget,
                               multistart=2, compute_covariance=False))
    spectral, bins = dft_panel(panel), build_distance_bins(locs)
    q_hat = whittle_criterion(spectral, bins, res.params)
    assert res.criterion == pytest.approx(q_hat, rel=1e-12, abs=0.0)
    for factor in (1.0 - 1e-3, 1.0 + 1e-3):
        moved = replace(res.params, sigma_e2=factor * res.params.sigma_e2)
        assert whittle_criterion(spectral, bins, moved) >= q_hat
    assert (res.params.nugget > 0.0) == fit_nugget
    assert [len(r["start"]) for r in res.restarts] == [1 + fit_nugget] * 2


def test_fit_reports_each_restart():
    config = FitConfig(n_coeffs=1, multistart=3, seed=5, compute_covariance=False)
    coeffs = np.random.default_rng(5).normal(0.0, 0.5, size=(3, 2))
    for seed in (6, 8):
        panel, _ = _toy_panel(seed=seed)
        res = fit(panel, config)
        assert len(res.restarts) == 3
        for record, drawn in zip(res.restarts, coeffs):
            # the searched coordinates: log(nu - d/4), b0, b1; no log sigma_e2
            assert record["start"] == [0.0] + drawn.tolist()
            assert record["nfev"] > 0 and isinstance(record["converged"], bool)
        # the winning restart's own value, to the bit (on panel 8 a second,
        # unprofiled evaluation at the estimate rounds 7e-15 away from it)
        assert min(r["criterion"] for r in res.restarts) == res.criterion
        blob = res.to_dict()
        assert blob["restarts"] == res.restarts
        assert json.dumps(blob) == json.dumps(fit(panel, config).to_dict())


def _recovery_panel():
    # criterion 4's design, replicate 0 of its frozen seeds
    fx = FIXTURES["whittle_recovery"]
    truth = ModelParams(sigma_e2=1.0, nu=1.0, c_coeffs=(0.5, 0.8), d=2)
    locs = np.random.default_rng(fx["site_seed_base"]).uniform(0.0, 10.0, size=(20, 2))
    return simulate_panel(SimulationSpec(locations=locs, n=512, params=truth,
                                         seed=fx["panel_seed_base"]))


def test_fit_evaluation_count_on_the_recovery_design(monkeypatch):
    # criterion-4 replicate 0 with the frozen configuration: 10 value-,
    # gradient- and information evaluations over the two restarts, each
    # ended by scoring's own tests (22 by L-BFGS-B alone), against about 205
    # simplex evaluations of the profiled criterion
    import stkrig.estimate as est

    calls = []
    criterion_terms = est._criterion_terms

    def counted(*args, **kwargs):
        calls.append(1)
        return criterion_terms(*args, **kwargs)

    monkeypatch.setattr(est, "_criterion_terms", counted)
    multistart = FIXTURES["whittle_recovery"]["multistart"]
    panel = _recovery_panel()
    for covariance in (False, True):
        calls.clear()
        res = fit(panel, FitConfig(n_coeffs=1, nu_fixed=1.0, multistart=multistart,
                                   seed=0, compute_covariance=covariance))
        assert len(res.restarts) == multistart
        assert all(r["converged"] for r in res.restarts)
        assert [r["finished_by"] for r in res.restarts] == ["scoring"] * multistart
        assert (res.covariance is not None) == covariance
        nfev = sum(r["nfev"] for r in res.restarts)
        assert nfev <= 10
        # the searches' evaluations only (the first of each is its start
        # check): the winner's also gives the estimate and the sandwich
        assert len(calls) == nfev


@pytest.mark.parametrize("case", ["criterion4", "nu-free-nugget"])
def test_fit_reaches_the_simplex_minimum(case):
    # the gradient search ends no higher than the simplex search it replaced
    if case == "criterion4":
        panel = _recovery_panel()
        config = FitConfig(n_coeffs=1, nu_fixed=1.0, multistart=2, compute_covariance=False)
    else:
        truth = ModelParams(sigma_e2=1.0, nu=1.0, c_coeffs=(0.3,), nugget=0.5, d=2)
        locs = np.random.default_rng(881).uniform(0.0, 4.0, (12, 2))
        panel = simulate_panel(SimulationSpec(locations=locs, n=256, params=truth, seed=882,
                                              include_measurement_error=True))
        config = FitConfig(n_coeffs=0, fit_nugget=True, multistart=2, compute_covariance=False)
    res = fit(panel, config)
    params, criterion, nfev = fit_by_simplex(panel, config)
    assert res.criterion <= criterion + 1e-10 * abs(criterion)
    assert all(r["converged"] for r in res.restarts)
    assert sum(r["nfev"] for r in res.restarts) < sum(nfev) / 4
    assert res.params.nu == pytest.approx(params.nu, rel=1e-3)
    assert_allclose(res.params.c_coeffs, params.c_coeffs, rtol=1e-3, atol=1e-4)


@pytest.mark.parametrize("nu_fixed,fit_nugget", [(1.0, False), (None, False), (None, True)])
@pytest.mark.parametrize("covariance", [False, True])
def test_fit_reports_its_search_evaluation_at_the_winner(monkeypatch, nu_fixed, fit_nugget,
                                                         covariance):
    # the criterion, sigma_e2, the nugget and the covariance are those of
    # the one _criterion_terms call at the winning point, the search's, to
    # the bit, with the covariance on or off
    import stkrig.estimate as est

    finishes, calls = [], []
    quasi_newton, criterion_terms = est._quasi_newton, est._criterion_terms

    def recorded_search(objective, start):
        finishes.append(quasi_newton(objective, start))
        return finishes[-1]

    def recorded_call(prepared, params, **kwargs):
        terms, *rest = criterion_terms(prepared, params, **kwargs)
        # the terms are the workspace's, overwritten by the next evaluation
        calls.append((params, (terms.copy(), *rest)))
        return (terms, *rest)

    monkeypatch.setattr(est, "_quasi_newton", recorded_search)
    monkeypatch.setattr(est, "_criterion_terms", recorded_call)
    panel, _ = _toy_panel(seed=8, m=8, n=128)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = fit(panel, FitConfig(n_coeffs=1, nu_fixed=nu_fixed, fit_nugget=fit_nugget,
                                   multistart=2, compute_covariance=covariance))
    winner = min((r for r in finishes if r is not None), key=lambda r: r.fun)
    coords = _Coordinates(1, 2, nu_fixed, fit_nugget)
    theta = coords.unpack(np.concatenate(([0.0], winner.x)))
    (terms, scale, scores, info), = [out for params, out in calls if params == theta]
    assert res.criterion == float(terms.sum(axis=1).mean())
    assert (res.params.sigma_e2, res.params.nugget) == (scale, scale * theta.nugget)
    if covariance and res.covariance is not None:
        assert np.array_equal(res.covariance, _sandwich(scores, info, coords, res.params))
    else:
        assert res.covariance is None


@pytest.mark.parametrize("covariance", [False, True])
def test_fit_evaluates_its_winner_once_more_where_the_search_holds_no_extra(monkeypatch,
                                                                           covariance):
    # _quasi_newton returns no extra where a rejected trial had a lower
    # value than its point; fit then evaluates the winner once more, with
    # the same bits as the search's own evaluation there
    import stkrig.estimate as est

    panel, _ = _toy_panel(seed=8, m=8, n=128)
    config = FitConfig(n_coeffs=1, nu_fixed=1.0, multistart=2, compute_covariance=covariance)
    held = fit(panel, config)
    calls = []
    quasi_newton, criterion_terms = est._quasi_newton, est._criterion_terms

    def without_extra(objective, start):
        result = quasi_newton(objective, start)
        if result is not None:
            result.extra = None
        return result

    def counted(prepared, params, **kwargs):
        calls.append(params)
        return criterion_terms(prepared, params, **kwargs)

    monkeypatch.setattr(est, "_quasi_newton", without_extra)
    monkeypatch.setattr(est, "_criterion_terms", counted)
    res = fit(panel, config)
    assert len(calls) == sum(r["nfev"] for r in res.restarts) + 1
    assert (res.criterion, res.params) == (held.criterion, held.params)
    if covariance:
        assert np.array_equal(res.covariance, held.covariance)
    else:
        assert res.covariance is held.covariance is None


def _gradient_panel():
    rng = np.random.default_rng(3)
    locs = rng.uniform(0.0, 3.0, (6, 2))
    truth = ModelParams(sigma_e2=1.0, nu=1.0, c_coeffs=(0.3, 0.5), nugget=0.2, d=2)
    panel = simulate_panel(SimulationSpec(locations=locs, n=64, params=truth, seed=4,
                                          include_measurement_error=True))
    prepared = _prepare(dft_panel(panel), build_distance_bins(locs), None)
    return prepared.binned, prepared.distances, prepared.frequencies


# the Bessel paths of mu = 2 nu - 1: the integer recurrence (mu = 1), the
# half-integer closed form (1.5), and kve above 1 (2.4) and below it (0.6,
# where K_{mu-1} is K_{1-mu})
@pytest.mark.parametrize("nu", [1.0, 1.25, 1.7, 0.8])
@pytest.mark.parametrize("nugget", [0.0, 0.3])
@pytest.mark.parametrize("p", [0, 1, 2])
def test_criterion_gradient_matches_central_differences(nu, nugget, p):
    data = _gradient_panel()
    params = ModelParams(sigma_e2=1.3, nu=nu, c_coeffs=(0.2, -0.3, 0.1)[:p + 1], nugget=nugget)
    fit_nugget = nugget > 0.0
    for nu_fixed in (None, nu):
        coords = _Coordinates(p, 2, nu_fixed, fit_nugget)
        prepared = _Prepared(*data, coords)

        def full(vec):
            return _criterion_terms(prepared, coords.unpack(vec)).sum(axis=1).mean()

        def profiled(vec):
            terms, _ = _criterion_terms(prepared, coords.unpack(np.concatenate(([0.0], vec))),
                                        profile=True)
            return terms.sum(axis=1).mean()

        vec = coords.pack(params)
        _, scores, _ = _criterion_terms(prepared, params, scores=True)
        unit = coords.unpack(np.concatenate(([0.0], vec[1:])))
        _, _, unit_scores, _ = _criterion_terms(prepared, unit, profile=True, scores=True)
        for value, point, gradient in ((full, vec, scores.sum(axis=1)),
                                       (profiled, vec[1:], unit_scores[1:].sum(axis=1))):
            step = 1e-5
            numeric = [(value(point + step * e) - value(point - step * e)) / (2.0 * step)
                       for e in np.eye(point.size)]
            assert_allclose(gradient, numeric, rtol=1e-6, atol=1e-6 * np.abs(numeric).max())


def _nu_row_case(n_bins, n_frequencies, smallest=0.3, seed=5):
    """Data drawn about the variogram of a fixed truth on n_bins bin
    distances from smallest to 3 and the first n_frequencies ordinates of
    a series of length 2 n_frequencies + 1."""
    rng = np.random.default_rng(seed)
    distances = np.geomspace(smallest, 3.0, n_bins)
    freqs = fourier_frequencies(2 * n_frequencies + 1)
    truth = ModelParams(sigma_e2=1.0, nu=1.1, c_coeffs=(0.3, 0.4), nugget=0.3, d=2)
    g = variogram_model(distances[:, None], freqs[None, :], truth)
    return g * rng.exponential(size=g.shape), distances, freqs


def _nu_row_against_differences(data, params):
    """The nu row of the scores summed over frequencies, and the central
    difference of the criterion in log(nu - d/4)."""
    coords = _Coordinates(params.n_coeffs, params.d, None, params.nugget > 0.0)
    prepared = _Prepared(*data, coords)
    _, scores, _ = _criterion_terms(prepared, params, scores=True)
    vec, step = coords.pack(params), 1e-5
    shift = step * np.eye(vec.size)[1]

    def value(point):
        return _criterion_terms(prepared, coords.unpack(point)).sum(axis=1).mean()

    return scores[1].sum(), (value(vec + shift) - value(vec - shift)) / (2.0 * step)


# the Bessel paths of mu = 2 nu - 1 as in the test above, on a grid of 80
# kernel points (kve or a closed form for the values) and one of 1,440
# (past the crossover plus twice the nodes of its 6 pieces: the value
# table); the nu row comes from the order-derivative table on both
@pytest.mark.parametrize("nu", [0.8, 1.0, 1.25, 1.37])
@pytest.mark.parametrize("shape, table", [((4, 20), False), ((24, 60), True)])
def test_nu_row_matches_central_differences_on_both_sides_of_the_crossover(
        nu, shape, table, monkeypatch):
    import stkrig.numerics as numerics

    tables = []
    tabulated = numerics._tabulated
    monkeypatch.setattr(numerics, "_tabulated",
                        lambda *args: tables.append(1) or tabulated(*args))
    data = _nu_row_case(*shape)
    for nugget in (0.0, 0.4):
        params = ModelParams(sigma_e2=1.3, nu=nu, c_coeffs=(0.2, 0.3), nugget=nugget)
        tables.clear()
        _criterion_terms(_Prepared(*data, _Coordinates(1, 2, None, nugget > 0.0)), params,
                         scores=True)
        # the values of an integer or half-integer order need no table
        assert bool(tables) == (table and 2.0 * nu - 1.0 not in (1.0, 1.5))
        row, numeric = _nu_row_against_differences(data, params)
        assert abs(numeric) > 1e-2
        assert row == pytest.approx(numeric, rel=1e-6)


def test_nu_row_matches_central_differences_where_the_bessel_factor_overflows():
    # mu = 39.6: e^x K_mu(x) overflows below x ~ 4e-7, so the smallest
    # distances take C(h, w) = C(0, w) and the order derivative's limit
    data = _nu_row_case(30, 40, smallest=1e-10)
    params = ModelParams(sigma_e2=1.3, nu=20.3, c_coeffs=(-0.1, 0.1), nugget=0.4)
    assert np.isinf(special.kve(2.0 * params.nu - 1.0, 1e-10))
    row, numeric = _nu_row_against_differences(data, params)
    assert abs(numeric) > 1e-2
    assert row == pytest.approx(numeric, rel=1e-6)


def test_nu_row_is_zero_where_the_range_leaves_the_double_range():
    # |c(w)|^2 = e^800 is inf: C(h, w) and C(0, w) are 0 and g is the nugget
    # alone, so no score moves
    prepared = _Prepared(*_nu_row_case(4, 20), _Coordinates(1, 2, None, True))
    params = ModelParams(sigma_e2=1.3, nu=1.37, c_coeffs=(800.0, 0.0), nugget=0.4)
    _, scores, _ = _criterion_terms(prepared, params, scores=True)
    assert_allclose(scores[:-1], 0.0, atol=1e-15)
    assert np.isfinite(scores).all()


def test_nu_free_scores_take_one_kernel_pass(monkeypatch):
    import stkrig.covmodel as covmodel
    import stkrig.numerics as numerics

    passes, tables = [], []
    kernel, order_slope = covmodel._kernel, numerics._order_slope
    monkeypatch.setattr(covmodel, "_kernel",
                        lambda *args, **kwargs: passes.append(1) or kernel(*args, **kwargs))
    monkeypatch.setattr(numerics, "_order_slope",
                        lambda *args: tables.append(1) or order_slope(*args))
    data = _gradient_panel()
    params = ModelParams(sigma_e2=1.3, nu=1.37, c_coeffs=(0.2, -0.3), nugget=0.2)
    for nu_fixed, table in ((None, 1), (params.nu, 0)):
        prepared = _Prepared(*data, _Coordinates(1, 2, nu_fixed, True))
        for profile in (False, True):
            passes.clear()
            tables.clear()
            _criterion_terms(prepared, params, profile=profile, scores=True)
            # with nu held, no order-derivative table is built
            assert (len(passes), len(tables)) == (1, table)


def _workspace_case(nu):
    """Prepared data on bins at 1e-300, 1e-20, 0.5, 1 and 2, the first
    bin's periodograms at 1e10 and the others drawn about 1, for scores
    with nu held and a nugget."""
    distances = np.array([1e-300, 1e-20, 0.5, 1.0, 2.0])
    freqs = fourier_frequencies(41)
    binned = np.random.default_rng(31).exponential(size=(distances.size, freqs.size))
    binned[0] = 1e10
    return _Prepared(binned, distances, freqs, _Coordinates(1, 2, nu, True))


def _evaluation_bits(prepared, params):
    """fit's evaluation at params, as bytes: the terms are the workspace's
    until the next evaluation, so they are read at once."""
    out = _criterion_terms(prepared, params, profile=True, scores=True)
    return [np.asarray(value).tobytes() for value in out]


# mu = 2 nu - 1: the integer recurrence (1) and the half-integer closed form (1.5)
@pytest.mark.parametrize("nu", [1.0, 1.25])
def test_a_workspace_gives_the_bits_of_fresh_arrays_after_any_evaluation(nu):
    usual = ModelParams(sigma_e2=1.0, nu=nu, c_coeffs=(0.3, 0.5), nugget=0.2)
    # |c(w)| ~ 1e-10: at h = 1e-300, x = h |c(w)| is below where
    # e^x K_mu(x) is finite, and at h = 1e-20 the prefactor is subnormal
    edge = ModelParams(sigma_e2=1e-300, nu=nu, c_coeffs=(-46.0, 0.5), nugget=0.2)
    # without the nugget g is at its floor on the first bin, and the
    # profiled scale overflows
    failing = ModelParams(sigma_e2=1.0, nu=nu, c_coeffs=(-46.0, 0.5))
    prepared = _workspace_case(nu)
    work = prepared.work._arrays
    first = _evaluation_bits(prepared, usual)
    assert not work["kernel.subnormal"].any()
    # the limit and the log-space products are written into the arrays
    # the usual point left
    assert _evaluation_bits(prepared, edge) == _evaluation_bits(_workspace_case(nu), edge)
    assert np.isinf(work["bessel.1"]).any() and work["kernel.subnormal"].any()
    with pytest.raises(EvaluationError, match="scaled by inf"):
        _criterion_terms(prepared, failing, profile=True, scores=True)
    again = _evaluation_bits(prepared, usual)
    assert first == again == _evaluation_bits(_workspace_case(nu), usual)


@pytest.mark.parametrize("nu_fixed", [1.0, None])
def test_nothing_the_search_holds_is_a_workspace_array(monkeypatch, nu_fixed):
    # the search keeps each evaluation's value, gradient and information,
    # and the least point's scale, scores and information
    import stkrig.estimate as est

    prepared, returns = [], []
    prepare, quasi_newton = est._prepare, est._quasi_newton

    def recorded_prepare(*args):
        prepared.append(prepare(*args))
        return prepared[-1]

    def recorded_search(objective, start):
        return quasi_newton(lambda vec: returns.append(objective(vec)) or returns[-1], start)

    monkeypatch.setattr(est, "_prepare", recorded_prepare)
    monkeypatch.setattr(est, "_quasi_newton", recorded_search)
    panel, _ = _toy_panel(seed=8, m=8, n=128)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fit(panel, FitConfig(nu_fixed=nu_fixed, multistart=2))
    buffers = list(prepared[0].work._arrays.values())
    held = [value for out in returns for value in out if isinstance(value, np.ndarray)]
    assert buffers and held
    assert not any(np.shares_memory(value, buffer) for value in held for buffer in buffers)


def test_one_fit_allocates_its_grids_once(grid_allocations):
    # criterion 4's design, as the bench's fit: an evaluation's grid-sized
    # arrays, the kernel's and the Bessel tables' included, are the
    # workspace's, made at the first evaluation (without one, an evaluation
    # peaked at 10.05 grids with nu held and 12.08 with nu free)
    panel = _recovery_panel()
    spectral, bins = dft_panel(panel), build_distance_bins(panel.locations)
    theta = ModelParams(sigma_e2=1.0, nu=1.3, c_coeffs=(0.4, 0.7))
    for nu_fixed in (1.0, None):
        prepared = _prepare(spectral, bins, None, _Coordinates(1, 2, nu_fixed, False))
        shape = prepared.binned.shape
        assert shape == (190, 255)
        params = replace(theta, nu=nu_fixed or theta.nu)

        def evaluate():
            _criterion_terms(prepared, params, profile=True, scores=True)

        evaluate()
        assert grid_allocations(evaluate, shape) < 1.0
    # whole fits, the workspace included, against 11.33 grids (nu held) and
    # 13.43 (nu free) with fresh arrays at every evaluation
    for nu_fixed, most in ((1.0, 11.3), (None, 13.4)):
        config = FitConfig(n_coeffs=1, nu_fixed=nu_fixed, multistart=2, compute_covariance=False)
        fit(panel, config)  # the imports the first fit makes
        assert grid_allocations(lambda: fit(panel, config), shape) <= most


# mu = 1 (the recurrence) and 0.6 (the value table)
@pytest.mark.parametrize("nu_fixed", [1.0, 0.8])
def test_a_repeated_evaluation_allocates_no_grid_mask(nu_fixed, grid_allocations):
    # 60 scattered sites: 1,770 exact bins by 255 frequencies, so a bool
    # grid is 451 KB, above the allocator's threshold for returning memory
    # to the system. The finiteness checks write their masks into the
    # workspace, so a repeated evaluation allocates less than one of them
    rng = np.random.default_rng(60)
    panel = TimeSeriesPanel(rng.uniform(0.0, 5.0, (60, 2)), rng.normal(size=(60, 512)))
    spectral, bins = dft_panel(panel), build_distance_bins(panel.locations)
    prepared = _prepare(spectral, bins, None, _Coordinates(1, 2, nu_fixed, False))
    shape = prepared.binned.shape
    assert shape == (1770, 255)
    params = ModelParams(sigma_e2=1.0, nu=nu_fixed, c_coeffs=(0.4, 0.7))

    def evaluate():
        _criterion_terms(prepared, params, profile=True, scores=True)

    evaluate()
    bool_grid = np.dtype(bool).itemsize / np.dtype(float).itemsize
    assert grid_allocations(evaluate, shape) < bool_grid


# a grid of 80 kernel points (kve or a closed form for the values) and one
# of 1,440 (the value table), as in the nu row's tests above
@pytest.mark.parametrize("shape", [(4, 20), (24, 60)])
@pytest.mark.parametrize("nugget", [0.0, 0.4])
@pytest.mark.parametrize("nu_free", [True, False])
def test_expected_information_is_the_hessian_where_the_data_are_the_variogram(
        shape, nugget, nu_free):
    # binned = g removes the Hessian's (1 - binned / g) d^2 log g term
    distances = np.geomspace(0.3, 3.0, shape[0])
    freqs = fourier_frequencies(2 * shape[1] + 1)
    params = ModelParams(sigma_e2=1.3, nu=1.37, c_coeffs=(0.2, 0.3), nugget=nugget)
    binned = variogram_model(distances[:, None], freqs[None, :], params)
    coords = _Coordinates(1, 2, None if nu_free else params.nu, nugget > 0.0)
    _, _, info = _criterion_terms(_Prepared(binned, distances, freqs, coords), params,
                                  scores=True)
    reference = criterion_hessian_by_central_differences(binned, distances, freqs, params,
                                                         coords)
    assert info.shape == (len(coords.names()),) * 2
    assert np.array_equal(info, info.T) and np.linalg.eigvalsh(info).min() > 0.0
    assert np.abs(info - reference).max() <= 1e-6 * np.abs(reference).max()


def test_sandwich_takes_one_kernel_pass(monkeypatch):
    import stkrig.covmodel as covmodel

    passes = []
    kernel = covmodel._kernel
    monkeypatch.setattr(covmodel, "_kernel",
                        lambda *args, **kwargs: passes.append(1) or kernel(*args, **kwargs))
    panel, params = _toy_panel(seed=8, m=6, n=64)
    bins = build_distance_bins(panel.locations)
    for nu_fixed in (None, params.nu):
        for fitted in (params, replace(params, nugget=0.2)):
            passes.clear()
            cov = asymptotic_covariance(panel, bins, fitted, nu_fixed=nu_fixed,
                                        fit_nugget=fitted.nugget > 0.0)
            assert len(passes) == 1 and np.isfinite(cov).all()


def test_collinear_coordinates_make_the_sandwich_singular():
    # at one frequency b_0 and b_1 move log g by 1 and cos(w_1): in proportion
    panel, _ = _toy_panel(seed=8, m=6, n=64)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fit(panel, FitConfig(n_coeffs=1, nu_fixed=1.0, n_frequencies=1,
                                      multistart=1))
    assert result.covariance is None and np.isfinite(result.criterion)
    assert [(w.category, str(w.message).split(":")[0]) for w in caught] == [
        (UserWarning, "asymptotic covariance unavailable")]
    with pytest.raises(SingularHessianError, match="numerically singular") as raised:
        asymptotic_covariance(panel, build_distance_bins(panel.locations), result.params,
                              n_frequencies=1, nu_fixed=1.0)
    eigenvalues = np.abs(raised.value.eigenvalues)
    assert eigenvalues.shape == (3,) and eigenvalues.min() <= 1e-12 * eigenvalues.max()


def test_quasi_newton_backs_off_where_the_objective_fails():
    # a bowl with its minimum at (1.9, 0) next to a region, x > 2, where the
    # objective raises: an infinite value there would end the search early.
    # The information is a tenth of the Hessian, so scoring overshoots into
    # that region
    calls = []

    def objective(vec):
        calls.append(vec.copy())
        if vec[0] > 2.0:
            raise EvaluationError("outside")
        return ((vec[0] - 1.9) ** 2 + 10.0 * vec[1] ** 2,
                np.array([2.0 * (vec[0] - 1.9), 20.0 * vec[1]]), np.diag([0.2, 2.0]))

    res = _quasi_newton(objective, np.array([-30.0, 3.0]))
    assert any(v[0] > 2.0 for v in calls)
    assert res.success and res.nfev == len(calls)
    assert_allclose(res.x, [1.9, 0.0], atol=1e-6)
    assert _quasi_newton(objective, np.array([3.0, 0.0])) is None


def test_quasi_newton_takes_a_bowl_in_one_scoring_step():
    # with its exact Hessian as the information, scoring steps from the start
    # to a narrow bowl's minimum, where the gradient test ends both phases;
    # a gradient search alone takes more evaluations
    calls = []

    def objective(vec):
        calls.append(vec.copy())
        offset = vec - [1.0, -0.5]
        return (offset[0] ** 2 + 50.0 * offset[1] ** 2, np.array([2.0, 100.0]) * offset,
                np.diag([2.0, 100.0]))

    res = _quasi_newton(objective, np.array([0.4, -0.1]))
    assert res.success and res.nfev == len(calls) <= 3
    assert_allclose(res.x, [1.0, -0.5], atol=1e-12)


def test_quasi_newton_ends_on_scoring_tests_in_a_bowl():
    # the information is 0.9 times the Hessian, so each scoring step
    # overshoots the minimum by a ninth of the step; the steps' drops keep
    # shrinking fast, so scoring's own tests end the search and L-BFGS-B
    # never runs (it took 10 evaluations when it always ran)
    calls = []

    def objective(vec):
        calls.append(vec.copy())
        offset = vec - [1.0, -0.5]
        return (offset[0] ** 2 + 50.0 * offset[1] ** 2, np.array([2.0, 100.0]) * offset,
                0.9 * np.diag([2.0, 100.0]))

    res = _quasi_newton(objective, np.array([0.4, -0.1]))
    assert res.success and res.finished_by == "scoring"
    assert res.nfev == len(calls) <= 8
    assert res.fun == objective(res.x)[0] <= 1e-9
    assert_allclose(res.x, [1.0, -0.5], atol=1e-5)


@pytest.mark.parametrize("steep", [1.0, 1000.0])
def test_quasi_newton_returns_the_extra_of_its_point_where_that_is_least(steep):
    # the extra is the point itself. With steep at 1000 the gradient is
    # 1000 times the value's, so every step lowers the value far less than
    # predicted and is rejected; the search ends near its start, above a
    # point it rejected, and holds no extra for its point
    values = []

    def objective(vec):
        values.append(float(np.sum((vec - 1.0) ** 2)) / steep)
        return values[-1], 2.0 * (vec - 1.0), 2.0 * np.eye(2), vec.copy()

    res = _quasi_newton(objective, np.array([0.4, -0.1]))
    assert res.nfev == len(values)
    if steep == 1.0:
        assert res.fun == min(values) and np.array_equal(res.extra[0], res.x)
    else:
        assert res.fun > min(values) and res.extra is None


def test_quasi_newton_reports_the_value_at_its_point():
    # the gradient points uphill, so L-BFGS-B's line search fails and it
    # returns its start; scipy then reports its last trial's value, not
    # the start's
    def objective(vec):
        return float(np.sum((vec - 1.0) ** 2)), -2.0 * (vec - 1.0), 2.0 * np.eye(2)

    res = _quasi_newton(objective, np.array([3.0, -2.0]))
    assert not res.success
    assert res.fun == objective(res.x)[0]


def test_quasi_newton_reads_information_that_is_not_finite_as_zero():
    # as where the nugget's share of g rounds to 1 and the profiled
    # information divides 0 by 0; scipy's trust-exact refuses a NaN Hessian
    def objective(vec):
        offset = vec - [1.0, -0.5]
        return (offset[0] ** 2 + 50.0 * offset[1] ** 2, np.array([2.0, 100.0]) * offset,
                np.full((2, 2), np.nan))

    res = _quasi_newton(objective, np.array([0.4, -0.1]))
    assert res.success
    assert_allclose(res.x, [1.0, -0.5], atol=1e-6)


def test_fit_raises_when_every_restart_fails(monkeypatch):
    import stkrig.estimate as est

    def always_fails(*args, **kwargs):
        raise EvaluationError("forced failure")

    panel, _ = _toy_panel(seed=7)
    monkeypatch.setattr(est, "_criterion_terms", always_fails)
    with pytest.raises(EstimationError):
        fit(panel, FitConfig(n_coeffs=0, nu_fixed=1.0, multistart=2,
                             compute_covariance=False))


def test_fit_skips_a_restart_whose_start_is_not_finite(monkeypatch):
    # the first evaluation is the first search's, at its start point
    import stkrig.estimate as est

    criterion_terms = est._criterion_terms
    calls = []

    def first_call_fails(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise EvaluationError("forced failure")
        return criterion_terms(*args, **kwargs)

    panel, _ = _toy_panel(seed=7)
    monkeypatch.setattr(est, "_criterion_terms", first_call_fails)
    res = fit(panel, FitConfig(n_coeffs=0, nu_fixed=1.0, multistart=2,
                               compute_covariance=False))
    skipped, used = res.restarts
    assert (skipped["criterion"], skipped["nfev"], skipped["converged"]) == (None, 0, False)
    assert used["nfev"] > 0 and np.isfinite(used["criterion"])


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


def test_asymptotic_covariance_holds_nu_only_at_the_fit():
    panel, params = _toy_panel(seed=8, m=6, n=64)
    bins = build_distance_bins(panel.locations)
    with pytest.raises(ValueError, match="nu_fixed = 3.0, but the sandwich holds nu at "
                                         "the fitted 1.0"):
        asymptotic_covariance(panel, bins, params, nu_fixed=3.0)


def test_asymptotic_covariance_rejects_a_fitted_nugget_of_zero():
    panel, params = _toy_panel(seed=8, m=6, n=64)
    with pytest.raises(ValueError, match="the log nugget is undefined at nugget = 0"):
        asymptotic_covariance(panel, build_distance_bins(panel.locations), params,
                              nu_fixed=1.0, fit_nugget=True)


@pytest.mark.parametrize("nu_fixed", [None, 1.0])
@pytest.mark.parametrize("fit_nugget", [False, True])
def test_fit_covariance_is_the_sandwich_at_its_estimate(nu_fixed, fit_nugget):
    # fit takes the scores and the information from its search's profiled
    # evaluation at the winner; asymptotic_covariance makes its own
    # unprofiled pass at the estimate. They differ only in rounding
    panel, _ = _toy_panel(seed=8, m=8, n=128)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = fit(panel, FitConfig(n_coeffs=1, nu_fixed=nu_fixed, fit_nugget=fit_nugget,
                                   multistart=2))
    bins = build_distance_bins(panel.locations)
    if res.covariance is None:
        # the nugget fitted with nu held ends at its boundary, where its
        # coordinate moves log g by nothing
        with pytest.raises(SingularHessianError):
            asymptotic_covariance(panel, bins, res.params, nu_fixed=nu_fixed,
                                  fit_nugget=fit_nugget)
        return
    cov = asymptotic_covariance(panel, bins, res.params, nu_fixed=nu_fixed,
                                fit_nugget=fit_nugget)
    assert_allclose(res.covariance, cov, rtol=1e-9, atol=0.0)


def test_asymptotic_covariance_rejects_a_model_of_another_dimension():
    panel, params = _toy_panel(seed=8, m=6, n=64)
    with pytest.raises(ValueError, match="locations have dimension 2 but the model has d=3"):
        asymptotic_covariance(panel, build_distance_bins(panel.locations),
                              replace(params, d=3), nu_fixed=1.0)


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


def test_coordinates_pack_unpack_round_trips():
    p = ModelParams(sigma_e2=2.0, nu=1.5, c_coeffs=(0.1, -0.2), nugget=0.3, d=2)
    coords = _Coordinates(1, 2, None, True)
    q = coords.unpack(coords.pack(p))
    assert_allclose([q.sigma_e2, q.nu, q.nugget], [2.0, 1.5, 0.3], rtol=1e-12)
    assert_allclose(q.c_coeffs, p.c_coeffs, rtol=1e-12)
    # d natural / d coordinate: the natural value at each log, nu less d/4
    assert_allclose(coords.jacobian(p), [2.0, 1.0, 1.0, 1.0, 0.3], rtol=1e-15)

    fixed = _Coordinates(1, 2, 1.5, False)
    q2 = fixed.unpack(fixed.pack(p))
    assert q2.nu == 1.5 and q2.nugget == 0.0
    assert_allclose(q2.c_coeffs, p.c_coeffs, rtol=1e-12)

    assert coords.names() == ["sigma_e2", "nu", "b0", "b1", "nugget"]
    assert _Coordinates(0, 2, 1.0, False).names() == ["sigma_e2", "b0"]

    with pytest.raises(ValueError):
        coords.pack(p.from_dict({**p.to_dict(), "nugget": 0.0}))


def test_coordinates_unpack_rejects_wrong_length():
    with pytest.raises(ValueError):
        _Coordinates(2, 2, 1.0, False).unpack(np.zeros(2))


def _criterion_with_an_overflowing_bin():
    # three sites on an equilateral triangle, one bin of three pairs; one
    # sinusoid of amplitudes (1, -1, 1) near the ordinate bound puts two
    # difference periodograms of the bin near the top of the double range
    locs = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(0.75)]])
    obs = np.outer([1.0, -1.0, 1.0], np.cos(2.0 * np.pi * np.arange(1, 34) / 33))
    largest = np.abs(dft_panel(TimeSeriesPanel(locs, obs)).dft).max()
    panel = TimeSeriesPanel(locs, obs * (0.99 * _MAX_ORDINATE / largest))
    return whittle_criterion(dft_panel(panel), build_distance_bins(locs),
                             ModelParams(sigma_e2=1.0, nu=1.0, c_coeffs=(0.0,)))


@pytest.mark.parametrize("call, match", [
    (lambda: _Coordinates(1, 2, None, True).unpack([0.0, 800.0, 0.2, 0.4, 0.0]),
     "lie outside the model"),
    (lambda: _Coordinates(1, 2, None, True).unpack([0.0, -800.0, 0.2, 0.4, 0.0]),
     "lie outside the model"),
    (lambda: _Coordinates(1, 2, None, True).unpack([-800.0, 0.0, 0.2, 0.4, 0.0]),
     "lie outside the model"),
    (lambda: build_distance_bins([[0.0, 0.0]]), "need at least two sites"),
    (lambda: FitConfig(nu_fixed=np.inf), "nu_fixed must be finite"),
    (_criterion_with_an_overflowing_bin, "a bin's sum of difference periodograms overflows"),
], ids=["log-nu-up", "log-nu-down", "log-scale-down", "one-site", "infinite-nu",
        "bin-sum-overflow"])
def test_estimation_inputs_outside_the_model_are_refused_without_a_warning(call, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            call()
