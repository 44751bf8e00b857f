"""Panels, transforms, and periodograms."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import dft_brute_force
from stkrig import (ModelParams, SimulationSpec, TimeSeriesPanel,
                    block_center_frequencies, cov_freq, cross_periodogram,
                    dft_panel, difference_periodogram, fourier_frequencies,
                    periodogram, simulate_panel, simulate_white_panel,
                    smoothed_cross_spectrum)


def test_fourier_frequencies_interior_grid():
    assert_allclose(fourier_frequencies(8), 2.0 * np.pi * np.array([1, 2, 3]) / 8)
    assert_allclose(fourier_frequencies(9), 2.0 * np.pi * np.array([1, 2, 3, 4]) / 9)
    with pytest.raises(ValueError):
        fourier_frequencies(1)


def _panel(m=3, n=24, seed=0):
    rng = np.random.default_rng(seed)
    return TimeSeriesPanel(rng.uniform(0.0, 1.0, (m, 2)), rng.normal(size=(m, n)))


def test_panel_validation():
    rng = np.random.default_rng(1)
    locs = rng.uniform(0.0, 1.0, (3, 2))
    obs = rng.normal(size=(3, 10))
    with pytest.raises(ValueError):
        TimeSeriesPanel(locs[:2], obs)
    with pytest.raises(ValueError):
        TimeSeriesPanel(locs, obs[:, :1])
    bad = obs.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        TimeSeriesPanel(locs, bad)
    dup = locs.copy()
    dup[1] = dup[0]
    with pytest.raises(ValueError):
        TimeSeriesPanel(dup, obs)
    with pytest.raises(ValueError):
        TimeSeriesPanel(locs, obs, site_ids=("a", "a", "b"))
    # the first duplicate pair is named: lowest i, then lowest j; -0.0 and
    # 0.0 are one coordinate
    many = np.array([[0.5, 0.5], [5.0, 5.0], [0.0, 1.0], [5.0, 5.0], [-0.0, 1.0], [5.0, 5.0]])
    with pytest.raises(ValueError, match="sites 'site1' and 'site3'"):
        TimeSeriesPanel(many, rng.normal(size=(6, 10)))
    many[1] = [7.0, 7.0]
    with pytest.raises(ValueError, match="sites 'site2' and 'site4'"):
        TimeSeriesPanel(many, rng.normal(size=(6, 10)))


def test_panel_defaults_and_read_only():
    panel = _panel()
    assert panel.site_ids == ("site0", "site1", "site2")
    assert panel.m == 3 and panel.n == 24 and panel.d == 2
    with pytest.raises(ValueError):
        panel.observations[0, 0] = 1.0
    assert_allclose(panel.site_means(), panel.observations.mean(axis=1))


def test_panel_adopts_a_slice_of_another_panel():
    full = simulate_panel(SimulationSpec(
        locations=np.random.default_rng(2).uniform(0.0, 3.0, (5, 2)), n=16,
        params=ModelParams(sigma_e2=1.0, nu=0.8, c_coeffs=(0.1,), d=2)))
    part = TimeSeriesPanel(full.locations[:3], full.observations[:3])
    assert np.shares_memory(part.observations, full.observations)
    assert np.shares_memory(part.locations, full.locations)
    assert not part.observations.flags.writeable
    with pytest.raises(ValueError):
        part.observations[0, 0] = 1.0


def test_panel_copies_a_read_only_view_of_writeable_memory():
    obs = np.random.default_rng(3).normal(size=(3, 24))
    view = obs.view()
    view.flags.writeable = False
    panel = TimeSeriesPanel(_panel().locations, view)
    assert not np.shares_memory(panel.observations, obs)
    before = panel.observations.copy()
    obs[:] = 7.0
    assert np.array_equal(panel.observations, before)


def test_dft_panel_rows_match_brute_force():
    panel = _panel(m=4, n=19, seed=2)
    spectral = dft_panel(panel)
    m_int = (19 - 1) // 2
    centred = panel.observations - panel.site_means()[:, None]
    for i in range(4):
        ref = dft_brute_force(centred[i])[1 : m_int + 1]
        assert_allclose(spectral.dft[i], ref, atol=1e-12)
    assert_allclose(spectral.frequencies, fourier_frequencies(19))
    assert spectral.n == 19


def test_mean_removal_leaves_interior_ordinates_alone():
    panel = _panel(m=2, n=32, seed=3)
    shifted = TimeSeriesPanel(panel.locations,
                              panel.observations + np.array([[3.0], [-40.0]]))
    assert_allclose(dft_panel(shifted).dft, dft_panel(panel).dft, rtol=0, atol=1e-12)


def test_dft_panel_needs_three_points():
    with pytest.raises(ValueError):
        dft_panel(_panel(n=2))


def test_periodogram_is_squared_modulus():
    spectral = dft_panel(_panel(seed=4))
    assert_allclose(periodogram(spectral, 1), np.abs(spectral.dft[1]) ** 2,
                    atol=1e-14)


def test_periodogram_white_noise_level():
    # sample mean over frequencies and replicates near variance / (2 pi)
    target = 2.0 / (2.0 * np.pi)
    means = []
    for rep in range(200):
        panel = simulate_white_panel(1, 512, variance=2.0, seed=40000 + rep)
        means.append(float(np.mean(periodogram(dft_panel(panel), 0))))
    assert abs(np.mean(means) / target - 1.0) <= 0.15


def test_cross_periodogram_conjugate_symmetry():
    spectral = dft_panel(_panel(seed=5))
    assert_allclose(cross_periodogram(spectral, 0, 2),
                    np.conj(cross_periodogram(spectral, 2, 0)), atol=1e-14)
    # the cross spectrum of a site with itself is its periodogram
    assert_allclose(cross_periodogram(spectral, 1, 1),
                    periodogram(spectral, 1), atol=1e-14)
    with pytest.raises(ValueError):
        difference_periodogram(spectral, 1, 1)


def test_difference_periodogram_decomposition():
    spectral = dft_panel(_panel(m=4, n=40, seed=6))
    for i, j in ((0, 1), (1, 3), (2, 0)):
        direct = difference_periodogram(spectral, i, j)
        combined = (periodogram(spectral, i) + periodogram(spectral, j)
                    - 2.0 * np.real(cross_periodogram(spectral, i, j)))
        assert_allclose(direct, combined, atol=1e-10)


def test_difference_periodogram_equals_time_domain_path():
    panel = _panel(m=3, n=30, seed=7)
    spectral = dft_panel(panel)
    diff_series = panel.observations[0] - panel.observations[2]
    diff_panel = TimeSeriesPanel(panel.locations[:2], np.vstack([diff_series,
                                                                 panel.observations[1]]))
    ref = periodogram(dft_panel(diff_panel), 0)
    assert_allclose(difference_periodogram(spectral, 0, 2), ref, atol=1e-12)


def test_cross_periodogram_mean_approaches_covariance():
    # replicate average of the real part estimates C(h, w)
    params = ModelParams(sigma_e2=1.0, nu=1.0, c_coeffs=(0.0, 0.5), d=2)
    locs = np.array([[0.0, 0.0], [1.0, 0.0]])
    n, reps = 128, 400
    acc = np.zeros((n - 1) // 2)
    for rep in range(reps):
        panel = simulate_panel(SimulationSpec(locations=locs, n=n, params=params,
                                              seed=52000 + rep))
        acc += np.real(cross_periodogram(dft_panel(panel), 0, 1))
    acc /= reps
    theory = cov_freq(1.0, fourier_frequencies(n), params)
    probe = [0, 15, 31, 47, 62]
    rel = np.abs(acc[probe] - theory[probe]) / theory[probe]
    assert np.max(rel) <= 0.15


def test_smoothed_cross_spectrum_block_means():
    # n=19 has 9 interior ordinates: three blocks of width 3
    panel = _panel(m=2, n=19, seed=8)
    spectral = dft_panel(panel)
    raw = periodogram(spectral, 0)
    smoothed = smoothed_cross_spectrum(spectral, 0, 0, 1)
    assert smoothed.shape == (3,)
    assert_allclose(smoothed.real, [raw[0:3].mean(), raw[3:6].mean(),
                                    raw[6:9].mean()], atol=1e-12)
    assert_allclose(block_center_frequencies(19, 1),
                    2.0 * np.pi * np.array([2, 5, 8]) / 19)


def test_smoothed_cross_spectrum_concentration():
    # 64 blocks of width 33: dispersion near (2K+1)^(-1/2)
    panel = simulate_white_panel(1, 2 * 33 * 64 + 1, variance=1.0, seed=13)
    f_hat = smoothed_cross_spectrum(dft_panel(panel), 0, 0, 16).real
    assert abs(np.mean(f_hat) - 1.0 / (2.0 * np.pi)) <= 0.01
    cv = np.std(f_hat) / np.mean(f_hat)
    assert abs(cv - 33 ** -0.5) <= 0.06


def test_smoothed_cross_spectrum_rejects_bad_windows():
    panel = _panel(m=2, n=19, seed=9)
    spectral = dft_panel(panel)
    with pytest.raises(ValueError, match="admissible"):
        smoothed_cross_spectrum(spectral, 0, 1, 2)
    even = _panel(m=2, n=20, seed=9)
    with pytest.raises(ValueError, match="drop"):
        smoothed_cross_spectrum(dft_panel(even), 0, 1, 1)


def test_site_index_validation():
    spectral = dft_panel(_panel())
    with pytest.raises(IndexError):
        periodogram(spectral, 3)
    assert_allclose(periodogram(spectral, -1), periodogram(spectral, 2))


@pytest.mark.parametrize("call", [
    lambda spectral, k: periodogram(spectral, k),
    lambda spectral, k: cross_periodogram(spectral, k, 0),
    lambda spectral, k: difference_periodogram(spectral, 0, k),
    lambda spectral, k: smoothed_cross_spectrum(spectral, k, 0, 1),
], ids=["periodogram", "cross_periodogram", "difference_periodogram",
        "smoothed_cross_spectrum"])
def test_site_indices_are_whole_numbers_in_range(call):
    # n = 19: nine interior ordinates, three blocks of width 3
    spectral = dft_panel(_panel(n=19))
    with pytest.raises(ValueError, match="site index must be a whole number, got 1.5"):
        call(spectral, 1.5)
    with pytest.raises(IndexError, match="site index 3 out of range for 3 sites"):
        call(spectral, 3)
    with pytest.raises(IndexError, match="site index -4 out of range for 3 sites"):
        call(spectral, -4)
    assert np.array_equal(call(spectral, 2.0), call(spectral, 2))
    assert np.array_equal(call(spectral, -1), call(spectral, 2))


@pytest.mark.parametrize("call, match", [
    (lambda: TimeSeriesPanel(np.zeros((2, 2, 2)), np.zeros((2, 8))),
     r"locations must have shape \(m, d\)"),
    (lambda: TimeSeriesPanel(np.zeros((2, 2)), np.zeros((2, 8, 1))),
     r"observations must have shape \(m, n\)"),
    (lambda: TimeSeriesPanel([[0.0, 0.0], [np.inf, 0.0]], np.zeros((2, 8))),
     "locations contain non-finite values"),
    (lambda: TimeSeriesPanel([[0.0, 0.0], [1.0, 0.0]], np.zeros((2, 8)), site_ids=("a",)),
     "expected 2 site ids, got 1"),
    # the means are finite, the transform of the first two values is not
    (lambda: dft_panel(TimeSeriesPanel([[0.0, 0.0], [1.0, 0.0]],
                                       np.pad([[1e308, -1e308]] * 2, ((0, 0), (0, 14))))),
     "the Fourier transform of the series overflows"),
], ids=["3d-locations", "3d-observations", "infinite-location", "site-id-count",
        "transform-overflow"])
def test_malformed_panels_are_refused(call, match):
    with pytest.raises(ValueError, match=match):
        call()
