"""Block-determinant test of spatial independence."""

import json
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from stkrig import (ModelParams, SimulationSpec, SingularMatrixError, TimeSeriesPanel,
                    default_half_window, independence_test, partition_frequencies,
                    simulate_panel, simulate_white_panel)
from stkrig.indeptest import _normalized_log_det


def test_partition_small_case():
    blocks, centers = partition_frequencies(19, 1)
    assert blocks == 3
    assert list(centers) == [2, 5, 8]


def test_partition_tiles_exactly():
    blocks, centers = partition_frequencies(181, 4)
    assert blocks == 10
    assert list(centers) == [5 + 9 * l for l in range(10)]
    # every interior ordinate is covered exactly once
    covered = np.concatenate([np.arange(c - 4, c + 5) for c in centers])
    assert np.array_equal(np.sort(covered), np.arange(1, 91))


def test_partition_rejects_bad_input():
    with pytest.raises(ValueError, match="drop"):
        partition_frequencies(20, 1)
    with pytest.raises(ValueError, match="admissible"):
        partition_frequencies(19, 2)


def test_default_half_window_choices():
    assert default_half_window(1057, 3) == 16  # width 33 out of {3, 11, 33}
    assert default_half_window(19, 2) == 4     # width 9 out of {3, 9}
    with pytest.raises(ValueError):
        default_half_window(11, 5)  # only width 5, not above m
    with pytest.raises(ValueError):
        default_half_window(20, 2)


def test_default_half_window_falls_back_to_the_widest_width_above_m():
    # n = 21 has the one width 5: above m = 3, short of 2m = 6
    assert default_half_window(21, 3) == 2


def test_normalized_log_det_diagonal_is_exact_zero():
    log_det, jitter = _normalized_log_det(np.diag([2.0, 3.0, 0.5]).astype(complex))
    assert log_det == 0.0 and jitter == 0.0


def test_null_moments_hand_computed():
    # m=2, width 9, 10 blocks: E = 1/8, var = (1/8^2) / 10
    panel = simulate_white_panel(2, 181, seed=1)
    res = independence_test(panel, half_window=4)
    assert res.mean_null == pytest.approx(0.125, abs=1e-15)
    assert res.var_null == pytest.approx(0.0015625, abs=1e-18)
    assert res.window_size == 9 and res.n_blocks == 10
    assert res.z_score == pytest.approx(
        (res.lambda_bar - 0.125) / np.sqrt(0.0015625), rel=1e-12)


def test_statistic_structure():
    panel = simulate_white_panel(3, 1057, seed=2)
    res = independence_test(panel)
    assert res.half_window == 16
    assert res.per_frequency_lambdas.shape == (16,)
    assert np.all(res.per_frequency_lambdas > 0.0)
    assert np.all(res.per_frequency_lambdas <= 1.0)
    assert res.lambda_bar >= 0.0
    assert 0.0 <= res.p_value <= 1.0
    assert res.pd_repairs == 0


def test_identical_series_need_a_repair_in_every_block():
    # two sites carry one series: every block spectral matrix is singular
    rng = np.random.default_rng(8)
    base = rng.normal(size=133)
    locs = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    res = independence_test(TimeSeriesPanel(locs, np.vstack([base, base, rng.normal(size=133)])))
    assert res.n_blocks == 2 and res.pd_repairs == 2
    assert np.isfinite(res.lambda_bar)


def test_constant_site_makes_every_block_singular():
    # a constant site's Fourier vector is zero once its mean is removed
    panel = simulate_white_panel(3, 41, seed=6)
    observations = panel.observations.copy()
    observations[1] = 5.0
    with pytest.raises(SingularMatrixError,
                       match="^block spectral matrix has a non-positive diagonal$"):
        independence_test(TimeSeriesPanel(panel.locations, observations))


def test_even_length_dropped_with_warning():
    panel = simulate_white_panel(2, 20, seed=3)
    with pytest.warns(UserWarning, match="dropping the last"):
        res = independence_test(panel, half_window=1)
    assert res.n_used == 19


def test_window_must_exceed_site_count():
    panel = simulate_white_panel(2, 19, seed=4)
    with pytest.raises(ValueError, match="must exceed the site count"):
        independence_test(panel, half_window=0)


def test_needs_two_sites():
    panel = simulate_white_panel(1, 19, seed=5)
    with pytest.raises(ValueError):
        independence_test(panel)


def test_null_calibration_loose():
    zs = []
    rejections = 0
    for rep in range(300):
        panel = simulate_white_panel(2, 181, seed=90000 + rep)
        res = independence_test(panel, half_window=4)
        zs.append(res.z_score)
        rejections += res.p_value < 0.05
    assert abs(float(np.mean(zs))) <= 0.3
    assert 0.015 <= rejections / 300 <= 0.10


def test_detects_duplicated_site():
    rng = np.random.default_rng(91)
    base = rng.normal(size=1057)
    other = rng.normal(size=1057)
    copied = base + 0.05 * rng.normal(size=1057)
    locs = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    panel = TimeSeriesPanel(locs, np.vstack([base, other, copied]))
    res = independence_test(panel, half_window=16)
    assert res.z_score > 3.0
    assert res.p_value < 1e-3


def test_statistic_from_log_determinants_below_the_exp_underflow():
    # 60 strongly correlated sites in one block of width 605: ln lambda is
    # about -831, so lambda itself is 0.0 and its log would be -inf
    locations = np.random.default_rng(0).uniform(0.0, 0.3, size=(60, 2))
    panel = simulate_panel(SimulationSpec(locations, n=1211, seed=1,
                                          params=ModelParams(1.0, 1.5, (0.0,))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = independence_test(panel)
    assert (res.half_window, res.n_blocks) == (302, 1)
    assert_allclose(res.lambda_bar, 831.12, atol=0.01)
    assert np.isfinite(res.z_score) and res.z_score > 1e4
    assert res.p_value == 0.0
    assert res.per_frequency_lambdas.tolist() == [0.0]


def test_result_serializes():
    panel = simulate_white_panel(2, 181, seed=6)
    res = independence_test(panel, half_window=4)
    blob = json.loads(json.dumps(res.to_dict()))
    assert blob["n_blocks"] == 10
    assert len(blob["per_frequency_lambdas"]) == 10
