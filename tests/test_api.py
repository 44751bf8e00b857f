"""The package namespace."""

import os
import subprocess
import sys

import numpy as np
import pytest

import stkrig
import stkrig.indeptest
import stkrig.spectral


def test_every_exported_name_resolves():
    assert len(set(stkrig.__all__)) == len(stkrig.__all__)
    for name in stkrig.__all__:
        assert getattr(stkrig, name) is not None
    namespace = {}
    exec("from stkrig import *", namespace)
    assert set(stkrig.__all__) <= set(namespace)


def test_exported_names_are_pinned():
    # a name added to or dropped from the package shows up here as a diff
    assert set(stkrig.__all__) == {
        "__version__",
        "ModelParams", "c_mod_sq", "corr_freq", "cov_freq", "cov_matrix", "cov_zero",
        "st_spectral_density", "variogram_model",
        "DistanceBins", "FitConfig", "FitResult", "asymptotic_covariance",
        "build_distance_bins", "fit", "whittle_criterion",
        "IndependenceTestResult", "default_half_window", "independence_test",
        "ForecastOutput", "KrigingOutput", "assemble_system", "forecast", "krige_series",
        "predict_dft", "reconstruct_series",
        "SingularMatrixError", "bessel_k", "dft_forward", "dft_inverse", "hpd_solve",
        "log_gamma",
        "SimulationSpec", "simulate_panel", "simulate_white_panel",
        "SpectralPanel", "TimeSeriesPanel", "block_center_frequencies", "cross_periodogram",
        "dft_panel", "difference_periodogram", "fourier_frequencies",
        "partition_frequencies", "periodogram", "smoothed_cross_spectrum",
    }


def test_partition_frequencies_is_defined_once():
    assert stkrig.partition_frequencies is stkrig.spectral.partition_frequencies
    assert stkrig.indeptest.partition_frequencies is stkrig.spectral.partition_frequencies


def _loaded_by_import(module: str) -> bool:
    """Whether importing stkrig and its CLI in a fresh interpreter loads module."""
    src = os.path.dirname(os.path.dirname(stkrig.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, stkrig, stkrig.cli; print(%r in sys.modules)" % module],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True)
    return proc.stdout.strip() == "True"


def test_import_leaves_scipy_stats_out():
    # scipy.stats costs about 20 MB and 0.4 s to import; the package needs
    # only its normal tail, which scipy.special has
    assert not _loaded_by_import("scipy.stats")


def test_import_leaves_scipy_optimize_out():
    # scipy.optimize costs about 17 MB; only fit's search needs it, and
    # loads it there
    assert not _loaded_by_import("scipy.optimize")


def test_import_leaves_scipy_sparse_csgraph_out():
    # exact distance bins walk their chain of groups without a graph library
    assert not _loaded_by_import("scipy.sparse.csgraph")


def _white(m=3, n=133):
    return stkrig.simulate_white_panel(m, n, seed=1)


_PARAMS = stkrig.ModelParams(sigma_e2=1.0, nu=1.0, c_coeffs=(0.2,), d=2)


@pytest.mark.parametrize("call, message", [
    (lambda: stkrig.FitConfig(seed=2.5), "seed must be a whole number, got 2.5"),
    (lambda: stkrig.FitConfig(seed=-1), "seed must be at least 0, got -1"),
    (lambda: stkrig.SimulationSpec(np.eye(2), n=64.5, params=_PARAMS),
     "simulation length must be a whole number, got 64.5"),
    (lambda: stkrig.SimulationSpec(np.eye(2), n=64, params=_PARAMS, seed=1.5),
     "seed must be a whole number, got 1.5"),
    (lambda: stkrig.SimulationSpec(np.eye(2), n=64, params=_PARAMS, seed=-2),
     "seed must be at least 0, got -2"),
    (lambda: stkrig.simulate_white_panel(2.5, 10), "site count m must be a whole number"),
    (lambda: stkrig.simulate_white_panel(2, 10.5), "series length must be a whole number"),
    (lambda: stkrig.simulate_white_panel(2, 10, seed=0.5), "seed must be a whole number"),
    (lambda: stkrig.forecast(np.arange(40.0), 2.5), "horizons must be a whole number"),
    (lambda: stkrig.forecast(np.arange(40.0), 3, max_order=2.5),
     "max_order must be a whole number, got 2.5"),
    (lambda: stkrig.independence_test(_white(), half_window=5.7),
     "half_window must be a whole number, got 5.7"),
    (lambda: stkrig.krige_series(_white(), (0.5, 0.5), _PARAMS, threads=1.5),
     "threads must be a whole number, got 1.5"),
    (lambda: stkrig.fourier_frequencies(7.5), "series length must be a whole number, got 7.5"),
    (lambda: stkrig.partition_frequencies(19, 1.5), "half_window must be a whole number"),
    (lambda: stkrig.default_half_window(19.5, 2), "series length must be a whole number"),
    (lambda: stkrig.dft_inverse(np.ones(7), 7.5), "n must be a whole number, got 7.5"),
    (lambda: stkrig.reconstruct_series([1j] * 3, 7.5), "series length n must be a whole number"),
    # as ModelParams.from_dict says, a bool is not the dimension 1
    (lambda: stkrig.ModelParams(1.0, 1.0, (0.0,), d=True), "d must be a number, got True"),
    (lambda: stkrig.ModelParams(1.0, 1.0, (0.0,), d="2"), "d must be a number, got '2'"),
    (lambda: stkrig.ModelParams(1.0, 1.0, (0.0,), d=1.5),
     "spatial dimension d must be a positive integer, got 1.5"),
])
def test_counts_and_seeds_must_be_whole_numbers(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_whole_float_counts_are_accepted():
    series = np.random.default_rng(2).normal(size=40)
    assert (stkrig.forecast(series, 3.0, max_order=2.0).to_dict()
            == stkrig.forecast(series, 3, max_order=2).to_dict())
    spec = stkrig.SimulationSpec(np.eye(2), n=16.0, params=_PARAMS, seed=3.0)
    assert type(spec.n) is int and type(spec.seed) is int


_SERIES = np.random.default_rng(2).normal(size=40)

# one public count each, as a function of the value given for it
_PUBLIC_COUNTS = {
    "FitConfig.multistart": lambda v: stkrig.FitConfig(multistart=v).multistart,
    "FitConfig.seed": lambda v: stkrig.FitConfig(seed=v).seed,
    "SimulationSpec.seed": lambda v: stkrig.SimulationSpec(
        np.eye(2), n=16, params=_PARAMS, seed=v).seed,
    "forecast.horizons": lambda v: stkrig.forecast(_SERIES, v).to_dict(),
    "forecast.max_order": lambda v: stkrig.forecast(_SERIES, 2, max_order=v).to_dict(),
    "build_distance_bins.n_bins": lambda v: stkrig.build_distance_bins(
        np.arange(8.0).reshape(4, 2) ** 2, "quantile", n_bins=v).summary(),
    "simulate_white_panel.m": lambda v: stkrig.simulate_white_panel(v, 8).observations.tolist(),
    "fourier_frequencies.n": lambda v: stkrig.fourier_frequencies(v).tolist(),
    "dft_inverse.n": lambda v: stkrig.dft_inverse(np.ones(3), v).tolist(),
}


@pytest.mark.parametrize("count", sorted(_PUBLIC_COUNTS))
@pytest.mark.parametrize("value, accepted", [
    ("3", False), (True, False), (np.int64(3), True), (3.0, True), (2.5, False)])
def test_public_counts_take_whole_numbers_only(count, value, accepted):
    # a numpy integer or a whole float is the count 3; a string or a bool
    # is not read as a number
    call = _PUBLIC_COUNTS[count]
    if accepted:
        assert call(value) == call(3)
    else:
        with pytest.raises(ValueError, match="must be a whole number, got"):
            call(value)


# one public real each, as a function of the value given for it
_PUBLIC_REALS = {
    "ModelParams.sigma_e2": lambda v: stkrig.ModelParams(v, 1.0, (0.2,)).to_dict(),
    "ModelParams.nu": lambda v: stkrig.ModelParams(1.0, v, (0.2,)).to_dict(),
    "ModelParams.nugget": lambda v: stkrig.ModelParams(1.0, 1.0, (0.2,), nugget=v).to_dict(),
    "ModelParams.c_coeffs": lambda v: stkrig.ModelParams(1.0, 1.0, (0.2, v)).to_dict(),
    "FitConfig.nu_fixed": lambda v: stkrig.FitConfig(nu_fixed=v).nu_fixed,
    "FitConfig.bin_tolerance": lambda v: stkrig.FitConfig(bin_tolerance=v).bin_tolerance,
    "build_distance_bins.tolerance": lambda v: stkrig.build_distance_bins(
        np.arange(8.0).reshape(4, 2) ** 2, tolerance=v).summary(),
    "simulate_white_panel.variance": lambda v: stkrig.simulate_white_panel(
        3, 8, variance=v).observations.tolist(),
}


@pytest.mark.parametrize("real", sorted(_PUBLIC_REALS))
@pytest.mark.parametrize("value, accepted", [
    (True, False), ("1.5", False), (np.float64(1.5), True), (1.5, True)])
def test_public_reals_take_numbers_only(real, value, accepted):
    # a numpy float is the number it holds, stored as given; a bool or a
    # string is not read as a number
    call = _PUBLIC_REALS[real]
    if accepted:
        assert call(value) == call(1.5)
    else:
        with pytest.raises(ValueError, match="must be a number, got"):
            call(value)
