"""The package namespace."""

import os
import subprocess
import sys

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


def test_import_leaves_scipy_stats_out():
    # scipy.stats costs about 20 MB and 0.4 s to import; the package needs
    # only its normal tail, which scipy.special has
    src = os.path.dirname(os.path.dirname(stkrig.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, stkrig, stkrig.cli; print('scipy.stats' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"
