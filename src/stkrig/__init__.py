"""Frequency-domain modeling, kriging and forecasting for spatio-temporal
random fields observed as one time series per spatial site.

The workflow: transform each site's series to the frequency domain, fit a
Matern-type space-frequency covariance model to the difference periodograms
of site pairs, predict the Fourier ordinates of an unobserved location
frequency by frequency, invert back to a full time series, and forecast it
with a spectrally fitted autoregression. A block-determinant test of spatial
independence and an exact spectral simulator round out the toolkit.
"""

__version__ = "0.1.0"

from .covmodel import (
    ModelParams,
    c_mod_sq,
    corr_freq,
    cov_freq,
    cov_matrix,
    cov_zero,
    st_spectral_density,
    variogram_model,
)
from .estimate import (
    DistanceBins,
    FitConfig,
    FitResult,
    asymptotic_covariance,
    build_distance_bins,
    fit,
    whittle_criterion,
)
from .indeptest import (
    IndependenceTestResult,
    default_half_window,
    independence_test,
)
from .krige import (
    ForecastOutput,
    KrigingOutput,
    assemble_system,
    forecast,
    krige_series,
    predict_dft,
    reconstruct_series,
)
from .numerics import (
    SingularMatrixError,
    bessel_k,
    dft_forward,
    dft_inverse,
    hpd_solve,
    log_gamma,
)
from .simulate import SimulationSpec, simulate_panel, simulate_white_panel
from .spectral import (
    SpectralPanel,
    TimeSeriesPanel,
    block_center_frequencies,
    cross_periodogram,
    dft_panel,
    difference_periodogram,
    fourier_frequencies,
    partition_frequencies,
    periodogram,
    smoothed_cross_spectrum,
)

__all__ = [
    "__version__",
    "ModelParams", "c_mod_sq", "corr_freq", "cov_freq", "cov_matrix",
    "cov_zero", "st_spectral_density", "variogram_model",
    "DistanceBins", "FitConfig", "FitResult",
    "asymptotic_covariance", "build_distance_bins", "fit", "whittle_criterion",
    "IndependenceTestResult", "default_half_window", "independence_test",
    "ForecastOutput", "KrigingOutput", "assemble_system", "forecast",
    "krige_series", "predict_dft", "reconstruct_series",
    "SingularMatrixError", "bessel_k", "dft_forward", "dft_inverse",
    "hpd_solve", "log_gamma",
    "SimulationSpec", "simulate_panel", "simulate_white_panel",
    "SpectralPanel", "TimeSeriesPanel", "block_center_frequencies",
    "cross_periodogram", "dft_panel", "difference_periodogram",
    "fourier_frequencies", "partition_frequencies", "periodogram",
    "smoothed_cross_spectrum",
]
