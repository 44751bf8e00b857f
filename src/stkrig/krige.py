"""Kriging of a full time series at an unobserved location, plus
autoregressive forecasting of the reconstructed series.

Prediction happens frequency by frequency: at each interior ordinate the
Fourier vector of the observed sites has a Hermitian covariance matrix built
from the model, and the best linear predictor of the target ordinate is the
usual kriging weight vector applied to the observed ordinates. The predicted
ordinates are then extended to the full grid by conjugate symmetry and
inverted back to the time domain.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import linalg as _slinalg

from .covmodel import ModelParams, cov_freq, cov_matrix, cov_zero
from .numerics import (
    OptimizerConfig,
    SingularMatrixError,
    dft_forward,
    dft_inverse,
    hpd_solve,
    nelder_mead,
)
from .spectral import SpectralPanel, TimeSeriesPanel, dft_panel, fourier_frequencies

_TWO_PI = 2.0 * np.pi


def assemble_system(locations, target, omega: float, params: ModelParams,
                    include_target_noise: bool = False):
    """Kriging system for one frequency.

    Parameters
    ----------
    locations : array_like
        Observed site coordinates, shape (m, d).
    target : array_like
        Coordinates of the prediction location, shape (d,).
    omega : float
        Frequency at which to assemble.
    params : ModelParams
    include_target_noise : bool
        When set, the target variance includes the measurement-error
        spectrum, so the predictor targets a noisy observation rather than
        the underlying field value.

    Returns
    -------
    tuple
        (F, g0, c0): the m x m observation covariance (nugget on the
        diagonal), the m-vector of target covariances (never any nugget),
        and the scalar target variance.
    """
    dmat, h0 = _site_distances(locations, target)
    return _frequency_system(dmat, h0, omega, params, include_target_noise)


def _site_distances(locations, target):
    """Site distance matrix and target-to-site distances, after the checks."""
    loc = np.atleast_2d(np.asarray(locations, dtype=float))
    tgt = np.asarray(target, dtype=float).reshape(-1)
    if tgt.size != loc.shape[1]:
        raise ValueError(
            "target has dimension %d but sites have dimension %d" % (tgt.size, loc.shape[1])
        )
    dmat = np.linalg.norm(loc[:, None, :] - loc[None, :, :], axis=-1)
    return dmat, np.linalg.norm(loc - tgt[None, :], axis=-1)


def _frequency_system(dmat, h0, omega, params: ModelParams, include_target_noise: bool):
    """assemble_system's (F, g0, c0) from the distances of _site_distances."""
    f = cov_matrix(dmat, omega, params, include_nugget=True)
    g0 = np.asarray(cov_freq(h0, float(omega), params), dtype=float)
    c0 = float(cov_zero(float(omega), params))
    if include_target_noise:
        c0 += params.nugget / _TWO_PI
    return f, g0, c0


@dataclass
class DftPrediction:
    """Per-frequency kriging predictions.

    Attributes
    ----------
    predicted : numpy.ndarray
        Predicted complex ordinates; NaN at failed frequencies.
    mse : numpy.ndarray
        Prediction variance per frequency, clamped at zero.
    jitter : numpy.ndarray
        Diagonal loading the solver needed at each frequency.
    n_clamped : int
        How many variances were negative before clamping.
    failed : tuple
        Indices of frequencies whose system stayed singular.
    """

    predicted: np.ndarray
    mse: np.ndarray
    jitter: np.ndarray
    n_clamped: int
    failed: tuple


def predict_dft(spectral: SpectralPanel, systems) -> DftPrediction:
    """Solve the kriging system at every frequency of a spectral panel.

    Parameters
    ----------
    spectral : SpectralPanel
        Observed ordinates, one row per site.
    systems : iterable
        One (F, g0, c0) triple per frequency, aligned with
        spectral.frequencies; consumed one at a time.

    Returns
    -------
    DftPrediction
        A frequency whose covariance matrix is singular even after diagonal
        loading is marked failed and left as NaN; the others proceed.
    """
    m_freq = spectral.n_frequencies
    predicted = np.full(m_freq, np.nan, dtype=complex)
    mse = np.full(m_freq, np.nan)
    jitter = np.zeros(m_freq)
    n_clamped = 0
    failed = []
    n_systems = 0
    for k, (f, g0, c0) in enumerate(systems):
        n_systems += 1
        if k >= m_freq:
            continue
        try:
            sol = hpd_solve(f, g0)
        except SingularMatrixError:
            failed.append(k)
            continue
        w = sol.x
        predicted[k] = w @ spectral.dft[:, k]
        raw = float(c0 - w @ g0)
        if raw < 0.0:
            n_clamped += 1
            raw = 0.0
        mse[k] = raw
        jitter[k] = sol.jitter
    if n_systems != m_freq:
        raise ValueError("got %d systems for %d frequencies" % (n_systems, m_freq))
    return DftPrediction(
        predicted=predicted,
        mse=mse,
        jitter=jitter,
        n_clamped=n_clamped,
        failed=tuple(failed),
    )


def estimate_target_mean(locations, target, site_means) -> float:
    """Inverse-distance-weighted average of the observed site means.

    A target coinciding with an observed site returns that site's mean.
    """
    loc = np.atleast_2d(np.asarray(locations, dtype=float))
    tgt = np.asarray(target, dtype=float).reshape(-1)
    means = np.asarray(site_means, dtype=float)
    if means.size != loc.shape[0]:
        raise ValueError(
            "got %d site means for %d sites" % (means.size, loc.shape[0])
        )
    dist = np.linalg.norm(loc - tgt[None, :], axis=-1)
    scale = max(float(dist.max()), 1.0)
    coincident = dist <= 1e-12 * scale
    if np.any(coincident):
        return float(means[np.argmax(coincident)])
    w = 1.0 / dist**2
    return float(np.sum(w * means) / np.sum(w))


def reconstruct_series(predicted_dft, n: int, site_mean: float = 0.0) -> np.ndarray:
    """Invert predicted interior ordinates to a real series of length n.

    The ordinate at frequency zero is set to zero (the level is carried by
    site_mean, which is added after inversion) and, for even n, so is the
    ordinate at the folding frequency. The remaining grid is filled by
    conjugate symmetry.
    """
    pred = np.asarray(predicted_dft, dtype=complex)
    m_int = (n - 1) // 2
    if pred.ndim != 1 or pred.size != m_int:
        raise ValueError(
            "expected %d interior ordinates for n=%d, got shape %s"
            % (m_int, n, (pred.shape,))
        )
    if not np.all(np.isfinite(pred)):
        raise ValueError("predicted ordinates contain non-finite values")
    full = np.zeros(n, dtype=complex)
    full[1 : m_int + 1] = pred
    full[n - m_int :] = np.conj(pred[::-1])
    series = dft_inverse(full, n)
    return series + float(site_mean)


@dataclass
class KrigingOutput:
    """Everything produced by kriging one target location.

    Attributes
    ----------
    target : numpy.ndarray
        Prediction coordinates.
    frequencies : numpy.ndarray
        Interior grid the prediction ran on.
    predicted_dft : numpy.ndarray
        Predicted complex ordinates (failed frequencies are NaN).
    mse : numpy.ndarray
        Per-frequency prediction variance.
    reconstructed : numpy.ndarray
        Real series of length n at the target.
    site_mean : float
        Level added to the inverted series.
    n : int
        Series length.
    jitter_report : dict
        Solver diagnostics: maximum jitter, counts of jittered, clamped and
        failed frequencies, and the failed indices.
    """

    target: np.ndarray
    frequencies: np.ndarray
    predicted_dft: np.ndarray
    mse: np.ndarray
    reconstructed: np.ndarray
    site_mean: float
    n: int
    jitter_report: dict

    def to_dict(self) -> dict:
        pred = np.asarray(self.predicted_dft)

        def clean(values):
            return [float(v) if np.isfinite(v) else None for v in values]

        return {
            "target": [float(v) for v in np.asarray(self.target).reshape(-1)],
            "n": int(self.n),
            "site_mean": float(self.site_mean),
            "frequencies": [float(v) for v in self.frequencies],
            "predicted_dft_real": clean(pred.real),
            "predicted_dft_imag": clean(pred.imag),
            "mse": clean(self.mse),
            "reconstructed": [float(v) for v in self.reconstructed],
            "jitter_report": self.jitter_report,
        }


def krige_series(panel: TimeSeriesPanel, target, params: ModelParams,
                 include_target_noise: bool = False, remove_mean: bool = True,
                 threads: int | None = 1) -> KrigingOutput:
    """Predict the full series at an unobserved location.

    Assembles and solves one kriging system per interior frequency, then
    inverts the predicted ordinates and adds an inverse-distance estimate of
    the local mean. Frequencies whose system cannot be solved contribute zero
    to the reconstruction and are listed in the jitter report.

    Parameters
    ----------
    threads : int or None
        Accepted and checked to be at least 1; the systems are solved on
        the calling thread, so the output is the same for any count.
    """
    if threads is not None and int(threads) < 1:
        raise ValueError("threads must be at least 1, got %r" % threads)
    spectral = dft_panel(panel, remove_mean=remove_mean)
    tgt = np.asarray(target, dtype=float).reshape(-1)
    dmat, h0 = _site_distances(panel.locations, tgt)
    systems = (
        _frequency_system(dmat, h0, float(w), params, include_target_noise)
        for w in spectral.frequencies
    )
    prediction = predict_dft(spectral, systems)
    if prediction.failed:
        warnings.warn(
            "%d of %d frequencies failed to solve and contribute zero to the "
            "reconstruction" % (len(prediction.failed), spectral.n_frequencies)
        )
    site_mean = estimate_target_mean(panel.locations, tgt, panel.site_means())
    filled = np.where(np.isnan(prediction.predicted), 0.0 + 0.0j, prediction.predicted)
    reconstructed = reconstruct_series(filled, panel.n, site_mean)
    report = {
        "max_jitter": float(np.max(prediction.jitter)) if prediction.jitter.size else 0.0,
        "n_jittered": int(np.count_nonzero(prediction.jitter)),
        "n_clamped": int(prediction.n_clamped),
        "n_failed": len(prediction.failed),
        "failed_frequencies": [int(k) for k in prediction.failed],
    }
    return KrigingOutput(
        target=tgt,
        frequencies=spectral.frequencies,
        predicted_dft=prediction.predicted,
        mse=prediction.mse,
        reconstructed=reconstructed,
        site_mean=site_mean,
        n=panel.n,
        jitter_report=report,
    )


@dataclass
class ForecastOutput:
    """Autoregressive forecast of a single series.

    Attributes
    ----------
    ar_order : int
        Selected order p.
    ar_coefficients : numpy.ndarray
        Fitted coefficients, length p.
    innovation_variance : float
        Fitted innovation variance.
    forecasts : numpy.ndarray
        Point forecasts for horizons 1, ..., V.
    forecast_mse : numpy.ndarray
        Mean squared error of each forecast.
    """

    ar_order: int
    ar_coefficients: np.ndarray
    innovation_variance: float
    forecasts: np.ndarray
    forecast_mse: np.ndarray

    def to_dict(self) -> dict:
        return {
            "ar_order": int(self.ar_order),
            "ar_coefficients": [float(v) for v in self.ar_coefficients],
            "innovation_variance": float(self.innovation_variance),
            "forecasts": [float(v) for v in self.forecasts],
            "forecast_mse": [float(v) for v in self.forecast_mse],
        }


def _ar_transfer(coeffs: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """|1 - sum_j phi_j exp(-i j w)|^2 on the grid; row j - 1 of phases
    holds exp(-i j w)."""
    acc = np.ones(phases.shape[1], dtype=complex)
    for phi, phase in zip(coeffs, phases):
        acc = acc - phi * phase
    return (acc * np.conj(acc)).real


def _ar_whittle_value(coeffs: np.ndarray, pgram: np.ndarray, phases: np.ndarray,
                      n: int) -> tuple[float, float]:
    """Concentrated spectral likelihood of an AR(p) and the implied
    innovation variance.

    The objective is the grid approximation of the integral criterion
    int [ln g(w) + I(w) / g(w)] dw with g(w) = s2 / (2 pi A(w)); profiling
    out s2 leaves only the transfer function A.
    """
    a = _ar_transfer(coeffs, phases)
    if np.any(a <= 0) or not np.all(np.isfinite(a)):
        return np.inf, np.nan
    m = pgram.size
    mean_ia = float(np.mean(pgram * a))
    if not (mean_ia > 0 and np.isfinite(mean_ia)):
        return np.inf, np.nan
    value = (2.0 * _TWO_PI / n) * (m * np.log(mean_ia) - float(np.log(a).sum()) + m)
    s2 = _TWO_PI * mean_ia
    return value, s2


def _yule_walker_start(x: np.ndarray, p: int) -> np.ndarray:
    n = x.size
    r = np.array([float(np.dot(x[: n - k], x[k:])) / n for k in range(p + 1)])
    if r[0] <= 0:
        return np.zeros(p)
    try:
        phi = _slinalg.solve_toeplitz(r[:p], r[1 : p + 1])
    except np.linalg.LinAlgError:
        return np.zeros(p)
    if not np.all(np.isfinite(phi)):
        return np.zeros(p)
    return np.asarray(phi, dtype=float)


def _enforce_stationarity(coeffs: np.ndarray) -> tuple[np.ndarray, bool]:
    """Reflect characteristic roots inside the unit circle to their
    reciprocals; returns the repaired coefficients and whether anything
    changed."""
    p = coeffs.size
    if p == 0:
        return coeffs, False
    poly_coeffs = np.concatenate([-coeffs[::-1], [1.0]])
    roots = np.roots(poly_coeffs)
    bad = np.abs(roots) < 1.0
    on_circle = np.isclose(np.abs(roots), 1.0, atol=1e-10)
    if not bad.any() and not on_circle.any():
        return coeffs, False
    fixed = roots.copy()
    fixed[bad] = 1.0 / np.conj(fixed[bad])
    circle = np.isclose(np.abs(fixed), 1.0, atol=1e-10)
    fixed[circle] = fixed[circle] * (1.0 + 1e-6)
    monic = np.poly(fixed)
    normalized = monic / monic[-1]
    repaired = -normalized[:-1][::-1].real
    return repaired, True


def forecast(series, horizons: int, max_order: int = 8,
             optimizer: OptimizerConfig | None = None) -> ForecastOutput:
    """Forecast a reconstructed series with a spectrally fitted AR model.

    Orders p = 0, ..., max_order are fitted by minimizing the grid
    approximation of the integral spectral likelihood, and the order is
    chosen by AIC = 2 * criterion + 2 p. Forecasts come from the AR recursion
    on the mean-centered series; their mean squared errors accumulate the
    moving-average weights of the fitted model.

    Parameters
    ----------
    series : array_like
        Observed or reconstructed series, length at least 4 * max_order.
    horizons : int
        Number of steps ahead; zero yields empty arrays.
    max_order : int
        Largest autoregressive order tried.
    optimizer : OptimizerConfig, optional
        Settings for the coefficient search.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValueError("series must be one dimensional, got shape %s" % (x.shape,))
    if horizons < 0:
        raise ValueError("horizons must be nonnegative, got %r" % horizons)
    if max_order < 0:
        raise ValueError("max_order must be nonnegative, got %r" % max_order)
    if x.size < max(4 * max_order, 3):
        raise ValueError(
            "series of length %d is too short for max_order=%d; need at least %d points"
            % (x.size, max_order, max(4 * max_order, 3))
        )
    if optimizer is None:
        optimizer = OptimizerConfig(max_iterations=2000, tolerance_f=1e-10,
                                    tolerance_x=1e-8, initial_step=0.05)

    n = x.size
    mu = float(x.mean())
    centered = x - mu
    ordinates = dft_forward(centered)
    m_int = (n - 1) // 2
    pgram = (np.abs(ordinates[1 : m_int + 1]) ** 2).astype(float)
    # exp(-i j w) for lags j = 1..max_order, once for every order and evaluation
    phases = np.exp(-1j * np.arange(1, max_order + 1)[:, None] * fourier_frequencies(n))

    if np.all(pgram == 0.0):
        # constant series: nothing to model, forecast the level exactly
        return ForecastOutput(
            ar_order=0,
            ar_coefficients=np.empty(0),
            innovation_variance=0.0,
            forecasts=np.full(horizons, mu),
            forecast_mse=np.zeros(horizons),
        )

    best = None
    for p in range(max_order + 1):
        if p == 0:
            value, s2 = _ar_whittle_value(np.empty(0), pgram, phases, n)
            candidate = (np.empty(0), s2, value)
        else:
            start = _yule_walker_start(centered, p)
            start, _ = _enforce_stationarity(start)

            def objective(phi):
                return _ar_whittle_value(phi, pgram, phases, n)[0]

            if not np.isfinite(objective(start)):
                start = np.zeros(p)
            result = nelder_mead(objective, start, optimizer)
            coeffs, changed = _enforce_stationarity(result.x)
            if changed:
                warnings.warn(
                    "order-%d fit was nonstationary; characteristic roots were "
                    "reflected outside the unit circle" % p
                )
            value, s2 = _ar_whittle_value(coeffs, pgram, phases, n)
            candidate = (coeffs, s2, value)
        aic = 2.0 * candidate[2] + 2.0 * p
        if best is None or aic < best[0]:
            best = (aic, p, candidate)

    _, order, (coeffs, s2, _) = best

    fc = np.empty(horizons)
    extended = list(centered)
    for _ in range(horizons):
        upcoming = 0.0
        for j, phi in enumerate(coeffs, start=1):
            upcoming += phi * extended[-j]
        extended.append(upcoming)
        fc[len(extended) - n - 1] = upcoming + mu

    psi = np.ones(max(horizons, 1))
    for j in range(1, horizons):
        acc = 0.0
        for i in range(1, min(j, order) + 1):
            acc += coeffs[i - 1] * psi[j - i]
        psi[j] = acc
    mse = s2 * np.cumsum(psi[:horizons] ** 2) if horizons else np.empty(0)

    return ForecastOutput(
        ar_order=order,
        ar_coefficients=np.asarray(coeffs, dtype=float),
        innovation_variance=float(s2),
        forecasts=fc,
        forecast_mse=np.asarray(mse, dtype=float),
    )
