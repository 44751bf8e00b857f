"""Kriging of a full time series at an unobserved location, plus
autoregressive forecasting of the reconstructed series.

Prediction happens frequency by frequency: at each interior ordinate the
Fourier vector of the observed sites has a Hermitian covariance matrix built
from the model, and the best linear predictor of the target ordinate is the
usual kriging weight vector applied to the observed ordinates. The predicted
ordinates, with zero at frequency 0 and at the folding frequency, are then
inverted back to the time domain by one real inverse transform.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy import linalg as _slinalg

from .covmodel import (ModelParams, _check_dimension, _covariance_walk, _mirrored,
                       _site_pair_distances)
from .io import json_data
from .numerics import (SingularMatrixError, _count, _hpd_solve, _synthesize_half, dft_forward,
                       hpd_solve)
from .spectral import SpectralPanel, TimeSeriesPanel, dft_panel, fourier_frequencies

_TWO_PI = 2.0 * np.pi
_AR_NEWTON_STEPS = 50


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
    if not np.isfinite(omega):
        raise ValueError("omega contains non-finite values")
    distances, lower = _site_distances(locations, target, params)
    _, f, g0, zero = next(_covariance_walk(distances, lower, np.array([omega], dtype=float),
                                           params))
    return _mirrored(f, lower), g0, float(_target_variance(zero, params, include_target_noise))


def _site_distances(locations, target, params: ModelParams):
    """The site-pair distances under the strict lower triangle mask, followed
    by the target-to-site distances, and the mask, after the checks (the
    sites' dimension among them, against the model's)."""
    loc = np.atleast_2d(np.asarray(locations, dtype=float))
    tgt = np.asarray(target, dtype=float).reshape(-1)
    if tgt.size != loc.shape[1]:
        raise ValueError(
            "target has dimension %d but sites have dimension %d" % (tgt.size, loc.shape[1])
        )
    _check_dimension(loc.shape[1], params)
    pairs, lower = _site_pair_distances(loc)
    # a target near the top of the double range overflows the norms; that
    # is reported below, without a numpy warning first
    with np.errstate(over="ignore", invalid="ignore"):
        h0 = np.linalg.norm(loc - tgt[None, :], axis=-1)
    if not np.isfinite(h0).all():
        raise ValueError("target-to-site distances must be finite, got %r"
                         % float(h0[~np.isfinite(h0)][0]))
    return np.concatenate((pairs, h0)), lower


def _target_variance(zero, params: ModelParams, include_target_noise: bool):
    """The target variance c0 from C(0, w)."""
    return zero + params.nugget / _TWO_PI if include_target_noise else zero


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
    prediction = _empty_prediction(m_freq)
    n_systems = 0
    for k, (f, g0, c0) in enumerate(systems):
        n_systems += 1
        if k < m_freq:
            _predict_frequency(prediction, k, hpd_solve, f, g0, c0, spectral.dft[:, k])
    if n_systems != m_freq:
        raise ValueError("got %d systems for %d frequencies" % (n_systems, m_freq))
    return prediction


def _empty_prediction(m_freq: int) -> DftPrediction:
    """A DftPrediction of m_freq frequencies for _predict_frequency to fill."""
    return DftPrediction(predicted=np.full(m_freq, np.nan, dtype=complex),
                         mse=np.full(m_freq, np.nan), jitter=np.zeros(m_freq),
                         n_clamped=0, failed=())


def _predict_frequency(prediction: DftPrediction, k: int, solve, f, g0, c0, ordinates):
    """Frequency k of prediction from its system (F, g0, c0) and the sites'
    ordinates: the weights w = solve(F, g0), the predicted ordinate w . J,
    the prediction variance c0 - w . g0 clamped at zero, and the jitter
    used; or k marked failed when solve raises SingularMatrixError."""
    try:
        sol = solve(f, g0)
    except SingularMatrixError:
        prediction.failed += (k,)
        return
    w = sol.x
    prediction.predicted[k] = w @ ordinates
    raw = float(c0 - w @ g0)
    if raw < 0.0:
        prediction.n_clamped += 1
        raw = 0.0
    prediction.mse[k] = raw
    prediction.jitter[k] = sol.jitter


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
    ordinate at the folding frequency. These and the interior ordinates are
    the half grid k = 0, ..., floor(n / 2) that a real series is
    synthesized from. n is a whole number, at least 2, as for dft_inverse.
    """
    pred = np.asarray(predicted_dft, dtype=complex)
    n = _count(n, "series length n", 2)
    m_int = (n - 1) // 2
    if pred.ndim != 1 or pred.size != m_int:
        raise ValueError(
            "expected %d interior ordinates for n=%d, got shape %s" % (m_int, n, pred.shape)
        )
    if not np.all(np.isfinite(pred)):
        raise ValueError("predicted ordinates contain non-finite values")
    half = np.zeros(n // 2 + 1, dtype=complex)
    half[1 : m_int + 1] = pred
    return _synthesize_half(half, n) + float(site_mean)


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
                 include_target_noise: bool = False,
                 threads: int | None = 1) -> KrigingOutput:
    """Predict the full series at an unobserved location.

    Solves one kriging system per interior frequency from the ordinates of
    the centred site series (dft_panel), then inverts the predicted
    ordinates and adds an inverse-distance estimate of the local mean. The
    systems come one frequency at a time from one covariance walk
    (covmodel._covariance_walk), and each is factored and solved with the
    jitter ladder, without hpd_solve's checks on a matrix the package
    built. Frequencies whose system cannot be solved contribute zero to the
    reconstruction and are listed in the jitter report. A C(0, w) that is
    not a positive normal double raises FloatingPointError.

    Parameters
    ----------
    threads : int or None
        Accepted and checked to be at least 1; the systems are solved on
        the calling thread, so the output is the same for any count.
    """
    if threads is not None:
        _count(threads, "threads", 1)
    spectral = dft_panel(panel)
    tgt = np.asarray(target, dtype=float).reshape(-1)
    distances, lower = _site_distances(panel.locations, tgt, params)
    freqs = spectral.frequencies
    prediction = _empty_prediction(freqs.size)
    for k, f, g0, zero in _covariance_walk(distances, lower, freqs, params):
        c0 = _target_variance(zero, params, include_target_noise)
        _predict_frequency(prediction, k, _hpd_solve, f, g0, c0, spectral.dft[:, k])
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
        return json_data(self)


def _ar_transfer(coeffs: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """|1 - sum_j phi_j exp(-i j w)|^2 on the grid; row j - 1 of phases
    holds exp(-i j w)."""
    acc = 1.0 - coeffs @ phases[: coeffs.size]
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


def _ar_fit(p: int, pgram: np.ndarray, phases: np.ndarray, n: int) -> np.ndarray:
    """AR(p) coefficients at the minimum of _ar_whittle_value: from the minimizer of
    mean(I A) = t' R t, t = (1, -phi), R Toeplitz in r_j = mean(I cos j w) (or from
    phi = 0), Newton steps on F = m log mean(I A) - sum log A while they shrink, each
    halved until F falls by its exact change, which the rounding of F hides."""
    m, lags = pgram.size, phases[:p]
    r = np.append(pgram.mean(), lags.real @ pgram / m)
    try:
        phi = _slinalg.solve_toeplitz(r[:p], r[1:])
    except np.linalg.LinAlgError:
        phi = np.zeros(p)
    phi = phi if np.isfinite(_ar_whittle_value(phi, pgram, phases, n)[0]) else np.zeros(p)
    previous = np.inf
    with np.errstate(all="ignore"):  # steps that overflow or take A to 0 compare false
        for _ in range(_AR_NEWTON_STEPS):
            a = 1.0 - phi @ lags
            # dA/dphi_j = -2 Re(conj(a) e^{-ijw}); d2A/dphi_i dphi_j = 2 Re(e^{-iiw} e^{ijw})
            big_a, d_a = (a * np.conj(a)).real, -2.0 * (np.conj(a) * lags).real
            q = np.mean(pgram * big_a)
            w, g_q, g_log = pgram / q - 1.0 / big_a, d_a @ pgram / q, d_a / big_a
            hess = 2.0 * (lags * w @ lags.conj().T).real - np.outer(g_q, g_q) / m + g_log @ g_log.T
            if not np.isfinite(hess).all():
                break
            curv, basis = np.linalg.eigh(hess)  # negative curvature is turned downhill
            step = basis @ ((basis.T @ (d_a @ w)) / np.abs(curv))
            if not np.linalg.norm(step) < previous:
                break
            previous = np.linalg.norm(step)
            while True:
                shift = step @ lags
                delta = 2.0 * (np.conj(a) * shift).real + (shift * np.conj(shift)).real
                if np.array_equal(big_a + delta, big_a):
                    return phi
                if m * np.log1p(np.mean(pgram * delta) / q) < np.log1p(delta / big_a).sum():
                    break
                step = step / 2.0
            phi = phi - step
    return phi


def _enforce_stationarity(coeffs: np.ndarray) -> tuple[np.ndarray, bool]:
    """Reflect characteristic roots inside the unit circle to their
    reciprocals; returns the repaired coefficients and whether anything
    changed.

    Trailing coefficients at most eps times the largest (or 1) are left out
    of the characteristic polynomial: each only adds roots far outside the
    unit circle, and np.roots would overflow dividing by it. A repair sets
    them to 0.
    """
    negligible = np.finfo(float).eps * max(1.0, np.abs(coeffs).max(initial=0.0))
    p = coeffs.size
    while p and abs(coeffs[p - 1]) <= negligible:
        p -= 1
    if p == 0:
        return coeffs, False
    poly_coeffs = np.concatenate([-coeffs[p - 1::-1], [1.0]])
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
    return np.concatenate([repaired, np.zeros(coeffs.size - p)]), True


def _ar_paths(centered: np.ndarray, coeffs: np.ndarray, horizons: int) -> np.ndarray:
    """The AR recursion v_k = sum_j coeffs[j - 1] v_{k - j} over the horizons
    from the end of the centred series (the point forecasts) and from a unit
    impulse (the psi weights), into rows allocated before either runs."""
    p = coeffs.size
    paths = np.zeros((2, p + horizons))
    paths[0, :p] = centered[centered.size - p:]
    paths[1, p:p + 1] = 1.0
    phis = coeffs.tolist()
    for path, start in zip(paths, (p, p + 1)):
        recent = deque(path[start - p:start].tolist(), maxlen=p)
        for k in range(start, path.size):
            value = 0.0
            for phi, past in zip(phis, reversed(recent)):
                value += phi * past
            recent.append(value)
            path[k] = value
    return paths[:, p:]


def forecast(series, horizons: int, max_order: int = 8) -> ForecastOutput:
    """Forecast a reconstructed series with a spectrally fitted AR model.

    Each order p = 0, ..., max_order is solved exactly for the minimum of the
    grid approximation of the integral spectral likelihood, and the order is
    chosen by BIC on that likelihood's scale, (n / 2 pi) * criterion + p ln n
    (the criterion is 2 pi / n times -2 log-likelihood). Forecasts come from
    the AR recursion on the mean-centered series; their mean squared errors
    accumulate the squares of the psi weights, that recursion's response to
    a unit impulse.

    Parameters
    ----------
    series : array_like
        Observed or reconstructed series, length at least 4 * max_order.
    horizons : int
        Number of steps ahead; zero yields empty arrays.
    max_order : int
        Largest autoregressive order tried.
    """
    horizons, max_order = _count(horizons, "horizons", 0), _count(max_order, "max_order", 0)
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValueError("series must be one dimensional, got shape %s" % (x.shape,))
    if not np.isfinite(x).all():
        raise ValueError("series contains non-finite values")
    if x.size < max(4 * max_order, 3):
        raise ValueError(
            "series of length %d is too short for max_order=%d; need at least %d points"
            % (x.size, max_order, max(4 * max_order, 3))
        )

    n = x.size
    m_int = (n - 1) // 2
    # values near the top of the double range overflow the centring or the
    # periodogram; that is reported here, without a numpy warning first
    with np.errstate(over="ignore", invalid="ignore"):
        mu = float(x.mean())
        centered = x - mu
        if not np.isfinite(centered).all():
            raise ValueError("centring the series overflows the double range")
        pgram = np.abs(dft_forward(centered)[1 : m_int + 1]) ** 2
    if not np.isfinite(pgram).all():
        raise ValueError("the periodogram of the series overflows the double range")
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
        coeffs, changed = _enforce_stationarity(_ar_fit(p, pgram, phases, n))
        if changed:
            warnings.warn(
                "order-%d fit was nonstationary; characteristic roots were "
                "reflected outside the unit circle" % p
            )
        value, s2 = _ar_whittle_value(coeffs, pgram, phases, n)
        bic = n / _TWO_PI * value + p * np.log(n)
        if best is None or bic < best[0]:
            best = (bic, p, coeffs, s2)

    _, order, coeffs, s2 = best

    paths = _ar_paths(centered, coeffs, horizons)
    return ForecastOutput(
        ar_order=order,
        ar_coefficients=np.asarray(coeffs, dtype=float),
        innovation_variance=float(s2),
        forecasts=paths[0] + mu,
        forecast_mse=s2 * np.cumsum(paths[1] ** 2),
    )
