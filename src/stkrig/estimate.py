"""Frequency-variogram estimation of the covariance model.

Site pairs are grouped into distance bins. For a bin at distance h the
difference periodogram of each member pair is matched against the model
frequency variogram g_h(w) with the Whittle-type criterion

    Q(theta) = (1 / L) * sum_bins (1 / |bin|) * sum_pairs sum_k
               [ ln g_h(w_k; theta) + I_ij(w_k) / g_h(w_k; theta) ]

minimized over an unconstrained reparameterization of theta. Every quantity
the criterion needs from the data is the per-bin mean difference
periodogram, which is precomputed once per fit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order

from .covmodel import (
    ModelParams,
    natural_names,
    pack_params,
    unpack_params,
    variogram_model,
)
from .numerics import OptimizerConfig, nelder_mead
from .spectral import SpectralPanel, TimeSeriesPanel, dft_panel

_TWO_PI = 2.0 * np.pi
_VARIOGRAM_FLOOR = 1e-300


class EvaluationError(ArithmeticError):
    """Criterion could not be evaluated at the requested parameters."""


class EstimationError(RuntimeError):
    """No restart of the optimizer produced a usable fit."""


class SingularHessianError(RuntimeError):
    """Criterion Hessian at the fit is numerically singular.

    Attributes
    ----------
    eigenvalues : numpy.ndarray
        Eigenvalues of the finite-difference Hessian, for diagnosis.
    """

    def __init__(self, message: str, eigenvalues: np.ndarray):
        super().__init__(message)
        self.eigenvalues = eigenvalues


@dataclass(frozen=True, eq=False)
class DistanceBins:
    """Site pairs grouped by spatial distance, as three read-only arrays:
    representatives (L,), the finite positive bin distances; pairs (P, 2),
    site indices (i, j) grouped bin by bin, nonnegative, i != j and none
    twice in either order; counts (L,), the number of pairs in each bin, at
    least 1.
    """

    representatives: np.ndarray
    pairs: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        reps = np.array(self.representatives, dtype=float)
        pairs, counts = np.array(self.pairs), np.array(self.counts)
        integral = (np.issubdtype(pairs.dtype, np.integer)
                    and np.issubdtype(counts.dtype, np.integer))
        if not (integral and reps.ndim == 1 and reps.size and counts.shape == reps.shape
                and pairs.shape == (counts.sum(), 2)):
            raise ValueError("need L >= 1 distances, L integer pair counts and sum(counts) "
                             "integer pairs; got shapes %s, %s and %s of %s"
                             % (reps.shape, counts.shape, pairs.shape, pairs.dtype))
        positive = np.isfinite(reps) & (reps > 0)
        if not np.all(positive):
            raise ValueError("bin distance must be positive, got %r" % float(reps[~positive][0]))
        if np.any(counts < 1):
            raise ValueError("a distance bin cannot be empty")
        _check_pairs(pairs, np.any(pairs < 0, axis=1), "has a negative site index")
        _check_pairs(pairs, pairs[:, 0] == pairs[:, 1], "joins a site to itself")
        # (i, j) and (j, i) are one site pair
        unordered = np.sort(pairs, axis=1)
        order = np.lexsort((unordered[:, 1], unordered[:, 0]))
        twice = np.zeros(len(pairs), dtype=bool)
        twice[order[1:]] = np.all(unordered[order[1:]] == unordered[order[:-1]], axis=1)
        _check_pairs(pairs, twice, "appears twice")
        for name, value in (("representatives", reps), ("pairs", pairs), ("counts", counts)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return self.counts.size

    def distances(self) -> np.ndarray:
        return self.representatives.copy()

    def pair_counts(self) -> np.ndarray:
        return self.counts.copy()

    def summary(self) -> dict:
        return {
            "n_bins": len(self),
            "distances": self.representatives.tolist(),
            "pair_counts": self.counts.tolist(),
        }


def _check_pairs(pairs: np.ndarray, bad: np.ndarray, what: str):
    """Raise ValueError naming the first pair flagged in bad."""
    if np.any(bad):
        raise ValueError("pair %r %s" % (tuple(pairs[np.argmax(bad)].tolist()), what))


def build_distance_bins(locations, mode: str = "exact", n_bins: int | None = None,
                        tolerance: float | None = None) -> DistanceBins:
    """Group all site pairs by spatial separation.

    Parameters
    ----------
    locations : array_like
        Site coordinates, shape (m, d) with m >= 2.
    mode : str
        "exact" merges only distances equal up to the tolerance, so gridded
        designs get one bin per multiplicity class. "quantile" partitions the
        sorted pair distances into n_bins groups of near-equal pair count.
    n_bins : int, optional
        Number of groups for quantile mode.
    tolerance : float, optional
        Merge tolerance for exact mode, nonnegative. Defaults to 1e-9 times
        the largest pair distance.

    Returns
    -------
    DistanceBins
        Bins ordered by increasing representative distance; the
        representative is the mean of the member distances. Ties at equal
        distance from two representatives go to the smaller one.
    """
    loc = np.atleast_2d(np.asarray(locations, dtype=float))
    m = loc.shape[0]
    if m < 2:
        raise ValueError("need at least two sites to form pairs, got %d" % m)
    rows, cols = np.triu_indices(m, 1)
    diff = loc[rows] - loc[cols]
    # np.linalg.norm of one pair is sqrt(dot); a stacked matmul takes the same
    # dot product (a sum of squares rounds differently), so each distance is
    # that pair's norm to the bit
    dists = np.sqrt(np.matmul(diff[:, None, :], diff[:, :, None]).reshape(-1))
    if np.any(dists == 0.0):
        k = int(np.argmin(dists))
        raise ValueError("sites %d and %d are coincident" % (rows[k], cols[k]))
    order = np.argsort(dists, kind="stable")
    ranked = dists[order]

    if mode == "exact":
        tol = float(tolerance) if tolerance is not None else 1e-9 * float(dists.max())
        if not tol >= 0.0:
            raise ValueError("tolerance must be nonnegative, got %r" % tolerance)
        reps = _segment_means(ranked, _tolerance_groups(ranked, tol))
        # each pair joins the nearest representative; side="left" sends a
        # pair exactly at a midpoint to the smaller distance
        nearest = np.searchsorted(0.5 * (reps[:-1] + reps[1:]), ranked, side="left")
        starts = np.flatnonzero(np.diff(nearest, prepend=-1))
    elif mode == "quantile":
        if n_bins is None or n_bins < 1:
            raise ValueError("quantile mode needs n_bins >= 1, got %r" % n_bins)
        sizes = [c.size for c in np.array_split(order, n_bins) if c.size > 0]
        starts = np.cumsum([0] + sizes[:-1])
    else:
        raise ValueError("mode must be 'exact' or 'quantile', got %r" % mode)
    reps = _segment_means(ranked, starts)
    counts = np.diff(np.append(starts, ranked.size))
    # bins by distance, stably: np.mean can round a run of ties (quantile
    # mode) above the mean of the next bin; the pairs move with their bin
    by_distance = np.argsort(reps, kind="stable")
    picked = order[np.argsort(np.repeat(np.argsort(by_distance), counts), kind="stable")]
    pairs = np.stack([rows[picked], cols[picked]], axis=1)
    return DistanceBins(reps[by_distance], pairs, counts[by_distance])


def _tolerance_groups(ranked: np.ndarray, tol: float) -> np.ndarray:
    """Starts of the greedy groups of sorted values: each group takes every
    value v with v - first <= tol, first being the value that opened it.
    """
    n = ranked.size
    k = np.arange(n)
    # nxt[k]: the first index a group opened at k does not take, bisected on
    # the test v - first <= tol itself (ranked + tol rounds differently)
    nxt, hi = k + 1, np.full(n, n)
    while np.any(nxt < hi):
        mid = (nxt + hi) // 2
        taken = ranked[np.minimum(mid, n - 1)] - ranked <= tol
        nxt, hi = np.where(taken & (nxt < hi), mid + 1, nxt), np.where(taken, hi, mid)
    # the groups open at the indices reachable from 0 along k -> nxt[k]
    path = csr_matrix((np.ones(n), (k, nxt)), shape=(n + 1, n + 1))
    starts = breadth_first_order(path, 0, return_predecessors=False)
    return starts[starts < n]


def _segment_means(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Mean of each run values[starts[k]:starts[k + 1]].

    np.mean sums pairwise, so longer runs go through it (np.add.reduceat
    sums in another order); a run of one is its value.
    """
    ends = np.append(starts[1:], values.size)
    means = values[starts]
    for k in np.flatnonzero(ends - starts > 1):
        means[k] = values[starts[k]:ends[k]].mean()
    return means


def _binned_difference_periodograms(spectral: SpectralPanel, bins: DistanceBins,
                                    n_frequencies: int) -> np.ndarray:
    """Mean difference periodogram |J_i - J_j|^2 of each bin, (L, M).

    np.add.at adds the pairs' rows into their bins one at a time, in bin
    order, so each sum rounds as a loop over the bin's pairs does
    (np.add.reduceat does not), in chunks of about 2^18 values.
    """
    owner = np.repeat(np.arange(len(bins)), bins.counts)
    acc = np.zeros((len(bins), n_frequencies))
    dft = spectral.dft[:, :n_frequencies]
    step = max(1, (1 << 18) // n_frequencies)
    for lo in range(0, owner.size, step):
        i, j = bins.pairs[lo:lo + step].T
        diff = dft[i] - dft[j]
        np.add.at(acc, owner[lo:lo + step], (diff * np.conj(diff)).real)
    acc /= bins.counts[:, None]
    return acc


class _Prepared(NamedTuple):
    """Everything the criterion reads from the data."""

    binned: np.ndarray
    distances: np.ndarray
    frequencies: np.ndarray


def _prepare(spectral: SpectralPanel, bins: DistanceBins,
             n_frequencies: int | None) -> _Prepared:
    """Check the frequency count and the pair range, and bin the difference
    periodograms."""
    m_total = spectral.n_frequencies
    m_use = m_total if n_frequencies is None else int(n_frequencies)
    if not 1 <= m_use <= m_total:
        raise ValueError(
            "n_frequencies must lie in [1, %d], got %r" % (m_total, n_frequencies)
        )
    _check_pairs(bins.pairs, np.any(bins.pairs >= spectral.m, axis=1),
                 "is out of range for %d sites" % spectral.m)
    binned = _binned_difference_periodograms(spectral, bins, m_use)
    return _Prepared(binned, bins.distances(), spectral.frequencies[:m_use])


def _criterion_terms(binned: np.ndarray, distances: np.ndarray, frequencies: np.ndarray,
                     params: ModelParams) -> np.ndarray:
    """Per (bin, frequency) criterion terms; shape matches binned."""
    g = np.asarray(variogram_model(distances[:, None], frequencies[None, :], params))
    g = np.maximum(g, _VARIOGRAM_FLOOR)
    terms = np.log(g) + binned / g
    if not np.all(np.isfinite(terms)):
        raise EvaluationError(
            "criterion is not finite at sigma_e2=%r, nu=%r, c_coeffs=%r, nugget=%r"
            % (params.sigma_e2, params.nu, params.c_coeffs, params.nugget)
        )
    return terms


def whittle_criterion(spectral: SpectralPanel, bins: DistanceBins, params: ModelParams,
                      n_frequencies: int | None = None) -> float:
    """Evaluate the estimation criterion at the given parameters.

    Parameters
    ----------
    spectral : SpectralPanel
        Fourier ordinates of the observed panel.
    bins : DistanceBins
        Pair grouping; pair indices refer to the panel's site order.
    params : ModelParams
        Point at which to evaluate.
    n_frequencies : int, optional
        Use only the first n_frequencies interior ordinates. Defaults to the
        full grid.
    """
    terms = _criterion_terms(*_prepare(spectral, bins, n_frequencies), params)
    return float(terms.sum(axis=1).mean())


@dataclass(frozen=True)
class FitConfig:
    """Settings for fitting the covariance model to a panel.

    Parameters
    ----------
    n_coeffs : int
        Number of cosine terms p in the inverse-range expansion; p = 0 forces
        a frequency-flat range.
    nu_fixed : float or None
        Hold the smoothness at this value instead of estimating it.
    fit_nugget : bool
        Estimate a measurement-error variance alongside the field parameters.
    n_frequencies : int or None
        Truncate the frequency grid; None uses every interior ordinate.
    bins_mode : str
        "exact" or "quantile", passed to build_distance_bins.
    n_bins : int or None
        Bin count for quantile mode.
    bin_tolerance : float or None
        Merge tolerance for exact mode.
    remove_mean : bool
        Subtract site means before the transform.
    multistart : int
        Number of optimizer restarts from randomized starting points.
    seed : int
        Seed for the restart draws; fits are reproducible given the seed.
    optimizer : OptimizerConfig
        Simplex settings shared by all restarts.
    compute_covariance : bool
        Attach the asymptotic covariance of the estimates to the result.
        Failures there degrade to a warning rather than failing the fit.
    """

    n_coeffs: int = 1
    nu_fixed: float | None = None
    fit_nugget: bool = False
    n_frequencies: int | None = None
    bins_mode: str = "exact"
    n_bins: int | None = None
    bin_tolerance: float | None = None
    remove_mean: bool = True
    multistart: int = 5
    seed: int = 0
    optimizer: OptimizerConfig = field(
        default_factory=lambda: OptimizerConfig(
            max_iterations=4000, tolerance_f=1e-9, tolerance_x=1e-6, initial_step=0.25
        )
    )
    compute_covariance: bool = True

    def __post_init__(self):
        if self.n_coeffs < 0:
            raise ValueError("n_coeffs must be nonnegative, got %d" % self.n_coeffs)
        if self.multistart < 1:
            raise ValueError("multistart must be at least 1, got %d" % self.multistart)
        if self.nu_fixed is not None and not np.isfinite(self.nu_fixed):
            raise ValueError("nu_fixed must be finite, got %r" % self.nu_fixed)

    def to_dict(self) -> dict:
        return {
            "n_coeffs": self.n_coeffs,
            "nu_fixed": None if self.nu_fixed is None else float(self.nu_fixed),
            "fit_nugget": self.fit_nugget,
            "n_frequencies": self.n_frequencies,
            "bins_mode": self.bins_mode,
            "n_bins": self.n_bins,
            "bin_tolerance": self.bin_tolerance,
            "remove_mean": self.remove_mean,
            "multistart": self.multistart,
            "seed": self.seed,
            "optimizer": {
                "max_iterations": self.optimizer.max_iterations,
                "tolerance_f": self.optimizer.tolerance_f,
                "tolerance_x": self.optimizer.tolerance_x,
                "initial_step": self.optimizer.initial_step,
            },
            "compute_covariance": self.compute_covariance,
        }


@dataclass
class FitResult:
    """Outcome of a model fit.

    Attributes
    ----------
    params : ModelParams
        Estimated parameters.
    criterion : float
        Criterion value at the estimate.
    covariance : numpy.ndarray or None
        Asymptotic covariance of the natural-scale estimates, ordered as in
        param_names, or None when unavailable.
    param_names : list of str
        Names of the estimated coordinates.
    converged : bool
        Whether the winning restart met the optimizer tolerances.
    n_frequencies : int
        Number of interior ordinates used.
    bins : dict
        Distance-bin summary (distances and pair counts).
    n_restarts : int
        Restarts attempted.
    """

    params: ModelParams
    criterion: float
    covariance: np.ndarray | None
    param_names: list
    converged: bool
    n_frequencies: int
    bins: dict
    n_restarts: int

    def to_dict(self) -> dict:
        return {
            "params": self.params.to_dict(),
            "criterion": float(self.criterion),
            "covariance": None if self.covariance is None else
                [[float(v) for v in row] for row in np.asarray(self.covariance)],
            "param_names": list(self.param_names),
            "converged": bool(self.converged),
            "n_frequencies": int(self.n_frequencies),
            "bins": self.bins,
            "n_restarts": int(self.n_restarts),
        }


def fit(panel: TimeSeriesPanel, config: FitConfig = FitConfig()) -> FitResult:
    """Estimate the covariance model from an observed panel.

    Runs the simplex optimizer from several randomized starting points in the
    unconstrained parameterization and keeps the best finisher. The starting
    scale is read off the pooled periodogram mean; cosine coefficients start
    at independent N(0, 0.5^2) draws.

    Raises
    ------
    EstimationError
        If every restart fails to produce a finite criterion value.
    """
    d = panel.d
    p = config.n_coeffs
    nu_fixed = config.nu_fixed
    if nu_fixed is not None and nu_fixed <= d / 4.0:
        raise ValueError("nu_fixed must exceed d/4 = %g, got %r" % (d / 4.0, nu_fixed))

    spectral = dft_panel(panel, remove_mean=config.remove_mean)
    bins = build_distance_bins(
        panel.locations, mode=config.bins_mode, n_bins=config.n_bins,
        tolerance=config.bin_tolerance,
    )
    prepared = _prepare(spectral, bins, config.n_frequencies)
    m_use = prepared.frequencies.size

    def objective(vec: np.ndarray) -> float:
        try:
            params = unpack_params(vec, p, d=d, nu_fixed=nu_fixed,
                                   fit_nugget=config.fit_nugget)
            terms = _criterion_terms(*prepared, params)
        except (EvaluationError, ValueError, OverflowError, FloatingPointError):
            return np.inf
        return float(terms.sum(axis=1).mean())

    pooled = float(np.mean(np.mean(np.abs(spectral.dft[:, :m_use]) ** 2, axis=1)))
    log_scale = np.log(max(pooled, 1e-300))
    rng = np.random.default_rng(config.seed)
    best = None
    for _ in range(config.multistart):
        coeffs = rng.normal(0.0, 0.5, size=p + 1)
        start = [log_scale]
        if nu_fixed is None:
            start.append(0.0)
        start.extend(coeffs)
        if config.fit_nugget:
            start.append(log_scale + np.log(_TWO_PI) - np.log(10.0))
        start_vec = np.asarray(start)
        if not np.isfinite(objective(start_vec)):
            continue
        result = nelder_mead(objective, start_vec, config.optimizer)
        if best is None or result.fun < best.fun:
            best = result
    if best is None or not np.isfinite(best.fun):
        raise EstimationError(
            "all %d restarts failed to reach a finite criterion" % config.multistart
        )

    params_hat = unpack_params(best.x, p, d=d, nu_fixed=nu_fixed,
                               fit_nugget=config.fit_nugget)
    names = natural_names(p, nu_fixed=nu_fixed is not None, fit_nugget=config.fit_nugget)
    cov = None
    if config.compute_covariance:
        try:
            cov = asymptotic_covariance(
                panel, bins, params_hat, n_frequencies=m_use,
                nu_fixed=nu_fixed, fit_nugget=config.fit_nugget,
                remove_mean=config.remove_mean, _prepared=prepared,
            )
        except (SingularHessianError, EvaluationError, np.linalg.LinAlgError) as err:
            warnings.warn("asymptotic covariance unavailable: %s" % err)
    return FitResult(
        params=params_hat,
        criterion=float(best.fun),
        covariance=cov,
        param_names=names,
        converged=bool(best.converged),
        n_frequencies=m_use,
        bins=bins.summary(),
        n_restarts=config.multistart,
    )


def asymptotic_covariance(panel: TimeSeriesPanel, bins: DistanceBins, params_hat: ModelParams,
                          n_frequencies: int | None = None, *, nu_fixed: float | None = None,
                          fit_nugget: bool = False, step: float = 1e-4,
                          remove_mean: bool = True, _prepared=None) -> np.ndarray:
    """Sandwich covariance of the fitted parameters on the natural scale.

    The criterion Hessian is computed by central finite differences in the
    unconstrained coordinates, the middle term aggregates the per-frequency
    score vectors (frequencies are asymptotically uncorrelated, so scores are
    clustered by frequency), and the result is mapped to the natural scale by
    the delta method. Row and column order follows
    covmodel.natural_names(...).

    Raises
    ------
    SingularHessianError
        When the finite-difference Hessian cannot be inverted; the error
        carries its eigenvalues.
    """
    # fit hands over what it already prepared from the same panel and bins
    if _prepared is None:
        _prepared = _prepare(dft_panel(panel, remove_mean=remove_mean), bins, n_frequencies)
    m_use = _prepared.frequencies.size
    p = params_hat.n_coeffs
    d = params_hat.d

    vec0 = pack_params(params_hat, nu_fixed=nu_fixed is not None, fit_nugget=fit_nugget)
    k = vec0.size

    def per_frequency(vec: np.ndarray) -> np.ndarray:
        params = unpack_params(vec, p, d=d, nu_fixed=params_hat.nu if nu_fixed is not None else None,
                               fit_nugget=fit_nugget)
        return _criterion_terms(*_prepared, params).mean(axis=0)

    # scores per frequency: central differences coordinate by coordinate
    steps = step * np.eye(k)
    plus_q = np.empty(k)
    minus_q = np.empty(k)
    scores = np.empty((k, m_use))
    for j in range(k):
        up = per_frequency(vec0 + steps[j])
        down = per_frequency(vec0 - steps[j])
        scores[j] = (up - down) / (2.0 * step)
        plus_q[j] = up.sum()
        minus_q[j] = down.sum()

    centered = scores - scores.mean(axis=1, keepdims=True)
    middle = centered @ centered.T

    q0 = float(per_frequency(vec0).sum())
    hess = np.empty((k, k))
    for j in range(k):
        hess[j, j] = (plus_q[j] - 2.0 * q0 + minus_q[j]) / step**2
        for l in range(j + 1, k):
            ej, el = steps[j], steps[l]
            qpp = float(per_frequency(vec0 + ej + el).sum())
            qpm = float(per_frequency(vec0 + ej - el).sum())
            qmp = float(per_frequency(vec0 - ej + el).sum())
            qmm = float(per_frequency(vec0 - ej - el).sum())
            hess[j, l] = hess[l, j] = (qpp - qpm - qmp + qmm) / (4.0 * step**2)

    eigvals = np.linalg.eigvalsh((hess + hess.T) / 2.0)
    if np.min(np.abs(eigvals)) <= 1e-12 * max(1.0, np.max(np.abs(eigvals))):
        raise SingularHessianError(
            "criterion Hessian is numerically singular; eigenvalues %s" % eigvals,
            eigvals,
        )
    hinv = np.linalg.inv(hess)
    cov_unc = hinv @ middle @ hinv
    cov_unc = (cov_unc + cov_unc.T) / 2.0

    # delta method to the natural scale
    jac = np.ones(k)
    jac[0] = params_hat.sigma_e2
    if nu_fixed is None:
        jac[1] = params_hat.nu - d / 4.0
    if fit_nugget:
        jac[-1] = params_hat.nugget
    cov_nat = cov_unc * np.outer(jac, jac)
    return (cov_nat + cov_nat.T) / 2.0
