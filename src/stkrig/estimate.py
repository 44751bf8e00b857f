"""Frequency-variogram estimation of the covariance model.

Site pairs are grouped into distance bins. For a bin at distance h the
difference periodogram of each member pair is matched against the model
frequency variogram g_h(w) with the Whittle-type criterion

    Q(theta) = (1 / L) * sum_bins (1 / |bin|) * sum_pairs sum_k
               [ ln g_h(w_k; theta) + I_ij(w_k) / g_h(w_k; theta) ]

minimized over an unconstrained reparameterization of theta. g is sigma_e^2
times a function of the other parameters (the nugget taken as a ratio to
sigma_e^2), so the minimizing sigma_e^2 is closed-form and fit searches the
remaining coordinates only. Every quantity the criterion needs from the data
is the per-bin mean difference periodogram, which is precomputed once per
fit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.special import gammaln

from .covmodel import ModelParams, _check_dimension, _variogram
from .io import json_data
from .numerics import _count, _real, _Workspace
from .spectral import SpectralPanel, TimeSeriesPanel, dft_panel

_TWO_PI = 2.0 * np.pi
_VARIOGRAM_FLOOR = 1e-300


class EvaluationError(ArithmeticError):
    """Criterion could not be evaluated at the requested parameters."""


class EstimationError(RuntimeError):
    """No restart of the optimizer produced a usable fit."""


class SingularHessianError(RuntimeError):
    """The expected criterion Hessian at the fit, the sandwich's bread, is
    numerically singular: some coordinates move log g collinearly.

    Attributes
    ----------
    eigenvalues : numpy.ndarray
        Eigenvalues of the expected Hessian, for diagnosis.
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
        Number of groups for quantile mode; a count above the number of
        pairs gives one group per pair.
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
    # np.linalg.norm of one pair is sqrt(dot); a stacked matmul takes the same
    # dot product (a sum of squares rounds differently), so each distance is
    # that pair's norm to the bit. Coordinates near the top of the double
    # range overflow it; that is reported below, without a numpy warning first
    with np.errstate(over="ignore", invalid="ignore"):
        diff = loc[rows] - loc[cols]
        dists = np.sqrt(np.matmul(diff[:, None, :], diff[:, :, None]).reshape(-1))
    if not np.isfinite(dists).all():
        k = int(np.flatnonzero(~np.isfinite(dists))[0])
        raise ValueError("the distance between sites %d and %d is not finite (%r)"
                         % (rows[k], cols[k], float(dists[k])))
    if np.any(dists == 0.0):
        k = int(np.argmin(dists))
        raise ValueError("sites %d and %d are coincident" % (rows[k], cols[k]))
    order = np.argsort(dists, kind="stable")
    ranked = dists[order]

    if mode == "exact":
        tol = (float(_real(tolerance, "tolerance")) if tolerance is not None
               else 1e-9 * float(dists.max()))
        if not tol >= 0.0:
            raise ValueError("tolerance must be nonnegative, got %r" % tolerance)
        reps = _segment_means(ranked, _tolerance_groups(ranked, tol))
        # each pair joins the nearest representative; side="left" sends a
        # pair exactly at a midpoint to the smaller distance
        nearest = np.searchsorted(0.5 * (reps[:-1] + reps[1:]), ranked, side="left")
        starts = np.flatnonzero(np.diff(nearest, prepend=-1))
    elif mode == "quantile":
        if n_bins is None or _count(n_bins, "n_bins") < 1:
            raise ValueError("quantile mode needs n_bins >= 1, got %r" % n_bins)
        # at most one section per pair: array_split makes every further one empty
        sizes = [c.size for c in np.array_split(order, min(int(n_bins), order.size))]
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
    values = ranked.tolist()
    starts, first = [0], values[0]
    for k, value in enumerate(values):
        if not value - first <= tol:
            starts.append(k)
            first = value
    return np.array(starts)


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
    (np.add.reduceat does not), in chunks of about 2^18 values. A chunk's
    differences and their products with their conjugates are written into
    the same two arrays, chunk after chunk. The pairs must be in range.
    """
    owner = np.repeat(np.arange(len(bins)), bins.counts)
    acc = np.zeros((len(bins), n_frequencies))
    dft = spectral.dft[:, :n_frequencies]
    step = max(1, (1 << 18) // n_frequencies)
    chunks = np.empty((2, min(step, owner.size), n_frequencies), dtype=dft.dtype)
    # dft_panel bounds each difference periodogram, but a bin's sum of them
    # can still overflow; that is reported below, without a numpy warning
    with np.errstate(over="ignore"):
        for lo in range(0, owner.size, step):
            i, j = bins.pairs[lo:lo + step].T
            diff, product = chunks[:, :i.size]
            # the pairs are in range, so the gathers need no bounds check
            np.take(dft, i, axis=0, out=diff, mode="clip")
            diff -= np.take(dft, j, axis=0, out=product, mode="clip")
            np.multiply(diff, np.conjugate(diff, out=product), out=product)
            np.add.at(acc, owner[lo:lo + step], product.real)
    if not np.isfinite(acc).all():
        raise ValueError("a bin's sum of difference periodograms overflows the double range")
    acc /= bins.counts[:, None]
    return acc


class _Prepared:
    """Everything the criterion reads from the data, and what one fit's
    evaluations share: the per-bin mean difference periodograms binned
    (L, M), the bin distances and the frequencies; the exponent of the
    power of two above binned's largest value; coords, the _Coordinates of
    the scores, when there are any, and their spread over the frequencies;
    and work, the _Workspace every evaluation writes its (L, M) arrays
    into."""

    def __init__(self, binned: np.ndarray, distances: np.ndarray, frequencies: np.ndarray,
                 coords: _Coordinates | None = None):
        self.binned, self.distances, self.frequencies = binned, distances, frequencies
        self.exponent = int(np.frexp(binned.max())[1])
        self.coords = coords
        self.spread = None if coords is None else coords.spread(frequencies)
        self.work = _Workspace()


def _prepare(spectral: SpectralPanel, bins: DistanceBins, n_frequencies: int | None,
             coords: _Coordinates | None = None) -> _Prepared:
    """Check the frequency count and the pair range, and bin the difference
    periodograms."""
    m_total = spectral.n_frequencies
    m_use = m_total if n_frequencies is None else _count(n_frequencies, "n_frequencies")
    if not 1 <= m_use <= m_total:
        raise ValueError(
            "n_frequencies must lie in [1, %d], got %r" % (m_total, n_frequencies)
        )
    _check_pairs(bins.pairs, np.any(bins.pairs >= spectral.m, axis=1),
                 "is out of range for %d sites" % spectral.m)
    binned = _binned_difference_periodograms(spectral, bins, m_use)
    return _Prepared(binned, bins.representatives, spectral.frequencies[:m_use], coords)


# Termination of each restart's search (see _quasi_newton): after
# _MAX_ITERATIONS iterations of either phase, or once an iteration lowers
# the criterion by at most about _TOLERANCE_F (absolute) or reaches a point
# where no gradient component exceeds _TOLERANCE_X (scipy's gtol), which
# near the minimum bounds the next step. Scoring meeting either tolerance,
# or predicting by its Newton decrement a next decrease within
# _TOLERANCE_F, ends the search; L-BFGS-B runs, under the same three
# tests, only where scoring slows
_MAX_ITERATIONS = 4000
_TOLERANCE_F = 1e-9
_TOLERANCE_X = 1e-6


@dataclass(frozen=True)
class _Coordinates:
    """The unconstrained vector the estimator works in, and the one place
    that knows its layout: [log sigma_e2, log(nu - d/4) unless nu is held at
    nu_fixed, b_0, ..., b_p, log nugget when fit_nugget is set].

    The sandwich works in all of them. fit searches a profiled criterion in
    the coordinates after log sigma_e2, unpacked at sigma_e2 = 1, where the
    last one reads as the log of the ratio nugget / sigma_e2.
    """

    n_coeffs: int
    d: int
    nu_fixed: float | None
    fit_nugget: bool

    def names(self) -> list:
        """The natural parameters' names, in coordinate order."""
        return (["sigma_e2"] + (["nu"] if self.nu_fixed is None else [])
                + ["b%d" % k for k in range(self.n_coeffs + 1)]
                + (["nugget"] if self.fit_nugget else []))

    @cached_property
    def _logged(self) -> np.ndarray:
        """Which coordinates are logs: all but the b_k, which are searched
        as they are. Kept after the first use, as unpack runs at every
        evaluation of the search."""
        return np.array([not name.startswith("b") for name in self.names()])

    def _natural(self, params: ModelParams) -> np.ndarray:
        """The natural parameters in coordinate order, nu less d/4."""
        return np.array([params.sigma_e2]
                        + ([params.nu - params.d / 4.0] if self.nu_fixed is None else [])
                        + list(params.c_coeffs) + ([params.nugget] if self.fit_nugget else []))

    def pack(self, params: ModelParams) -> np.ndarray:
        if self.fit_nugget and params.nugget <= 0:
            raise ValueError("the log nugget is undefined at nugget = 0")
        vec, logged = self._natural(params), self._logged
        vec[logged] = np.log(vec[logged])
        return vec

    def unpack(self, vector) -> ModelParams:
        """The parameters at vector, built without ModelParams' checks of
        the types, as the search's points are. A point outside the model is
        a ValueError: one where a coordinate or an exponential is not finite
        or sigma_e2 underflows, where nu reaches d/4, or where log Gamma(2 nu)
        overflows."""
        natural, logged = np.array(vector, dtype=float), self._logged
        if natural.ndim != 1 or natural.size != logged.size:
            raise ValueError("expected %d unconstrained coordinates, got shape %s"
                             % (logged.size, (natural.shape,)))
        # an exponential that overflows is refused below, without a numpy warning first
        with np.errstate(over="ignore"):
            natural[logged] = np.exp(natural[logged])
        nu_free = self.nu_fixed is None
        nu = self.d / 4.0 + float(natural[1]) if nu_free else float(self.nu_fixed)
        if not (np.isfinite(natural).all() and natural[0] > 0.0 and nu > self.d / 4.0
                and np.isfinite(gammaln(2.0 * nu))):
            raise ValueError("coordinates %r lie outside the model" % (vector,))
        return ModelParams._unchecked(
            sigma_e2=float(natural[0]), nu=nu,
            c_coeffs=tuple(natural[1 + nu_free:2 + nu_free + self.n_coeffs].tolist()),
            nugget=float(natural[-1]) if self.fit_nugget else 0.0, d=self.d,
        )

    def start(self, rng: np.random.Generator) -> np.ndarray:
        """fit's start in the coordinates after log sigma_e2: log(nu - d/4)
        at 0, the b_k independent N(0, 0.5^2) draws, log tau at
        log(2 pi / 10)."""
        coeffs = rng.normal(0.0, 0.5, size=self.n_coeffs + 1)
        return np.concatenate(([0.0] if self.nu_fixed is None else [], coeffs,
                               [np.log(_TWO_PI) - np.log(10.0)] if self.fit_nugget else []))

    def jacobian(self, params: ModelParams) -> np.ndarray:
        """The diagonal of d natural / d coordinate at params, for the
        delta method: the natural value at a log, else 1."""
        return np.where(self._logged, self._natural(params), 1.0)

    def spread(self, frequencies: np.ndarray):
        """How d log g in each coordinate is built from its distinct (bin,
        frequency) arrays, those in log sigma_e2, log(nu - d/4) unless nu
        is fixed, log|c(w)|^2, and log nugget when fitted: each coordinate's
        index into them, and its weight over frequencies, cos(k w) for b_k
        and 1 for the rest."""
        c2, n_b = 1 + (self.nu_fixed is None), self.n_coeffs + 1
        which = list(range(c2)) + [c2] * n_b + [c2 + 1] * self.fit_nugget
        weights = np.ones((len(which), frequencies.size))
        weights[c2:c2 + n_b] = np.cos(np.arange(n_b)[:, None] * frequencies)
        return which, weights


# g or binned / g may leave the double range; the terms are then not finite
# and the check below raises, without a numpy warning first
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _criterion_terms(prepared: _Prepared, params: ModelParams, profile: bool = False,
                     scores: bool = False):
    """Per (bin, frequency) criterion terms of the prepared data; shape
    matches prepared.binned.

    g is proportional to sigma_e2 once the nugget is held as a ratio to it,
    so scaling sigma_e2 and the nugget by k scales g by k, and the sum of the
    terms is least at k = mean(binned / g). With profile set, returns
    (terms at the scaled parameters, k): the criterion with sigma_e2
    concentrated out.

    With scores set, two more follow, from the same kernel pass as the
    terms. First the per-frequency scores, shape (K, M): the derivatives of
    the terms' mean over bins in the K coordinates of prepared.coords at
    coords.pack(params), each mean_bins (1 - binned / g) d log g. Then the
    expected information sum_w mean_bins d log g d log g^T, (K, K): the
    criterion's Hessian less mean_bins (1 - binned / g) d^2 log g, whose
    expectation is 0. Both are built from the distinct arrays of
    prepared.spread: 1 - B, with B = (nugget / pi) / g; (nu - d/4)
    (dg / d nu) / g; (dg / d log|c(w)|^2) / g; and B. d log g is the same
    at every scale, so with profile set both are those at the scaled
    parameters, and by the envelope theorem the scores' row sums after the
    leading log sigma_e2 row are the gradient of the profiled criterion in
    fit's coordinates.

    Every (L, M) array, the kernel's included, is written in place, into
    prepared.work, with the operations of the formulas above in their
    order, so the values have the bits of fresh arrays. The terms are one
    of those arrays: they hold until the next evaluation of the prepared
    data. The scores and the information are new arrays.
    """
    binned, frequencies, work = prepared.binned, prepared.frequencies, prepared.work
    grid = (prepared.distances[:, None], frequencies[None, :])
    if scores:
        coords = prepared.coords
        g, dg_dlogc2, *dg_dnu = _variogram(*grid, params, gradient=True,
                                           smoothness=coords.nu_fixed is None, work=work)
    else:
        g = _variogram(*grid, params, work=work)
    np.maximum(g, _VARIOGRAM_FLOOR, out=g)
    ratio = work("scratch.0", binned.shape)
    terms = work("scratch.1", binned.shape)
    scaled = g
    if profile:
        # binned over the power of two above its largest value first, so
        # binned / g stays finite where the scale itself is; exact, so the
        # scale has the bits of mean(binned / g) wherever that is finite
        reduced = np.ldexp(binned, -prepared.exponent, out=ratio)
        reduced /= g
        scale = float(np.ldexp(np.mean(reduced), prepared.exponent))
        scaled = np.multiply(scale, g, out=terms)
        np.maximum(scaled, _VARIOGRAM_FLOOR, out=scaled)
    np.divide(binned, scaled, out=ratio)
    # log(scaled) + ratio; with profile set, scaled is terms' own array
    np.log(scaled, out=terms)
    terms += ratio
    if not np.isfinite(terms, out=work("scratch.finite", binned.shape, bool)).all():
        raise EvaluationError(
            "criterion is not finite at sigma_e2=%r, nu=%r, c_coeffs=%r, nugget=%r%s"
            % (params.sigma_e2, params.nu, params.c_coeffs, params.nugget,
               " scaled by %r" % scale if profile else "")
        )
    if not scores:
        return (terms, scale) if profile else terms
    # the bases, each over an array it is the last use of; B over g, and
    # 1 - B over B unless B is a basis too
    product = work("scratch.2", binned.shape)
    for a in dg_dnu:
        a *= np.divide(params.nu - params.d / 4.0, g, out=product)
    dg_dlogc2 /= g
    share = np.divide(params.nugget / np.pi, g, out=g)
    complement = np.subtract(1.0, share, out=work("criterion.complement", binned.shape)
                             if coords.fit_nugget else share)
    bases = [complement] + dg_dnu + [dg_dlogc2] + [share] * coords.fit_nugget
    weight = np.subtract(1.0, ratio, out=ratio)
    rows = np.array([np.mean(np.multiply(weight, a, out=product), axis=0) for a in bases])
    # the bin means of the bases' products take no (K, L, M) stack, and
    # each pair's is formed once and mirrored (a * b and b * a round alike)
    products = np.empty((len(bases), len(bases), frequencies.size))
    for i, a in enumerate(bases):
        for j in range(i, len(bases)):
            products[i, j] = products[j, i] = np.mean(np.multiply(a, bases[j], out=product),
                                                      axis=0)
    which, weights = prepared.spread
    info = np.einsum("iw,jw,ijw->ij", weights, weights, products[np.ix_(which, which)])
    return ((terms, scale) if profile else (terms,)) + (rows[which] * weights, info)


def _criterion_value(terms: np.ndarray) -> float:
    """The criterion from its finite terms: the mean over bins of each
    bin's sum over frequencies. Raises EvaluationError, without a numpy
    warning, when a sum leaves the double range."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(terms.sum(axis=1).mean())
    if not np.isfinite(value):
        raise EvaluationError("the criterion's sum over its terms overflows the double range")
    return value


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
    return _criterion_value(_criterion_terms(_prepare(spectral, bins, n_frequencies), params))


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
        A Python or numpy bool, stored as bool.
    n_frequencies : int or None
        Truncate the frequency grid to at least one ordinate; None uses every
        interior ordinate.
    bins_mode : str
        "exact" or "quantile", passed to build_distance_bins.
    n_bins : int or None
        Bin count, at least 1; quantile mode requires it.
    bin_tolerance : float or None
        Merge tolerance for exact mode, nonnegative.
    multistart : int
        Number of optimizer restarts from randomized starting points.
    seed : int
        Seed for the restart draws; fits are reproducible given the seed.
    compute_covariance : bool
        Attach the asymptotic covariance of the estimates to the result.
        Failures there degrade to a warning rather than failing the fit.
        A Python or numpy bool, stored as bool.
    """

    n_coeffs: int = 1
    nu_fixed: float | None = None
    fit_nugget: bool = False
    n_frequencies: int | None = None
    bins_mode: str = "exact"
    n_bins: int | None = None
    bin_tolerance: float | None = None
    multistart: int = 5
    seed: int = 0
    compute_covariance: bool = True

    def __post_init__(self):
        for name, least in (("n_coeffs", 0), ("n_frequencies", 1), ("n_bins", 1),
                            ("multistart", 1), ("seed", 0)):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _count(getattr(self, name), name, least))
        if self.bin_tolerance is not None and not _real(self.bin_tolerance, "bin_tolerance") >= 0:
            raise ValueError("bin_tolerance must be nonnegative, got %r" % self.bin_tolerance)
        if self.nu_fixed is not None and not np.isfinite(_real(self.nu_fixed, "nu_fixed")):
            raise ValueError("nu_fixed must be finite, got %r" % self.nu_fixed)
        for name in ("fit_nugget", "compute_covariance"):
            value = getattr(self, name)
            if not isinstance(value, (bool, np.bool_)):
                raise ValueError("%s must be True or False, got %r" % (name, value))
            object.__setattr__(self, name, bool(value))
        if not (isinstance(self.bins_mode, str) and self.bins_mode in ("exact", "quantile")):
            raise ValueError("bins_mode must be 'exact' or 'quantile', got %r" % (self.bins_mode,))
        if self.bins_mode == "quantile" and self.n_bins is None:
            raise ValueError("n_bins must be given for bins_mode 'quantile'")


@dataclass
class FitResult:
    """Outcome of a model fit.

    Attributes
    ----------
    params : ModelParams
        Estimated parameters.
    criterion : float
        Criterion value at the estimate: the winning restart's own
        "criterion", from the search's evaluation at its winner.
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
    restarts : list of dict
        One entry per restart, in order: "start", its start point in the
        searched coordinates (see fit); "criterion", the profiled criterion
        it finished at, or None when the start was not finite and the restart
        was skipped; "nfev", the search's evaluations of the value, the
        gradient and the information, over its scoring and L-BFGS-B phases,
        the start's included; "converged", whether the search met the
        optimizer tolerances; and "finished_by", "scoring" where scoring's
        own tests ended the search, "L-BFGS-B" where that finished it, or
        None for a skipped restart.
    """

    params: ModelParams
    criterion: float
    covariance: np.ndarray | None
    param_names: list
    converged: bool
    n_frequencies: int
    bins: dict
    n_restarts: int
    restarts: list

    def to_dict(self) -> dict:
        return json_data(self)


def _quasi_newton(objective, start: np.ndarray):
    """Minimize objective(vec) -> (value, gradient, information, *extra)
    from start by Fisher scoring, then, where scoring slows, scipy's
    L-BFGS-B. Returns the finishing phase's result, or None when the
    objective fails or is not finite at the start. Its fun is the
    objective's value at its x, and its finished_by "scoring" or
    "L-BFGS-B". Its extra is the tuple of the rest of the objective's
    return at its x when x is the point of least value evaluated, as it is
    unless a trial the search rejected had a lower value; None otherwise.

    Scoring is scipy's trust-exact with the information as the Hessian.
    After each accepted step it applies three tests, in this order. Its own
    tolerances end the search, converged: the step lowered the value by at
    most _TOLERANCE_F in L-BFGS-B's relative form, or no gradient component
    exceeds _TOLERANCE_X. A step that lowered the value by more than half
    of what the previous one did (scoring has stopped converging fast, as
    along a ridge) hands the search to L-BFGS-B. Otherwise the Newton
    decrement ends it, converged, once 1/2 g^T I^-1 g, the decrease the
    next scoring step predicts, is at most that tolerance; a singular I or
    a decrement that is not a finite number >= 0 does not. L-BFGS-B runs
    under _MAX_ITERATIONS, _TOLERANCE_F and _TOLERANCE_X, and its x and
    verdict are the result's; so they are where scipy ends trust-exact
    before any of the tests does. Both phases share one evaluation per
    point, so L-BFGS-B's start costs none and, at a point that meets its
    gradient test, neither does the rest; nfev counts the evaluations of
    both phases, the start's included. Only the least point's extra is
    held, so its memory does not grow with the search. A point where the
    value or the gradient fails or is not finite reads as the start value
    plus max(1, |start value|), above every iterate, with a zero gradient
    and information, so both phases back off from it (an infinite value
    would end the search where it stands). Information that is not finite
    reads as zero: scoring then steps down the gradient.
    """

    def guarded(vec):
        try:
            value, grad, info, *extra = objective(vec)
        except (EvaluationError, ValueError, OverflowError, FloatingPointError):
            return None
        if not (np.isfinite(value) and np.isfinite(grad).all()):
            return None
        return value, grad, (info if np.isfinite(info).all() else np.zeros_like(info)), tuple(extra)

    first = guarded(start)
    if first is None:
        return None
    failed = (first[0] + max(1.0, abs(first[0])), np.zeros_like(start),
              np.zeros((start.size, start.size)), None)
    done = {start.tobytes(): first[:3]}
    # (value, point, extra) at the least value evaluated so far
    least = (first[0], start.tobytes(), first[3])

    def evaluate(vec):
        nonlocal least
        key = vec.tobytes()
        if key not in done:
            value, grad, info, extra = guarded(vec) or failed
            done[key] = value, grad, info
            if value < least[0]:
                least = value, key, extra
        return done[key]

    # scipy's ftol is relative to max(|Q|, 1); _TOLERANCE_F is absolute
    ftol = _TOLERANCE_F / max(1.0, abs(first[0]))
    last_value, last_drop, converged = first[0], np.inf, False

    def stop_scoring(vec):
        # called after each iteration; a rejected step leaves the value
        nonlocal last_value, last_drop, converged
        value, grad, info = evaluate(vec)
        drop = last_value - value
        if drop <= 0.0:
            return
        slowed = drop > 0.5 * last_drop
        last_value, last_drop = value, drop
        converged = (drop <= ftol * max(abs(value), abs(value + drop), 1.0)
                     or np.abs(grad).max() <= _TOLERANCE_X
                     or (not slowed and 0.0 <= _newton_decrement(grad, info)
                         <= ftol * max(abs(value), 1.0)))
        if converged or slowed:
            raise StopIteration

    # imported here: scipy.optimize adds about 17 MB of memory to any
    # process that loads it, and only fits search
    from scipy.optimize import minimize

    result = minimize(lambda vec: evaluate(vec)[:2], start, jac=True,
                      hess=lambda vec: evaluate(vec)[2], method="trust-exact",
                      callback=stop_scoring,
                      options={"maxiter": _MAX_ITERATIONS, "gtol": _TOLERANCE_X})
    if converged:
        result.success, result.finished_by = True, "scoring"
    else:
        result = minimize(lambda vec: evaluate(vec)[:2], result.x, jac=True,
                          method="L-BFGS-B",
                          options={"maxiter": _MAX_ITERATIONS, "ftol": ftol,
                                   "gtol": _TOLERANCE_X})
        result.finished_by = "L-BFGS-B"
    # after a failed line search L-BFGS-B reports its last trial's value
    result.fun = evaluate(result.x)[0]
    result.extra = least[2] if least[1] == result.x.tobytes() else None
    result.nfev = len(done)
    return result


def _newton_decrement(grad: np.ndarray, info: np.ndarray) -> float:
    """1/2 g^T I^-1 g, the decrease a Newton step with curvature I predicts;
    NaN where I is singular."""
    try:
        return 0.5 * float(grad @ np.linalg.solve(info, grad))
    except np.linalg.LinAlgError:
        return np.nan


def fit(panel: TimeSeriesPanel, config: FitConfig = FitConfig()) -> FitResult:
    """Estimate the covariance model from an observed panel.

    The variogram is sigma_e2 times a function of the other parameters once
    the nugget is written as the ratio tau = nugget / sigma_e2, so for given
    (nu, b, tau) the criterion's minimizing sigma_e2 has a closed form. A
    search minimizes this profiled criterion over _Coordinates without the
    leading log sigma_e2 and with log tau in place of the log nugget, from
    several randomized starting points, and keeps the best finisher. Each
    evaluation returns the criterion, its gradient and its expected
    information from one kernel pass (the smoothness coordinate through the
    kernel's table of d log K_mu / d mu): by the envelope theorem the
    profiled gradient is (1 / L) sum (1 - I / g) d log g / d theta at the
    profiled scale, and the profiled information is the Schur complement of
    the log sigma_e2 row and column of sum_w mean_bins d log g d log g^T.
    _quasi_newton runs Fisher scoring with that information as the
    curvature; its own tolerance and Newton-decrement tests end the search,
    and only where it stops converging fast (as along the nu-nugget ridge)
    does scipy's L-BFGS-B finish it to the optimizer tolerances. A restart
    whose start value is not finite is skipped. The starts are
    _Coordinates.start's seeded draws. The reported parameters and
    criterion come from the search's own evaluation at its winner, which is
    not repeated: its profiled scale gives sigma_e2 and the nugget, and its
    value is the criterion. With compute_covariance set, that evaluation's
    scores and information are the sandwich's (see asymptotic_covariance).
    So the fit makes no kernel pass after the search, nfev in all, unless
    the search rejected a trial of lower value than its winner; it then
    evaluates the winner once more.

    Raises
    ------
    EstimationError
        If every restart fails to produce a finite criterion value.
    """
    d = panel.d
    nu_fixed = config.nu_fixed
    if nu_fixed is not None and nu_fixed <= d / 4.0:
        raise ValueError("nu_fixed must exceed d/4 = %g, got %r" % (d / 4.0, nu_fixed))

    spectral = dft_panel(panel)
    bins = build_distance_bins(
        panel.locations, mode=config.bins_mode, n_bins=config.n_bins,
        tolerance=config.bin_tolerance,
    )
    coords = _Coordinates(config.n_coeffs, d, nu_fixed, config.fit_nugget)
    prepared = _prepare(spectral, bins, config.n_frequencies, coords)

    def scale_free(vec: np.ndarray) -> ModelParams:
        # sigma_e2 = exp(0) = 1, so the nugget coordinate reads as log tau
        return coords.unpack(np.concatenate(([0.0], vec)))

    def objective(vec: np.ndarray):
        terms, scale, scores, info = _criterion_terms(prepared, scale_free(vec), profile=True,
                                                      scores=True)
        # the log sigma_e2 row is not searched; the profiled criterion's
        # curvature is the information's Schur complement of it
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            profiled = info[1:, 1:] - np.outer(info[1:, 0], info[0, 1:]) / info[0, 0]
        # what fit reports from the winner: the scale, and the sandwich's terms
        extra = (scale, scores, info) if config.compute_covariance else (scale,)
        return (_criterion_value(terms), scores[1:].sum(axis=1), profiled) + extra

    rng = np.random.default_rng(config.seed)
    best = None
    restarts = []
    for _ in range(config.multistart):
        start_vec = coords.start(rng)
        record = {"start": start_vec.tolist(), "criterion": None, "nfev": 0,
                  "converged": False, "finished_by": None}
        restarts.append(record)
        result = _quasi_newton(objective, start_vec)
        if result is None:
            # the criterion is not finite at this start
            continue
        record.update(criterion=float(result.fun), nfev=int(result.nfev),
                      converged=bool(result.success), finished_by=result.finished_by)
        if best is None or result.fun < best.fun:
            best = result
    if best is None:
        raise EstimationError(
            "all %d restarts failed to reach a finite criterion" % config.multistart
        )

    # the search's own evaluation at its winner, or, where the search
    # rejected a trial of lower value, one more there
    theta_hat = scale_free(best.x)
    scale, *derivatives = best.extra if best.extra is not None else objective(best.x)[3:]
    params_hat = replace(theta_hat, sigma_e2=scale, nugget=scale * theta_hat.nugget)
    cov = None
    if derivatives:
        try:
            cov = _sandwich(*derivatives, coords, params_hat)
        except (SingularHessianError, EvaluationError, np.linalg.LinAlgError) as err:
            warnings.warn("asymptotic covariance unavailable: %s" % err)
    return FitResult(
        params=params_hat,
        criterion=best.fun,
        covariance=cov,
        param_names=coords.names(),
        converged=bool(best.success),
        n_frequencies=prepared.frequencies.size,
        bins=bins.summary(),
        n_restarts=config.multistart,
        restarts=restarts,
    )


def asymptotic_covariance(panel: TimeSeriesPanel, bins: DistanceBins, params_hat: ModelParams,
                          n_frequencies: int | None = None, *, nu_fixed: float | None = None,
                          fit_nugget: bool = False) -> np.ndarray:
    """Sandwich covariance of the fitted parameters on the natural scale.

    Works in _Coordinates: with nu_fixed set, which must equal
    params_hat.nu, the smoothness is held there; with fit_nugget set, the
    nugget is a coordinate. One unprofiled kernel pass at params_hat gives
    the per-frequency scores, the derivatives of each frequency's mean term
    over bins, and the bread: the expected criterion Hessian
    sum_w mean_bins d log g d log g^T, the Hessian with its
    (1 - I / g) d^2 log g term at its expectation 0, as E[I] = g (the
    Godambe form of composite likelihood). The middle term aggregates the
    scores (frequencies are asymptotically uncorrelated, so scores are
    clustered by frequency). The result is mapped to the natural scale by
    the delta method. Rows and columns are in FitResult.param_names'
    order. fit takes the scores and the bread from its search's profiled
    evaluation at the winner instead, which agree with these to rounding.

    Raises
    ------
    ValueError
        When nu_fixed differs from params_hat.nu, or the panel's dimension
        from the model's, or when fit_nugget is set at a zero nugget, whose
        log is undefined.
    SingularHessianError
        When the expected Hessian cannot be inverted; the error carries its
        eigenvalues.
    EvaluationError
        When the covariance leaves the double range, as the delta method's
        sigma_e2^2 does for a scale near the top of it.
    """
    if nu_fixed is not None and nu_fixed != params_hat.nu:
        raise ValueError("nu_fixed = %r, but the sandwich holds nu at the fitted %r"
                         % (nu_fixed, params_hat.nu))
    if fit_nugget and params_hat.nugget <= 0.0:
        raise ValueError("fit_nugget is set, but the log nugget is undefined at nugget = 0")
    _check_dimension(panel.d, params_hat)
    coords = _Coordinates(params_hat.n_coeffs, params_hat.d, nu_fixed, fit_nugget)
    _, scores, info = _criterion_terms(_prepare(dft_panel(panel), bins, n_frequencies, coords),
                                       params_hat, scores=True)
    return _sandwich(scores, info, coords, params_hat)


def _sandwich(scores: np.ndarray, info: np.ndarray, coords: _Coordinates,
              params_hat: ModelParams) -> np.ndarray:
    """The sandwich from the per-frequency scores and the expected
    information H in coords at params_hat, mapped to the natural scale."""
    eigvals = np.linalg.eigvalsh(info)
    if np.min(np.abs(eigvals)) <= 1e-12 * max(1.0, np.max(np.abs(eigvals))):
        raise SingularHessianError("expected criterion Hessian is numerically singular; "
                                   "eigenvalues %s" % eigvals, eigvals)
    # H^-1 S S^T H^-1, S the scores less their mean over frequencies; numpy
    # multiplies a matrix by its own transpose symmetrically
    half = np.linalg.solve(info, scores - scores.mean(axis=1, keepdims=True))
    cov_unc = half @ half.T

    # delta method to the natural scale
    jac = coords.jacobian(params_hat)
    # an overflow is reported below, without a numpy warning first
    with np.errstate(over="ignore", invalid="ignore"):
        cov_nat = cov_unc * np.outer(jac, jac)
    if not np.isfinite(cov_nat).all():
        raise EvaluationError("the natural-scale covariance at sigma_e2=%r overflows the double range"
                              % params_hat.sigma_e2)
    return cov_nat
