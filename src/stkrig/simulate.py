"""Spectral simulation of panels that follow the covariance model exactly,
frequency by frequency.

At each interior frequency the Fourier vector across sites is drawn as a
complex Gaussian with the model covariance matrix; the two real-valued edge
frequencies (zero and, for even length, the folding frequency) get real
Gaussian draws. Those ordinates, k = 0, ..., floor(n / 2), are all a real
series needs; one real inverse transform of them produces the panel.
Measurement error, when requested, is added independently in the time
domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covmodel import ModelParams, _check_dimension, _covariance_walk, _site_pair_distances
from .numerics import _count, _jittered_cholesky, _real, _synthesize_half
from .spectral import TimeSeriesPanel, fourier_frequencies


@dataclass(frozen=True)
class SimulationSpec:
    """What to simulate.

    Parameters
    ----------
    locations : numpy.ndarray
        Site coordinates, shape (m, d), pairwise distinct.
    n : int
        Series length, at least 8.
    params : ModelParams
        Covariance model to draw from.
    seed : int
        Seed of the random stream; equal seeds give identical panels.
    include_measurement_error : bool
        Add independent N(0, nugget) noise to every observation.
    site_ids : tuple, optional
        Identifiers for the generated panel.
    """

    locations: np.ndarray
    n: int
    params: ModelParams
    seed: int = 0
    include_measurement_error: bool = False
    site_ids: tuple = ()

    def __post_init__(self):
        loc = np.atleast_2d(np.asarray(self.locations, dtype=float))
        if loc.ndim != 2 or loc.shape[0] < 1:
            raise ValueError("locations must have shape (m, d), got %s" % (loc.shape,))
        if not np.all(np.isfinite(loc)):
            raise ValueError("locations contain non-finite values")
        object.__setattr__(self, "n", _count(self.n, "simulation length", 8))
        object.__setattr__(self, "seed", _count(self.seed, "seed", 0))
        _check_dimension(loc.shape[1], self.params)
        loc = loc.copy()
        loc.flags.writeable = False
        object.__setattr__(self, "locations", loc)

    @property
    def m(self) -> int:
        return self.locations.shape[0]


def simulate_panel(spec: SimulationSpec) -> TimeSeriesPanel:
    """Draw one panel from the covariance model.

    The realization is exact for the model's per-frequency structure: the
    Fourier vectors at distinct grid frequencies are independent and the
    vector at frequency w has covariance matrix C(h_ij, w) (no nugget; the
    nugget is optional time-domain noise on top). The matrices come one
    frequency at a time from one covariance walk (covmodel._covariance_walk),
    and each is factored with the jitter ladder. A C(0, w) that is not a
    positive normal double raises FloatingPointError.
    """
    params = spec.params
    m = spec.m
    n = spec.n
    loc = spec.locations
    pairs, lower = _site_pair_distances(loc)
    if np.any(pairs == 0.0):
        raise ValueError("locations must be pairwise distinct")

    freqs = fourier_frequencies(n)
    m_int = freqs.size
    rng = np.random.default_rng(spec.seed)
    # fixed draw order: interior real block, interior imaginary block, edge
    # draws, then measurement noise; this keeps panels reproducible
    z_re = rng.standard_normal((m_int, m))
    z_im = rng.standard_normal((m_int, m))
    z_zero = rng.standard_normal(m)
    z_fold = [rng.standard_normal(m)] if n % 2 == 0 else []

    # the grid is 0, the interior and, for even n, pi: the ordinates
    # k = 0, ..., n // 2 that synthesis takes; the two edge ordinates are
    # real draws
    grid = np.array([0.0, *freqs] + [np.pi] * len(z_fold))
    draws = [z_zero, *((z_re + 1j * z_im) / np.sqrt(2.0)), *z_fold]
    half = np.empty((m, grid.size), dtype=complex)
    for k, f, _, _ in _covariance_walk(pairs, lower, grid, params, include_nugget=False):
        factor, _ = _jittered_cholesky(f)
        half[:, k] = factor @ draws[k]
    observations = _synthesize_half(half, n)

    if spec.include_measurement_error and params.nugget > 0:
        observations += rng.normal(0.0, np.sqrt(params.nugget), size=(m, n))

    # read-only, so the panel keeps it without a copy
    observations.flags.writeable = False
    return TimeSeriesPanel(locations=loc, observations=observations, site_ids=spec.site_ids)


def simulate_white_panel(m: int, n: int, variance: float = 1.0, seed: int = 0,
                         locations=None, site_ids: tuple = ()) -> TimeSeriesPanel:
    """Panel of mutually independent Gaussian white-noise series.

    Useful as the null case of the independence test. Locations default to
    unit-spaced points on a line in the plane.
    """
    m, n = _count(m, "site count m", 1), _count(n, "series length", 2)
    seed = _count(seed, "seed", 0)
    if not (_real(variance, "variance") > 0 and np.isfinite(variance)):
        raise ValueError("variance must be positive, got %r" % variance)
    if locations is None:
        loc = np.column_stack([np.arange(m, dtype=float), np.zeros(m)])
    else:
        loc = np.atleast_2d(np.asarray(locations, dtype=float))
        if loc.shape[0] != m:
            raise ValueError("got %d locations for %d sites" % (loc.shape[0], m))
    rng = np.random.default_rng(seed)
    obs = rng.normal(0.0, np.sqrt(variance), size=(m, n))
    return TimeSeriesPanel(locations=loc, observations=obs, site_ids=site_ids)
