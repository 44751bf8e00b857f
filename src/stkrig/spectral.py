"""Panel containers and frequency-domain summaries.

A panel holds one time series per spatial site. All spectral quantities are
computed on the interior canonical grid w_k = 2 pi k / n for
k = 1, ..., floor((n - 1) / 2), which excludes frequency zero and, for even
n, the folding frequency pi.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import _count, _dft_rows

# Largest Fourier ordinate modulus dft_panel accepts: |J_i - J_j|^2 is then
# at most 4 * _MAX_ORDINATE^2, the largest double
_MAX_ORDINATE = np.sqrt(np.finfo(float).max) / 2.0


def fourier_frequencies(n: int) -> np.ndarray:
    """Interior canonical frequencies 2 pi k / n, k = 1, ..., floor((n-1)/2)."""
    n = _count(n, "series length", 2)
    m = (n - 1) // 2
    return 2.0 * np.pi * np.arange(1, m + 1) / n


def _read_only(arr: np.ndarray) -> np.ndarray:
    """arr itself when it and every array down its chain of bases are
    read-only, the last one owning its memory, as for a slice of another
    panel; otherwise a read-only copy."""
    owner = arr
    while isinstance(owner, np.ndarray) and not owner.flags.writeable:
        owner = owner.base
    if owner is None:
        return arr
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class TimeSeriesPanel:
    """Observations of one scalar series at each of m spatial sites.

    Parameters
    ----------
    locations : numpy.ndarray
        Site coordinates, shape (m, d), pairwise distinct.
    observations : numpy.ndarray
        Real data, shape (m, n) with n >= 2.
    site_ids : tuple of str
        One identifier per site, unique.

    The panel holds its arrays read-only. It keeps an array that nothing
    can write, such as a row slice of another panel's, and copies any
    other.
    """

    locations: np.ndarray
    observations: np.ndarray
    site_ids: tuple = field(default=())

    def __post_init__(self):
        loc = np.atleast_2d(np.asarray(self.locations, dtype=float))
        obs = np.atleast_2d(np.asarray(self.observations, dtype=float))
        if loc.ndim != 2:
            raise ValueError("locations must have shape (m, d), got %s" % (loc.shape,))
        if obs.ndim != 2:
            raise ValueError("observations must have shape (m, n), got %s" % (obs.shape,))
        if loc.shape[0] != obs.shape[0]:
            raise ValueError(
                "site count mismatch: %d locations but %d series"
                % (loc.shape[0], obs.shape[0])
            )
        if obs.shape[1] < 2:
            raise ValueError("series length must be at least 2, got %d" % obs.shape[1])
        if not np.all(np.isfinite(loc)):
            raise ValueError("locations contain non-finite values")
        if not np.all(np.isfinite(obs)):
            raise ValueError("observations contain non-finite values")
        ids = tuple(self.site_ids) if self.site_ids else tuple(
            "site%d" % i for i in range(loc.shape[0])
        )
        if len(ids) != loc.shape[0]:
            raise ValueError(
                "expected %d site ids, got %d" % (loc.shape[0], len(ids))
            )
        if len(set(ids)) != len(ids):
            raise ValueError("site ids must be unique")
        # adding 0.0 turns -0.0 into 0.0, so the two compare as one location
        _, first, label, counts = np.unique(loc + 0.0, axis=0, return_index=True,
                                            return_inverse=True, return_counts=True)
        if np.any(counts > 1):
            # the first duplicate pair: lowest i, then lowest j
            i = int(first[counts > 1].min())
            j = int(np.flatnonzero(label == label[i])[1])
            raise ValueError("duplicate location for sites %r and %r" % (ids[i], ids[j]))
        object.__setattr__(self, "locations", _read_only(loc))
        object.__setattr__(self, "observations", _read_only(obs))
        object.__setattr__(self, "site_ids", ids)

    @property
    def m(self) -> int:
        return self.observations.shape[0]

    @property
    def n(self) -> int:
        return self.observations.shape[1]

    @property
    def d(self) -> int:
        return self.locations.shape[1]

    def site_means(self) -> np.ndarray:
        return self.observations.mean(axis=1)


@dataclass(frozen=True)
class SpectralPanel:
    """Fourier ordinates of a panel on the interior frequency grid.

    Attributes
    ----------
    dft : numpy.ndarray
        Complex ordinates of the centred site series, shape (m, M).
    frequencies : numpy.ndarray
        The interior grid, shape (M,).
    n : int
        Length of the underlying series.
    """

    dft: np.ndarray
    frequencies: np.ndarray
    n: int

    @property
    def m(self) -> int:
        return self.dft.shape[0]

    @property
    def n_frequencies(self) -> int:
        return self.dft.shape[1]


def dft_panel(panel: TimeSeriesPanel) -> SpectralPanel:
    """Transform every centred site series to the interior frequency grid.

    The DFT of a constant vanishes at every interior frequency, so
    subtracting the site means changes the ordinates only by rounding.
    Series whose means or transform overflow, or with an ordinate of
    modulus above sqrt(max double) / 2, whose difference periodograms would
    overflow, raise ValueError.
    """
    n = panel.n
    m_int = (n - 1) // 2
    if m_int < 1:
        raise ValueError(
            "series length %d leaves no interior frequencies; need n >= 3" % n
        )
    obs = panel.observations
    # values near the top of the double range overflow the means or the
    # transform; that is reported here, without a numpy warning first
    with np.errstate(over="ignore", invalid="ignore"):
        means = obs.mean(axis=1, keepdims=True)
        if not np.isfinite(means).all():
            raise ValueError("site means overflow the double range")
        dft = _dft_rows(obs - means)[:, 1 : m_int + 1]
        largest = np.abs(dft).max()
    if not np.isfinite(dft).all():
        raise ValueError("the Fourier transform of the series overflows the double range")
    if largest > _MAX_ORDINATE:
        raise ValueError("a Fourier ordinate of the series has modulus %r, above %r: its "
                         "difference periodograms would overflow"
                         % (float(largest), float(_MAX_ORDINATE)))
    return SpectralPanel(dft=dft, frequencies=fourier_frequencies(n), n=n)


def _check_site(spectral: SpectralPanel, site: int) -> int:
    site = _count(site, "site index")
    if not -spectral.m <= site < spectral.m:
        raise IndexError("site index %d out of range for %d sites" % (site, spectral.m))
    return site % spectral.m


def periodogram(spectral: SpectralPanel, site: int) -> np.ndarray:
    """Squared modulus of one site's Fourier ordinates."""
    i = _check_site(spectral, site)
    row = spectral.dft[i]
    return (row * np.conj(row)).real


def cross_periodogram(spectral: SpectralPanel, site_i: int, site_j: int) -> np.ndarray:
    """J_i(w_k) * conj(J_j(w_k)) across the interior grid."""
    i = _check_site(spectral, site_i)
    j = _check_site(spectral, site_j)
    return spectral.dft[i] * np.conj(spectral.dft[j])


def difference_periodogram(spectral: SpectralPanel, site_i: int, site_j: int) -> np.ndarray:
    """Periodogram of the site difference, |J_i(w_k) - J_j(w_k)|^2.

    The two sites must differ; the difference periodogram of a site with
    itself is identically zero and almost always a caller bug.
    """
    i = _check_site(spectral, site_i)
    j = _check_site(spectral, site_j)
    if i == j:
        raise ValueError("difference periodogram requires two distinct sites, got %d twice" % i)
    diff = spectral.dft[i] - spectral.dft[j]
    return (diff * np.conj(diff)).real


def block_widths(n: int) -> list:
    """Admissible block widths 2K + 1 >= 3 for a series of odd length n:
    the odd divisors of its (n - 1) / 2 interior frequencies, ascending."""
    n = _count(n, "series length")
    if n % 2 == 0:
        raise ValueError(
            "frequency blocks need an odd series length; drop the last "
            "observation first (length %d is even)" % n
        )
    half = (n - 1) // 2
    return [q for q in range(3, half + 1, 2) if half % q == 0]


def partition_frequencies(n: int, half_window: int) -> tuple[int, np.ndarray]:
    """Number of blocks M_1 and the center indices j_l of the partition of
    the interior grid into windows of width 2 * half_window + 1.

    The series length must be odd; for even n drop the last observation
    first. The window width must divide (n - 1) / 2 exactly, and the error
    for an indivisible width lists the admissible half-window values.
    """
    widths = block_widths(n)
    half_window = _count(half_window, "half_window", 1)
    half = (n - 1) // 2
    width = 2 * half_window + 1
    if half % width != 0:
        raise ValueError(
            "block width %d does not divide the %d interior frequencies of a "
            "length-%d series; admissible half_window values: %s"
            % (width, half, n, [(q - 1) // 2 for q in widths] or "none")
        )
    blocks = half // width
    centers = np.arange(blocks) * width + half_window + 1
    return blocks, centers


def smoothed_cross_spectrum(spectral: SpectralPanel, site_i: int, site_j: int,
                            half_window: int) -> np.ndarray:
    """Cross-spectrum estimate averaged over adjacent frequency blocks.

    The interior grid is split into consecutive blocks of 2 * half_window + 1
    ordinates and the cross periodogram is averaged within each block. The
    value for block l estimates the cross spectrum at the block's center
    frequency w_{j_l}.

    Returns
    -------
    numpy.ndarray
        Complex vector with one entry per block.
    """
    i = _check_site(spectral, site_i)
    j = _check_site(spectral, site_j)
    blocks, _ = partition_frequencies(spectral.n, half_window)
    width = 2 * half_window + 1
    cross = spectral.dft[i] * np.conj(spectral.dft[j])
    # block l, centred on j_l = l K' + K + 1, holds ordinates l K' + 1 .. (l + 1) K'
    return cross[: blocks * width].reshape(blocks, width).mean(axis=1)


def block_center_frequencies(n: int, half_window: int) -> np.ndarray:
    """Frequencies 2 pi j_l / n of the block centers used by
    smoothed_cross_spectrum."""
    _, centers = partition_frequencies(n, half_window)
    return 2.0 * np.pi * centers / n
