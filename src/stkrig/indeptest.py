"""Test of spatial independence across the sites of a panel.

The interior frequency grid of an odd-length panel is split into adjacent
blocks of 2K + 1 ordinates. Averaging the outer products of the Fourier
vectors within block l gives a spectral matrix estimate F_hat(w_l) that is
approximately complex Wishart. Under independence across sites the
normalized determinant

    lambda_l = det F_hat(w_l) / prod_j F_hat_jj(w_l)

is close to one, and the statistic Lambda = -mean_l ln lambda_l has known
null mean and variance

    E(Lambda)   = sum_{j=1}^{m-1} (m - j) / (K' - j),        K' = 2K + 1,
    var(Lambda) = (1 / M_1) sum_{j=1}^{m-1} (m - j) / (K' - j)^2,

so S = (Lambda - E) / sqrt(var) is compared with the upper normal tail.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .io import json_data
from .numerics import SingularMatrixError, _count, cholesky_with_jitter
from .spectral import TimeSeriesPanel, block_widths, dft_panel, partition_frequencies


def default_half_window(n: int, m: int) -> int:
    """Largest admissible half window whose width is at least 2m.

    Windows narrower than the site count make the block spectral matrices
    singular; a comfortable margin keeps them well conditioned. Falls back
    to the largest admissible window wider than m when no window reaches
    2m, and raises when none is usable at all.
    """
    widths = block_widths(n)
    generous = [q for q in widths if q >= 2 * m]
    usable = [q for q in widths if q > m]
    if generous:
        return (max(generous) - 1) // 2
    if usable:
        return (max(usable) - 1) // 2
    raise ValueError(
        "no admissible block width exceeds the site count %d for series "
        "length %d; available widths: %s" % (m, n, widths)
    )


def _normalized_log_det(f_hat: np.ndarray) -> tuple[float, float]:
    """ln of det(F) / prod diag(F) for a Hermitian PD matrix, computed on the
    correlation scale so a diagonal matrix returns exactly zero. Also returns
    the jitter the factorization needed."""
    diag = np.sqrt(f_hat.diagonal().real)
    if np.any(diag <= 0) or not np.all(np.isfinite(diag)):
        raise SingularMatrixError(
            "block spectral matrix has a non-positive diagonal", 0.0
        )
    corr = f_hat / np.outer(diag, diag)
    np.fill_diagonal(corr, 1.0)
    factor, jitter = cholesky_with_jitter(corr)
    log_det = 2.0 * float(np.log(factor.diagonal().real).sum())
    return log_det, jitter


@dataclass
class IndependenceTestResult:
    """Outcome of the spatial-independence test.

    Attributes
    ----------
    lambda_bar : float
        The statistic Lambda, a log-determinant average over blocks.
    z_score : float
        Standardized statistic S.
    p_value : float
        Upper-tail normal p-value; small values speak against independence.
    mean_null : float
        Null expectation of Lambda.
    var_null : float
        Null variance of Lambda.
    per_frequency_lambdas : numpy.ndarray
        Normalized determinants lambda_l, one per block.
    half_window : int
        K used for the blocks.
    window_size : int
        Block width K' = 2K + 1.
    n_blocks : int
        Number of blocks M_1.
    n_used : int
        Series length actually analyzed (after any trimming).
    pd_repairs : int
        Blocks whose determinant needed diagonal loading.
    """

    lambda_bar: float
    z_score: float
    p_value: float
    mean_null: float
    var_null: float
    per_frequency_lambdas: np.ndarray
    half_window: int
    window_size: int
    n_blocks: int
    n_used: int
    pd_repairs: int

    def to_dict(self) -> dict:
        return json_data(self)


def independence_test(panel: TimeSeriesPanel, half_window: int | None = None) -> IndependenceTestResult:
    """Run the block-determinant test of independence across sites.

    Parameters
    ----------
    panel : TimeSeriesPanel
        At least two sites. An even series length is handled by dropping the
        last observation, with a warning.
    half_window : int, optional
        Block half width K. Defaults to the value of default_half_window.
        The width 2K + 1 must exceed the site count, otherwise the null
        moments divide by zero.
    """
    if panel.m < 2:
        raise ValueError("independence test needs at least two sites, got %d" % panel.m)
    working = panel
    if panel.n % 2 == 0:
        warnings.warn(
            "series length %d is even; dropping the last observation" % panel.n
        )
        working = TimeSeriesPanel(
            locations=panel.locations,
            observations=panel.observations[:, :-1],
            site_ids=panel.site_ids,
        )
    n = working.n
    m = working.m
    k = default_half_window(n, m) if half_window is None else _count(half_window, "half_window")
    width = 2 * k + 1
    if width <= m:
        raise ValueError(
            "block width 2K+1 = %d must exceed the site count m = %d; the "
            "null moments contain the factor 1 / (K' - j) for j < m" % (width, m)
        )
    n_blocks, centers = partition_frequencies(n, k)

    spectral = dft_panel(working)
    log_dets = np.empty(n_blocks)
    repairs = 0
    for l, center in enumerate(centers):
        block = spectral.dft[:, center - k - 1 : center + k]
        f_hat = block @ block.conj().T / width
        f_hat = (f_hat + f_hat.conj().T) / 2.0
        log_dets[l], jitter = _normalized_log_det(f_hat)
        if jitter > 0:
            repairs += 1

    # from the log-determinants themselves: a block's lambda_l underflows
    # to zero below ln lambda_l ~ -745, its log does not
    lambda_bar = -float(log_dets.mean())
    j = np.arange(1, m)
    mean_null = float(np.sum((m - j) / (width - j)))
    var_null = float(np.sum((m - j) / (width - j) ** 2) / n_blocks)
    z = (lambda_bar - mean_null) / np.sqrt(var_null)
    p_value = float(ndtr(-z))
    return IndependenceTestResult(
        lambda_bar=lambda_bar,
        z_score=float(z),
        p_value=p_value,
        mean_null=mean_null,
        var_null=var_null,
        per_frequency_lambdas=np.exp(log_dets),
        half_window=k,
        window_size=width,
        n_blocks=n_blocks,
        n_used=n,
        pd_repairs=repairs,
    )
