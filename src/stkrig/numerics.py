"""Shared numerical kernels: special functions, the discrete Fourier transform
at canonical frequencies, the optimizer settings, and regularized Hermitian
positive definite solves.

Every routine in this module is deterministic. The transform pair uses the
normalization 1 / sqrt(2 * pi * n) so that the squared modulus of a Fourier
ordinate estimates spectral density directly, and treats the input as observed
at times t = 1, ..., n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import linalg as _slinalg
from scipy import special as _sspec

# Relative diagonal loadings tried, in order, when a Cholesky factorization
# fails. Scaled by trace(A) / dim so the ladder is unit-free.
JITTER_LADDER = (0.0, 1e-12, 1e-10, 1e-8, 1e-6)


class SingularMatrixError(np.linalg.LinAlgError):
    """Raised when a matrix stays non positive definite after the whole
    jitter ladder has been tried.

    Attributes
    ----------
    jitter : float
        Largest absolute diagonal loading that was attempted.
    """

    def __init__(self, message: str, jitter: float):
        super().__init__(message)
        self.jitter = jitter


@dataclass(frozen=True)
class OptimizerConfig:
    """Termination settings of a gradient search; estimate.FitConfig holds
    one for fit's (see FitConfig.optimizer).

    Parameters
    ----------
    max_iterations : int
        Iteration cap before the search gives up.
    tolerance_f : float
        Absolute change of the objective over an iteration at which the
        search stops.
    tolerance_x : float
        Largest gradient component at which the search stops.
    """

    max_iterations: int = 5000
    tolerance_f: float = 1e-10
    tolerance_x: float = 1e-8

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1, got %d" % self.max_iterations)
        if not (self.tolerance_f > 0 and np.isfinite(self.tolerance_f)):
            raise ValueError("tolerance_f must be positive and finite")
        if not (self.tolerance_x > 0 and np.isfinite(self.tolerance_x)):
            raise ValueError("tolerance_x must be positive and finite")


class HpdSolution(NamedTuple):
    x: np.ndarray
    jitter: float


def log_gamma(x):
    """Natural log of the gamma function for positive real arguments.

    Accepts scalars or arrays; rejects non-positive or non-finite input.
    """
    arr = np.asarray(x, dtype=float)
    if arr.size == 0:
        raise ValueError("log_gamma requires at least one argument")
    if not np.all(np.isfinite(arr)):
        raise ValueError("log_gamma argument must be finite")
    if np.any(arr <= 0.0):
        raise ValueError("log_gamma argument must be positive, got min %r" % float(arr.min()))
    out = _sspec.gammaln(arr)
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


def bessel_k(order, x):
    """Modified Bessel function of the second kind, K_order(x).

    Uses the evenness of K in its order, so negative orders are allowed.
    Arguments must be strictly positive; results that overflow the double
    range raise OverflowError.

    Parameters
    ----------
    order : float
        Order of the function. Finite real number.
    x : float or array_like
        Strictly positive evaluation points.
    """
    if not np.isfinite(order):
        raise ValueError("bessel_k order must be finite, got %r" % order)
    arr = np.asarray(x, dtype=float)
    if arr.size == 0:
        raise ValueError("bessel_k requires at least one evaluation point")
    if not np.all(np.isfinite(arr)):
        raise ValueError("bessel_k argument must be finite")
    if np.any(arr <= 0.0):
        raise ValueError("bessel_k argument must be strictly positive, got min %r" % float(arr.min()))
    nu = abs(float(order))
    xs = np.atleast_1d(arr)
    out = np.exp(-xs) * _scaled_bessel_k(nu, xs)
    # scipy's kv where kve gives up: NaN past x ~ 1.08e9, and inf near the
    # top of the double range at orders past ~140
    edge = ~np.isfinite(out)
    if np.any(edge):
        out[edge] = _sspec.kv(nu, xs[edge])
    if np.any(np.isinf(out)):
        raise OverflowError(
            "bessel_k overflowed for order %r at argument %r"
            % (order, float(xs[np.isinf(out)].min()))
        )
    if np.isscalar(x) or arr.ndim == 0:
        return float(out[0])
    return out


# Largest order served by the integer and half-integer branches of
# _scaled_bessel_k. Their rounding grows with the order (6.5e-15 relative
# to scipy's kve at 20.5, 2.2e-14 at 40), and the tests check every order
# up to here against kve.
_CLOSED_FORM_MAX_ORDER = 20.5

# Coefficients (n + k)! / (k! (n - k)!), k = 0..n, of the half-integer
# closed form, per n
_HALF_INTEGER_COEFFS = tuple(
    tuple(float(math.factorial(n + k) // (math.factorial(k) * math.factorial(n - k)))
          for k in range(n + 1))
    for n in range(int(_CLOSED_FORM_MAX_ORDER) + 1)
)


def _scaled_bessel_k(order: float, x: np.ndarray, with_previous: bool = False):
    """e^x K_order(x) for order >= 0 on an array of x > 0, without checks.

    The method follows the order. An exact integer runs the upward
    recurrence K_{j+1} = K_{j-1} + (2 j / x) K_j from k0e and k1e, which is
    stable upward. An exact half-integer n + 1/2 is the closed form
    sqrt(pi / 2x) * sum_k (n + k)! / (k! (n - k)!) (2x)^(-k), by Horner in
    1 / (2x). Any other order, or one above _CLOSED_FORM_MAX_ORDER, is
    scipy's kve. Where K overflows the result is inf, as kve's is.

    With with_previous set, returns the pair (e^x K_{order-1}(x),
    e^x K_order(x)), which gives the derivative
    d/dx [x^order K_order(x)] = -x^order K_{order-1}(x). K is even in its
    order, so K_{order-1} is K_{|order-1|}: the recurrence's previous term
    for an integer order (k1e at order 0), the closed form at n - 1/2 for a
    half-integer one, and one more kve call otherwise.
    """
    n = int(order)
    if order > _CLOSED_FORM_MAX_ORDER or order - n not in (0.0, 0.5):
        cur = _sspec.kve(order, x)
        return (_sspec.kve(abs(order - 1.0), x), cur) if with_previous else cur
    with np.errstate(over="ignore", divide="ignore"):
        if order == n:
            if n < 2 and not with_previous:
                return _sspec.k1e(x) if n else _sspec.k0e(x)
            prev, cur = _sspec.k0e(x), _sspec.k1e(x)
            if n == 0:
                prev, cur = cur, prev
            for j in range(1, n):
                prev, cur = cur, prev + (2.0 * j / x) * cur
            return (prev, cur) if with_previous else cur
        t = 0.5 / x
        root = np.sqrt(np.pi / (2.0 * x))
        cur = root * _half_integer_poly(n, t)
        if not with_previous:
            return cur
        return (root * _half_integer_poly(n - 1, t) if n else cur), cur


def _half_integer_poly(n: int, t: np.ndarray) -> np.ndarray:
    """sum_k (n + k)! / (k! (n - k)!) t^k by Horner."""
    coeffs = _HALF_INTEGER_COEFFS[n]
    poly = coeffs[n]
    for k in range(n - 1, -1, -1):
        poly = poly * t + coeffs[k]
    return poly


def dft_forward(series) -> np.ndarray:
    """Discrete Fourier transform of a real series at frequencies
    w_k = 2 pi k / n for k = 0, ..., floor(n / 2).

    The series is treated as observed at t = 1, ..., n and the transform is
    J(w_k) = (2 pi n)^(-1/2) * sum_t z_t exp(-i t w_k).

    Parameters
    ----------
    series : array_like
        Real observations, length n >= 2.

    Returns
    -------
    numpy.ndarray
        Complex vector of length floor(n / 2) + 1.
    """
    z = np.asarray(series, dtype=float)
    if z.ndim != 1:
        raise ValueError("series must be one dimensional, got shape %s" % (z.shape,))
    n = z.size
    if n < 2:
        raise ValueError("series must have length at least 2, got %d" % n)
    if not np.all(np.isfinite(z)):
        raise ValueError("series contains non-finite values")
    return _dft_rows(z)


def _dft_rows(z: np.ndarray) -> np.ndarray:
    """dft_forward along the last axis of a real array, without checks."""
    n = z.shape[-1]
    k = np.arange(n // 2 + 1)
    # numpy indexes time from 0; the extra phase shifts it to t = 1, ..., n
    phase = np.exp(-2j * np.pi * k / n)
    return phase * np.fft.rfft(z, axis=-1) / np.sqrt(2.0 * np.pi * n)


def dft_inverse(coeffs, n: int) -> np.ndarray:
    """Invert a full grid of Fourier coefficients back to a real series.

    Expects coefficients at all n canonical frequencies w_k = 2 pi k / n,
    k = 0, ..., n - 1, satisfying the conjugate symmetry of a real series.
    Symmetry is checked and violations beyond a small tolerance are rejected.

    Parameters
    ----------
    coeffs : array_like
        Complex coefficients, length n, under the same normalization as
        dft_forward.
    n : int
        Length of the output series.

    Returns
    -------
    numpy.ndarray
        Real series of length n indexed by t = 1, ..., n.
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim != 1 or c.size != n:
        raise ValueError("coeffs must be a vector of length n=%d, got shape %s" % (n, (c.shape,)))
    if n < 2:
        raise ValueError("n must be at least 2, got %d" % n)
    if not np.all(np.isfinite(c)):
        raise ValueError("coeffs contain non-finite values")
    scale = max(1.0, float(np.abs(c).max()))
    tol = 1e-8 * scale
    mirrored = np.conj(c[(-np.arange(n)) % n])
    worst = float(np.abs(c - mirrored).max())
    if worst > tol:
        raise ValueError(
            "coefficients violate conjugate symmetry by %.3e (tolerance %.3e); "
            "a real series requires J(w_{n-k}) = conj(J(w_k))" % (worst, tol)
        )
    return _synthesize_rows(c).real


def _synthesize_rows(coeffs: np.ndarray) -> np.ndarray:
    """Complex synthesis z_t = sqrt(2 pi / n) * sum_k J_k exp(i t w_k),
    t = 1, ..., n, along the last axis, without checks."""
    n = coeffs.shape[-1]
    y = np.fft.ifft(coeffs, axis=-1) * n
    return np.sqrt(2.0 * np.pi / n) * np.roll(y, -1, axis=-1)


def cholesky_with_jitter(matrix) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of a Hermitian matrix, adding diagonal jitter
    from a fixed ladder when the plain factorization fails.

    Returns the factor and the absolute jitter that was added (0.0 when none
    was needed). Raises SingularMatrixError when the whole ladder fails.
    """
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square, got shape %s" % (a.shape,))
    dim = a.shape[0]
    scale = float(np.abs(np.trace(a)).real) / dim
    if scale <= 0.0 or not np.isfinite(scale):
        scale = 1.0
    for level in JITTER_LADDER:
        jitter = level * scale
        loaded = a if jitter == 0.0 else a + jitter * np.eye(dim)
        try:
            return _slinalg.cholesky(loaded, lower=True), jitter
        except np.linalg.LinAlgError:
            continue
    raise SingularMatrixError(
        "matrix is not positive definite even with diagonal jitter %.3e" % jitter, jitter
    )


def hpd_solve(matrix, rhs) -> HpdSolution:
    """Solve A x = b for Hermitian positive definite A via Cholesky, with
    escalating diagonal jitter as a fallback for near-singular systems.

    Parameters
    ----------
    matrix : array_like
        Hermitian positive definite matrix. Hermitian symmetry is checked to
        a tolerance of 1e-10 relative to the largest entry.
    rhs : array_like
        Right hand side vector or matrix.

    Returns
    -------
    HpdSolution
        Solution and the diagonal jitter that was used (0.0 normally).
    """
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square, got shape %s" % (a.shape,))
    b = np.asarray(rhs)
    if b.shape[0] != a.shape[0]:
        raise ValueError(
            "rhs leading dimension %d does not match matrix size %d" % (b.shape[0], a.shape[0])
        )
    scale = max(1.0, float(np.abs(a).max()))
    asym = float(np.abs(a - a.conj().T).max())
    if asym > 1e-10 * scale:
        raise ValueError(
            "matrix is not Hermitian: max asymmetry %.3e exceeds tolerance %.3e"
            % (asym, 1e-10 * scale)
        )
    factor, jitter = cholesky_with_jitter(a)
    return HpdSolution(x=_slinalg.cho_solve((factor, True), b), jitter=jitter)
