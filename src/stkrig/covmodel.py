"""Matern-type space-frequency covariance family.

The model describes a random field through, at each temporal frequency w, a
spatial covariance of Matern form whose inverse range |c(w)| varies with
frequency. With mu = 2 nu - d / 2, the cross-spectrum between sites at
spatial distance h > 0 is

    C(h, w) = sigma_e^2 / ((2 pi)^(d/2) 2^(2 nu - 1) Gamma(2 nu))
              * (h / |c(w)|)^mu * K_mu(h |c(w)|)

and its h -> 0 limit, the auto-spectrum of the noise-free field, is

    C(0, w) = sigma_e^2 Gamma(mu) / ((2 pi)^(d/2) 2^(d/2) Gamma(2 nu)
              * |c(w)|^(2 mu)).

The squared inverse range follows a log-cosine expansion
|c(w)|^2 = exp(b_0 + sum_k b_k cos(k w)), so a single coefficient b_0 gives a
frequency-flat (separable) model and higher terms bend the range across
frequencies. Measurement error enters as a nugget: an additive white-noise
variance whose flat spectral contribution sigma_n^2 / (2 pi) appears in
auto-spectra and frequency variograms but never in cross-covariances between
distinct sites.

Every covariance system the package builds, for kriging, simulation or
cov_matrix, comes from one walk over a vector of frequencies
(_covariance_walk), which alone refuses a C(0, w) that is not a positive
normal double.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import digamma, gammaln

from .numerics import _real, _scaled_bessel_k, _Workspace

_TWO_PI = 2.0 * np.pi
# smallest normal double; below it a value carries no relative precision
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class ModelParams:
    """Parameters of the space-frequency covariance model.

    Parameters
    ----------
    sigma_e2 : float
        Innovation scale sigma_e^2 > 0.
    nu : float
        Smoothness, must exceed d / 4.
    c_coeffs : tuple of float
        Log-cosine coefficients (b_0, ..., b_p) of the squared inverse range.
    nugget : float
        Measurement error variance sigma_n^2 >= 0.
    d : int
        Spatial dimension of the site coordinates.
    """

    sigma_e2: float
    nu: float
    c_coeffs: tuple
    nugget: float = 0.0
    d: int = 2

    def __post_init__(self):
        for name in ("sigma_e2", "nu", "nugget", "d"):
            _real(getattr(self, name), name)
        # as objects, a bool or a string entry reaches the check unconverted
        entries = np.atleast_1d(np.asarray(self.c_coeffs, dtype=object))
        coeffs = tuple(float(_real(b, "c_coeffs entry")) for b in entries)
        object.__setattr__(self, "c_coeffs", coeffs)
        if len(coeffs) < 1:
            raise ValueError("c_coeffs needs at least the constant term b_0")
        if not all(np.isfinite(b) for b in coeffs):
            raise ValueError("c_coeffs must be finite, got %r" % (coeffs,))
        if not (np.isfinite(self.sigma_e2) and self.sigma_e2 > 0):
            raise ValueError("sigma_e2 must be positive, got %r" % self.sigma_e2)
        if int(self.d) != self.d or self.d < 1:
            raise ValueError("spatial dimension d must be a positive integer, got %r" % self.d)
        object.__setattr__(self, "d", int(self.d))
        if not (np.isfinite(self.nu) and self.nu > self.d / 4.0):
            raise ValueError(
                "smoothness nu must exceed d/4 = %g, got %r" % (self.d / 4.0, self.nu)
            )
        # the kernel's log-gamma constants; log Gamma(2 nu) overflows past
        # nu ~ 1.3e305, and 2 nu itself past half the largest double
        if not np.isfinite(gammaln(2.0 * float(self.nu))):
            raise ValueError("smoothness nu = %r is too large: log Gamma(2 nu) overflows "
                             "the double range" % self.nu)
        if not (np.isfinite(self.nugget) and self.nugget >= 0):
            raise ValueError("nugget must be nonnegative, got %r" % self.nugget)

    @classmethod
    def _unchecked(cls, sigma_e2: float, nu: float, c_coeffs: tuple, nugget: float,
                   d: int) -> "ModelParams":
        """The model from Python floats, a tuple of them and an int, as
        they are: none of __post_init__'s checks run, so the caller vouches
        for the types and the ranges (fit's search, at every evaluation)."""
        params = object.__new__(cls)
        for name, value in (("sigma_e2", sigma_e2), ("nu", nu), ("c_coeffs", c_coeffs),
                            ("nugget", nugget), ("d", d)):
            object.__setattr__(params, name, value)
        return params

    @property
    def n_coeffs(self) -> int:
        """Number of cosine terms p (excludes the constant b_0)."""
        return len(self.c_coeffs) - 1

    def to_dict(self) -> dict:
        return {
            "sigma_e2": float(self.sigma_e2),
            "nu": float(self.nu),
            "c_coeffs": [float(b) for b in self.c_coeffs],
            "nugget": float(self.nugget),
            "d": int(self.d),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ModelParams":
        """The model from the keys of to_dict (nugget and d optional), each a
        JSON number and c_coeffs an array of them; anything else is a ValueError."""
        unknown = sorted(set(data) - {"sigma_e2", "nu", "c_coeffs", "nugget", "d"})
        if unknown:
            raise ValueError("unknown model parameter key %s" % ", ".join(map(repr, unknown)))
        try:
            coeffs = data["c_coeffs"]
            if not isinstance(coeffs, list):
                raise ValueError("c_coeffs must be an array of numbers, got %r" % (coeffs,))
            return cls(
                sigma_e2=float(_real(data["sigma_e2"], "sigma_e2")),
                nu=float(_real(data["nu"], "nu")),
                c_coeffs=coeffs,
                nugget=float(_real(data.get("nugget", 0.0), "nugget")),
                d=data.get("d", 2),
            )
        except KeyError as missing:
            raise ValueError("model parameters missing required key %s" % missing) from None


def _check_dimension(d: int, params: ModelParams):
    """Raise ValueError unless sites of dimension d match the model's d."""
    if d != params.d:
        raise ValueError("locations have dimension %d but the model has d=%d" % (d, params.d))


def _as_float_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError("%s contains non-finite values" % name)
    return arr


def _distances(h, positive: bool = False) -> np.ndarray:
    arr = _as_float_array(h, "h")
    if positive and (arr <= 0).any():
        raise ValueError(
            "frequency variogram is defined for strictly positive distances, got min %r"
            % float(arr.min())
        )
    if (arr < 0).any():
        raise ValueError("spatial distance h must be nonnegative, got min %r" % float(arr.min()))
    return arr


def _scalar_like(value: np.ndarray, *inputs):
    if all(np.isscalar(x) or np.asarray(x).ndim == 0 for x in inputs):
        return float(value)
    return value


def _c_mod_sq(om: np.ndarray, params: ModelParams) -> np.ndarray:
    log_c2 = np.full(om.shape, params.c_coeffs[0])
    for k, bk in enumerate(params.c_coeffs[1:], start=1):
        log_c2 = log_c2 + bk * np.cos(k * om)
    return np.exp(log_c2)


# |c(w)|^2, C(0, w) and the prefactor may leave the double range; each then
# either reaches its limit in double (0) or fails the finite check below
@np.errstate(over="ignore", divide="ignore")
def _kernel(h: np.ndarray, om: np.ndarray, params: ModelParams, gradient: bool = False,
            smoothness: bool = False, work: _Workspace | None = None):
    """C(h, w) on the broadcast of validated h and om, and C(0, w) on om.

    |c(w)|^2 and the log-gamma constants are computed once, on om's own
    shape, and x^mu K_mu(x) with x = h |c(w)| in one exponentially scaled
    Bessel call, so large distances underflow to zero instead of 0 * inf.
    h = 0 takes the same closed form: its Bessel factor is inf there, and
    the product's limit is C(0, w). The result is clamped to at most
    C(0, w): the two formulas round differently, and at small h their
    difference must not turn negative. A value outside the double range
    raises FloatingPointError, without a numpy warning first.

    With gradient set, the kernel also returns dC(h, w) / d log|c(w)|^2
    = -mu C - (x / 2) C K_{mu-1}(x) / K_mu(x), from the same Bessel call
    (d/dx [x^mu K_mu(x)] = -x^mu K_{mu-1}(x), DLMF 10.29.4). Where the
    Bessel factors are not finite, x K_{mu-1} / K_mu takes its limit 0 at
    small x; C is 0 at large x.

    With smoothness set as well, it also returns dC(h, w) / d nu = C a and
    dC(0, w) / d nu = C(0, w) a_0, with dmu / dnu = 2 and psi the digamma
    function:

        a   = -2 log 2 - 2 psi(2 nu) + 2 log(h / |c(w)|) + 2 d log K_mu(x) / d mu
        a_0 = 2 psi(mu) - 2 psi(2 nu) - 2 log|c(w)|^2,

    d log K / d mu from the same Bessel call. a tends to a_0 as x -> 0, so
    where d log K / d mu is not finite (K overflowing at a stencil order
    near tiny x, where C is C(0, w), or kve's NaN, where C is 0) a takes a_0.
    Where C(0, w) is 0 both derivatives are 0.

    Every array on the grid is work's (a new _Workspace when work is
    None), the Bessel call's included, and each result is written in place
    over one of them, so the results hold until work's next use.
    """
    nu, d = params.nu, params.d
    work = work or _Workspace()
    mu = 2.0 * nu - d / 2.0
    log_scale = np.log(params.sigma_e2) - (d / 2.0) * np.log(_TWO_PI)
    log_gamma_2nu = float(gammaln(2.0 * nu))
    c2 = _c_mod_sq(om, params)
    log_const = log_scale - (d / 2.0) * np.log(2.0) + float(gammaln(mu)) - log_gamma_2nu
    zero = np.exp(log_const - mu * np.log(c2))
    c_abs = np.sqrt(c2)
    log_pref = log_scale - (2.0 * nu - 1.0) * np.log(2.0) - log_gamma_2nu
    # the grid's arrays, each in C order, so sums over the result keep
    # their order; cov first holds the log ratio log(h / |c(w)|)
    shape = np.broadcast_shapes(np.shape(h), np.shape(c_abs))
    x, cov = work("kernel.x", shape), work("kernel.cov", shape)
    # at h = 0, x is 0 * inf where |c(w)|^2 overflows and the log ratio
    # -inf + inf where it underflows: NaN, which the limits below resolve
    with np.errstate(invalid="ignore"):
        np.multiply(h, c_abs, out=x)
        log_ratio = np.subtract(np.log(h), np.log(c_abs), out=cov)
    if smoothness:
        previous, bessel, a = _scaled_bessel_k(mu, x, with_previous=True, order_slope=True,
                                               work=work)
        # a less its constant -2 log 2 - 2 psi(2 nu), in place
        a += log_ratio
        a *= 2.0
    elif gradient:
        previous, bessel = _scaled_bessel_k(mu, x, with_previous=True, work=work)
    else:
        bessel = _scaled_bessel_k(mu, x, work=work)
    # exp(log_pref + mu log_ratio - x), in place
    cov *= mu
    cov += log_pref
    cov -= x
    np.exp(cov, out=cov)
    # a subnormal prefactor has lost bits that a large Bessel factor
    # would carry into the product; those entries are taken in log space
    subnormal = np.less(cov, _TINY, out=work("kernel.subnormal", shape, bool))
    finite = work("scratch.finite", shape, bool)
    if np.isfinite(bessel, out=finite).all():
        cov *= bessel
    else:
        # Where the Bessel factor is not finite the product is its limit.
        # kve is NaN past x ~ 1.08e9 and at x = 0 * inf, where the prefactor
        # is 0 or NaN and C(h, w) is 0. e^x K_mu(x) is inf at x = 0 and
        # overflows only at tiny x, where 1 - C(h, w) / C(0, w) = O(x^2) is
        # below double resolution, so C(h, w) is C(0, w) there.
        small_x = np.isinf(bessel)
        lost = small_x | (np.isnan(bessel) & ~(cov > 0.0))
        np.multiply(cov, bessel, out=cov, where=~lost)
        np.copyto(cov, 0.0, where=lost)
        np.copyto(cov, zero, where=small_x)
        subnormal &= ~lost
    if subnormal.any():
        hs, cs, xs, ks = (np.broadcast_to(arr, shape)[subnormal]
                          for arr in (h, c_abs, x, bessel))
        cov[subnormal] = np.exp(log_pref + mu * (np.log(hs) - np.log(cs)) - xs + np.log(ks))
    if not np.isfinite(cov, out=finite).all():
        raise FloatingPointError("covariance evaluation produced non-finite values")
    np.minimum(cov, zero, out=cov)
    if not gradient:
        return cov, zero
    # the log-derivative -dC / C = mu + (x / 2) K_{mu-1} / K_mu, in place
    # of K_{mu-1}; the Bessel factors are not read after this (at mu = 1/2
    # the two are one array)
    with np.errstate(invalid="ignore"):
        slope = np.divide(previous, bessel, out=previous)
        slope *= x
    np.copyto(slope, 0.0, where=np.logical_not(np.isfinite(slope, out=finite), out=finite))
    slope *= 0.5
    slope += mu
    slope *= cov
    np.negative(slope, out=slope)
    if not smoothness:
        return cov, zero, slope
    digamma_2nu = float(digamma(2.0 * nu))
    a_zero = 2.0 * (float(digamma(mu)) - digamma_2nu - np.log(c2))
    # where C(0, w) is 0, so is C(h, w): |c(w)|^2 may be inf there
    np.copyto(a_zero, 0.0, where=zero == 0.0)
    a -= 2.0 * (np.log(2.0) + digamma_2nu)
    np.copyto(a, a_zero, where=np.logical_not(np.isfinite(a, out=finite), out=finite))
    a *= cov
    return cov, zero, slope, a, a_zero * zero


def c_mod_sq(omega, params: ModelParams):
    """Squared inverse range |c(w)|^2 = exp(b_0 + sum_k b_k cos(k w)).

    Below the double range it is 0; above it raises FloatingPointError,
    without a numpy warning first.
    """
    om = _as_float_array(omega, "omega")
    with np.errstate(over="ignore", invalid="ignore"):
        value = _c_mod_sq(om, params)
    if not np.isfinite(value).all():
        raise FloatingPointError("|c(w)|^2 overflows the double range")
    return _scalar_like(value, omega)


def cov_zero(omega, params: ModelParams):
    """Zero-distance value C(0, w), the auto-spectrum of the noise-free field."""
    _, zero = _kernel(np.zeros(()), _as_float_array(omega, "omega"), params)
    return _scalar_like(zero, omega)


def cov_freq(h, omega, params: ModelParams):
    """Space-frequency covariance C(h, w) at spatial distance h >= 0.

    Parameters
    ----------
    h : float or array_like
        Nonnegative spatial distances. Broadcast against omega.
    omega : float or array_like
        Temporal frequencies.
    params : ModelParams

    Returns
    -------
    float or numpy.ndarray
        C(h, w), strictly positive and decreasing in h.
    """
    cov, _ = _kernel(_distances(h), _as_float_array(omega, "omega"), params)
    return _scalar_like(cov, h, omega)


def corr_freq(h, omega, params: ModelParams):
    """Spatial correlation at frequency w,
    rho(h, w) = (h |c(w)|)^mu K_mu(h |c(w)|) / (2^(mu - 1) Gamma(mu)).

    Equals cov_freq / cov_zero and does not depend on sigma_e2 or the nugget.
    """
    cov, zero = _kernel(_distances(h), _as_float_array(omega, "omega"), params)
    if not np.all((zero > 0) & np.isfinite(zero)):
        raise FloatingPointError("C(0, w) is out of the double range, so rho is undefined")
    return _scalar_like(cov / zero, h, omega)


def st_spectral_density(wavenumber, omega, params: ModelParams):
    """Full spatio-temporal spectral density
    f(lambda, w) = sigma_e^2 / ((2 pi)^d (||lambda||^2 + |c(w)|^2)^(2 nu)).

    Parameters
    ----------
    wavenumber : array_like
        Spatial wave numbers; the last axis must have length d.
    omega : float or array_like
        Temporal frequencies, broadcast against the leading axes of
        wavenumber.

    Where the denominator passes the top of the double range the density
    is 0; where it passes the bottom, the density raises
    FloatingPointError, without a numpy warning first.
    """
    lam = _as_float_array(wavenumber, "wavenumber")
    if lam.shape[-1] != params.d:
        raise ValueError(
            "wavenumber last axis has length %d, expected d=%d" % (lam.shape[-1], params.d)
        )
    om = _as_float_array(omega, "omega")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        norm_sq = np.sum(lam * lam, axis=-1)
        c2 = _c_mod_sq(om, params)
        value = params.sigma_e2 / (_TWO_PI ** params.d * (norm_sq + c2) ** (2.0 * params.nu))
    if not np.isfinite(value).all():
        raise FloatingPointError("the spectral density overflows the double range")
    return _scalar_like(value, omega, norm_sq)


def variogram_model(h, omega, params: ModelParams):
    """Model frequency variogram
    g_h(w) = 2 [ C(0, w) + sigma_n^2 / (2 pi) - C(h, w) ], h > 0.

    This is the expected value of the difference periodogram of two sites a
    distance h apart. The measurement-error spectrum enters the two
    auto-spectra but not the cross term, hence the single nugget summand.
    """
    value = _variogram(_distances(h, positive=True), _as_float_array(omega, "omega"), params)
    return _scalar_like(value, h, omega)


def _variogram(h: np.ndarray, om: np.ndarray, params: ModelParams, gradient: bool = False,
               smoothness: bool = False, work: _Workspace | None = None):
    """variogram_model on validated h > 0 and om. With gradient set, returns
    (g, dg / d log|c(w)|^2) from one kernel pass, and with smoothness set as
    well (g, dg / d log|c(w)|^2, dg / d nu) from that same pass. Each is
    written in place over one of _kernel's arrays in work."""
    cov, zero, *derivatives = _kernel(h, om, params, gradient=gradient, smoothness=smoothness,
                                      work=work)
    g = np.subtract(zero + params.nugget / _TWO_PI, cov, out=cov)
    g *= 2.0
    if not gradient:
        return g
    d_cov = derivatives[0]
    mu = 2.0 * params.nu - params.d / 2.0
    d_cov += mu * zero
    d_cov *= -2.0
    if not smoothness:
        return g, d_cov
    # dg / d nu = 2 (dC(0, w) / d nu - dC(h, w) / d nu), in place
    d_cov_nu, d_zero_nu = derivatives[1:]
    d_cov_nu -= d_zero_nu
    d_cov_nu *= -2.0
    return g, d_cov, d_cov_nu


def cov_matrix(distances, omega, params: ModelParams, include_nugget: bool = True) -> np.ndarray:
    """Spatial covariance matrix at one frequency from a distance matrix.

    Off-diagonal entries are C(h_ij, w); diagonal entries are C(0, w) plus,
    when include_nugget is set, the measurement error spectrum
    sigma_n^2 / (2 pi). The distance matrix must be exactly symmetric with a
    zero diagonal: the kernel is evaluated on the strict lower triangle and
    the result mirrored. A C(0, w) that is not a positive normal double
    raises FloatingPointError.
    """
    dmat = _distances(distances)
    if dmat.ndim != 2 or dmat.shape[0] != dmat.shape[1]:
        raise ValueError("distances must be a square matrix, got shape %s" % (dmat.shape,))
    if not np.array_equal(dmat, dmat.T):
        raise ValueError("distances must be a symmetric matrix")
    if np.diagonal(dmat).any():
        raise ValueError("distances must have a zero diagonal")
    om = _as_float_array(float(omega), "omega")
    lower = np.tri(dmat.shape[0], k=-1, dtype=bool)
    _, f, _, _ = next(_covariance_walk(dmat[lower], lower, om.reshape(1), params,
                                       include_nugget))
    return _mirrored(f, lower)


def _site_pair_distances(locations: np.ndarray):
    """The distances under the strict lower triangle of the sites' distance
    matrix, in row order, and that triangle as a mask: what
    _covariance_walk takes.

    Coordinates near the top of the double range overflow a distance; that
    is rejected here, without a numpy warning first.
    """
    lower = np.tri(locations.shape[0], k=-1, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        diff = locations[:, None, :] - locations[None, :, :]
        dists = np.linalg.norm(diff, axis=-1)[lower]
    if not np.isfinite(dists).all():
        k = int(np.argmin(np.isfinite(dists)))
        i, j = np.argwhere(lower)[k]
        raise ValueError("the distance between sites %d and %d is not finite (%r)"
                         % (j, i, float(dists[k])))
    return dists, lower


# Kernel points per block of frequencies in _covariance_walk. Measured on
# a 2-core Xeon, median per krige_series at nu = 0.8, with the walk's one
# Bessel table: at m = 40, n = 513, 66 ms with blocks of 512 points, 25 ms
# at 4k, 19 ms at 16k, 25 ms at 32k and 39 ms with the whole grid in one
# block; at m = 100, n = 1057 (5,050 points per frequency), over two runs,
# 227 to 244 ms with one frequency per block, 178 to 257 ms with two
# (10k), 165 to 193 ms at 16k, 161 to 165 ms at 32k and 179 to 197 ms at
# 64k. Blocks amortise the kernel's per-call costs until its arrays leave
# the cache; at 16k a block's F stack stays near 256 KB.
_BLOCK_POINTS = 16384


def _covariance_walk(h: np.ndarray, lower: np.ndarray, omegas: np.ndarray,
                     params: ModelParams, include_nugget: bool = True):
    """The covariance systems at omegas, one frequency at a time: yields
    (k, F, C(h_extra, w_k), C(0, w_k)) for each index k of omegas.

    h holds validated distances: those under lower, the strict lower
    triangle of an m x m distance matrix, in row order, then any extra
    distances. F holds the triangle and, on the diagonal, C(0, w) plus,
    when include_nugget is set, the measurement error spectrum
    sigma_n^2 / (2 pi); its strict upper triangle is left unset, as a lower
    Cholesky factorization never reads it (_mirrored fills it).

    The kernel runs once per block of as many whole frequencies as fit in
    _BLOCK_POINTS kernel points, at least one. The blocks share one
    workspace, whose Bessel tables span the walk's whole x = h |c(w)| range
    when there is more than one block: each block still takes the table or
    kve by its own point count, and the blocks that take it share one table
    per order. The yielded arrays are new, none of the workspace's, so they
    may be kept. A C(0, w) that is not a positive normal double raises
    FloatingPointError."""
    per_block = max(1, _BLOCK_POINTS // max(1, h.size))
    work = _Workspace()
    if omegas.size > per_block:
        work.cover(_x_range(h, omegas, params))
    m = lower.shape[0]
    n_tri = m * (m - 1) // 2
    nugget = params.nugget / _TWO_PI if include_nugget else 0.0
    for start in range(0, omegas.size, per_block):
        block = omegas[start : start + per_block]
        values, zero = _kernel(h, block[:, None], params, work=work)
        zero = zero[:, 0]
        bad = ~((zero >= _TINY) & (zero < np.inf))
        if bad.any():
            k = int(np.argmax(bad))
            raise FloatingPointError(
                "C(0, w) = %r at w = %r is not a normal double; the model's covariance "
                "scale is out of range" % (float(zero[k]), float(block[k])))
        f = np.empty((block.size, m, m))
        f.reshape(block.size, m * m)[:, :: m + 1] = (zero + nugget)[:, None]
        extra = values[:, n_tri:].copy()
        # a boolean mask indexes several times faster than np.tril_indices' arrays
        for k, (fk, tri) in enumerate(zip(f, values[:, :n_tri])):
            fk[lower] = tri
            yield start + k, fk, extra[k], zero[k]


@np.errstate(over="ignore")
def _x_range(h: np.ndarray, omegas: np.ndarray, params: ModelParams) -> np.ndarray:
    """The least and the greatest x = h |c(w)| of the kernel's grid over
    the positive h and the finite positive |c(w)| of omegas: the products
    of their extremes, as the kernel rounds them (a correctly rounded
    product is monotone, so none on the grid lies outside), or an empty
    array where there are none."""
    c_abs = np.sqrt(_c_mod_sq(omegas, params))
    c_abs = c_abs[(c_abs > 0.0) & (c_abs < np.inf)]
    positive = h[h > 0.0]
    if not (positive.size and c_abs.size):
        return np.empty(0)
    return np.array([positive.min() * c_abs.min(), positive.max() * c_abs.max()])


def _mirrored(f: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """f, one matrix of _covariance_walk, with its strict upper triangle
    mirrored from the lower one."""
    f.T[lower] = f[lower]
    return f
