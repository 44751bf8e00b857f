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
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .numerics import _scaled_bessel_k, log_gamma

_TWO_PI = 2.0 * np.pi


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
    eq310_constant : bool
        Compatibility switch for an alternative zero-distance constant that
        is 2 pi times the default one (d = 2 only). Leave off unless
        reproducing output of software that used that convention.
    """

    sigma_e2: float
    nu: float
    c_coeffs: tuple
    nugget: float = 0.0
    d: int = 2
    eq310_constant: bool = False

    def __post_init__(self):
        coeffs = tuple(float(b) for b in np.atleast_1d(self.c_coeffs))
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
        if not (np.isfinite(self.nugget) and self.nugget >= 0):
            raise ValueError("nugget must be nonnegative, got %r" % self.nugget)
        if self.eq310_constant and self.d != 2:
            raise ValueError("eq310_constant is defined only for d = 2")

    @property
    def n_coeffs(self) -> int:
        """Number of cosine terms p (excludes the constant b_0)."""
        return len(self.c_coeffs) - 1

    def to_dict(self) -> dict:
        out = {
            "sigma_e2": float(self.sigma_e2),
            "nu": float(self.nu),
            "c_coeffs": [float(b) for b in self.c_coeffs],
            "nugget": float(self.nugget),
            "d": int(self.d),
        }
        if self.eq310_constant:
            out["eq310_constant"] = True
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ModelParams":
        try:
            return cls(
                sigma_e2=float(data["sigma_e2"]),
                nu=float(data["nu"]),
                c_coeffs=tuple(float(b) for b in data["c_coeffs"]),
                nugget=float(data.get("nugget", 0.0)),
                d=int(data.get("d", 2)),
                eq310_constant=bool(data.get("eq310_constant", False)),
            )
        except KeyError as missing:
            raise ValueError("model parameters missing required key %s" % missing) from None


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
def _kernel(h: np.ndarray, om: np.ndarray, params: ModelParams):
    """C(h, w) on the broadcast of validated h and om, and C(0, w) on om.

    |c(w)|^2 and the log-gamma constants are computed once, on om's own
    shape, and x^mu K_mu(x) with x = h |c(w)| in one exponentially scaled
    Bessel call, so large distances underflow to zero instead of 0 * inf.
    Entries with h = 0 are C(0, w). Elsewhere the closed form is clamped to
    at most C(0, w): the two formulas round differently, and at small h
    their difference must not turn negative. A value outside the double
    range raises FloatingPointError, without a numpy warning first.
    """
    nu, d = params.nu, params.d
    mu = 2.0 * nu - d / 2.0
    log_scale = np.log(params.sigma_e2) - (d / 2.0) * np.log(_TWO_PI)
    log_gamma_2nu = log_gamma(2.0 * nu)
    c2 = _c_mod_sq(om, params)
    if params.eq310_constant:
        zero = params.sigma_e2 / (2.0 * (2.0 * nu - 1.0) * c2 ** (2.0 * nu - 1.0))
    else:
        log_const = log_scale - (d / 2.0) * np.log(2.0) + log_gamma(mu) - log_gamma_2nu
        zero = np.exp(log_const - mu * np.log(c2))
    c_abs = np.sqrt(c2)
    log_pref = log_scale - (2.0 * nu - 1.0) * np.log(2.0) - log_gamma_2nu

    def closed_form(hv, cv, zv):
        x = hv * cv
        cov = np.exp(log_pref + mu * (np.log(hv) - np.log(cv)) - x)
        bessel = _scaled_bessel_k(mu, x)
        if np.isfinite(bessel).all():
            # in place, as numpy multiplies into an unnamed temporary: a
            # second array this size slows every criterion evaluation
            cov *= bessel
            return cov
        # Where the Bessel factor is not finite the product is its limit.
        # kve is NaN past x ~ 1.08e9, where the prefactor has underflowed and
        # C(h, w) is 0. e^x K_mu(x) overflows only at tiny x, where
        # 1 - C(h, w) / C(0, w) = O(x^2) is below double resolution, so
        # C(h, w) is C(0, w) there.
        small_x = np.isinf(bessel)
        lost = small_x | (np.isnan(bessel) & (cov == 0.0))
        return np.where(lost, np.where(small_x, zv, 0.0), cov * np.where(lost, 1.0, bessel))

    # C order, as the callers' grids are, so sums over the result keep their order
    if (h > 0.0).all():
        # the criterion's case: evaluated on the broadcast, no mask and no copies
        cov = np.asarray(closed_form(h, c_abs, zero), order="C")
    else:
        h_b, c_abs_b, zero_b = np.broadcast_arrays(h, c_abs, zero)
        cov = np.array(zero_b, order="C")
        pos = h_b > 0.0
        if pos.any():
            cov[pos] = closed_form(h_b[pos], c_abs_b[pos], zero_b[pos])
    if not np.isfinite(cov).all():
        raise FloatingPointError("covariance evaluation produced non-finite values")
    return np.minimum(cov, zero, out=cov), zero


def c_mod_sq(omega, params: ModelParams):
    """Squared inverse range |c(w)|^2 = exp(b_0 + sum_k b_k cos(k w))."""
    return _scalar_like(_c_mod_sq(_as_float_array(omega, "omega"), params), omega)


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

    Equals cov_freq / cov_zero (with eq310_constant off) and does not depend
    on sigma_e2 or the nugget.
    """
    hv = _distances(h)
    om = _as_float_array(omega, "omega")
    if params.eq310_constant:
        # the switch rescales C(0, w) alone; rho is the Matern correlation
        params = replace(params, eq310_constant=False)
    cov, zero = _kernel(hv, om, params)
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
    """
    lam = _as_float_array(wavenumber, "wavenumber")
    if lam.shape[-1] != params.d:
        raise ValueError(
            "wavenumber last axis has length %d, expected d=%d" % (lam.shape[-1], params.d)
        )
    norm_sq = np.sum(lam * lam, axis=-1)
    c2 = _c_mod_sq(_as_float_array(omega, "omega"), params)
    value = params.sigma_e2 / (_TWO_PI ** params.d * (norm_sq + c2) ** (2.0 * params.nu))
    return _scalar_like(value, omega, norm_sq)


def variogram_model(h, omega, params: ModelParams):
    """Model frequency variogram
    g_h(w) = 2 [ C(0, w) + sigma_n^2 / (2 pi) - C(h, w) ], h > 0.

    This is the expected value of the difference periodogram of two sites a
    distance h apart. The measurement-error spectrum enters the two
    auto-spectra but not the cross term, hence the single nugget summand.
    """
    cov, zero = _kernel(_distances(h, positive=True), _as_float_array(omega, "omega"), params)
    value = 2.0 * ((zero + params.nugget / _TWO_PI) - cov)
    return _scalar_like(value, h, omega)


def cov_matrix(distances, omega, params: ModelParams, include_nugget: bool = True) -> np.ndarray:
    """Spatial covariance matrix at one frequency from a distance matrix.

    Off-diagonal entries are C(h_ij, w); diagonal entries are C(0, w) plus,
    when include_nugget is set, the measurement error spectrum
    sigma_n^2 / (2 pi). The distance matrix must be exactly symmetric: the
    kernel is evaluated on one triangle, diagonal included, and the result
    mirrored.
    """
    dmat = _distances(distances)
    if dmat.ndim != 2 or dmat.shape[0] != dmat.shape[1]:
        raise ValueError("distances must be a square matrix, got shape %s" % (dmat.shape,))
    if not np.array_equal(dmat, dmat.T):
        raise ValueError("distances must be a symmetric matrix")
    m = dmat.shape[0]
    # a boolean mask indexes several times faster than np.tril_indices' arrays
    lower = np.tri(m, dtype=bool)
    tri, _ = _kernel(dmat[lower], _as_float_array(float(omega), "omega"), params)
    f = np.empty((m, m))
    f[lower] = tri
    f.T[lower] = tri
    if include_nugget and params.nugget > 0:
        f.flat[:: m + 1] += params.nugget / _TWO_PI
    return f


def pack_params(params: ModelParams, nu_fixed: bool = False, fit_nugget: bool = False) -> np.ndarray:
    """Map model parameters to an unconstrained vector for optimization.

    Layout: [log sigma_e^2, (log(nu - d/4) unless nu is held fixed),
    b_0, ..., b_p, (log nugget when the nugget is estimated)].
    """
    vec = [np.log(params.sigma_e2)]
    if not nu_fixed:
        vec.append(np.log(params.nu - params.d / 4.0))
    vec.extend(params.c_coeffs)
    if fit_nugget:
        if params.nugget <= 0:
            raise ValueError("cannot place a zero nugget on the log scale")
        vec.append(np.log(params.nugget))
    return np.asarray(vec, dtype=float)


def unpack_params(vector, n_coeffs: int, d: int = 2, nu_fixed=None,
                  fit_nugget: bool = False) -> ModelParams:
    """Inverse of pack_params.

    Parameters
    ----------
    vector : array_like
        Unconstrained coordinates.
    n_coeffs : int
        Number of cosine terms p (the coefficient block has p + 1 entries).
    d : int
        Spatial dimension.
    nu_fixed : float or None
        When a float, nu is held at that value and the vector carries no
        smoothness coordinate.
    fit_nugget : bool
        Whether the vector ends with a log nugget coordinate.
    """
    vec = np.asarray(vector, dtype=float)
    expected = 1 + (0 if nu_fixed is not None else 1) + (n_coeffs + 1) + (1 if fit_nugget else 0)
    if vec.ndim != 1 or vec.size != expected:
        raise ValueError(
            "expected %d unconstrained coordinates, got shape %s" % (expected, (vec.shape,))
        )
    pos = 0
    sigma_e2 = float(np.exp(vec[pos]))
    pos += 1
    if nu_fixed is None:
        nu = d / 4.0 + float(np.exp(vec[pos]))
        pos += 1
    else:
        nu = float(nu_fixed)
    coeffs = tuple(float(b) for b in vec[pos : pos + n_coeffs + 1])
    pos += n_coeffs + 1
    nugget = float(np.exp(vec[pos])) if fit_nugget else 0.0
    return ModelParams(sigma_e2=sigma_e2, nu=nu, c_coeffs=coeffs, nugget=nugget, d=d)


def natural_names(n_coeffs: int, nu_fixed: bool = False, fit_nugget: bool = False) -> list:
    """Names of the natural-scale parameters in pack_params order."""
    names = ["sigma_e2"]
    if not nu_fixed:
        names.append("nu")
    names.extend("b%d" % k for k in range(n_coeffs + 1))
    if fit_nugget:
        names.append("nugget")
    return names
