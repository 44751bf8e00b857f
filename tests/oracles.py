"""Independent reference implementations used to check the package.

Everything here is deliberately slow and simple: quadrature instead of
special-function libraries, O(n^2) transform sums instead of the FFT,
textbook elimination instead of factorizations, and a recursive AR
generator. The tests compare the fast paths in stkrig against these.
"""

import numpy as np
from scipy.integrate import quad
from scipy.linalg import solve_toeplitz


_LN2 = float(np.log(2.0))


def _log_bessel_integrand(t, order, x):
    # log of exp(-x cosh t) cosh(order t); log1p keeps cosh(order t) from
    # overflowing. Past t = 700, near cosh's overflow, x cosh t is taken as
    # (x e^700) e^(t - 700) / 2, whose e^-t term is below an ulp, so windows
    # for x near the smallest double reach past it; -x*inf falls through to
    # -inf where even that overflows.
    with np.errstate(over="ignore"):
        xc = x * np.cosh(t) if t <= 700.0 else x * np.exp(700.0) * (0.5 * np.exp(t - 700.0))
    u = abs(order * t)
    return -xc + u - _LN2 + np.log1p(np.exp(-2.0 * u))


def bessel_k_quadrature(order, x):
    """Modified Bessel K via its integral representation.

    K_v(x) = integral_0^inf exp(-x cosh t) cosh(v t) dt, v >= 0, x > 0.
    The integrand peaks near asinh(v / x), which can sit far from the
    origin with a huge peak value, so the quadrature runs on the
    peak-scaled integrand over a finite window chosen from the decay.
    """
    order = float(order)
    x = float(x)
    if order < 0.0 or x <= 0.0:
        raise ValueError("need order >= 0 and x > 0")

    # asinh(y) is log(2 y) to a double's precision from y = 1e8 on, and
    # order / x can overflow
    if order > 1e8 * x:
        split = float(np.log(order) - np.log(x) + _LN2)
    else:
        split = float(np.arcsinh(order / x)) if order > 0.0 else 0.0
    scale = max(_log_bessel_integrand(split, order, x),
                _log_bessel_integrand(0.0, order, x))

    def integrand(t):
        return np.exp(_log_bessel_integrand(t, order, x) - scale)

    end = max(split, 1.0)
    while _log_bessel_integrand(end, order, x) > scale - 320.0:
        end *= 1.25
    total = 0.0
    if split > 0.0:
        head, _ = quad(integrand, 0.0, split, epsabs=0.0, epsrel=1e-12, limit=400)
        total += head
    tail, _ = quad(integrand, split, end, epsabs=0.0, epsrel=1e-12, limit=400)
    total += tail
    return total * np.exp(scale)


def dft_brute_force(series):
    """O(n^2) transform with times 1..n and the 1/sqrt(2 pi n) scaling."""
    z = np.asarray(series, dtype=float)
    n = z.size
    t = np.arange(1, n + 1)
    out = np.empty(n // 2 + 1, dtype=complex)
    for k in range(n // 2 + 1):
        w = 2.0 * np.pi * k / n
        out[k] = np.sum(z * np.exp(-1j * w * t)) / np.sqrt(2.0 * np.pi * n)
    return out


def synthesize_brute_force(coeffs, n):
    """O(n^2) inverse of the full-grid transform, times 1..n."""
    c = np.asarray(coeffs, dtype=complex)
    if c.size != n:
        raise ValueError("need one coefficient per canonical frequency")
    t = np.arange(1, n + 1)
    z = np.empty(n)
    for i, ti in enumerate(t):
        w = 2.0 * np.pi * np.arange(n) / n
        z[i] = np.real(np.sum(c * np.exp(1j * w * ti))) * np.sqrt(2.0 * np.pi / n)
    return z


def solve_gauss(matrix, rhs):
    """Gaussian elimination with partial pivoting; complex-safe."""
    a = np.array(matrix, dtype=complex)
    b = np.array(rhs, dtype=complex)
    n = a.shape[0]
    if a.shape != (n, n) or b.shape[0] != n:
        raise ValueError("incompatible shapes")
    vector = b.ndim == 1
    if vector:
        b = b[:, None]
    for col in range(n):
        pivot = col + np.argmax(np.abs(a[col:, col]))
        if np.abs(a[pivot, col]) == 0.0:
            raise np.linalg.LinAlgError("singular matrix")
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            b[[col, pivot]] = b[[pivot, col]]
        for row in range(col + 1, n):
            factor = a[row, col] / a[col, col]
            a[row, col:] -= factor * a[col, col:]
            b[row] -= factor * b[col]
    x = np.zeros_like(b)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1:] @ x[row + 1:]) / a[row, row]
    return x[:, 0] if vector else x


def invert_gauss(matrix):
    a = np.asarray(matrix)
    return solve_gauss(a, np.eye(a.shape[0], dtype=complex))


def ar1_series(phi, n, innovation_sd=1.0, seed=0):
    """Stationary AR(1) drawn in the time domain."""
    if not -1.0 < phi < 1.0:
        raise ValueError("phi must lie inside the unit interval")
    rng = np.random.default_rng(seed)
    z = np.empty(n)
    z[0] = rng.normal(0.0, innovation_sd / np.sqrt(1.0 - phi * phi))
    eps = rng.normal(0.0, innovation_sd, n - 1)
    for t in range(1, n):
        z[t] = phi * z[t - 1] + eps[t - 1]
    return z


def arma_series(phis, theta, n, seed=0, burn_in=200):
    """ARMA(p, 1) drawn in the time domain from zero initial values, with
    the first burn_in points discarded."""
    rng = np.random.default_rng(seed)
    eps = rng.normal(size=n + burn_in)
    z = np.zeros(n + burn_in)
    for t in range(n + burn_in):
        z[t] = eps[t] + (theta * eps[t - 1] if t > 0 else 0.0)
        for j, phi in enumerate(phis, start=1):
            if t >= j:
                z[t] += phi * z[t - j]
    return z[burn_in:]


def distance_bins_by_scan(locations, mode="exact", n_bins=None, tolerance=None):
    """Distance bins by the original pair-by-pair scan, as (distance, pairs)
    sorted by distance: per-pair norms, greedy tolerance groups, and each
    pair assigned to the nearest group mean by a scan over all of them
    (np.argmin, so an exact midpoint goes to the smaller distance).
    O(pairs x bins); only for small layouts.
    """
    loc = np.atleast_2d(np.asarray(locations, dtype=float))
    m = loc.shape[0]
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    dists = np.array([float(np.linalg.norm(loc[i] - loc[j])) for i, j in pairs])
    order = np.argsort(dists, kind="stable")
    if mode == "quantile":
        groups = [list(c) for c in np.array_split(order, n_bins) if c.size > 0]
    else:
        tol = float(tolerance) if tolerance is not None else 1e-9 * float(dists.max())
        seeds = []
        current = [order[0]]
        for idx in order[1:]:
            if dists[idx] - dists[current[0]] <= tol:
                current.append(idx)
            else:
                seeds.append(current)
                current = [idx]
        seeds.append(current)
        reps = np.array([dists[g].mean() for g in seeds])
        groups = [[] for _ in reps]
        for idx in order:
            groups[int(np.argmin(np.abs(reps - dists[idx])))].append(idx)
    bins = [(float(dists[g].mean()), tuple(pairs[i] for i in g)) for g in groups if g]
    bins.sort(key=lambda b: b[0])
    return bins


def tolerance_group_starts_by_loop(ranked, tol):
    """Starts of the greedy tolerance groups of sorted values, one value at
    a time: a value opens a new group unless value - first <= tol, first
    being the value that opened the current group."""
    values = np.asarray(ranked, dtype=float).tolist()
    starts, first = [0], values[0]
    for k in range(1, len(values)):
        if not values[k] - first <= tol:
            starts.append(k)
            first = values[k]
    return np.array(starts)


def binned_difference_periodograms_by_loop(spectral, bins, n_frequencies):
    """Mean difference periodogram of each bin by the original pair-by-pair
    loop; bins is a list of (distance, pairs) as distance_bins_by_scan
    returns it. Each pair's periodogram is |J_i - J_j|^2 over the whole
    grid, truncated after, as difference_periodogram computes it."""
    out = np.empty((len(bins), n_frequencies))
    for l, (_, pairs) in enumerate(bins):
        acc = np.zeros(n_frequencies)
        for i, j in pairs:
            diff = spectral.dft[i] - spectral.dft[j]
            acc += (diff * np.conj(diff)).real[:n_frequencies]
        out[l] = acc / len(pairs)
    return out


def cov_matrix_full(distances, omega, params, include_nugget=True):
    """cov_matrix as it was before it evaluated one triangle: the package's
    kernel (through cov_freq) on every entry of the distance matrix, then
    the nugget spectrum added on the diagonal. Not independent of stkrig;
    it pins the triangle-and-mirror assembly to the full evaluation."""
    from stkrig import cov_freq

    dmat = np.asarray(distances, dtype=float)
    f = np.asarray(cov_freq(dmat, float(omega), params))
    if include_nugget and params.nugget > 0:
        f = f + (params.nugget / (2.0 * np.pi)) * np.eye(dmat.shape[0])
    return f


def simulate_panel_by_frequency(spec):
    """simulate_panel's observations as it drew them before it shared one
    loop over the grid: the interior frequencies, then separate blocks for
    w = 0 and w = pi, each a cov_matrix call on the full distance matrix
    and a jittered Cholesky factor. Not independent of stkrig (it shares
    the kernel, the factorization and the synthesis); it pins the single
    loop to the old draws, bit for bit."""
    from stkrig import cov_matrix
    from stkrig.numerics import _synthesize_half, cholesky_with_jitter
    from stkrig.spectral import fourier_frequencies

    loc, n, params = spec.locations, spec.n, spec.params
    m = loc.shape[0]
    dmat = np.linalg.norm(loc[:, None, :] - loc[None, :, :], axis=-1)
    freqs = fourier_frequencies(n)
    rng = np.random.default_rng(spec.seed)
    z_re = rng.standard_normal((freqs.size, m))
    z_im = rng.standard_normal((freqs.size, m))
    z_zero = rng.standard_normal(m)
    z_fold = rng.standard_normal(m) if n % 2 == 0 else None

    def factor(w):
        return cholesky_with_jitter(cov_matrix(dmat, float(w), params, include_nugget=False))[0]

    coeffs = np.zeros((m, n // 2 + 1), dtype=complex)
    for idx, w in enumerate(freqs):
        ordinate = factor(w) @ ((z_re[idx] + 1j * z_im[idx]) / np.sqrt(2.0))
        coeffs[:, idx + 1] = ordinate
    coeffs[:, 0] = factor(0.0) @ z_zero
    if z_fold is not None:
        coeffs[:, n // 2] = factor(np.pi) @ z_fold
    observations = _synthesize_half(coeffs, n)
    if spec.include_measurement_error and params.nugget > 0:
        observations += rng.normal(0.0, np.sqrt(params.nugget), size=(m, n))
    return observations


def krige_series_by_frequency(panel, target, params, include_target_noise=False):
    """krige_series' per-frequency prediction as it took it before it built
    the systems in blocks of frequencies: per interior frequency one
    assemble_system call (its own kernel call, the full mirrored matrix)
    and hpd_solve. Returns (predicted ordinates, mse, jitter, failed
    indices); a frequency hpd_solve gives up on is NaN and listed. Not
    independent of stkrig (it shares the kernel and the jitter ladder); it
    pins the blocked path to the per-frequency one, bit for bit."""
    from stkrig import assemble_system, dft_panel, hpd_solve
    from stkrig.numerics import SingularMatrixError

    spectral = dft_panel(panel)
    m_freq = spectral.n_frequencies
    predicted = np.full(m_freq, np.nan, dtype=complex)
    mse, jitter, failed = np.full(m_freq, np.nan), np.zeros(m_freq), []
    for k, w in enumerate(spectral.frequencies):
        f, g0, c0 = assemble_system(panel.locations, target, w, params, include_target_noise)
        try:
            sol = hpd_solve(f, g0)
        except SingularMatrixError:
            failed.append(k)
            continue
        predicted[k] = sol.x @ spectral.dft[:, k]
        mse[k] = max(0.0, float(c0 - sol.x @ g0))
        jitter[k] = sol.jitter
    return predicted, mse, jitter, failed


def ar_forecasts_by_loops(centered, mu, coeffs, s2, horizons):
    """Point forecasts and their mean squared errors for an AR model with
    coefficients coeffs and innovation variance s2, from a series centred at
    mu, by the two loops forecast used to run: one extends a list of every
    value, the other sums only the psi weights that exist."""
    order = len(coeffs)
    n = len(centered)
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
    return fc, mse


def _yule_walker_start(x, p):
    n = x.size
    r = np.array([float(np.dot(x[: n - k], x[k:])) / n for k in range(p + 1)])
    if r[0] <= 0:
        return np.zeros(p)
    try:
        phi = solve_toeplitz(r[:p], r[1 : p + 1])
    except np.linalg.LinAlgError:
        return np.zeros(p)
    if not np.all(np.isfinite(phi)):
        return np.zeros(p)
    return np.asarray(phi, dtype=float)


def simplex_search(objective, start, step, max_iterations, tolerance_f, tolerance_x):
    """scipy's Nelder-Mead from start, whose initial simplex adds step to
    each coordinate in turn, with scipy's fatol = tolerance_f, xatol =
    tolerance_x, maxiter = max_iterations and maxfev fifty times that.
    Returns (x, value, nfev), x the start itself when the search ended
    above it; raises ValueError when the objective is not finite at start."""
    from scipy.optimize import minimize

    start = np.asarray(start, dtype=float)
    f0 = float(objective(start))
    if not np.isfinite(f0):
        raise ValueError("objective is not finite at the start point (value %r)" % f0)
    simplex = np.vstack([start, start + step * np.eye(start.size)])
    res = minimize(lambda v: float(objective(v)), start, method="Nelder-Mead",
                   options={"maxiter": max_iterations, "maxfev": 50 * max_iterations,
                            "fatol": tolerance_f, "xatol": tolerance_x,
                            "initial_simplex": simplex})
    if float(res.fun) > f0:
        return start, f0, int(res.nfev)
    return np.asarray(res.x, dtype=float), float(res.fun), int(res.nfev)


def ar_fits_by_simplex(series, max_order=8):
    """Whittle AR fits of orders 0..max_order by the original simplex search:
    a time-domain Yule-Walker start made stationary, Nelder-Mead on the
    package's grid criterion, the result made stationary. Returns the list
    of (coefficients, criterion) per order, the order BIC selects and the
    criterion as a function of the coefficients. Not independent of stkrig
    (it shares the criterion and the root reflection); it pins the exact
    per-order solve to the old search."""
    from stkrig.krige import _ar_whittle_value, _enforce_stationarity
    from stkrig.numerics import dft_forward
    from stkrig.spectral import fourier_frequencies

    x = np.asarray(series, dtype=float)
    n = x.size
    centered = x - x.mean()
    pgram = np.abs(dft_forward(centered)[1 : (n - 1) // 2 + 1]) ** 2
    phases = np.exp(-1j * np.arange(1, max_order + 1)[:, None] * fourier_frequencies(n))

    def objective(phi):
        return _ar_whittle_value(phi, pgram, phases, n)[0]

    fits = [(np.empty(0), objective(np.empty(0)))]
    for p in range(1, max_order + 1):
        start, _ = _enforce_stationarity(_yule_walker_start(centered, p))
        if not np.isfinite(objective(start)):
            start = np.zeros(p)
        found, _, _ = simplex_search(objective, start, 0.05, max_iterations=2000,
                                     tolerance_f=1e-10, tolerance_x=1e-8)
        coeffs, _ = _enforce_stationarity(found)
        fits.append((coeffs, objective(coeffs)))
    order = int(np.argmin([n / (2.0 * np.pi) * value + p * np.log(n)
                           for p, (_, value) in enumerate(fits)]))
    return fits, order, objective


def fit_by_simplex(panel, config):
    """fit as it searched before it had the criterion's gradient: the same
    seeded starts and profiled criterion, searched by Nelder-Mead under fit's
    iteration cap and tolerances, and the same full evaluation at the unpacked
    winner.
    Returns (params, criterion, nfev per restart). Not independent of stkrig
    (it shares the criterion); it pins the gradient search to the simplex's
    minima."""
    from dataclasses import replace

    from stkrig.estimate import (_MAX_ITERATIONS, _TOLERANCE_F, _TOLERANCE_X, _Coordinates,
                                 _criterion_terms, _prepare, build_distance_bins)
    from stkrig.spectral import dft_panel

    p, d, nu_fixed = config.n_coeffs, panel.d, config.nu_fixed
    bins = build_distance_bins(panel.locations, mode=config.bins_mode,
                               n_bins=config.n_bins, tolerance=config.bin_tolerance)
    prepared = _prepare(dft_panel(panel), bins, config.n_frequencies)

    coords = _Coordinates(p, d, nu_fixed, config.fit_nugget)

    def scale_free(vec):
        return coords.unpack(np.concatenate(([0.0], vec)))

    def objective(vec):
        try:
            terms, _ = _criterion_terms(prepared, scale_free(vec), profile=True)
        except (ArithmeticError, ValueError):
            return np.inf
        return float(terms.sum(axis=1).mean())

    rng = np.random.default_rng(config.seed)
    best, nfev = None, []
    for _ in range(config.multistart):
        start = ([0.0] if nu_fixed is None else []) + list(rng.normal(0.0, 0.5, size=p + 1))
        if config.fit_nugget:
            start.append(np.log(2.0 * np.pi) - np.log(10.0))
        try:
            result = simplex_search(objective, np.asarray(start), 0.25, _MAX_ITERATIONS,
                                    _TOLERANCE_F, _TOLERANCE_X)
        except ValueError:
            nfev.append(0)
            continue
        nfev.append(result[2])
        if best is None or result[1] < best[1]:
            best = result
    theta = scale_free(best[0])
    _, scale = _criterion_terms(prepared, theta, profile=True)
    params = replace(theta, sigma_e2=scale, nugget=scale * theta.nugget)
    return params, float(_criterion_terms(prepared, params).sum(axis=1).mean()), nfev


def criterion_hessian_by_central_differences(binned, distances, frequencies, params, coords,
                                             step=1e-4):
    """The criterion's Hessian in coords at params as the sandwich took it
    before it used the expected information: central differences, with
    step 1e-4, of the gradient (the summed scores), 2k gradient evaluations
    for k coordinates, then symmetrized. Not independent of stkrig (it
    shares the scores); it pins the expected information to the full
    Hessian where the data equal the model variogram."""
    from stkrig.estimate import _criterion_terms, _Prepared

    prepared = _Prepared(binned, distances, frequencies, coords)

    def gradient(vec):
        return _criterion_terms(prepared, coords.unpack(vec), scores=True)[1].sum(axis=1)

    vec = coords.pack(params)
    hess = np.array([gradient(vec + e) - gradient(vec - e)
                     for e in step * np.eye(vec.size)]) / (2.0 * step)
    return (hess + hess.T) / 2.0


def variogram_by_mpmath(h, omega, params, digits=40):
    """g_h(w) = 2 C(0, w) (1 - rho(x)) + sigma_n^2 / pi, x = h |c(w)|, and
    its derivative in log|c(w)|^2,
    -2 mu C(0, w) (1 - rho) + C(0, w) x rho K_{mu-1}(x) / K_mu(x), in
    mpmath at the given digits, from the closed forms in the
    stkrig.covmodel docstring: C(0, w) goes as |c(w)|^(-2 mu),
    rho(x) = 2 (x / 2)^mu K_mu(x) / Gamma(mu), and
    d/dx [x^mu K_mu(x)] = -x^mu K_{mu-1}(x) (DLMF 10.29.4). Both are
    floats; mpmath is imported here, so the module loads without it."""
    import mpmath

    with mpmath.workdps(digits):
        nu, d = mpmath.mpf(params.nu), mpmath.mpf(params.d)
        mu = 2 * nu - d / 2
        log_c2 = mpmath.mpf(params.c_coeffs[0]) + sum(
            mpmath.mpf(b) * mpmath.cos(k * mpmath.mpf(omega))
            for k, b in enumerate(params.c_coeffs[1:], start=1))
        zero = (mpmath.mpf(params.sigma_e2) * mpmath.gamma(mu) * mpmath.exp(-mu * log_c2)
                / ((2 * mpmath.pi) ** (d / 2) * 2 ** (d / 2) * mpmath.gamma(2 * nu)))
        x = mpmath.mpf(h) * mpmath.exp(log_c2 / 2)
        bessel = mpmath.besselk(mu, x)
        rho = 2 * (x / 2) ** mu * bessel / mpmath.gamma(mu)
        g = 2 * zero * (1 - rho) + mpmath.mpf(params.nugget) / mpmath.pi
        slope = -2 * mu * zero * (1 - rho) + zero * x * rho * mpmath.besselk(mu - 1, x) / bessel
        return float(g), float(slope)
