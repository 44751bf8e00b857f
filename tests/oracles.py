"""Independent reference implementations used to check the package.

Everything here is deliberately slow and simple: quadrature instead of
special-function libraries, O(n^2) transform sums instead of the FFT,
textbook elimination instead of factorizations, and a recursive AR
generator. The tests compare the fast paths in stkrig against these.
"""

import numpy as np
from scipy.integrate import quad


_LN2 = float(np.log(2.0))


def _log_bessel_integrand(t, order, x):
    # log of exp(-x cosh t) cosh(order t); log1p keeps cosh from overflowing
    # and -x*inf falls through to -inf where cosh itself would.
    with np.errstate(over="ignore"):
        c = np.cosh(t)
    u = abs(order * t)
    return -x * c + u - _LN2 + np.log1p(np.exp(-2.0 * u))


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

    split = float(np.arcsinh(order / x)) if order > 0.0 else 0.0
    scale = max(_log_bessel_integrand(split, order, x),
                _log_bessel_integrand(0.0, order, x))

    def integrand(t):
        return np.exp(_log_bessel_integrand(t, order, x) - scale)

    end = max(split, 1.0)
    while _log_bessel_integrand(end, order, x) > scale - 320.0 and end < 700.0:
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
