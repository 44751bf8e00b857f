"""Property tests of the Matern kernel, the jitter ladder, the DFT and
kriging."""

from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import gammaln, k0e

from stkrig import (ModelParams, SimulationSpec, c_mod_sq, corr_freq, cov_freq, cov_zero,
                    dft_forward, dft_inverse, hpd_solve, krige_series, simulate_panel,
                    variogram_model)
from stkrig.numerics import cholesky_with_jitter

# smallest normal double; below it a value carries no relative precision
TINY = np.finfo(float).tiny


@st.composite
def models(draw):
    d = draw(st.integers(1, 3))
    nu = draw(st.floats(d / 4.0, 3.0, exclude_min=True))
    b = (draw(st.floats(-3.0, 3.0)), draw(st.floats(-1.0, 1.0)))
    return ModelParams(sigma_e2=1.0, nu=nu, c_coeffs=b, d=d)


omegas = st.floats(0.0, np.pi, exclude_min=True)
distances = st.floats(1e-6, 1e3)


@settings(deadline=None)
@given(models(), omegas, distances)
def test_correlation_is_a_correlation(params, omega, h):
    rho = corr_freq(h, omega, params)
    assert 0.0 <= rho <= 1.0
    if cov_freq(h, omega, params) >= TINY:
        assert rho > 0.0


@settings(deadline=None)
@given(models(), omegas, distances)
def test_covariance_is_correlation_times_sill(params, omega, h):
    assert_allclose(cov_freq(h, omega, params),
                    corr_freq(h, omega, params) * cov_zero(omega, params),
                    rtol=1e-10, atol=TINY)


@settings(deadline=None)
@given(models(), omegas, distances, distances)
@example(ModelParams(1.0, 2.8534575827139332, (-0.06467675296488551, 0.19161179324496613)),
         1.8915634830400228, 1.730158953081801e-06, 1.743028087451379e-06)
def test_covariance_is_non_increasing_in_distance(params, omega, h1, h2):
    # At h |c| < 1e-4 and mu > 1 the closed form's rounding (its exponent
    # mu (log h - log |c|) reaches about 70) exceeds the true decrease, so
    # nearby distances can rise by a few 1e-14 relative, as in the example.
    near, far = min(h1, h2), max(h1, h2)
    assert cov_freq(far, omega, params) <= cov_freq(near, omega, params) * (1.0 + 1e-12)


@settings(deadline=None)
@given(models(), omegas)
def test_covariance_tends_to_the_zero_distance_value(params, omega):
    # Along x = h |c(w)| = 1, 1e-4, ..., 1e-100 the gap 1 - C(h, w) / C(0, w)
    # shrinks, and at the end it is within the series bound: for mu < 1,
    # 1 - rho(x) = Gamma(1 - mu) / Gamma(1 + mu) (x / 2)^(2 mu) (1 + O(x^2))
    # - O(x^2) (DLMF 10.25.2, 10.27.4); for mu >= 1 it is O(x^2 log x).
    x = 10.0 ** -np.arange(0.0, 101.0, 4.0)
    h = x / np.sqrt(c_mod_sq(omega, params))
    gap = 1.0 - cov_freq(h, omega, params) / cov_zero(omega, params)
    assert np.all((gap >= 0.0) & (gap <= 1.0))
    assert np.all(np.diff(gap) <= 1e-12)
    mu = 2.0 * params.nu - params.d / 2.0
    bound = 0.0
    if mu < 1.0:
        bound = 2.0 * np.exp(gammaln(1.0 - mu) - gammaln(1.0 + mu)) * (x[-1] / 2.0) ** (2.0 * mu)
    assert gap[-1] <= bound + 1e-12


@settings(deadline=None)
@given(st.integers(1, 3), st.floats(-15.0, np.log10(5e-7)), st.floats(-3.0, 3.0),
       st.floats(-1.0, 1.0), st.floats(-300.0, 300.0), omegas, distances)
@example(2, -8.0, 0.0, 0.0, 0.0, 1.0, 0.5)
@example(3, -15.0, 3.0, 1.0, 300.0, np.pi, 1e-6)
def test_kernel_at_vanishing_smoothness(d, log_gap, b0, b1, log_sill, omega, h):
    # mu = 2 nu - d/2 = 2 (nu - d/4) -> 0+: Gamma(mu) ~ 1/mu, so C(0, w)
    # grows like 1/mu, and rho(x) = 2 mu (x/2)^mu K_mu(x) / Gamma(1 + mu),
    # x = h |c(w)|, tends to 2 mu K_0(x) with relative error about
    # mu (log(x/2) + Euler's gamma). A C(0, w) past the largest double
    # raises FloatingPointError.
    params = ModelParams(sigma_e2=10.0 ** log_sill, nu=d / 4.0 + 10.0 ** log_gap,
                         c_coeffs=(b0, b1), d=d)
    mu = 2.0 * params.nu - d / 2.0
    log_zero = (np.log(params.sigma_e2) - d / 2.0 * np.log(4.0 * np.pi) + gammaln(mu)
                - gammaln(2.0 * params.nu) - mu * np.log(c_mod_sq(omega, params)))
    log_max = np.log(np.finfo(float).max)
    try:
        zero, cov = cov_zero(omega, params), cov_freq(h, omega, params)
    except FloatingPointError:
        assert log_zero > log_max - 1e-9
        return
    assert log_zero < log_max + 1e-9
    assert_allclose(np.log(zero), log_zero, rtol=1e-12)
    assert 0.0 <= cov <= zero
    rho = corr_freq(h, omega, replace(params, sigma_e2=1.0))
    assert 0.0 <= rho <= 1.0
    x = h * np.sqrt(c_mod_sq(omega, params))
    if rho >= TINY:
        gap = np.expm1(np.log(rho) - np.log(2.0 * mu * k0e(x)) + x)
        assert abs(gap) <= mu * (abs(np.log(x / 2.0)) + 1.0) + 1e-12


@settings(deadline=None)
@given(models(), omegas, distances, st.floats(0.0, 2.0))
def test_variogram_is_nonnegative(params, omega, h, nugget):
    params = replace(params, nugget=nugget)
    assert variogram_model(h, omega, params) >= 0.0


@settings(deadline=None)
@given(st.integers(2, 6), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_solve_and_factor_share_the_jitter_ladder(dim, rank, seed):
    rank = min(rank, dim - 1)
    vectors = np.random.default_rng(seed).normal(size=(dim, rank))
    gram = vectors @ vectors.T
    _, jitter = cholesky_with_jitter(gram)
    assert hpd_solve(gram, np.ones(dim)).jitter == jitter


@settings(deadline=None)
@given(st.lists(st.floats(-1e6, 1e6, allow_subnormal=False), min_size=2, max_size=300))
def test_dft_round_trip(values):
    z = np.array(values)
    n = z.size
    half = dft_forward(z)
    full = np.empty(n, dtype=complex)
    full[: half.size] = half
    full[half.size:] = np.conj(half[1: n - half.size + 1][::-1])
    assert np.max(np.abs(dft_inverse(full, n) - z)) <= 1e-12 * np.max(np.abs(z))


@st.composite
def observed_layouts(draw):
    # sites on a perturbed grid of unit spacing, so every system is well
    # conditioned and needs no jitter
    d = draw(st.integers(1, 2))
    m = draw(st.integers(2, 6))
    nu = draw(st.floats(d / 4.0 + 0.05, 2.0))
    params = ModelParams(sigma_e2=1.0, nu=nu, c_coeffs=(draw(st.floats(-0.5, 0.5)),), d=d)
    seed = draw(st.integers(0, 2**32 - 1))
    cells = np.random.default_rng(seed).permutation(16 if d == 2 else m)[:m]
    grid = np.column_stack([cells % 4, cells // 4]) if d == 2 else cells[:, None]
    locs = grid + np.random.default_rng(seed + 1).uniform(-0.2, 0.2, (m, d))
    return locs, params, draw(st.integers(0, m - 1)), seed


@settings(deadline=None, max_examples=50)
@given(observed_layouts(), st.sampled_from([17, 33, 65]))
def test_kriging_is_exact_at_an_observed_site(layout, n):
    # no nugget and odd n (no folding ordinate): the weights select site i,
    # so the variance is 0 and its centred series comes back
    locs, params, i, seed = layout
    panel = simulate_panel(SimulationSpec(locations=locs, n=n, params=params, seed=seed))
    out = krige_series(panel, locs[i], params)
    assert out.jitter_report["n_jittered"] == 0
    assert np.all(out.mse <= 1e-12 * cov_zero(out.frequencies, params))
    centered = panel.observations[i] - panel.observations[i].mean()
    scale = np.max(np.abs(centered))
    assert np.max(np.abs(out.reconstructed - out.site_mean - centered)) <= 1e-10 * scale
    assert out.site_mean == panel.site_means()[i]
