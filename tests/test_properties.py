"""Property tests of the Matern kernel and the jitter ladder."""

from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from stkrig import ModelParams, corr_freq, cov_freq, cov_zero, hpd_solve, variogram_model
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
