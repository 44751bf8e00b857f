"""Space-frequency covariance family."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special
from scipy.integrate import trapezoid

from oracles import cov_matrix_full, variogram_by_mpmath
from stkrig import (ModelParams, c_mod_sq, corr_freq, cov_freq, cov_matrix,
                    cov_zero, numerics, st_spectral_density, variogram_model)
from stkrig.covmodel import (_BLOCK_POINTS, _covariance_walk, _kernel, _site_pair_distances,
                             _variogram, _variogram_along_frequency)
from stkrig.numerics import bessel_k, log_gamma

K1_AT_1 = 0.6019072301972346
# sigma_e2 = 1, nu = 1, |c|^2 = 1, d = 2 collapses the constant to 1 / (4 pi)
C0_SIMPLE = 0.07957747154594767


def _params(**kw):
    base = dict(sigma_e2=1.0, nu=1.0, c_coeffs=(0.0,), nugget=0.0, d=2)
    base.update(kw)
    return ModelParams(**base)


def test_params_validation():
    with pytest.raises(ValueError):
        _params(sigma_e2=0.0)
    with pytest.raises(ValueError):
        _params(sigma_e2=-1.0)
    with pytest.raises(ValueError):
        _params(nu=0.5)  # nu must exceed d / 4
    with pytest.raises(ValueError):
        _params(nugget=-0.1)
    with pytest.raises(ValueError):
        _params(c_coeffs=())
    with pytest.raises(ValueError):
        _params(c_coeffs=(np.inf,))
    with pytest.raises(ValueError):
        _params(d=0)
    with pytest.raises(ValueError):
        _params(d=1.5)


def test_nu_whose_log_gamma_constant_overflows_is_rejected():
    # 2 nu overflows at 1e308, log Gamma(2 nu) from about 1.3e305; past
    # either the kernel's constants would be inf - inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for nu in (1e308, 1e307, 1.3e305):
            with pytest.raises(ValueError, match="too large"):
                ModelParams(sigma_e2=1.0, nu=nu, c_coeffs=(0.0,))
            with pytest.raises(ValueError, match="too large"):
                cov_freq(1.0, 0.5, ModelParams(sigma_e2=1.0, nu=nu, c_coeffs=(0.0,)))
        assert cov_freq(1.0, 0.5, ModelParams(sigma_e2=1.0, nu=1.2e305, c_coeffs=(0.0,))) == 0.0


def test_params_round_trip():
    p = ModelParams(sigma_e2=2.0, nu=1.5, c_coeffs=(0.1, -0.2), nugget=0.3, d=2)
    q = ModelParams.from_dict(p.to_dict())
    assert q == p
    assert p.n_coeffs == 1
    with pytest.raises(ValueError, match="missing required key"):
        ModelParams.from_dict({"sigma_e2": 1.0, "nu": 1.0})


def test_c_mod_sq_formula():
    p = _params(c_coeffs=(0.2, 0.5, -0.3))
    om = np.linspace(0.0, np.pi, 7)
    expected = np.exp(0.2 + 0.5 * np.cos(om) - 0.3 * np.cos(2.0 * om))
    assert_allclose(c_mod_sq(om, p), expected, rtol=1e-14)
    assert isinstance(c_mod_sq(1.0, p), float)


def test_cov_zero_simple_constant():
    assert_allclose(cov_zero(0.7, _params()), C0_SIMPLE, rtol=1e-12)
    assert_allclose(cov_zero(0.7, _params()), 1.0 / (4.0 * np.pi), rtol=1e-12)


def test_cov_freq_limit_matches_cov_zero():
    p = _params(sigma_e2=1.7, nu=1.3, c_coeffs=(0.4, 0.6))
    om = np.linspace(0.1, 3.0, 5)
    assert_allclose(cov_freq(1e-9, om, p), cov_zero(om, p), rtol=1e-6)
    assert_allclose(cov_freq(0.0, om, p), cov_zero(om, p), rtol=1e-15)


def test_cov_freq_matches_direct_planar_form():
    # direct evaluation with bessel_k and log_gamma, no scaled-Bessel tricks
    rng = np.random.default_rng(21)
    for _ in range(20):
        nu = rng.uniform(0.6, 3.0)
        p = ModelParams(sigma_e2=rng.uniform(0.2, 3.0), nu=nu,
                        c_coeffs=(rng.uniform(-1.0, 1.0), rng.uniform(-0.5, 0.5)),
                        d=2)
        h = rng.uniform(0.05, 4.0)
        om = rng.uniform(0.0, np.pi)
        mu = 2.0 * nu - 1.0
        c_abs = np.sqrt(c_mod_sq(om, p))
        direct = (p.sigma_e2 / (2.0 * np.pi * 2.0 ** (2.0 * nu - 1.0)
                                * np.exp(log_gamma(2.0 * nu)))
                  * (h / c_abs) ** mu * bessel_k(mu, h * c_abs))
        assert_allclose(cov_freq(h, om, p), direct, rtol=1e-10)


@pytest.mark.parametrize("nu", [0.75, 1.0, 1.25, 1.5])
def test_cov_freq_at_dispatched_orders_matches_scipy_kv(nu):
    # mu = 2 nu - 1 = 0.5, 1, 1.5, 2 takes the kernel's integer and
    # half-integer Bessel branches; the reference is scipy's unscaled kv
    p = ModelParams(sigma_e2=1.7, nu=nu, c_coeffs=(0.3, -0.45), d=2)
    h = np.geomspace(1e-3, 30.0, 60)[:, None]
    om = np.linspace(0.0, np.pi, 9)[None, :]
    mu = 2.0 * nu - 1.0
    c_abs = np.sqrt(np.exp(0.3 - 0.45 * np.cos(om)))
    direct = (p.sigma_e2 / (2.0 * np.pi * 2.0 ** (2.0 * nu - 1.0) * special.gamma(2.0 * nu))
              * (h / c_abs) ** mu * special.kv(mu, h * c_abs))
    assert_allclose(cov_freq(h, om, p), direct, rtol=1e-12, atol=0.0)


def test_corr_freq_is_normalized_covariance():
    p = _params(sigma_e2=2.3, nu=1.2, c_coeffs=(0.3, -0.4), nugget=0.7)
    om = np.linspace(0.2, 3.0, 4)
    for h in (0.0, 0.5, 2.0):
        assert_allclose(corr_freq(h, om, p),
                        cov_freq(h, om, p) / cov_zero(om, p), rtol=1e-12)
    assert_allclose(corr_freq(1.0, 0.9, _params()), K1_AT_1, rtol=1e-12)
    assert corr_freq(0.0, 1.0, p) == 1.0


def test_cov_freq_decreasing_in_distance():
    p = _params(nu=1.4, c_coeffs=(0.2, 0.3))
    h = np.linspace(0.01, 8.0, 120)
    vals = cov_freq(h, 1.1, p)
    assert np.all(np.diff(vals) < 0.0)


def test_cov_freq_underflows_gracefully():
    p = _params()
    tiny = cov_freq(1e4, 1.0, p)
    assert tiny >= 0.0 and tiny < 1e-300
    # non-integer mu = 0.6 goes through kve, which is NaN past x ~ 1.08e9;
    # C(h, w) has underflowed to 0 there, as it does for nu = 1
    for nu in (0.8, 1.0):
        p = ModelParams(1.0, nu, (0.2,))
        assert cov_freq(1e10, 1.0, p) == 0.0
        assert variogram_model(1e10, 1.0, p) == 2.0 * cov_zero(1.0, p)
        far = cov_matrix(np.array([[0.0, 1e10], [1e10, 0.0]]), 1.0, p)
        assert far[0, 1] == 0.0 and far[0, 0] == cov_zero(1.0, p)


def test_covariance_matrices_positive_semidefinite():
    rng = np.random.default_rng(30)
    for trial in range(10):
        m = rng.integers(3, 9)
        locs = rng.uniform(0.0, 5.0, (m, 2))
        dists = np.linalg.norm(locs[:, None, :] - locs[None, :, :], axis=-1)
        p = ModelParams(sigma_e2=rng.uniform(0.5, 2.0), nu=rng.uniform(0.6, 2.5),
                        c_coeffs=(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)),
                        d=2)
        for om in rng.uniform(0.05, np.pi, 5):
            mat = cov_matrix(dists, float(om), p, include_nugget=False)
            eig = np.linalg.eigvalsh(mat)
            assert eig.min() >= -1e-8 * eig.max()


def test_cov_matrix_diagonal_and_nugget():
    p = _params(nugget=0.5)
    dists = np.array([[0.0, 1.0], [1.0, 0.0]])
    bare = cov_matrix(dists, 0.8, p, include_nugget=False)
    loaded = cov_matrix(dists, 0.8, p)
    assert_allclose(np.diag(bare), cov_zero(0.8, p) * np.ones(2), rtol=1e-14)
    assert_allclose(loaded - bare, 0.5 / (2.0 * np.pi) * np.eye(2), atol=1e-14)
    assert_allclose(bare, bare.T, atol=1e-14)
    with pytest.raises(ValueError):
        cov_matrix(np.ones((2, 3)), 0.8, p)
    with pytest.raises(ValueError, match="zero diagonal"):
        cov_matrix(np.ones((2, 2)), 0.8, p)


@pytest.mark.parametrize("nu", [0.8, 1.0, 1.25, 2.3])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("nugget", [0.0, 0.4])
def test_cov_matrix_equals_the_full_evaluation(nu, d, nugget):
    # one triangle mirrored is the full evaluation, bit for bit, coincident
    # sites (h = 0 off the diagonal) included
    rng = np.random.default_rng(int(10 * nu) + 7 * d)
    p = _params(nu=nu, d=d, c_coeffs=(0.3, -0.2), nugget=nugget)
    for m in (1, 2, 7, 20):
        locs = rng.uniform(0.0, 4.0, (m, d))
        if m > 2:
            locs[m // 2] = locs[0]
        dists = np.linalg.norm(locs[:, None, :] - locs[None, :, :], axis=-1)
        for om in (0.0, 0.7, np.pi):
            for include in (True, False):
                mat = cov_matrix(dists, om, p, include_nugget=include)
                assert np.array_equal(mat, cov_matrix_full(dists, om, p, include))
                assert np.array_equal(mat, mat.T)


def test_cov_matrix_rejects_an_asymmetric_distance_matrix():
    p = _params()
    for dists in ([[0.0, 1.0], [2.0, 0.0]],
                  [[0.0, 1.0], [np.nextafter(1.0, 2.0), 0.0]]):
        with pytest.raises(ValueError, match="symmetric"):
            cov_matrix(dists, 1.0, p)


def test_cov_matrix_evaluates_one_triangle(kernel_points):
    m = 30
    locs = np.random.default_rng(31).uniform(0.0, 5.0, (m, 2))
    dists = np.linalg.norm(locs[:, None, :] - locs[None, :, :], axis=-1)
    cov_matrix(dists, 0.9, _params(nu=0.8))
    assert kernel_points == [m * (m - 1) // 2]


def test_tiny_distance_gives_the_zero_distance_value():
    # the prefactor underflows to 0 where e^x K_mu(x) overflows; the limit
    # is C(0, w) with no 0 * inf on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for h, nu in ((1e-15, 10.5), (1e-20, 10.0), (1e-60, 5.0), (1e-15, 10.3)):
            p = ModelParams(1.0, nu, (0.0,))
            assert cov_freq(h, 1.0, p) == cov_zero(1.0, p)
        p = ModelParams(1.0, 10.5, (0.0,))
        mat = cov_matrix([[0.0, 1e-15], [1e-15, 0.0]], 1.0, p)
        assert np.all(mat == cov_zero(1.0, p))


def test_small_scales_keep_full_precision_near_zero_distance():
    # at tiny h the prefactor (h / |c|)^mu can be subnormal while e^x K_mu(x)
    # is still finite, the more so the smaller sigma_e2 is; rho = C / C(0)
    # must not depend on sigma_e2 (the plain product read 0 for 1 at
    # sigma_e2 = 1e-30), and at mu > 1 it is 1 to double resolution once
    # x^2 is (it was off by 1e-9 at x = 1e-68, nu = 3, d = 3)
    x = 10.0 ** -np.arange(1.0, 320.0, 0.05)
    for nu, d, b0 in ((3.0, 3, 2.125), (2.0, 2, 0.0), (1.0, 2, 0.0)):
        h = x / np.sqrt(c_mod_sq(1.0, _params(c_coeffs=(b0,))))
        reference = corr_freq(h, 1.0, _params(nu=nu, d=d, c_coeffs=(b0,)))
        if nu > 1.0:
            assert np.all(np.abs(reference[x < 1e-9] - 1.0) <= 1e-12)
        for sigma_e2 in (1e-6, 1e-30, 1e-250):
            rho = corr_freq(h, 1.0, _params(sigma_e2=sigma_e2, nu=nu, d=d, c_coeffs=(b0,)))
            assert_allclose(rho, reference, rtol=1e-12)


def test_overflowing_zero_distance_value_fails_loudly():
    # |c|^(-2 mu) leaves the double range (|c|^2 itself underflows to 0 at
    # b0 = -800); no limit to fall back on. At b0 = 800 |c|^2 overflows and
    # C(h, w) underflows to its limit 0. Neither passes through a warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for b0 in (-700.0, -800.0):
            for h in (1e-300, 1.0):
                with pytest.raises(FloatingPointError):
                    cov_freq(h, 1.0, ModelParams(1.0, 3.0, (b0,)))
        assert cov_freq(1.0, 1.0, ModelParams(1.0, 3.0, (800.0,))) == 0.0
        # C(h, w) finite far out while C(0, w), the diagonal, overflows
        p = ModelParams(1.0, 1.025, (-700.0,))
        assert 0.0 < cov_freq(1e155, 1.0, p) < 1e-100
        with pytest.raises(FloatingPointError):
            cov_matrix([[0.0, 1e155], [1e155, 0.0]], 1.0, p)


@pytest.fixture
def tables(monkeypatch):
    """List that receives the number of points of every Bessel table."""
    points = []
    inner = numerics._tabulated

    def counted(orders, x, grid, *work):
        points.append(grid.placed)
        return inner(orders, x, grid, *work)

    monkeypatch.setattr(numerics, "_tabulated", counted)
    return points


# mu = 2 nu - 1 at d = 2: k1e, the recurrence from mu = 2, the half-integer
# closed form, and kve or a table at a general order
ZERO_DISTANCE_ORDERS = {1.0: 1.0, 2.0: 1.5, 1.5: 1.25, 0.6: 0.8}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mu", sorted(ZERO_DISTANCE_ORDERS))
def test_zero_distance_is_the_closed_form_limit_on_every_bessel_method(mu, tables):
    p = _params(sigma_e2=1.3, nu=ZERO_DISTANCE_ORDERS[mu], c_coeffs=(0.3, 0.5), nugget=0.2)
    om = np.linspace(0.1, 3.0, 50)
    zero = cov_zero(om, p)
    assert np.array_equal(cov_freq(0.0, om, p), zero)
    assert cov_freq(0.0, 0.7, p) == cov_zero(0.7, p)
    # h = 0 beside enough positive distances for a table at a general order
    h = np.concatenate([[0.0], np.linspace(0.5, 1.0, 9)])[:, None]
    tables.clear()
    values = cov_freq(h, om, p)
    assert tables == ([h.size * om.size - om.size] if mu == 0.6 else [])
    assert np.array_equal(values[0], zero)
    # |c(w)|^2 overflowing: C(0, w) is 0; underflowing: C(0, w) overflows
    up = _params(nu=ZERO_DISTANCE_ORDERS[mu], c_coeffs=(800.0,))
    assert np.array_equal(cov_freq(np.zeros(3), om[:3], up), np.zeros(3))
    assert cov_freq(0.0, 0.7, up) == cov_zero(0.7, up) == 0.0
    down = _params(nu=ZERO_DISTANCE_ORDERS[mu], c_coeffs=(-800.0,))
    for call in (lambda: cov_freq(0.0, 0.7, down), lambda: cov_zero(om, down)):
        with pytest.raises(FloatingPointError):
            call()


@pytest.mark.filterwarnings("error")
def test_a_grid_from_zero_keeps_the_values_of_its_positive_points(tables, kernel_points):
    # above the crossover, the zeros sit off the table's grid: the other
    # points keep the table and their bits, in one Bessel call
    p = _params(sigma_e2=1.3, nu=0.8, c_coeffs=(0.3, 0.5))
    h = np.linspace(0.0, 5.0, 1000)[:, None]
    om = np.linspace(0.01, np.pi, 64)
    with_zero = cov_freq(h, om, p)
    assert kernel_points == [h.size * om.size] and tables == [(h.size - 1) * om.size]
    assert np.array_equal(with_zero[1:], cov_freq(h[1:], om, p))
    assert np.array_equal(with_zero[0], cov_zero(om, p))
    # nor do they count toward the crossover: one piece's worth of points
    # at the crossover stays on kve, with or without zeros beside it
    near = np.linspace(1.0, 1.05, numerics._TABLE_CROSSOVER + 2 * (numerics._TABLE_DEGREE + 1))
    tables.clear()
    assert np.array_equal(cov_freq(np.append(np.zeros(3), near), 0.5, p)[3:],
                          cov_freq(near, 0.5, p))
    assert tables == []


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("nu", [1.0, 1.25, 1.5, 0.8])
def test_a_mixed_distance_kernel_call_is_one_bessel_call(nu, kernel_points):
    p = _params(nu=nu, c_coeffs=(0.3, 0.5), nugget=0.1)
    h = np.array([[0.0], [0.4], [0.0], [2.5]])
    om = np.linspace(0.1, 3.0, 7)
    for kwargs in ({}, {"gradient": True}, {"gradient": True, "smoothness": True}):
        kernel_points.clear()
        cov, zero, *derivatives = _kernel(h, om, p, **kwargs)
        assert kernel_points == [h.size * om.size]
        assert np.array_equal(cov[[0, 2]], np.broadcast_to(zero, (2, om.size)))
        # at h = 0 the derivatives are those of C(0, w): -mu C(0, w) in
        # log|c(w)|^2, and the a_0 term in nu
        if derivatives:
            mu = 2.0 * nu - 1.0
            assert np.array_equal(derivatives[0][[0, 2]],
                                  np.broadcast_to(-mu * zero, (2, om.size)))
        if len(derivatives) > 1:
            assert np.array_equal(derivatives[1][[0, 2]],
                                  np.broadcast_to(derivatives[2], (2, om.size)))


# mu = 1 (the recurrence) and 0.6 (a Bessel table the blocks share)
@pytest.mark.parametrize("nu", [1.0, 0.8])
def test_every_block_of_a_walk_may_be_kept(nu, tables):
    # 780 site pairs and 40 extra distances: blocks of 19 frequencies, the
    # last of the 80 partial. The blocks share one workspace, but what the
    # walk yields is its own: kept in a list, every frequency has the bits
    # of the same frequency from a walk over its block alone, which takes
    # the table or kve as the block did
    rng = np.random.default_rng(6)
    pairs, lower = _site_pair_distances(rng.uniform(0.0, 6.0, (40, 2)))
    h = np.concatenate([pairs, rng.uniform(0.1, 6.0, 40)])
    omegas = np.linspace(0.02, np.pi, 80)
    p = _params(nu=nu, c_coeffs=(0.3, 0.5), nugget=0.2)
    kept = list(_covariance_walk(h, lower, omegas, p))
    per_block = _BLOCK_POINTS // h.size
    assert [k for k, *_ in kept] == list(range(80)) and -(-80 // per_block) == 5
    assert len(tables) == (5 if nu == 0.8 else 0)
    for start in range(0, 80, per_block):
        own = _covariance_walk(h, lower, omegas[start : start + per_block], p)
        for (k, f, g0, zero), (j, *system) in zip(kept[start : start + per_block], own,
                                                  strict=True):
            assert k == start + j
            assert np.tril(f).tobytes() == np.tril(system[0]).tobytes()
            assert g0.tobytes() == system[1].tobytes() and zero == system[2]


def test_variogram_model_formula_and_limits():
    p = _params(sigma_e2=1.4, nu=1.1, c_coeffs=(0.2, 0.4), nugget=0.6)
    om = np.linspace(0.3, 2.8, 5)
    h = 1.3
    expected = 2.0 * (cov_zero(om, p) + 0.6 / (2.0 * np.pi) - cov_freq(h, om, p))
    assert_allclose(variogram_model(h, om, p), expected, rtol=1e-12)
    sill = 2.0 * (cov_zero(om, p) + 0.6 / (2.0 * np.pi))
    assert_allclose(variogram_model(1e5, om, p), sill, rtol=1e-10)
    with pytest.raises(ValueError):
        variogram_model(0.0, om, p)


def test_spectral_density_integrates_to_covariance():
    # inverse Fourier transform over a truncated planar grid, 1% agreement
    p = _params(c_coeffs=(0.0, 0.4))
    om = 1.2
    grid = np.linspace(-40.0, 40.0, 1601)
    lam = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1)
    dens = st_spectral_density(lam, om, p)
    h = 1.0
    integrand = dens * np.cos(lam[..., 0] * h)
    value = trapezoid(trapezoid(integrand, grid, axis=1), grid)
    assert abs(value / cov_freq(h, om, p) - 1.0) <= 0.01


def test_spectral_density_shape_checks():
    p = _params()
    assert st_spectral_density(np.zeros(2), 1.0, p) == pytest.approx(
        1.0 / (2.0 * np.pi) ** 2)
    with pytest.raises(ValueError):
        st_spectral_density(np.zeros(3), 1.0, p)


def test_range_and_spectral_density_edges_fail_loudly_or_reach_their_limit():
    # |c|^2 = e^1000 overflows and has no limit in double; e^-1000 underflows
    # to 0. The density's denominator overflowing gives its limit 0; its
    # underflowing to 0, at zero wave number and |c|^2 = 0, has none. No
    # numpy warning comes first.
    up, down = ModelParams(1.0, 1.0, (1000.0,)), ModelParams(1.0, 1.0, (-1000.0,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match=r"\|c\(w\)\|\^2 overflows"):
            c_mod_sq(1.0, up)
        with pytest.raises(FloatingPointError, match=r"\|c\(w\)\|\^2 overflows"):
            c_mod_sq([0.5, 1.0], up)
        assert c_mod_sq(1.0, down) == 0.0
        assert st_spectral_density(np.zeros(2), 1.0, up) == 0.0
        assert_allclose(st_spectral_density(np.array([[0.5, 1.0], [1e200, 0.0]]), 1.0, _params()),
                        [1.0 / ((2.0 * np.pi) ** 2 * 2.25 ** 2), 0.0], rtol=1e-15)
        assert st_spectral_density(np.array([0.5, 1.0]), 1.0, down) == pytest.approx(
            1.0 / ((2.0 * np.pi) ** 2 * 1.25 ** 2), rel=1e-15)
        with pytest.raises(FloatingPointError, match="spectral density overflows"):
            st_spectral_density(np.zeros(2), 1.0, down)


@pytest.mark.parametrize("call, error, match", [
    (lambda: cov_freq(np.nan, 1.0, _params()), ValueError, "h contains non-finite values"),
    (lambda: cov_freq(-1.0, 1.0, _params()), ValueError, "h must be nonnegative"),
    # |c(w)|^2 = e^800 overflows, so C(0, w) is 0
    (lambda: corr_freq(1.0, 1.0, _params(c_coeffs=(800.0,))), FloatingPointError,
     "rho is undefined"),
    # C(0, w) = 7.8e-316 is subnormal: the ratio would depend on sigma_e2
    (lambda: corr_freq(1e-151, 1.0, _params(sigma_e2=1e-10, c_coeffs=(700.0,))),
     FloatingPointError, "rho is undefined"),
], ids=["nan-distance", "negative-distance", "correlation-without-variance",
        "correlation-with-a-subnormal-variance"])
def test_distances_and_scales_outside_the_model_are_refused(call, error, match):
    with pytest.raises(error, match=match):
        call()


# nu = 0.8, 1, 1.25, 1.5 and 3.2: mu = 0.6 (kve at the nodes), 1 and 2 (the
# recurrence), 1.5 (the half-integer closed form) and 5.4; on the fit
# design's model, whose |c(w)| spans 3 pieces of log|c(w)|, and one
# spanning 6
@pytest.mark.parametrize("nu", [0.8, 1.0, 1.25, 1.5, 3.2])
def test_variogram_tables_match_mpmath(nu):
    # the tables along log|c(w)| give g and dg / d log|c(w)|^2 within 1e-12
    # and within twice the per-point path's error, both against mpmath at
    # 40 digits, on bins from 1e-10 to 50 without a nugget. Errors are in
    # units of the sill 2 C(0, w): where 1 - rho cancels (1 - rho ~ 1e-20
    # at h = 1e-10), every double evaluation of g loses digits in proportion
    # to rho / (1 - rho), and both paths lose them alike
    pytest.importorskip("mpmath")
    h = np.geomspace(1e-10, 50.0, 12)[:, None]
    om = (2.0 * np.pi * np.arange(1, 256) / 511)[None, :]
    cols = np.arange(5, 255, 32)
    for c_coeffs in [(0.5, 0.8), (1.0, 3.0)]:
        params = ModelParams(sigma_e2=1.0, nu=nu, c_coeffs=c_coeffs)
        tabled = np.array(_variogram_along_frequency(h, om, params, gradient=True))[:, :, cols]
        pointwise = np.array(_variogram(h, om, params, gradient=True))[:, :, cols]
        exact = np.array([[variogram_by_mpmath(hi, om[0, j], params) for j in cols]
                          for hi in h[:, 0]]).transpose(2, 0, 1)
        sill = 2.0 * cov_zero(om[0, cols], params)
        assert not np.array_equal(tabled, pointwise)
        for got, expected, reference in zip(tabled, exact, pointwise):
            table_error = (np.abs(got - expected) / sill).max()
            pointwise_error = (np.abs(reference - expected) / sill).max()
            assert table_error < 1e-12 and table_error <= 2.0 * pointwise_error
