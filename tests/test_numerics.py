"""Numerical kernels against independent references."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import linalg, special

from oracles import (bessel_k_quadrature, dft_brute_force, invert_gauss,
                     solve_gauss, synthesize_brute_force)
from stkrig.numerics import (_ORDER_STEP, _TABLE_CROSSOVER, _TABLE_DEGREE, JITTER_LADDER,
                             SingularMatrixError, _build_table, _dft_rows, _Grid,
                             _jittered_cholesky, _scaled_bessel_k, _small_x_bessel_k,
                             _synthesize_half, _Workspace, bessel_k, cholesky_with_jitter,
                             dft_forward, dft_inverse, hpd_solve, log_gamma)

# value of the integral representation at (order, x) = (1, 1), computed by
# adaptive quadrature before the implementation existed
K1_AT_1 = 0.6019072301972346


def test_bessel_k_known_value():
    assert_allclose(bessel_k(1.0, 1.0), K1_AT_1, rtol=1e-12)


def test_bessel_k_matches_quadrature_oracle():
    rng = np.random.default_rng(5)
    orders = rng.uniform(0.0, 20.0, 30)
    xs = np.exp(rng.uniform(np.log(1e-6), np.log(50.0), 30))
    for order, x in zip(orders, xs):
        assert_allclose(bessel_k(order, x), bessel_k_quadrature(order, x),
                        rtol=1e-10)


def test_bessel_k_even_in_order():
    xs = np.array([0.01, 0.5, 2.0, 17.0])
    for order in (0.3, 1.0, 4.7):
        assert_allclose(bessel_k(-order, xs), bessel_k(order, xs), rtol=1e-14)


def test_bessel_k_monotone_decreasing_in_x():
    xs = np.linspace(0.05, 30.0, 200)
    vals = bessel_k(2.5, xs)
    assert np.all(np.diff(vals) < 0.0)


def test_bessel_k_small_argument_limit():
    # K_v(x) -> Gamma(v) 2^(v-1) x^(-v) as x -> 0
    x = 1e-4
    for order in (0.5, 1.0, 1.5, 2.0):
        ratio = x ** order * bessel_k(order, x) / (
            2.0 ** (order - 1.0) * np.exp(log_gamma(order)))
        assert abs(ratio - 1.0) <= 1e-3


def test_bessel_k_rejects_bad_input():
    with pytest.raises(ValueError):
        bessel_k(1.0, 0.0)
    with pytest.raises(ValueError):
        bessel_k(1.0, -2.0)
    with pytest.raises(ValueError):
        bessel_k(np.inf, 1.0)
    with pytest.raises(ValueError):
        bessel_k(1.0, np.nan)


def test_bessel_k_overflow_raises():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the recurrence overflows silently
        for order, x in ((20.0, 1e-300), (20.5, 1e-300), (3.0, 1e-300), (1.5, 1e-300),
                         (1.3, 1e-306), (0.999, 5e-324)):
            with pytest.raises(OverflowError):
                bessel_k(order, x)
        # a numpy order reads as a number, not as numpy's repr
        with pytest.raises(OverflowError, match=r"order 0\.999999 at argument 5e-324$"):
            bessel_k(np.float64(0.999999), 5e-324)


def test_bessel_k_keeps_kv_values_where_kve_gives_up():
    # kve is NaN past x ~ 1.08e9 and overflows early at large orders
    assert_array_equal(bessel_k(0.6, [1e10, 1e12]), [0.0, 0.0])
    for order, x in ((140.0, 0.6916607400038025), (160.0, 1.4744807267122517)):
        assert np.isinf(special.kve(order, x))
        assert bessel_k(order, x) == special.kv(order, x)


# every order the integer and half-integer branches serve
DISPATCHED_ORDERS = [float(k) for k in range(21)] + [k + 0.5 for k in range(21)]


@pytest.mark.parametrize("order", DISPATCHED_ORDERS)
def test_scaled_bessel_dispatch_matches_kve(order):
    x = np.geomspace(1e-6, 700.0, 2000)
    assert_allclose(_scaled_bessel_k(order, x), special.kve(order, x), rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("order", DISPATCHED_ORDERS + [0.3, 0.6, 2.25, 21.0, 33.0])
def test_scaled_bessel_previous_order(order):
    # K_{order-1} = K_{|order-1|}, K being even in its order; the order's
    # own value is the one without the pair
    x = np.geomspace(1e-6, 700.0, 2000)
    previous, current = _scaled_bessel_k(order, x, with_previous=True)
    assert_array_equal(current, _scaled_bessel_k(order, x))
    assert_allclose(previous, special.kve(abs(order - 1.0), x), rtol=1e-13, atol=0.0)


def test_scaled_bessel_other_orders_are_kve():
    x = np.geomspace(1e-6, 700.0, 300)
    for order in (0.6, 1.0 + 1e-12, 2.25, 21.0, 21.5, 33.0):
        assert_array_equal(_scaled_bessel_k(order, x), special.kve(order, x))


@pytest.fixture
def kve_points(monkeypatch):
    """List that receives the number of points of every scipy kve call."""
    points = []
    inner = special.kve

    def counted(order, x):
        points.append(np.size(x))
        return inner(order, x)

    monkeypatch.setattr(special, "kve", counted)
    return points


def _assert_matches_kve(values, order, x):
    # within 1e-12 where kve is finite, and its inf or NaN where it is not
    reference = special.kve(order, x)
    finite = np.isfinite(reference)
    assert_allclose(values[finite], reference[finite], rtol=1e-12, atol=0.0)
    assert_array_equal(values[~finite], reference[~finite])


# orders the table serves: off the exact ones, or above the closed forms; the
# smallest put Temme's small-x crossover, log x ~ -1 / order, in or below range
TABLE_ORDERS = [1e-3, 2e-3, 0.01, 0.05, 0.3, 0.6, 0.97, 1.3, 2.25, 3.3, 7.77,
                12.1, 19.9, 20.3, 21.0, 27.5, 33.0, 40.0]


@pytest.mark.parametrize("order", TABLE_ORDERS)
def test_table_matches_kve_over_the_double_range(order, kve_points):
    # from the smallest normal double to 1e6: 1,446 pieces, so the call
    # needs more than 250 + 2 * 13 * 1,446 = 37,846 points for the table
    x = np.geomspace(np.finfo(float).tiny, 1e6, 40000)
    previous, current = _scaled_bessel_k(order, x, with_previous=True)
    assert kve_points and max(kve_points) < x.size  # the table ran
    _assert_matches_kve(current, order, x)
    _assert_matches_kve(previous, abs(order - 1.0), x)
    assert_array_equal(_scaled_bessel_k(order, x), current)


@pytest.mark.parametrize("order", [1e-3, 0.3, 2.25, 12.1, 33.0, 40.0])
def test_table_matches_quadrature_oracle(order):
    x = np.geomspace(np.finfo(float).tiny, 1e6, 40000)
    scaled = _scaled_bessel_k(order, x)
    # K underflows past x ~ 700
    picked = np.flatnonzero(np.isfinite(scaled) & (x <= 700.0))[::997]
    for i in picked:
        assert_allclose(np.exp(-x[i]) * scaled[i], bessel_k_quadrature(order, x[i]),
                        rtol=1e-12)


# below this kve and kv report overflow at every order
KVE_GUARD = 1e3 * np.finfo(float).tiny


@pytest.mark.parametrize("order", [1e-3, 0.01, 0.3, 0.6, 0.875, 0.999])
def test_bessel_k_below_the_kve_guard_matches_quadrature_oracle(order):
    # K_order is finite down to the smallest normal double for orders below
    # 1, and down to 5e-324 below about 0.95, where kve gives up; 0.6 at
    # 1e-306 is 4.49e183
    x = np.append(np.geomspace(np.finfo(float).tiny, 0.99 * KVE_GUARD, 6), 1e-306)
    if order < 0.95:
        x = np.append(x, 5e-324)
    assert np.isinf(special.kve(order, x)).all()
    values = bessel_k(order, x)
    for value, point in zip(values, x):
        assert_allclose(value, bessel_k_quadrature(order, point), rtol=1e-13)


def test_bessel_k_leading_terms_meet_kv_above_the_kve_guard():
    x = np.geomspace(1.01 * KVE_GUARD, 1e-150, 50)
    for order in np.geomspace(1e-3, 0.999, 40):
        assert_allclose(_small_x_bessel_k(order, x), special.kv(order, x), rtol=1e-13)


def test_table_value_of_a_point_does_not_depend_on_the_call():
    rng = np.random.default_rng(8)
    x = np.exp(rng.uniform(-5.0, 3.0, 5000))
    wider = np.concatenate([np.exp(rng.uniform(-9.0, 6.0, 7000)), x[:100]])
    for order in (0.6, 27.1):
        assert_array_equal(_scaled_bessel_k(order, wider)[-100:],
                           _scaled_bessel_k(order, x)[:100])
        assert_array_equal(_scaled_bessel_k(order, wider, with_previous=True)[0][-100:],
                           _scaled_bessel_k(order, x, with_previous=True)[0][:100])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("order", [0.6, 1.0, 2.0, 2.5, 27.1])
def test_points_off_the_grid_leave_the_others_as_they_were(order, kve_points):
    # 0, inf and NaN take the function itself, as in a call of their own
    # (e^x K at 0 is inf); the finite points keep their table, or their
    # closed form, and every bit they had without the others
    rng = np.random.default_rng(12)
    x = np.exp(rng.uniform(-5.0, 3.0, 2000))
    edges = np.array([0.0, np.inf, np.nan])
    mixed = np.concatenate([edges[:2], x[:1000], edges[2:], x[1000:], edges])
    placed = (mixed > 0.0) & (mixed < np.inf)
    for kwargs in ({}, {"with_previous": True}, {"with_previous": True, "order_slope": True}):
        alone = np.atleast_2d(_scaled_bessel_k(order, x, **kwargs))
        kve_points.clear()
        both = np.atleast_2d(_scaled_bessel_k(order, mixed, **kwargs))
        if order in (0.6, 27.1):
            # the tables ran: kve on their nodes and ends, and the edges
            assert max(kve_points) < 300
        for got, expected in zip(both, alone):
            assert got[placed].tobytes() == expected.tobytes()
        values = both[:2] if kwargs.get("with_previous") else both[:1]
        own = np.atleast_2d(_scaled_bessel_k(order, np.tile(edges, 2), **kwargs))
        assert_array_equal(values[:, ~placed], own[:values.shape[0]])
        assert np.isinf(values[:, mixed == 0.0]).all()
        if kwargs.get("order_slope"):
            assert np.isnan(both[2][~placed]).all()


def _pieces(first, count):
    """A grid of the pieces first, ..., first + count - 1, as _Table.holds
    and _Table.over read it."""
    return _Grid(float(first), count, None, None, None, 0)


# the first pieces of the tables: x from 2e-13 (K_27.1 overflows there),
# below x = 2, across it, above it, and up to 2e21 (kve is NaN past 2^30)
TABLE_ORIGINS = [-60, -25, -12, -5, 0, 3, 35]


@pytest.mark.parametrize("order", [0.07, 0.6, 1.37, 7.3, 27.1])
def test_a_slice_of_a_table_has_the_bits_of_a_table_of_its_pieces(order):
    # a piece's coefficients, centre scale and bad flag depend only on the
    # order and the piece, so a walk's table serves each block's pieces
    bad_pieces = 0
    for origin in TABLE_ORIGINS:
        whole = _build_table(order, float(origin), 20)
        bad_pieces += int(whole.bad.sum())
        for count in range(1, 14):
            for start in sorted({0, 3, 7, 20 - count}):
                assert whole.holds(_pieces(origin + start, count))
                part = whole.over(_pieces(origin + start, count))
                alone = _build_table(order, float(origin + start), count)
                assert part.first == alone.first
                for got, expected in zip(part[1:], alone[1:]):
                    assert got.shape == expected.shape
                    assert got.tobytes() == expected.tobytes()
        # pieces the table does not hold on either side
        assert whole.holds(_pieces(origin, 20)) and whole.holds(_pieces(origin + 19, 1))
        assert not whole.holds(_pieces(origin - 1, 2)) and not whole.holds(_pieces(origin + 19, 2))
    # the slices carried bad pieces too: overflow at the small end (order
    # 27.1) and kve's NaN at the large end (every order)
    assert bad_pieces >= 5 + 5 * (order == 27.1)


def test_a_workspace_table_serves_the_calls_its_span_holds(monkeypatch):
    import stkrig.numerics as numerics

    builds = []
    build = numerics._build_table
    monkeypatch.setattr(numerics, "_build_table",
                        lambda *args: builds.append(args) or build(*args))
    rng = np.random.default_rng(14)
    calls = [np.exp(rng.uniform(low, low + 2.0, 2000)) for low in (-3.0, 0.5, 1.0, -2.0)]
    work = _Workspace()
    work.cover(np.array([np.exp(-3.0), np.exp(3.0)]))
    first, count = work.span
    for kwargs in ({}, {"with_previous": True}):
        for x in calls:
            shared = _scaled_bessel_k(0.6, x, work=work, **kwargs)
            assert np.array_equal(shared, _scaled_bessel_k(0.6, x, **kwargs))
    # the span's table for 0.6 once, and for 0.4 once with_previous asks
    # for it (work holds the tables of its last table call's orders); the
    # calls without a workspace build over their own pieces
    spanned = [args for args in builds if args[1:] == (first, count)]
    assert sorted(args[0] for args in spanned) == [0.4, 0.6]
    assert len(builds) == len(spanned) + 2 * len(calls) + len(calls)
    # a call outside the span builds over its own pieces, and work then
    # holds that table
    builds.clear()
    wide = np.exp(rng.uniform(-6.0, 6.0, 2000))
    assert np.array_equal(_scaled_bessel_k(0.6, wide, work=work), _scaled_bessel_k(0.6, wide))
    assert builds[0][1:] != (first, count) and builds[0][1:] == builds[1][1:]
    assert list(work.tables) == [0.6] and work.tables[0.6].bad.size == builds[0][2]


def test_table_follows_kve_on_both_sides_of_x_2():
    # kve changes method at x = 2 and jumps there by 2.5e-13 at this order;
    # a piece ends at 2, so none interpolates across the jump
    x = np.geomspace(1.0, 4.0, 3000)
    assert_allclose(_scaled_bessel_k(0.8882, x), special.kve(0.8882, x), rtol=2e-14, atol=0.0)


def test_table_edges_keep_kve_inf_and_nan(kve_points):
    # K_25.7 overflows below x ~ 2.7e-11, and kve is NaN from x = 2^30 on;
    # the points of pieces reaching into either take kve itself
    x = np.geomspace(1e-14, 1e10, 5000)
    values = {order: _scaled_bessel_k(order, x) for order in (25.7, 0.6)}
    assert max(kve_points) < x.size  # the tables ran
    assert np.isinf(values[25.7][0]) and np.isnan(values[0.6][-1])
    for order, value in values.items():
        _assert_matches_kve(value, order, x)


def test_table_takes_over_above_the_crossover(kve_points):
    # one piece, 13 nodes: the table needs more than crossover + 26 points
    size = _TABLE_CROSSOVER + 2 * (_TABLE_DEGREE + 1)
    for n, table in ((size, False), (size + 1, True)):
        x = np.linspace(1.0, 1.2, n)
        kve_points.clear()
        values = _scaled_bessel_k(0.6, x)
        # the nodes and the piece's two ends, or every point
        assert kve_points == [_TABLE_DEGREE + 3 if table else n]
        _assert_matches_kve(values, 0.6, x)


# orders of the d log K / d mu table: one below _ORDER_STEP, where the
# stencil's lower orders come from K's evenness, an integer, a half-integer
# and the table's own orders
SLOPE_ORDERS = [1e-4, 1e-3, 0.07, 0.3, 1.0, 1.274, 2.5, 7.3, 20.3, 40.0]


@pytest.mark.parametrize("order", SLOPE_ORDERS)
def test_order_slope_table_matches_mpmath(order):
    mpmath = pytest.importorskip("mpmath")
    assert SLOPE_ORDERS[0] < _ORDER_STEP
    x = np.geomspace(1e-6, 700.0, 600)
    values, slope = _scaled_bessel_k(order, x, order_slope=True)
    assert_array_equal(values, _scaled_bessel_k(order, x))
    # every 23rd point, and the last one below x = 2 and the first above it,
    # which lie on pieces either side of the grid's end there
    above = int(np.searchsorted(x, 2.0))
    picked = list(range(0, x.size, 23)) + [above - 1, above, x.size - 1]
    with mpmath.workdps(40):
        for i in picked:
            exact = float(mpmath.diff(lambda mu: mpmath.log(mpmath.besselk(mu, float(x[i]))),
                                      order))
            assert abs(slope[i] - exact) <= 1e-8 * max(1.0, abs(exact)), (x[i], exact)


@pytest.mark.parametrize("order", [0.6, 1.0, 2.5, 27.1])
def test_order_slope_of_a_point_does_not_depend_on_the_call(order):
    # a table on the fixed grid whatever method gives the values: few points
    # (kve or a closed form) and many (a value table sharing the grid)
    rng = np.random.default_rng(9)
    x = np.exp(rng.uniform(-5.0, 3.0, 40))
    wider = np.concatenate([np.exp(rng.uniform(-9.0, 6.0, 7000)), x])
    few = _scaled_bessel_k(order, x, with_previous=True, order_slope=True)
    many = _scaled_bessel_k(order, wider, with_previous=True, order_slope=True)
    assert_array_equal(many[2][-40:], few[2])
    assert_array_equal(few[:2], _scaled_bessel_k(order, x, with_previous=True))
    # a point at inf is NaN and leaves the others as they were
    edge = _scaled_bessel_k(order, np.append(x, np.inf), order_slope=True)[1]
    assert np.isnan(edge[-1])
    assert_array_equal(edge[:-1], few[2])


def test_order_slope_takes_the_difference_on_pieces_where_kve_overflows():
    # K_25.7 overflows below x ~ 2.7e-11 (a little higher at the stencil's
    # upper orders) and kve is NaN from x = 2^30 on: the points of those
    # pieces take the difference itself, finite wherever kve is at every
    # stencil order
    x = np.geomspace(1e-14, 1e10, 5000)
    for order in (25.7, 0.6):
        _, slope = _scaled_bessel_k(order, x, order_slope=True)
        stencil = [special.kve(abs(order + k * _ORDER_STEP), x) for k in (-2, -1, 1, 2)]
        finite = np.isfinite(stencil).all(axis=0)
        assert not finite.all()
        assert np.isfinite(slope[finite]).all() and not np.isfinite(slope[~finite]).any()
        near = finite & (x < 1e3)
        step = 1e-6
        numeric = (np.log(special.kve(order + step, x[near]))
                   - np.log(special.kve(order - step, x[near]))) / (2.0 * step)
        assert_allclose(slope[near], numeric, rtol=0.0,
                        atol=1e-6 * np.maximum(1.0, np.abs(numeric)).max())


def test_bessel_k_dispatched_orders_match_quadrature_oracle():
    for order in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.5, 7.0, 10.5, 13.0, 20.0, 20.5):
        for x in (1e-6, 0.01, 0.7, 5.0, 50.0):
            assert_allclose(bessel_k(order, x), bessel_k_quadrature(order, x), rtol=1e-10)
            assert bessel_k(-order, x) == bessel_k(order, x)


def test_log_gamma_matches_math_lgamma():
    import math

    xs = [0.1, 0.5, 1.0, 2.0, 7.3, 40.0]
    for x in xs:
        assert_allclose(log_gamma(x), math.lgamma(x), rtol=1e-14)
    assert_allclose(log_gamma(np.array(xs)), [math.lgamma(x) for x in xs],
                    rtol=1e-14)


def test_log_gamma_rejects_nonpositive():
    with pytest.raises(ValueError):
        log_gamma(0.0)
    with pytest.raises(ValueError):
        log_gamma(-1.5)
    with pytest.raises(ValueError):
        log_gamma(np.nan)


@pytest.mark.parametrize("n", [2, 3, 16, 17, 63, 64])
def test_dft_matches_brute_force(n):
    rng = np.random.default_rng(100 + n)
    z = rng.normal(size=n)
    assert_allclose(dft_forward(z), dft_brute_force(z), atol=1e-12)


def test_dft_output_length():
    assert dft_forward(np.ones(8)).size == 5
    assert dft_forward(np.ones(9)).size == 5


def test_dft_parseval():
    rng = np.random.default_rng(9)
    for n in (32, 33):
        z = rng.normal(size=n)
        half = dft_forward(z)
        total = np.abs(half[0]) ** 2 + 2.0 * np.sum(np.abs(half[1:]) ** 2)
        if n % 2 == 0:
            total -= np.abs(half[-1]) ** 2  # the fold ordinate is not doubled
        assert_allclose(total, np.sum(z ** 2) / (2.0 * np.pi), rtol=1e-8)


def test_dft_of_pure_cosine_concentrates():
    n, j = 48, 7
    t = np.arange(1, n + 1)
    z = np.cos(2.0 * np.pi * j * t / n)
    half = dft_forward(z)
    expected_peak = n / 2.0 / np.sqrt(2.0 * np.pi * n)
    assert_allclose(np.abs(half[j]), expected_peak, rtol=1e-10)
    rest = np.delete(np.abs(half), j)
    assert np.max(rest) < 1e-10 * expected_peak


def test_dft_rejects_bad_series():
    with pytest.raises(ValueError):
        dft_forward([1.0])
    with pytest.raises(ValueError):
        dft_forward(np.ones((3, 3)))
    with pytest.raises(ValueError):
        dft_forward([1.0, np.nan, 2.0])


def _full_grid(z):
    half = dft_forward(z)
    n = len(z)
    full = np.zeros(n, dtype=complex)
    full[: half.size] = half
    full[half.size:] = np.conj(half[1: n - half.size + 1][::-1])
    return full


@pytest.mark.parametrize("n", [4, 5, 16, 17])
def test_dft_round_trip(n):
    rng = np.random.default_rng(200 + n)
    z = rng.normal(size=n)
    assert_allclose(dft_inverse(_full_grid(z), n), z, atol=1e-10)


@pytest.mark.parametrize("n", [255, 256])
def test_half_grid_synthesis_inverts_the_forward_transform(n):
    # the package's two private transforms, on one series and on a panel
    rng = np.random.default_rng(n)
    for z in (1.0 + 3.0 * rng.normal(size=n), rng.normal(size=(7, n))):
        back = _synthesize_half(_dft_rows(z), n)
        assert back.shape == z.shape
        assert np.abs(back - z).max() <= 1e-13 * np.abs(z).max()


def test_dft_inverse_matches_brute_force_synthesis():
    rng = np.random.default_rng(3)
    z = rng.normal(size=17)
    full = _full_grid(z)
    assert_allclose(dft_inverse(full, 17), synthesize_brute_force(full, 17),
                    atol=1e-12)


def test_dft_inverse_recovers_known_cosine():
    n, j = 36, 5
    t = np.arange(1, n + 1)
    z = np.cos(2.0 * np.pi * j * t / n)
    assert_allclose(dft_inverse(_full_grid(z), n), z, atol=1e-10)


@pytest.mark.parametrize("coeffs, n, message", [
    (np.zeros((2, 3)), 6, r"length n=6, got shape \(2, 3\)$"),
    (np.zeros(0), 4, r"length n=4, got shape \(0,\)$"),
    (np.zeros(3), 1, "n must be at least 2, got 1"),
])
def test_dft_inverse_names_the_shape_it_got(coeffs, n, message):
    with pytest.raises(ValueError, match=message):
        dft_inverse(coeffs, n)


def test_dft_inverse_rejects_asymmetric_coefficients():
    full = _full_grid(np.arange(1.0, 9.0))
    full[3] += 0.5
    with pytest.raises(ValueError, match="conjugate symmetry"):
        dft_inverse(full, 8)


def test_jitter_ladder_is_increasing_from_zero():
    assert JITTER_LADDER[0] == 0.0
    assert all(a < b for a, b in zip(JITTER_LADDER, JITTER_LADDER[1:]))


def test_cholesky_with_jitter_clean_matrix():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(5, 5))
    a = a @ a.T + 5.0 * np.eye(5)
    factor, jitter = cholesky_with_jitter(a)
    assert jitter == 0.0
    assert_allclose(factor @ factor.T, a, atol=1e-10)


def test_cholesky_with_jitter_repairs_semidefinite():
    # rank deficient: needs some loading, and the report says how much
    v = np.array([[1.0, 1.0], [1.0, 1.0]])
    factor, jitter = cholesky_with_jitter(v)
    assert jitter > 0.0
    assert_allclose(factor @ factor.T, v + jitter * np.eye(2), atol=1e-8)


def test_cholesky_with_jitter_gives_up_on_indefinite():
    with pytest.raises(SingularMatrixError) as err:
        cholesky_with_jitter(np.diag([1.0, -5.0]))
    assert err.value.jitter > 0.0


def test_hpd_solve_matches_elimination_oracle():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    a = a @ a.conj().T + 6.0 * np.eye(6)
    b = rng.normal(size=6) + 1j * rng.normal(size=6)
    sol = hpd_solve(a, b)
    assert sol.jitter == 0.0
    assert_allclose(sol.x, solve_gauss(a, b), atol=1e-8)
    assert_allclose(a @ invert_gauss(a), np.eye(6), atol=1e-8)


def test_hpd_solve_rejects_non_hermitian():
    a = np.array([[2.0, 1.0], [0.0, 2.0]])
    with pytest.raises(ValueError, match="Hermitian"):
        hpd_solve(a, np.ones(2))


@pytest.mark.parametrize("rhs", [1.0, np.ones(3), np.ones((3, 2))])
def test_hpd_solve_rejects_a_right_hand_side_of_the_wrong_shape(rhs):
    with pytest.raises(ValueError, match="rhs must have 2 rows"):
        hpd_solve(np.eye(2), rhs)


def test_hpd_solve_singular_raises():
    a = np.diag([1.0, -1.0])
    with pytest.raises(SingularMatrixError):
        hpd_solve(a, np.ones(2))


def test_an_empty_matrix_is_rejected_at_the_boundary():
    with pytest.raises(ValueError, match="matrix must not be empty"):
        cholesky_with_jitter(np.zeros((0, 0)))
    with pytest.raises(ValueError, match="matrix must not be empty"):
        hpd_solve(np.zeros((0, 0)), np.zeros(0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_matrix_or_rhs_that_is_not_finite_is_rejected_at_the_boundary(bad):
    a = np.eye(3)
    a[2, 1] = a[1, 2] = bad
    for call in (lambda: cholesky_with_jitter(a), lambda: hpd_solve(a, np.ones(3))):
        with pytest.raises(ValueError, match="^matrix contains non-finite values$"):
            call()
    with pytest.raises(ValueError, match="^rhs contains non-finite values$"):
        hpd_solve(np.eye(3), np.array([1.0, bad, 0.0]))


@pytest.mark.parametrize("dtype", [float, complex])
def test_the_ladder_halves_give_scipys_bits(dtype):
    # potrf and potrs as scipy.linalg.cholesky and cho_solve call them
    rng = np.random.default_rng(12)
    v = rng.normal(size=(40, 40)).astype(dtype)
    if dtype is complex:
        v += 1j * rng.normal(size=(40, 40))
    a = v @ v.conj().T + 0.1 * np.eye(40)
    b = rng.normal(size=(40, 3))
    factor, jitter = cholesky_with_jitter(a)
    assert jitter == 0.0
    assert np.array_equal(factor, linalg.cholesky(a, lower=True))
    for rhs in (b, b[:, 0], b[:, 0] + 1j * b[:, 1]):
        assert np.array_equal(hpd_solve(a, rhs).x, linalg.cho_solve((factor, True), rhs))


@pytest.mark.parametrize("rank", [2, 5])
def test_the_factor_half_reads_only_the_lower_triangle(rank):
    # rank 2 takes a jittered rung, rank 5 none; an upper triangle of NaN
    # changes neither the factor nor the jitter
    v = np.random.default_rng(rank).normal(size=(5, rank))
    a = v @ v.T
    half = np.tril(a)
    half[np.triu_indices(5, 1)] = np.nan
    factor, jitter = cholesky_with_jitter(a)
    assert (jitter > 0.0) == (rank < 5)
    got = _jittered_cholesky(half)
    assert np.array_equal(got[0], factor) and got[1] == jitter


@pytest.mark.parametrize("call, match", [
    (lambda: log_gamma([]), "log_gamma requires at least one argument"),
    (lambda: bessel_k(0.5, []), "bessel_k requires at least one evaluation point"),
    (lambda: dft_inverse([1.0, np.nan, 0.0, 0.0], 4), "coeffs contain non-finite values"),
    (lambda: cholesky_with_jitter(np.ones((2, 3))), r"matrix must be square, got shape \(2, 3\)"),
], ids=["empty-log-gamma", "empty-bessel", "nan-coefficient", "non-square"])
def test_empty_non_finite_or_non_square_inputs_are_refused(call, match):
    with pytest.raises(ValueError, match=match):
        call()
