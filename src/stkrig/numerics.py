"""Shared numerical kernels: special functions, the discrete Fourier transform
at canonical frequencies, and regularized Hermitian positive definite solves.

Every routine in this module is deterministic. The transform pair uses the
normalization 1 / sqrt(2 * pi * n) so that the squared modulus of a Fourier
ordinate estimates spectral density directly, and treats the input as observed
at times t = 1, ..., n.
"""

from __future__ import annotations

import math
import numbers
from typing import NamedTuple

import numpy as np
from scipy import linalg as _slinalg
from scipy import special as _sspec

# Relative diagonal loadings tried, in order, when a Cholesky factorization
# fails. Scaled by trace(A) / dim so the ladder is unit-free.
JITTER_LADDER = (0.0, 1e-12, 1e-10, 1e-8, 1e-6)

_LN2 = math.log(2.0)


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


class HpdSolution(NamedTuple):
    x: np.ndarray
    jitter: float


class _Workspace:
    """Named scratch arrays that outlive a call: work(name, shape) makes the
    array on the name's first use, or when it needs more or other elements,
    and hands back the same memory after that, in the shape asked for, its
    contents as the last user left them. A fit keeps one for all its
    criterion evaluations, whose grid-sized arrays are above the
    allocator's threshold for returning memory to the system, so each new
    one would be faulted in again; any other caller makes a new one per
    call, so its arrays are fresh.

    Each function names its own arrays, except the "scratch." ones, which
    belong to whichever function runs: a caller reads its scratch arrays
    only until it calls another function that takes the workspace.

    The workspace also holds the Bessel tables of _kve_by_table's last
    table call, by order (tables), and span, the pieces (first, count) of
    the fixed grid that a new table covers when they hold the call's own
    (None: the call's own pieces); cover sets it. And it holds the pieces
    of covmodel's variogram tables along log|c(w)| that it has built, by
    Bessel order and whether they hold the gradient's table
    (frequency_pieces): the bins they were built for, and
    their covmodel._FrequencyPiece by piece, so a fit's evaluations build
    each piece once."""

    def __init__(self):
        self._arrays = {}
        self._inner = {}
        self.tables = {}
        self.span = None
        self.frequency_pieces = {}

    def __call__(self, name: str, shape: tuple, dtype=float) -> np.ndarray:
        array = self._arrays.get(name)
        if array is None or array.dtype != dtype or array.size != math.prod(shape):
            array = self._arrays[name] = np.empty(shape, dtype)
        return array.reshape(shape)

    def inner(self, name: str) -> _Workspace:
        """The workspace named name within this one, made on its first use:
        a function that hands a workspace to another for arrays of other
        shapes than its own keeps both sets apart in it."""
        if name not in self._inner:
            self._inner[name] = _Workspace()
        return self._inner[name]

    def cover(self, x: np.ndarray):
        """Have each Bessel table built from now on span the pieces of x's
        finite positive points, so that every later call whose points fall
        on those pieces reuses one table per order."""
        grid = _locate(x, _Workspace())
        self.span = None if grid is None else (grid.first, grid.count)


def _count(value, name: str, least: int | None = None) -> int:
    """value as an int; ValueError unless it is a whole number (a Python or
    numpy integer or float, never a bool or a string), at least least when
    that is given."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not float(value).is_integer()):
        raise ValueError("%s must be a whole number, got %r" % (name, value))
    count = int(value)
    if least is not None and count < least:
        raise ValueError("%s must be at least %d, got %r" % (name, least, value))
    return count


def _real(value, name: str):
    """value itself; ValueError unless it is a real number (a Python or
    numpy integer or float, never a bool or a string)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError("%s must be a number, got %r" % (name, value))
    return value


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

    e^-x times _scaled_bessel_k: exact integer and half-integer orders up to
    20.5 by recurrence or closed form; any other order by a Chebyshev table
    over the call's range when the call has enough points (within 6e-14 of
    kve), and by scipy's kve otherwise. Where kve gives up (inf or NaN),
    scipy's kv takes over, and where kv overflows too below x = 1e-150,
    the leading terms of K's small-x series (both report overflow at every
    order below x = 2.2e-305, where K is finite up to about order 1).

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
        tiny = np.isinf(out) & (xs < _LEADING_TERMS_MAX_X)
        out[tiny] = _small_x_bessel_k(nu, xs[tiny])
    if np.any(np.isinf(out)):
        raise OverflowError(
            "bessel_k overflowed for order %r at argument %r"
            % (float(order), float(xs[np.isinf(out)].min()))
        )
    if np.isscalar(x) or arr.ndim == 0:
        return float(out[0])
    return out


# Below this x the leading terms of K's series are K to a double's precision:
# the terms left out are (x / 2)^2 times smaller
_LEADING_TERMS_MAX_X = 1e-150


def _small_x_bessel_k(order: float, x: np.ndarray) -> np.ndarray:
    """K_order(x) for an order > 0 and x below _LEADING_TERMS_MAX_X, inf
    where it overflows.

    The leading term is Gamma(order) 2^(order-1) x^-order (DLMF 10.30.2).
    Below order 1 the leading terms of DLMF 10.27.4, K = pi / (2 sin(order
    pi)) (I_-order - I_order), scale it by 1 - r with r = (x / 2)^(2 order)
    Gamma(1 - order) / Gamma(1 + order), taken in logs, and 1 - r by expm1
    as r nears 1 for small orders. The power is not taken in logs: log K
    near 700 has an ulp of 1.1e-13, which exp(log K) would carry into K. It
    is two half powers instead, so it does not overflow where K does not.
    """
    rest = 1.0
    if order < 1.0:
        log_r = (2.0 * order * (np.log(x) - _LN2) + _sspec.gammaln(1.0 - order)
                 - _sspec.gammaln(1.0 + order))
        rest = -np.expm1(log_r)
    with np.errstate(over="ignore"):
        half = np.power(x, -0.5 * order)
        return half * (_sspec.gamma(order) * np.exp2(order - 1.0) * rest) * half


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


def _scaled_bessel_k(order: float, x: np.ndarray, with_previous: bool = False,
                     order_slope: bool = False, work: _Workspace | None = None):
    """e^x K_order(x) for order >= 0 on an array of x, without checks.

    The method follows the order. An exact integer runs the upward
    recurrence K_{j+1} = K_{j-1} + (2 j / x) K_j from k0e and k1e, which is
    stable upward. An exact half-integer n + 1/2 is the closed form
    sqrt(pi / 2x) * sum_k (n + k)! / (k! (n - k)!) (2x)^(-k), by Horner in
    1 / (2x). Any other order, or one above _CLOSED_FORM_MAX_ORDER, goes
    through _kve_by_table: a Chebyshev table covering the call's x-range
    (work's, when it holds one for the order that does) when the call has
    enough points for one to pay, scipy's kve otherwise.
    Where K overflows, x = 0 included, the result is inf, and from x = 2^30
    on and at NaN it is NaN, as kve's are.

    With with_previous set, returns the pair (e^x K_{order-1}(x),
    e^x K_order(x)), which gives the derivative
    d/dx [x^order K_order(x)] = -x^order K_{order-1}(x). K is even in its
    order, so K_{order-1} is K_{|order-1|}: the recurrence's previous term
    for an integer order (k1e at order 0), the closed form at n - 1/2 for a
    half-integer one, and one more table or kve call otherwise.

    With order_slope set, d log K_order(x) / d order follows last in the
    returned tuple. It always comes from _order_slope's table, whichever
    method gave the values; a value table shares that table's grid.

    The results, and every array the size of x the call makes, are work's
    (a new _Workspace when work is None), but where a call below the
    table's crossover takes kve itself.
    """
    work = work or _Workspace()
    grid = _locate(x, work) if order_slope else None
    n = int(order)
    if order > _CLOSED_FORM_MAX_ORDER or order - n not in (0.0, 0.5):
        values = _kve_by_table((abs(order - 1.0), order) if with_previous else (order,),
                               x, grid, work)
    else:
        values = _exact_order(order, n, x, with_previous, work)
    if order_slope:
        values.append(_order_slope(order, x, grid, work))
    return tuple(values) if len(values) > 1 else values[0]


@np.errstate(over="ignore", divide="ignore")
def _exact_order(order: float, n: int, x: np.ndarray, with_previous: bool,
                 work: _Workspace) -> list:
    """_scaled_bessel_k's values at an integer or half-integer order n or
    n + 1/2, by the recurrence or the closed form, in work's arrays."""
    shape = np.shape(x)
    if order == n:
        if n < 2 and not with_previous:
            return [(_sspec.k1e if n else _sspec.k0e)(x, out=work("bessel.0", shape))]
        prev = _sspec.k0e(x, out=work("bessel.0", shape))
        cur = _sspec.k1e(x, out=work("bessel.1", shape))
        if n == 0:
            prev, cur = cur, prev
        for j in range(1, n):
            # prev + (2 j / x) cur, in place of prev
            step = np.divide(2.0 * j, x, out=work("scratch.0", shape))
            step *= cur
            prev += step
            prev, cur = cur, prev
        return [prev, cur] if with_previous else [cur]
    t = np.divide(0.5, x, out=work("scratch.0", shape))
    # sqrt(pi / 2x), in place
    root = np.multiply(2.0, x, out=work("scratch.1", shape))
    np.divide(np.pi, root, out=root)
    np.sqrt(root, out=root)
    cur = _half_integer_poly(n, t, work("bessel.1", shape))
    cur *= root
    if not with_previous:
        return [cur]
    if not n:
        return [cur, cur]
    prev = _half_integer_poly(n - 1, t, work("bessel.0", shape))
    prev *= root
    return [prev, cur]


def _half_integer_poly(n: int, t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """sum_k (n + k)! / (k! (n - k)!) t^k by Horner, into out."""
    coeffs = _HALF_INTEGER_COEFFS[n]
    out.fill(coeffs[n])
    for k in range(n - 1, -1, -1):
        out *= t
        out += coeffs[k]
    return out


# The table of _kve_by_table: pieces of fixed width in t = log x, each
# interpolating log(e^x K(x)) at the degree + 1 Chebyshev nodes of the first
# kind. log K is analytic in t for |Im t| < pi / 2 (K_mu has no zeros with
# |arg z| <= pi / 2), so on a piece of half-width 1/4 the degree-12 error is
# below the rounding of kve's own node values: within 6e-14 of kve for
# orders 1e-3 to 40 on x in [1e-6, 700].
_TABLE_WIDTH = 0.5
_TABLE_DEGREE = 12
# A call takes the table when it has more points than this plus twice the
# table's nodes. Measured on a 2-core Xeon: the table's fixed cost is about
# that of 300 kve points, each node costs one, and each point a fifth of
# one; twice the nodes keeps calls near the break-even on kve.
_TABLE_CROSSOVER = 250

_CHEB_ANGLES = np.pi * (np.arange(_TABLE_DEGREE + 1) + 0.5) / (_TABLE_DEGREE + 1)
_CHEB_CENTRE = _TABLE_DEGREE // 2
# the nodes in [-1, 1]; the degree is even, so the centre is a node, set to
# exactly 0 (its cosine rounds to 6e-17)
_CHEB_NODES = np.cos(_CHEB_ANGLES)
_CHEB_NODES[_CHEB_CENTRE] = 0.0
# x at the nodes over x at the piece's centre
_NODE_FACTORS = np.exp(0.5 * _TABLE_WIDTH * _CHEB_NODES)
# node values times this matrix are the Chebyshev coefficients
_CHEB_MATRIX = (2.0 / (_TABLE_DEGREE + 1)) * np.cos(
    np.outer(_CHEB_ANGLES, np.arange(_TABLE_DEGREE + 1)))
_CHEB_MATRIX[:, 0] *= 0.5

# The table of _order_slope holds d log K / d mu at its nodes from the
# fourth-order central difference (4 D(step) - D(2 step)) / 3, where D(s) is
# log(K_{mu + s} / K_{mu - s}) over the difference of the two orders as
# they round (that rounding, 7e-15 at mu ~ 40, is 1e-11 of 2 step, and
# d log K / d mu reaches 30). Against mpmath, for orders 1e-4 to 40 (below
# 2 step, K's evenness gives K_{mu - s}) on x in [1e-6, 700], it is within
# 1.4e-10 of max(1, |value|). kve's rounding below x = 2, up to about 1e-13
# and not smooth in the order, sets that floor and grows as the step
# shrinks; the truncation, step^4 times the fifth derivative (about 1e5 at
# small x and small orders), grows with the step. The two-point D alone is
# at best 3.7e-9 (step 1e-5).
_ORDER_STEP = 3e-4


class _Grid(NamedTuple):
    """Where a call's points fall on the tables' fixed grid: the pieces are
    [first + k, first + k + 1) in log(x / 2) over _TABLE_WIDTH, k < count;
    piece holds each point's k, and u its local variable in [-1, 1]. off
    marks the points off the grid (0, inf, NaN), None if none; placed
    counts the others."""

    first: float
    count: int
    piece: np.ndarray
    u: np.ndarray
    off: np.ndarray | None
    placed: int


def _grid_points(first: float, count: int) -> np.ndarray:
    """The nodes of the grid's pieces first, ..., first + count - 1, then
    the pieces' ends."""
    centres = 2.0 * np.exp(_TABLE_WIDTH * (first + 0.5 + np.arange(count)))
    return np.concatenate([np.ravel(centres[:, None] * _NODE_FACTORS),
                           2.0 * np.exp(_TABLE_WIDTH * (first + np.arange(count + 1)))])


class _Table(NamedTuple):
    """A Chebyshev table of the grid's pieces from first on: coeffs
    (degree + 1, pieces), whose rows are coefficients; scale, each piece's
    centre value, which the interpolant is relative to (None for a table
    of the function itself); bad, the pieces whose points take the
    function itself. A piece's columns depend only on the function and the
    piece, not on the others in the table."""

    first: float
    coeffs: np.ndarray
    scale: np.ndarray | None
    bad: np.ndarray

    def holds(self, grid: _Grid) -> bool:
        """Whether the table holds all of grid's pieces."""
        return _holds(self.first, self.bad.size, grid)

    def over(self, grid: _Grid) -> _Table:
        """The table's columns for grid's pieces, which it holds, as
        views."""
        start = int(grid.first - self.first)
        cols = slice(start, start + grid.count)
        return _Table(grid.first, self.coeffs[:, cols],
                      None if self.scale is None else self.scale[cols], self.bad[cols])


def _holds(first: float, count: int, grid: _Grid) -> bool:
    """Whether the pieces first, ..., first + count - 1 include grid's."""
    return first <= grid.first and grid.first + grid.count <= first + count


@np.errstate(divide="ignore", invalid="ignore")
def _locate(x: np.ndarray, work: _Workspace) -> _Grid | None:
    """The grid of a table over x's finite positive points, or None when
    there are none; the others sit on a placed point's piece at u = 0.
    piece and u are work's "table" arrays."""
    flat = np.ravel(x)
    t = np.multiply(flat, 0.5, out=work("table.u", flat.shape))
    np.log(t, out=t)
    t *= 1.0 / _TABLE_WIDTH  # log(x / 2) in piece widths
    low, high = t.min(initial=np.inf), t.max(initial=-np.inf)
    off, placed = None, flat.size
    # not finite if x is empty or holds 0, inf or NaN; no extra pass otherwise
    if not np.isfinite(high - low):
        off = ~np.isfinite(t)
        placed -= int(np.count_nonzero(off))
        if not placed:
            return None
        t[off] = t[np.argmin(off)]
        low, high = t.min(), t.max()
    first = np.floor(low)
    count = int(np.floor(high) - first) + 1
    np.floor(t, out=t)
    t -= first
    piece = work("table.piece", flat.shape, np.intp)
    np.copyto(piece, t, casting="unsafe")
    centres = 2.0 * np.exp(_TABLE_WIDTH * (first + 0.5 + np.arange(count)))
    # the local variable log(x / centre) in [-1, 1], from the centre rather
    # than from t, whose rounding grows with |log x|; piece is in range, so
    # the gather takes mode="clip", as _clenshaw's do
    u = np.take(1.0 / centres, piece, out=t, mode="clip")
    u *= flat
    np.log(u, out=u)
    u *= 2.0 / _TABLE_WIDTH
    if off is not None:
        u[off] = 0.0
    return _Grid(first, count, piece, u, off, placed)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _kve_by_table(orders, x: np.ndarray, grid: _Grid | None = None,
                  work: _Workspace | None = None) -> list:
    """scipy's kve(order, x) for each of the orders, within about 1e-13.

    With more points on the grid than _TABLE_CROSSOVER plus twice the
    nodes of the pieces that cover the call's own [min x, max x] (13 per
    half unit of log x), each order is evaluated on a table of those
    pieces (_tabulated): per point a piece lookup and a Clenshaw sum. The
    pieces lie on a fixed grid in log x, and a piece's coefficients
    depend only on the order, so a point's value does not depend on the
    call's other points, nor on which other pieces its table holds; grid,
    when given, is x's place on it. One of the grid's ends is x = 2, where
    kve (AMOS's CBKNU) switches from its series to its large-x method and
    its values jump by up to 2.5e-13: no piece straddles the jump, so each
    follows kve's values on its side of it. Points off the grid, and those
    of a piece where kve is not finite at a node or an end (K overflowing
    at tiny x and high order, kve's NaN from x = 2^30 on), take kve
    itself, so the result is inf or NaN exactly where kve's is. Otherwise
    each order is one kve call. A table's values are work's arrays (a new
    _Workspace when work is None).
    """
    twice_nodes = 2 * (_TABLE_DEGREE + 1)
    if np.size(x) > _TABLE_CROSSOVER + twice_nodes:
        work = work or _Workspace()
        grid = _locate(x, work) if grid is None else grid
        if grid is not None and grid.placed > _TABLE_CROSSOVER + twice_nodes * grid.count:
            return _tabulated(orders, x, grid, work)
    return [_sspec.kve(order, x) for order in orders]


def _tabulated(orders, x: np.ndarray, grid: _Grid, work: _Workspace) -> list:
    """The table path of _kve_by_table: each order's table over grid's
    pieces, evaluated at x. The table is a slice of the one work holds for
    the order when that holds all of grid's pieces; otherwise a new one
    (_build_table) over work's span when that holds them, else over grid's
    own pieces. work then holds the tables of this call's orders."""
    flat = np.ravel(x)
    held, out = {}, []
    for k, order in enumerate(orders):
        table = work.tables.get(order)
        if table is None or not table.holds(grid):
            first, count = grid.first, grid.count
            if work.span is not None and _holds(*work.span, grid):
                first, count = work.span
            table = _build_table(order, first, count)
        held[order] = table
        table = table.over(grid)
        # the exact orders' names, so a fit whose search meets both paths
        # holds one set of values
        value, fallback = _interpolate(table, grid, work("bessel.%d" % k, flat.shape), work)
        np.exp(value, out=value)
        value *= np.take(table.scale, grid.piece, out=work("scratch.0", flat.shape), mode="clip")
        if fallback is not None:
            value[fallback] = _sspec.kve(order, flat[fallback])
        out.append(value.reshape(np.shape(x)))
    work.tables = held
    return out


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _order_slope(order: float, x: np.ndarray, grid: _Grid | None,
                 work: _Workspace) -> np.ndarray:
    """d log K_order(x) / d order on an array of x, without checks, from a
    table on grid, x's place on the fixed grid, of _order_difference at the
    nodes, into work's arrays. A point off the grid, or of a piece where the
    difference is not finite at a node or an end, takes the difference at
    the point itself, which is inf or NaN where kve is at a stencil order;
    with no grid, every point does."""
    flat = np.ravel(x)
    if grid is None:
        return _order_difference(order, flat).reshape(np.shape(x))
    pieces = grid.count
    slopes = _order_difference(order, _grid_points(grid.first, pieces))
    table = _fit_pieces(grid.first, slopes[:-pieces - 1].reshape(pieces, -1),
                        slopes[-pieces - 1:])
    value, fallback = _interpolate(table, grid, work("table.slope", flat.shape), work)
    if fallback is not None:
        value[fallback] = _order_difference(order, flat[fallback])
    return value.reshape(np.shape(x))


def _order_difference(order: float, x: np.ndarray) -> np.ndarray:
    """The central difference of log K in the order behind _order_slope."""
    estimates = []
    for step in (_ORDER_STEP, 2.0 * _ORDER_STEP):
        up, down = order + step, order - step
        estimates.append(np.log(_sspec.kve(up, x) / _sspec.kve(abs(down), x)) / (up - down))
    return (4.0 * estimates[0] - estimates[1]) / 3.0


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _build_table(order: float, first: float, count: int) -> _Table:
    """The table of e^x K_order(x) over the grid's pieces first, ...,
    first + count - 1: one kve call on their nodes and ends. A piece
    stores its centre value as a scale and interpolates log(K / K_centre),
    which is small, so the rounding of log K itself (an ulp of 6e-14 where
    log K ~ 300) does not enter."""
    values = _sspec.kve(order, _grid_points(first, count))
    nodes = values[:-count - 1].reshape(count, -1)
    scale = nodes[:, _CHEB_CENTRE]
    return _fit_pieces(first, np.log(nodes / scale[:, None]), values[-count - 1:], scale)


def _fit_pieces(first: float, node_values: np.ndarray, ends: np.ndarray,
                scale: np.ndarray | None = None) -> _Table:
    """The table of the pieces from first on whose node values (pieces,
    nodes) and ends (pieces + 1) are given. Bad pieces are those where the
    values are not finite at a node or at either end; kve is inf only
    below some x and NaN only from x = 2^30 on, so it is finite on a piece
    where it is at both ends. A bad piece interpolates 0; overwrites its
    node values."""
    finite_ends = np.isfinite(ends)
    bad = ~(np.isfinite(node_values).all(axis=1) & finite_ends[:-1] & finite_ends[1:])
    node_values[bad] = 0.0
    # einsum rather than BLAS, so the bits do not depend on the thread
    # count; rows are coefficients, so each Clenshaw step reads one row
    coeffs = np.einsum("pj,jk->kp", node_values, _CHEB_MATRIX, order="C")
    return _Table(first, coeffs, scale, bad)


def _interpolate(table: _Table, grid: _Grid, out: np.ndarray, work: _Workspace):
    """The Chebyshev interpolant of a table over exactly grid's pieces at
    the grid's points, into out, and a mask of the points that take the
    function itself (None if none): those off the grid and those of the
    table's bad pieces."""
    fallback = grid.off
    if table.bad.any():
        bad = table.bad[grid.piece]
        fallback = bad if fallback is None else bad | fallback
    return _clenshaw(table.coeffs, grid.piece, grid.u, out, work), fallback


def _clenshaw(coeffs: np.ndarray, piece: np.ndarray, u: np.ndarray, out: np.ndarray,
              work: _Workspace) -> np.ndarray:
    """sum_k coeffs[k, piece] T_k(u), elementwise, by Clenshaw's recurrence,
    into out; the recurrence's terms are work's scratch arrays.

    piece indexes coeffs' columns by construction, so the gathers take
    mode="clip": numpy buffers out= in its default mode="raise", and clip
    gives the same values without that copy."""
    two_u = np.add(u, u, out=work("scratch.0", u.shape))
    b1 = np.take(coeffs[-1], piece, out=work("scratch.1", u.shape), mode="clip")
    b2 = work("scratch.2", u.shape)
    b2.fill(0.0)
    step = out
    for row in coeffs[-2:0:-1]:
        np.multiply(two_u, b1, out=step)
        step -= b2
        np.take(row, piece, out=b2, mode="clip")
        b2 += step
        b1, b2 = b2, b1
    np.multiply(u, b1, out=step)
    step -= b2
    step += np.take(coeffs[0], piece, out=b2, mode="clip")
    return step


def _frequency_coefficients(node_values: np.ndarray) -> np.ndarray:
    """The Chebyshev coefficients (L, degree + 1), from the last to the
    first, of L functions on one piece of the grid along s = log|c(w)|
    from their finite values (L, nodes) at its nodes; overwrites
    node_values.

    The secant through the end nodes comes out first, so that the
    coefficients past the first are not the rounding of a steep line, and
    its slope goes back into the coefficient of T_1. The sum over nodes is
    einsum's, not BLAS's, so its bits do not depend on the thread count.
    Stored from the last to the first, the sums that evaluate them add the
    large coefficients last."""
    slope = node_values[:, 0] - node_values[:, -1]
    slope /= _CHEB_NODES[0] - _CHEB_NODES[-1]
    node_values -= slope[:, None] * _CHEB_NODES
    coeffs = np.einsum("lj,jk->lk", node_values, _CHEB_MATRIX[:, ::-1])
    coeffs[:, -2] += slope
    return coeffs


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
    Symmetry is checked and violations beyond a small tolerance are rejected;
    the series is then synthesized from the ordinates k = 0, ..., floor(n / 2).

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
    n = _count(n, "n", 2)
    if c.ndim != 1 or c.size != n:
        raise ValueError("coeffs must be a vector of length n=%d, got shape %s" % (n, c.shape))
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
    return _synthesize_half(c[: n // 2 + 1], n)


def _synthesize_half(half: np.ndarray, n: int) -> np.ndarray:
    """The inverse of _dft_rows, without checks: the real series
    z_t = sqrt(2 pi / n) * sum_k J_k exp(i t w_k), t = 1, ..., n, along the
    last axis, from the ordinates k = 0, ..., floor(n / 2); conjugate
    symmetry supplies the rest of the grid. The imaginary parts of the
    ordinates at 0 and, for even n, pi do not enter."""
    y = np.fft.irfft(half, n, axis=-1, norm="forward") * np.sqrt(2.0 * np.pi / n)
    # irfft indexes time from 0; the roll shifts it to t = 1, ..., n
    return np.roll(y, -1, axis=-1)


def _jittered_cholesky(a: np.ndarray) -> tuple[np.ndarray, float]:
    """The factor half of the jitter ladder, without checks: the lower
    Cholesky factor of a finite square matrix, reading only its lower
    triangle and diagonal, from LAPACK's potrf as scipy.linalg.cholesky
    calls it, and the absolute diagonal jitter that was added (0.0 when
    none was needed). Raises SingularMatrixError when the whole ladder
    fails."""
    dim = a.shape[0]
    scale = float(np.abs(np.trace(a)).real) / dim
    if scale <= 0.0 or not np.isfinite(scale):
        scale = 1.0
    for level in JITTER_LADDER:
        jitter = level * scale
        if jitter == 0.0:
            loaded = a
        else:
            # on the diagonal only: the upper triangle may be unset
            loaded = np.array(a, dtype=np.result_type(a.dtype, np.float64))
            loaded.flat[:: dim + 1] += jitter
        potrf, = _slinalg.get_lapack_funcs(("potrf",), (loaded,))
        factor, info = potrf(loaded, lower=1, clean=1)
        if info == 0:
            return factor, jitter
    raise SingularMatrixError(
        "matrix is not positive definite even with diagonal jitter %.3e" % jitter, jitter
    )


def _cholesky_solve(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The solve half: x with L L^H x = b for the lower factor L of
    _jittered_cholesky, from LAPACK's potrs as scipy.linalg.cho_solve calls
    it, without checks."""
    potrs, = _slinalg.get_lapack_funcs(("potrs",), (factor, b))
    x, _ = potrs(factor, b, lower=1)
    return x


def _hpd_solve(a: np.ndarray, b: np.ndarray) -> HpdSolution:
    """hpd_solve without its checks: the factor half, then the solve half."""
    factor, jitter = _jittered_cholesky(a)
    return HpdSolution(x=_cholesky_solve(factor, b), jitter=jitter)


def _square_finite(matrix) -> np.ndarray:
    """matrix as an array, after the checks that it is square, not empty
    and finite."""
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square, got shape %s" % (a.shape,))
    if not a.size:
        raise ValueError("matrix must not be empty")
    if not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite values")
    return a


def cholesky_with_jitter(matrix) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of a Hermitian matrix, adding diagonal jitter
    from a fixed ladder when the plain factorization fails.

    Returns the factor and the absolute jitter that was added (0.0 when none
    was needed). Raises SingularMatrixError when the whole ladder fails, and
    ValueError for a matrix that is not square, is empty or holds a value
    that is not finite.
    """
    return _jittered_cholesky(_square_finite(matrix))


def hpd_solve(matrix, rhs) -> HpdSolution:
    """Solve A x = b for Hermitian positive definite A via Cholesky, with
    escalating diagonal jitter as a fallback for near-singular systems.

    Parameters
    ----------
    matrix : array_like
        Hermitian positive definite matrix, square, not empty and finite.
        Hermitian symmetry is checked to a tolerance of 1e-10 relative to
        the largest entry.
    rhs : array_like
        Finite right hand side vector or matrix.

    Returns
    -------
    HpdSolution
        Solution and the diagonal jitter that was used (0.0 normally), from
        the factor of cholesky_with_jitter.
    """
    a = _square_finite(matrix)
    b = np.asarray(rhs)
    if b.ndim == 0 or b.shape[0] != a.shape[0]:
        raise ValueError("rhs must have %d rows to match the matrix, got shape %s"
                         % (a.shape[0], b.shape))
    if not np.isfinite(b).all():
        raise ValueError("rhs contains non-finite values")
    scale = max(1.0, float(np.abs(a).max()))
    asym = float(np.abs(a - a.conj().T).max())
    if asym > 1e-10 * scale:
        raise ValueError(
            "matrix is not Hermitian: max asymmetry %.3e exceeds tolerance %.3e"
            % (asym, 1e-10 * scale)
        )
    return _hpd_solve(a, b)
