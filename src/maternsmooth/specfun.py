"""Real-order modified Bessel function of the second kind and log-gamma.

Covariance evaluation needs :math:`\\mathcal{K}_\\nu(x)` for real order
``nu`` from 0 up to several hundred.  The function value itself overflows
double precision long before that (``K_150(1)`` is already above 1e308),
so this module provides log-scale variants that stay finite throughout.

Strategy: five paths, chosen from the order and the argument alone, so
that a value never depends on the array it came in or on its position.

* For ``nu <= 16`` and ``1 <= x <= 128``, the bulk of a kernel matrix,
  the exponentially scaled function ``kve(nu, x) = e**x K_nu(x)`` is the
  integral (DLMF 10.32.9) ``int_0^inf exp(-2 x sinh(t/2)**2) cosh(nu t) dt``,
  summed by the trapezoidal rule.  The integrand is entire and decays
  doubly exponentially, so the rule converges exponentially in the step
  (Trefethen & Weideman, SIAM Review 56, 2014): 15 to 38 nodes bound its
  error by ``2**-56`` of the value.  The arguments fall into the buckets
  ``[1, 2), [2, 4), ..., [64, 128]``, each with its own step and node
  count, and a value costs one ``exp`` per node.  Its worst relative error
  against mpmath is 1.2e-15, where SciPy's ``kve`` reaches 1.3e-13 near
  ``x = 2`` at small orders.  On one thread of a 2-core AMD EPYC it costs
  12 to 33 ns per element at orders 0.53 and 5.6, where ``kve`` costs 140
  to 220 ns below 1, 80 to 145 ns above 128 and 270 ns at order 20.3;
  ``kve`` has a closed form at half-integers (``tools/bessel_rates.py``
  measures each path).
* Elsewhere, where SciPy's ``kve`` is finite, it is used directly (its
  relative error is up to 2e-14 just below ``x = 1`` at small orders).
* Where ``kve`` overflows, which happens for large order or tiny
  argument, the logarithm comes from a uniform large-order (Debye-type)
  expansion for ``nu >= 50``, through order ``nu**-6``: the polynomials
  U_1..U_6 are the rows of one coefficient table, and one Horner loop sums
  each of them and the series in ``1/nu``;
* or from the ascending small-argument series otherwise.  Overflow with
  ``nu < 50`` forces the argument to be so small that the series needs
  only a handful of terms and the discarded part of the standard two-sided
  series is smaller than the result by hundreds of orders of magnitude,
  so the usual near-integer-order cancellation never arises.  It stays
  finite down to the least subnormal argument.
* SciPy's ``kve`` returns NaN past ``x = 2**30 - 0.5``.  There the uniform
  expansion serves from order 50, and below it the first two terms of
  Hankel's large-argument expansion, exact to rounding at such ``x``.

Accuracy is validated against arbitrary-precision oracle tables shipped
with the test suite.

At orders up to 16 each path evaluates one contiguous run of ascending
arguments; input that does not ascend is sorted first, which costs about
15 ns per element.  Kernel assembly hands each row panel's distances over
ascending, and the one call of a lattice-like design in table order (see
``kernels._DistanceTable``).

Every path is element-wise, so a value does not depend on the order of the
arguments or on the array they came in, bit for bit.  Evaluation runs on
the calling thread; the module starts no threads.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import special as _special

from .errors import AccuracyError, DomainError, check_array, check_real

__all__ = [
    "log_gamma",
    "bessel_k",
    "log_bessel_k",
]

# The highest order accepted, by the Bessel functions and the kernel.  Up to
# it, log_bessel_k agreed with mpmath to 1.1e-16 at orders 1e4, 1e5 and 1e6
# and arguments from 1e-300 to 1e3, and is finite at every argument from
# 1e-300 to 1e300.  Above it, at x = 1e-300, the uniform expansion's
# ``x / nu`` stops being a normal double from order 4.5e7, and its
# logarithm's argument underflows to zero from order 2e23; at x = 1 its
# ``nu * eta`` overflows from order 3e305.
ORDER_MAX = 1e6

# Order threshold above which the uniform large-order expansion is used
# when the scaled SciPy routine overflows.
_UNIFORM_ORDER_MIN = 50.0

# The least normal double: the uniform expansion takes ``log(x / nu)`` as
# ``log x - log nu`` where ``x / nu`` is below it, and so has lost bits or
# is zero.
_NORMAL_MIN = float(np.finfo(float).tiny)

# The small-argument series stops at the first term below this fraction of
# its running sum, and raises AccuracyError after this many terms.
_SERIES_RTOL = 1e-13
_SERIES_MAX_TERMS = 200

# The trapezoidal rule serves orders up to _QUAD_ORDER_MAX and arguments
# from 1 to 2**_QUAD_BUCKETS, in the buckets [2**k, 2**(k+1)); the top one
# also takes 128.  Its step and node count bound the error of the rule by
# _QUAD_RTOL of the value, for every argument of the bucket.
_QUAD_ORDER_MAX = 16.0
_QUAD_BUCKETS = 7
_QUAD_EDGES = np.array([2.0**k for k in range(_QUAD_BUCKETS)]
                       + [math.nextafter(2.0**_QUAD_BUCKETS, math.inf)])
_QUAD_RTOL = 2.0**-56
# Half-widths of the strip around the real axis over which the step's error
# bound is minimised (the integrand decays in the strip below pi/2).
_QUAD_STRIPS = np.arange(1, 32) * 0.05
# Each bucket's node matrix (nodes by arguments) holds at most _NODE_MATRIX
# doubles.
_NODE_MATRIX = 2**16


@functools.lru_cache(maxsize=None)
def _nodes(order, bucket):
    """Step, nodes and exponents of the trapezoidal rule for ``kve`` at
    orders up to ``order`` and arguments in ``bucket``.

    On the strip ``|Im t| < a`` the integrand is bounded, in integral, by
    ``e**x K_nu(x cos a)``, so the error of the rule on the whole line is at
    most ``2 K_nu(x cos a) / K_nu(x) / (exp(2 pi a / h) - 1)`` of the value
    (Trefethen & Weideman 2014, Theorem 5.1).  The bound grows with ``x``
    and ``nu``: the step ``h`` is the largest that keeps it below
    ``_QUAD_RTOL`` at the bucket's top argument, over the strips
    ``_QUAD_STRIPS``.  The rule stops at the last node whose term at the
    bucket's lowest argument is above ``_QUAD_RTOL / 8`` of the value; past
    the integrand's peak, a term's share of the value falls with ``x``.

    The nodes ``t``, read-only, are in extended precision where the
    platform has it; the exponents ``c = -2 sinh(t/2)**2`` are a read-only
    column.
    """
    lo, hi = 2.0**bucket, 2.0**(bucket + 1)
    z = hi * np.cos(_QUAD_STRIPS)
    excess = np.log(_special.kve(order, z)) - z - (math.log(_special.kve(order, hi)) - hi)
    step = float(np.max(2.0 * math.pi * _QUAD_STRIPS
                        / (math.log(2.0 / _QUAD_RTOL) + excess)))
    t = step * np.arange(1, 128)
    log_terms = (np.logaddexp(order * t, -order * t) - 2.0 * lo * np.sinh(0.5 * t) ** 2
                 + math.log(0.5 * step))
    floor = math.log(_QUAD_RTOL / 8.0 * _special.kve(order, lo))
    count = int(np.flatnonzero(log_terms >= floor)[-1]) + 2
    t = np.longdouble(step) * np.arange(count)
    c = (-2.0 * np.sinh(t / 2) ** 2).astype(float)[:, None]
    t.flags.writeable = c.flags.writeable = False
    return step, t, c


@functools.lru_cache(maxsize=1024)
def _trapezoid_rule(nu, bucket):
    """Exponents ``c`` and weights ``w``, read-only columns, such that
    ``kve(nu, x) = sum(w * exp(c * x))`` for ``x`` in ``bucket``.

    The nodes are those of the order ``nu`` rounded up to a multiple of 1/2
    (:func:`_nodes`), so a few serve every order; the weights
    ``h cosh(nu t)`` (halved at ``t = 0``) are computed in the precision of
    the nodes and rounded once.
    """
    step, t, c = _nodes(max(math.ceil(2.0 * nu), 1) / 2.0, bucket)
    w = step * np.cosh(nu * t)
    w[0] /= 2
    w = w.astype(float)[:, None]
    w.flags.writeable = False
    return c, w


def _trapezoid(nu, bucket, x, out):
    """``kve(nu, x)`` into ``out`` by the rule of ``bucket``, for every
    ``x`` in that bucket.

    The terms of each argument are summed by a fixed tree of element-wise
    additions over the rows of a node matrix, so each value is a function of
    its own argument only, whatever the array around it.
    """
    c, w = _trapezoid_rule(nu, bucket)
    nodes = c.shape[0]
    width = _NODE_MATRIX // nodes
    for a in range(0, x.size, width):
        terms = c * x[a:a + width]
        np.exp(terms, out=terms)
        terms *= w
        rows = nodes
        while rows > 1:
            half = (rows + 1) // 2
            terms[:rows - half] += terms[half:rows]
            rows = half
        out[a:a + width] = terms[0]


def _kve(nu, x):
    """``kve(nu, x)`` for a float array of any shape, taken flat, by the
    trapezoidal rule where ``nu <= 16`` and ``1 <= x <= 128`` and by SciPy
    elsewhere.

    Each path (SciPy below 1, each bucket of the rule, SciPy above 128)
    evaluates one contiguous run of ascending arguments, found by one
    ``searchsorted`` of the bucket edges.  Arguments that do not ascend are
    sorted first and their values put back in place.
    """
    flat = x.reshape(-1)
    if nu > _QUAD_ORDER_MAX:
        out = _special.kve(nu, flat)
    elif not (flat[1:] < flat[:-1]).any():
        out = _kve_runs(nu, flat, np.empty_like(flat))
    else:
        order = np.argsort(flat)
        values = flat[order]
        out = np.empty_like(flat)
        out[order] = _kve_runs(nu, values, values)
    return out.reshape(x.shape)


def _kve_runs(nu, x, out):
    """:func:`_kve` for ascending 1-d ``x``: path 0 takes the arguments
    below 1, path ``k + 1`` the bucket ``[2**k, 2**(k+1))`` of the rule (the
    top one with 128), and the last those above 128."""
    edges = [0, *np.searchsorted(x, _QUAD_EDGES).tolist(), x.size]
    for path, (a, b) in enumerate(zip(edges, edges[1:])):
        if b > a and 1 <= path <= _QUAD_BUCKETS:
            _trapezoid(nu, path - 1, x[a:b], out[a:b])
        elif b > a:
            _special.kve(nu, x[a:b], out=out[a:b])
    return out


def log_gamma(x):
    """Natural log of the Gamma function for positive real ``x``.

    Accepts a scalar or array; raises
    :class:`~maternsmooth.errors.DomainError` for
    non-positive or non-finite input.
    """
    arr = check_array("x", x)
    out = _special.gammaln(arr)
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


# The polynomials U_1..U_6 of the uniform expansion (DLMF 10.41.10), one row
# per U_k: ``U_k(p) = p**k * sum(row[j] * q**j)`` with ``q = p**2``, lowest
# power first.  Each entry is the float of an exact rational of the
# recursion in :func:`_debye_u`.
_DEBYE_U = (
    (1 / 8, -5 / 24),
    (9 / 128, -77 / 192, 385 / 1152),
    (75 / 1024, -4563 / 5120, 17017 / 9216, -85085 / 82944),
    (3675 / 32768, -96833 / 40960, 144001 / 16384, -7436429 / 663552, 37182145 / 7962624),
    (59535 / 262144, -67608983 / 9175040, 250881631 / 5898240, -108313205 / 1179648,
     5391411025 / 63700992, -5391411025 / 191102976),
    (2401245 / 4194304, -388895895 / 14680064, 1441372804469 / 6606028800,
     -33010308331 / 47185920, 4445922195 / 4194304, -1169936192425 / 1528823808,
     5849680962125 / 27518828544),
)


def _horner(coefficients, x):
    """``sum(c * x**j)`` over the ``coefficients`` ``c``, lowest power first,
    by Horner's rule: ``c_0 + x * (c_1 + x * (... + x * c_last))``.

    After the first product, an array value is updated in place, so a call
    allocates one array."""
    value = x * coefficients[-1]
    for c in coefficients[-2:0:-1]:
        value += c
        value *= x
    value += coefficients[0]
    return value


def _debye_u(p):
    """The polynomials U_1..U_6 of the uniform large-order expansion at
    ``p``, a scalar or array, from the rows of ``_DEBYE_U``.

    Their coefficients are the exact rationals generated by the standard
    recursion
    ``U_{k+1}(t) = t^2(1-t^2)/2 U_k'(t) + (1/8) int_0^t (1-5s^2) U_k ds``
    from ``U_0 = 1``.  U_k is ``p`` (odd ``k``) or ``q = p**2`` (even ``k``),
    times ``q`` another ``(k - 1) // 2`` times, times the row's polynomial
    in ``q``.
    """
    q = p * p
    out = []
    for k, row in enumerate(_DEBYE_U, 1):
        u = p if k % 2 else q
        for _ in range((k - 1) // 2):
            u = u * q
        out.append(u * _horner(row, q))
    return out


def _log_k_uniform(nu, x):
    """log K_nu(x) by the uniform large-order expansion (DLMF 10.41.4),
    ``K_nu(nu z) ~ sqrt(pi / (2 nu)) e**(-nu eta) / (1 + z**2)**(1/4)
    * sum((-1)**k U_k(p) / nu**k)`` with ``p = 1 / sqrt(1 + z**2)``, the
    series through ``k = 6`` summed by Horner's rule in ``1 / nu``.

    Vectorized over ``x``.  Relative accuracy is ~1e-11 or better for
    ``nu >= 50`` over all positive arguments.  Where ``z = x / nu`` is not a
    normal double, ``log z`` is taken as ``log x - log nu``; elsewhere
    ``log(z / (1 + s))`` is taken as it stands.
    """
    z = x / nu
    s = np.hypot(1.0, z)
    with np.errstate(divide="ignore"):
        eta = s + np.log(z / (1.0 + s))
    tiny = z < _NORMAL_MIN
    if tiny.any():
        eta[tiny] = s[tiny] + (np.log(x[tiny]) - math.log(nu) - np.log(1.0 + s[tiny]))
    u1, u2, u3, u4, u5, u6 = _debye_u(1.0 / s)
    w = 1.0 / nu
    series = 1.0 + w * _horner((-u1, u2, -u3, u4, -u5, u6), w)
    return 0.5 * np.log(np.pi / (2.0 * nu)) - 0.5 * np.log(s) - nu * eta + np.log(series)


def _log_k_series(nu, x):
    """log K_nu(x) from the ascending series, small-argument regime.

    Sums the dominant branch of the two-sided series, ``(x/2)**-nu / 2``
    times the sum over ``k`` of ``Gamma(nu - k) (-x**2/4)**k / k!``, which at
    an integer order ends at ``k = nu - 1``; valid whenever ``K_nu(x)`` is
    large enough to overflow double precision, which is the only situation
    in which this routine is called.  Below order 1/2, where ``kve`` fails
    (below about ``x = 1e-305``), the other branch's leading term
    ``Gamma(-nu) (x/2)**nu / 2`` is added: it cancels part of the first at
    orders below about 0.025.  ``log(2/x)`` is taken as
    ``log 2 - log x``, as ``2/x`` overflows below about 1e-308.

    At order 0 no branch dominates, and ``K_0(x) = log(2/x) - gamma`` to
    rounding where this routine is called (SciPy's ``kve`` fails below
    about 1e-305, where the next term, of order ``x**2 log x``, is far below
    an ulp).
    """
    if nu == 0.0:
        return math.log(math.log(2.0) - math.log(x) - np.euler_gamma)
    q = 0.25 * x * x
    term = 1.0
    total = 1.0
    for k in range(1, _SERIES_MAX_TERMS + 1):
        if k == nu:  # at an integer order the branch ends at k = nu - 1
            break
        term *= q / (k * (k - nu))
        total += term
        if abs(term) <= _SERIES_RTOL * abs(total):
            break
    else:
        raise AccuracyError(
            f"small-argument series for K_nu did not converge at nu={nu}, x={x}",
            achieved=abs(term / total),
        )
    log2x = math.log(2.0) - math.log(x)
    log_k = math.log(0.5) + float(_special.gammaln(nu)) + nu * log2x + math.log(total)
    if nu >= 0.5:  # the other branch is far below an ulp wherever kve fails
        return log_k
    # The second branch's leading term, Gamma(-nu) (x/2)**nu / 2, is
    # -exp(nu c) of the first, c = g / nu - 2 log(2/x) with
    # g = log(Gamma(1 - nu) / Gamma(1 + nu)) summed as 2 gamma nu plus
    # 2 zeta(k) nu**k / k over odd k >= 3: gammaln(1 - nu) loses nu's
    # digits once 1 - nu rounds.
    c = 2.0 * (np.euler_gamma - log2x)
    for k in range(3, 2 * _SERIES_MAX_TERMS, 2):
        term = 2.0 * float(_special.zeta(k)) * nu ** (k - 1) / k
        if c + term == c:
            break
        c += term
    keep = -math.expm1(nu * c)
    if keep >= 0.5:  # log(keep) is 0.0 where the second branch is below an ulp
        return log_k + math.log(keep)
    # Where the branches cancel, log Gamma(nu) and log(keep), both near
    # -log nu, are regrouped as log Gamma(1 + nu) and log(keep / nu).
    return (math.log(0.5) + float(_special.gammaln(1.0 + nu)) + nu * log2x
            + math.log(-c * float(_special.exprel(nu * c))) + math.log(total))


def _log_k_hankel(nu, x):
    """log K_nu(x) for ``nu < 50`` and ``x > 2**30`` from the first two terms
    of Hankel's expansion (DLMF 10.40.2),
    ``K_nu(x) ~ sqrt(pi / (2 x)) e**-x (1 + (4 nu**2 - 1) / (8 x))``.

    Vectorized over ``x``.  The next term, below 1e-12 there, is under an
    ulp of the value, whose size is at least ``2**30``; at orders 1/2 and 3/2
    the two terms are the closed form.
    """
    return 0.5 * np.log(0.5 * np.pi / x) - x + np.log1p((nu * nu / 2.0 - 0.125) / x)


def _log_k_fallback(nu, x):
    """log K_nu at the arguments ``x`` (an array) where ``kve`` overflows or,
    past ``2**30 - 0.5``, returns NaN: the uniform expansion from order 50,
    and below it Hankel's expansion at ``x >= 1``, where ``kve`` fails only
    past that bound, and the series at ``x < 1``."""
    if nu >= _UNIFORM_ORDER_MIN:
        return _log_k_uniform(nu, x)
    large = x >= 1.0
    out = np.empty_like(x)
    out[large] = _log_k_hankel(nu, x[large])
    out[~large] = [_log_k_series(nu, float(xi)) for xi in x[~large]]
    return out


def check_order(name, nu):
    """``nu``, a real number already checked: :class:`DomainError` naming
    ``name`` when it is above ``ORDER_MAX``."""
    if nu > ORDER_MAX:
        raise DomainError(f"{name} must be at most {ORDER_MAX:g}, got {nu!r}")
    return nu


def _order_and_arguments(nu, x):
    """Validated order, arguments as an array of at least one dimension, and
    whether ``x`` is scalar."""
    nu = check_order("order nu", check_real("order nu", nu, "nonnegative"))
    arr = check_array("x", x)
    scalar = np.isscalar(x) or arr.ndim == 0
    return nu, np.atleast_1d(arr), scalar


def log_bessel_k(nu, x):
    """Natural log of the modified Bessel function of the second kind.

    Agrees with ``log(bessel_k(nu, x))`` wherever the latter is
    representable and remains finite far beyond that, for orders up to
    ``ORDER_MAX`` and arguments from 1e-300 to 1e300.  Where ``kve``
    overflows, the small-argument series is summed to a relative term size
    of 1e-13, and raises :class:`~maternsmooth.errors.AccuracyError` if it
    has not got there within 200 terms.

    Parameters
    ----------
    nu : float
        Order, ``0 <= nu <= ORDER_MAX``.
    x : float or ndarray
        Argument(s), strictly positive.

    Returns
    -------
    float or ndarray
    """
    nu, arr, scalar = _order_and_arguments(nu, x)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = _kve(nu, arr)
        np.log(out, out=out)
        out -= arr
        finite = math.isfinite(out.sum())  # one reduction, cheaper than the mask
    if not finite:
        bad = ~np.isfinite(out)
        out[bad] = _log_k_fallback(nu, arr[bad])
    if scalar:
        return float(out[0])
    return out


def bessel_k(nu, x):
    """Modified Bessel function of the second kind of real order ``nu``.

    Relative error is at most ~1e-13 for ``nu`` in [0, 50] and ``x`` in
    [1e-6, 100] wherever the value is representable in double precision;
    corners of that box whose value exceeds ~1.8e308 return ``inf``.
    Use :func:`log_bessel_k` for an overflow-safe evaluation.
    """
    nu, arr, scalar = _order_and_arguments(nu, x)
    with np.errstate(over="ignore", invalid="ignore"):
        out = _kve(nu, arr) * np.exp(-arr)
        finite = math.isfinite(out.sum())  # the sum may overflow: then the mask decides
    if not finite:
        bad = ~np.isfinite(out)
        with np.errstate(over="ignore"):
            out[bad] = np.exp(_log_k_fallback(nu, arr[bad]))
    if scalar:
        return float(out[0])
    return out
