"""Real-order modified Bessel function of the second kind and log-gamma.

Covariance evaluation needs :math:`\\mathcal{K}_\\nu(x)` for real order
``nu`` from 0 up to several hundred.  The function value itself overflows
double precision long before that (``K_150(1)`` is already above 1e308),
so this module provides log-scale variants that stay finite throughout.

Strategy: where the exponentially scaled SciPy routine ``kve`` is finite it
is used directly (it is accurate to a few ulp).  Where it overflows, which
happens for large order or tiny argument, the logarithm is computed from
one of two expansions:

* a uniform large-order (Debye-type) expansion for ``nu >= 50``, with
  polynomial coefficients through order ``nu**-6``;
* the ascending small-argument series otherwise.  Overflow with
  ``nu < 50`` forces the argument to be so small that the series needs
  only a handful of terms and the discarded part of the standard two-sided
  series is smaller than the result by hundreds of orders of magnitude,
  so the usual near-integer-order cancellation never arises.

Accuracy is validated against arbitrary-precision oracle tables shipped
with the test suite.

Threads: an array of at least ``2 * _SLICE_MIN`` arguments is cut into one
contiguous slice per worker thread, and ``kve`` (which releases the GIL)
fills each slice of one output array; the calling thread evaluates the
first slice itself.  ``kve`` is element-wise, so the result does not
depend on the number of threads, bit for bit.  That number is the package's
thread limit (:func:`thread_limit`; ``--threads N`` on the command line
sets it for every command), capped at the CPUs the process may run on,
which is also the default.  The workers are started on the first split and
again in a forked child, which inherits none of its parent's threads.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np
from scipy import special as _special

from .errors import AccuracyError, DomainError

__all__ = [
    "log_gamma",
    "bessel_k",
    "log_bessel_k",
    "thread_limit",
    "worker_threads",
]

# Order threshold above which the uniform large-order expansion is used
# when the scaled SciPy routine overflows.
_UNIFORM_ORDER_MIN = 50.0

# The small-argument series stops at the first term below this fraction of
# its running sum, and raises AccuracyError after this many terms.
_SERIES_RTOL = 1e-13
_SERIES_MAX_TERMS = 200

# Fewest arguments per slice of a split ``kve`` evaluation.
_SLICE_MIN = 8192

_threads = None  # the thread limit; None: every CPU the process may run on
_cpus = None  # CPUs in the process's affinity mask, read on first use
_pool = None  # Bessel workers besides the calling thread
_pool_lock = threading.Lock()


def check_threads(threads):
    """Raise :class:`DomainError` unless ``threads`` is None or an integer >= 1."""
    if threads is not None and (isinstance(threads, bool)
                                or not isinstance(threads, (int, np.integer)) or threads < 1):
        raise DomainError(f"threads must be an integer >= 1, got {threads!r}")


@contextmanager
def thread_limit(threads):
    """Run the block with at most ``threads`` worker threads in the package
    (None: one per CPU the process may run on).  Results do not depend on it."""
    global _threads
    check_threads(threads)
    previous, _threads = _threads, threads
    try:
        yield
    finally:
        _threads = previous


def _cpu_count():
    global _cpus
    if _cpus is None:
        try:
            _cpus = len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity masks on this platform
            _cpus = os.cpu_count() or 1
    return _cpus


def worker_threads():
    """Threads the package may run work on: the thread limit, at most the CPUs."""
    cpus = _cpu_count()
    return cpus if _threads is None else min(_threads, cpus)


def _worker_pool():
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=_cpu_count() - 1,
                                       thread_name_prefix="maternsmooth-kve")
        return _pool


def _forget_workers():
    """In a forked child: the parent's worker threads do not exist here."""
    global _cpus, _pool, _pool_lock
    _cpus, _pool, _pool_lock = None, None, threading.Lock()


os.register_at_fork(after_in_child=_forget_workers)


def _kve(nu, x):
    """``kve(nu, x)`` for a 1-d float array, split across the worker threads
    when ``x`` is large; bit-identical to one call."""
    slices = x.size // _SLICE_MIN
    if slices >= 2:
        slices = min(slices, worker_threads())
    if slices < 2:
        return _special.kve(nu, x)
    out = np.empty_like(x)
    edges = [x.size * k // slices for k in range(slices + 1)]
    pool = _worker_pool()
    futures = [pool.submit(_special.kve, nu, x[a:b], out=out[a:b])
               for a, b in zip(edges[1:-1], edges[2:])]
    _special.kve(nu, x[:edges[1]], out=out[:edges[1]])
    for future in futures:
        future.result()
    return out


def _validate_positive(name, value):
    arr = np.asarray(value, dtype=float)
    # Two reductions: a NaN fails both comparisons.
    if arr.size and not (arr.min() > 0.0 and arr.max() < math.inf):
        raise DomainError(f"{name} must be positive and finite, got {value!r}")
    return arr


def log_gamma(x):
    """Natural log of the Gamma function for positive real ``x``.

    Accepts a scalar or array; raises :class:`DomainError` for
    non-positive or non-finite input.
    """
    arr = _validate_positive("x", x)
    out = _special.gammaln(arr)
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


def _debye_u(p):
    """Polynomials U_0..U_6 of the uniform large-order expansion.

    ``p`` may be a scalar or array.  Coefficients are the exact rationals
    generated by the standard recursion
    ``U_{k+1}(t) = t^2(1-t^2)/2 U_k'(t) + (1/8) int_0^t (1-5s^2) U_k ds``.
    """
    q = p * p
    u1 = p * (1.0 / 8.0 - 5.0 / 24.0 * q)
    u2 = q * (9.0 / 128.0 + q * (-77.0 / 192.0 + q * (385.0 / 1152.0)))
    u3 = p * q * (
        75.0 / 1024.0
        + q * (-4563.0 / 5120.0 + q * (17017.0 / 9216.0 + q * (-85085.0 / 82944.0)))
    )
    u4 = q * q * (
        3675.0 / 32768.0
        + q
        * (
            -96833.0 / 40960.0
            + q
            * (
                144001.0 / 16384.0
                + q * (-7436429.0 / 663552.0 + q * (37182145.0 / 7962624.0))
            )
        )
    )
    u5 = p * q * q * (
        59535.0 / 262144.0
        + q
        * (
            -67608983.0 / 9175040.0
            + q
            * (
                250881631.0 / 5898240.0
                + q
                * (
                    -108313205.0 / 1179648.0
                    + q
                    * (
                        5391411025.0 / 63700992.0
                        + q * (-5391411025.0 / 191102976.0)
                    )
                )
            )
        )
    )
    u6 = q * q * q * (
        2401245.0 / 4194304.0
        + q
        * (
            -388895895.0 / 14680064.0
            + q
            * (
                1441372804469.0 / 6606028800.0
                + q
                * (
                    -33010308331.0 / 47185920.0
                    + q
                    * (
                        4445922195.0 / 4194304.0
                        + q
                        * (
                            -1169936192425.0 / 1528823808.0
                            + q * (5849680962125.0 / 27518828544.0)
                        )
                    )
                )
            )
        )
    )
    return u1, u2, u3, u4, u5, u6


def _log_k_uniform(nu, x):
    """log K_nu(x) by the uniform large-order expansion (DLMF 10.41.4).

    Vectorized over ``x``.  Relative accuracy is ~1e-11 or better for
    ``nu >= 50`` over all positive arguments.
    """
    z = x / nu
    s = np.hypot(1.0, z)
    eta = s + np.log(z / (1.0 + s))
    p = 1.0 / s
    u1, u2, u3, u4, u5, u6 = _debye_u(p)
    w = 1.0 / nu
    series = 1.0 + w * (-u1 + w * (u2 + w * (-u3 + w * (u4 + w * (-u5 + w * u6)))))
    return 0.5 * np.log(np.pi / (2.0 * nu)) - 0.5 * np.log(s) - nu * eta + np.log(series)


def _log_k_series(nu, x):
    """log K_nu(x) from the ascending series, small-argument regime.

    Keeps only the dominant branch of the two-sided series; valid whenever
    ``K_nu(x)`` is large enough to overflow double precision, which is the
    only situation in which this routine is called.
    """
    q = 0.25 * x * x
    term = 1.0
    total = 1.0
    converged = False
    for k in range(1, _SERIES_MAX_TERMS + 1):
        term *= q / (k * (k - nu))
        total += term
        if abs(term) <= _SERIES_RTOL * abs(total):
            converged = True
            break
    if not converged:
        raise AccuracyError(
            f"small-argument series for K_nu did not converge at nu={nu}, x={x}",
            achieved=abs(term / total),
        )
    return math.log(0.5) + float(_special.gammaln(nu)) + nu * math.log(2.0 / x) + math.log(total)


def _log_k_fallback(nu, x):
    """log K_nu at the arguments ``x`` (a 1-d array) where ``kve`` overflows."""
    if nu >= _UNIFORM_ORDER_MIN:
        return _log_k_uniform(nu, x)
    return np.array([_log_k_series(nu, float(xi)) for xi in x])


def _order_and_arguments(nu, x):
    """Validated order, arguments as a 1-d array, and whether ``x`` is scalar."""
    nu = float(nu)
    if not math.isfinite(nu) or nu < 0.0:
        raise DomainError(f"order nu must be finite and >= 0, got {nu!r}")
    arr = _validate_positive("x", x)
    scalar = np.isscalar(x) or arr.ndim == 0
    return nu, np.atleast_1d(arr), scalar


def log_bessel_k(nu, x):
    """Natural log of the modified Bessel function of the second kind.

    Agrees with ``log(bessel_k(nu, x))`` wherever the latter is
    representable and remains finite far beyond that, for orders up to
    several hundred.  Where ``kve`` overflows, the small-argument series is
    summed to a relative term size of 1e-13, and raises
    :class:`~maternsmooth.errors.AccuracyError` if it has not got there
    within 200 terms.

    Parameters
    ----------
    nu : float
        Order, ``nu >= 0``.
    x : float or ndarray
        Argument(s), strictly positive.

    Returns
    -------
    float or ndarray
    """
    nu, arr, scalar = _order_and_arguments(nu, x)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = np.log(_kve(nu, arr)) - arr
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
