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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _special

from .errors import AccuracyError, DomainError

__all__ = [
    "BesselAccuracy",
    "DEFAULT_ACCURACY",
    "log_gamma",
    "bessel_k",
    "log_bessel_k",
]

# Order threshold above which the uniform large-order expansion is used
# when the scaled SciPy routine overflows.
_UNIFORM_ORDER_MIN = 50.0


@dataclass(frozen=True)
class BesselAccuracy:
    """Accuracy budget for Bessel evaluation.

    Parameters
    ----------
    target_relative_error : float
        Requested relative error for series summation.
    max_terms : int
        Maximum number of series terms before giving up.
    """

    target_relative_error: float = 1e-10
    max_terms: int = 200

    def __post_init__(self):
        if not (self.target_relative_error > 0):
            raise DomainError("target_relative_error must be positive")
        if self.max_terms < 1:
            raise DomainError("max_terms must be at least 1")


DEFAULT_ACCURACY = BesselAccuracy()


def _validate_positive(name, value):
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
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


def _log_k_series(nu, x, accuracy):
    """log K_nu(x) from the ascending series, small-argument regime.

    Keeps only the dominant branch of the two-sided series; valid whenever
    ``K_nu(x)`` is large enough to overflow double precision, which is the
    only situation in which this routine is called.
    """
    q = 0.25 * x * x
    term = 1.0
    total = 1.0
    converged = False
    for k in range(1, accuracy.max_terms + 1):
        term *= q / (k * (k - nu))
        total += term
        if abs(term) <= accuracy.target_relative_error * 1e-3 * abs(total):
            converged = True
            break
    if not converged:
        raise AccuracyError(
            f"small-argument series for K_nu did not converge at nu={nu}, x={x}",
            achieved=abs(term / total),
        )
    return math.log(0.5) + float(_special.gammaln(nu)) + nu * math.log(2.0 / x) + math.log(total)


def _log_k_fallback(nu, x, accuracy):
    """log K_nu at the arguments ``x`` (a 1-d array) where ``kve`` overflows."""
    if nu >= _UNIFORM_ORDER_MIN:
        return _log_k_uniform(nu, x)
    return np.array([_log_k_series(nu, float(xi), accuracy) for xi in x])


def _order_and_arguments(nu, x):
    """Validated order, arguments as a 1-d array, and whether ``x`` is scalar."""
    nu = float(nu)
    if not math.isfinite(nu) or nu < 0.0:
        raise DomainError(f"order nu must be finite and >= 0, got {nu!r}")
    arr = _validate_positive("x", x)
    scalar = np.isscalar(x) or arr.ndim == 0
    return nu, np.atleast_1d(arr), scalar


def log_bessel_k(nu, x, accuracy=DEFAULT_ACCURACY):
    """Natural log of the modified Bessel function of the second kind.

    Agrees with ``log(bessel_k(nu, x))`` wherever the latter is
    representable and remains finite far beyond that, for orders up to
    several hundred.

    Parameters
    ----------
    nu : float
        Order, ``nu >= 0``.
    x : float or ndarray
        Argument(s), strictly positive.
    accuracy : BesselAccuracy, optional
        Series accuracy budget for the overflow fallback.

    Returns
    -------
    float or ndarray
    """
    nu, arr, scalar = _order_and_arguments(nu, x)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = np.log(_special.kve(nu, arr)) - arr
    bad = ~np.isfinite(out)
    if np.any(bad):
        out[bad] = _log_k_fallback(nu, arr[bad], accuracy)
    if scalar:
        return float(out[0])
    return out


def bessel_k(nu, x, accuracy=DEFAULT_ACCURACY):
    """Modified Bessel function of the second kind of real order ``nu``.

    Relative error is at most ~1e-13 for ``nu`` in [0, 50] and ``x`` in
    [1e-6, 100] wherever the value is representable in double precision;
    corners of that box whose value exceeds ~1.8e308 return ``inf``.
    Use :func:`log_bessel_k` for an overflow-safe evaluation.
    """
    nu, arr, scalar = _order_and_arguments(nu, x)
    with np.errstate(over="ignore", invalid="ignore"):
        kve = _special.kve(nu, arr)
        out = kve * np.exp(-arr)
    bad = ~np.isfinite(out)
    if np.any(bad):
        with np.errstate(over="ignore"):
            out[bad] = np.exp(_log_k_fallback(nu, arr[bad], accuracy))
    if scalar:
        return float(out[0])
    return out
