"""Test functions, RKHS-norm quadrature, sample paths, and rate fitting.

Fourier-side machinery is one-dimensional: every norm computation the
experiments need lives on the real line.  The transform convention is
``fhat(xi) = int f(x) exp(-i x xi) dx`` with inversion
``f(x) = (2 pi)^{-1} int fhat(xi) exp(i xi x) dxi``; catalog transforms
are stated in that convention, and each catalog entry is checked against
its evaluator by inverse-transform quadrature in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (AccuracyError, DomainError, check_array, check_integer, check_real,
                     require_positive)
from .gp import condition
# ``kernel_matrix`` stays bound here for the benchmark tracer, which wraps it.
from .kernels import kernel_matrix, log_c_scaling  # noqa: F401
from .specfun import log_gamma

__all__ = [
    "TestFunction",
    "QuadratureConfig",
    "matern_rkhs_norm_sq",
    "GaussianNorm",
    "gaussian_rkhs_norm_sq",
    "sobolev_norm_sq",
    "fourier_reconstruction",
    "sample_gp_path",
    "fit_rate",
    "builtin_test_functions",
]


@dataclass(frozen=True)
class TestFunction:
    """An evaluable response function with optional spectral data.

    ``fourier`` is the closed-form transform (1-d only) under the
    convention in the module docstring; ``smoothness`` is the declared
    Sobolev-scale smoothness, ``math.inf`` for infinitely smooth entries.
    A call checks its points as finite reals
    (:func:`~maternsmooth.errors.check_array`) and hands the evaluator
    them as a float array.
    """

    label: str
    evaluator: object
    fourier: object = None
    smoothness: float = None

    def __call__(self, x):
        return self.evaluator(check_array("x", x, None))


@dataclass(frozen=True)
class QuadratureConfig:
    """Composite Gauss-Legendre configuration for spectral integrals.

    The integrand is evaluated on ``[-truncation, truncation]`` split
    into unit-width panels carrying ``nodes`` Gauss-Legendre points each.
    The estimated relative tail contribution beyond the truncation must
    stay below ``tail_bound``.  Both are positive finite reals, kept as
    floats (:func:`~maternsmooth.errors.require_positive`), and a rule may
    hold at most ``2**20`` nodes (:func:`_check_rule`).
    """

    truncation: float = None
    nodes: int = 12
    tail_bound: float = 1e-8

    def __post_init__(self):
        given = ("truncation", "tail_bound") if self.truncation is not None else ("tail_bound",)
        require_positive(self, given)
        check_integer("nodes", self.nodes, 2)
        if self.truncation is not None:
            _check_rule(self.truncation, self.nodes)


# The most nodes a composite rule may hold, 8 MB of nodes and as many of
# weights.  The default truncations of the Matern and Sobolev norms grow with
# the order or the exponent; every check of the suite needs at most 14,400.
_MAX_NODES = 2**20


def _check_rule(truncation, nodes):
    """:class:`DomainError` naming the truncation ``T`` when the composite
    rule on [-T, T] with ``nodes`` per panel would hold more than
    ``_MAX_NODES`` nodes."""
    count = 2.0 * nodes * np.ceil(truncation)
    if not count <= _MAX_NODES:
        raise DomainError(f"truncation {truncation:g} needs {count:g} quadrature nodes, "
                          f"more than {_MAX_NODES}")


def _panel_rule(truncation, nodes):
    """Nodes and weights of a composite Gauss-Legendre rule on [-T, T],
    checked (:func:`_check_rule`) before any is computed."""
    _check_rule(truncation, nodes)
    base_x, base_w = np.polynomial.legendre.leggauss(nodes)
    edges = np.append(np.arange(0.0, truncation, 1.0), truncation)
    half = 0.5 * np.diff(edges)[:, None]  # a column: one row of nodes per panel
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    x, w = (mid + half * base_x).ravel(), (half * base_w).ravel()
    return np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])


def _require_fourier(tf):
    if tf.fourier is None:
        raise DomainError(f"test function {tf.label!r} has no closed-form transform")


def _check_tail(log_integrand, truncation, value, tail_bound, what):
    """The integral beyond the truncation ``T``, ``exp(g(T)) / s`` for the
    log integrand ``g`` decaying at the rate ``s`` over ``[T - 1/2, T]``, and
    zero where it has underflowed at ``T``; :class:`AccuracyError` when it
    is not decaying or the tail exceeds ``tail_bound`` of the integral."""
    g0 = log_integrand(truncation)
    if g0 == -math.inf:
        return 0.0
    slope = (log_integrand(truncation - 0.5) - g0) / 0.5
    if not slope > 0.0:
        raise AccuracyError(
            f"{what}: integrand is not decaying at truncation {truncation:g}",
            achieved=math.inf,
        )
    tail = math.exp(g0) / slope
    if tail > tail_bound * max(value, tail):
        raise AccuracyError(
            f"{what}: estimated tail {tail:.3e} exceeds bound "
            f"{tail_bound:g} of the integral {value:.6e}; raise the truncation",
            achieved=tail / max(value, tail),
        )
    return tail


def _log_integrand(tf, log_weight):
    """``xi -> log |fhat(xi)|^2 + log_weight(xi)``, ``-inf`` where fhat vanishes."""
    _require_fourier(tf)

    def log_integrand(xi):
        with np.errstate(divide="ignore"):
            return 2.0 * np.log(np.abs(tf.fourier(xi))) + log_weight(xi)

    return log_integrand


def _spectral_integral(log_integrand, truncation, q, what):
    """The integral of ``exp(log_integrand)`` over ``[-T, T]`` and its tail
    (:func:`_check_tail`, checked where the integral is positive and finite):
    the one path of the three norms, summed from log space so that a weight
    that overflows alone, as ``(1 + xi^2)^alpha`` does, stays finite."""
    x, w = _panel_rule(truncation, q.nodes)
    with np.errstate(over="ignore"):
        terms = w * np.exp(log_integrand(x))
    # fsum, not a BLAS dot product, whose rounding depends on how many
    # threads share the sum; the terms are non-negative, so an intermediate
    # overflow means the integral is infinite.
    try:
        value = math.fsum(terms)
    except OverflowError:
        value = math.inf
    tail = 0.0
    if 0.0 < value < math.inf:
        tail = _check_tail(lambda xi: float(log_integrand(xi)), truncation, value,
                           q.tail_bound, what)
    return value, tail


def _log_matern_weight(params, xi):
    """Log spectral weight of the Matern norm in the record's dimension d:
    log C_nu + (nu+d/2) log(2nu/l^2+xi^2)."""
    nu, sigma, lam, d = params.nu, params.sigma, params.lambda_, params.d
    log_c_nu = (
        0.5 * d * math.log(math.pi)
        - 2.0 * math.log(sigma)
        - log_c_scaling(nu, d)
        - (nu - 1.0) * math.log(2.0)
        - log_gamma(nu + 0.5 * d)
        + nu * math.log(lam * lam / (2.0 * nu))
    )
    return log_c_nu + (nu + 0.5 * d) * np.log(2.0 * nu / lam**2 + xi**2)


def matern_rkhs_norm_sq(tf, params, q=QuadratureConfig()):
    """Squared Matern RKHS norm of a 1-d test function by quadrature.

    Evaluates ``C_nu int |fhat|^2 (2 nu / lambda^2 + xi^2)^(nu + 1/2) dxi``
    in log space, on the one tail-checked path of the three norms: raises
    :class:`AccuracyError` when the estimated truncation tail exceeds the
    configured bound.  A record of dimension ``d != 1`` raises
    :class:`DomainError`.
    """
    if params.d != 1:
        raise DomainError(f"the Matern norm is one-dimensional, got d={params.d}")
    log_integrand = _log_integrand(tf, lambda xi: _log_matern_weight(params, xi))
    truncation = q.truncation if q.truncation is not None else 8.0 * (params.nu + 1.0) + 80.0
    return _spectral_integral(log_integrand, truncation, q,
                              f"Matern norm of {tf.label!r} at nu={params.nu:g}")[0]


@dataclass(frozen=True)
class GaussianNorm:
    """Squared Gaussian RKHS norm, or a divergence verdict.

    ``value`` is ``(2 pi lambda^2)^{-1/2}`` times ``integral``; both are
    None when the spectral integral diverges (the function is outside the
    Gaussian RKHS).
    """

    value: float
    integral: float
    diverged: bool
    tail_estimate: float


def gaussian_rkhs_norm_sq(tf, lambda_, q=QuadratureConfig()):
    """Squared Gaussian RKHS norm of a 1-d test function by quadrature.

    The integral ``int |fhat|^2 exp(lambda^2 xi^2 / 2) dxi`` takes the one
    log-space, tail-checked path of the three norms.  Divergence is detected
    from growth of the integrand toward the truncation, or an integral that
    overflows, and reported via the ``diverged`` flag rather than a number.
    """
    lambda_ = check_real("length-scale lambda_", lambda_)
    check_real(f"lambda_**2 (lambda_={lambda_!r})", lambda_ * lambda_)
    log_integrand = _log_integrand(tf, lambda xi: 0.5 * lambda_**2 * xi**2)
    truncation = q.truncation if q.truncation is not None else 60.0

    # Divergence check: the log integrand must decay toward the truncation;
    # growth there means the exponential weight beats the transform.
    probes = np.linspace(max(0.5 * truncation, truncation - 10.0), truncation, 6)
    tail_vals = log_integrand(probes)
    finite_tail = np.isfinite(tail_vals)
    if np.all(finite_tail) and np.all(np.diff(tail_vals) >= 0.0):
        return GaussianNorm(value=None, integral=None, diverged=True,
                            tail_estimate=math.inf)

    integral, tail = _spectral_integral(log_integrand, truncation, q,
                                        f"Gaussian norm of {tf.label!r}")
    if not math.isfinite(integral):
        return GaussianNorm(value=None, integral=None, diverged=True,
                            tail_estimate=math.inf)
    prefactor = (2.0 * math.pi * lambda_**2) ** -0.5
    return GaussianNorm(value=prefactor * integral, integral=integral,
                        diverged=False, tail_estimate=tail)


def sobolev_norm_sq(tf, alpha, q=QuadratureConfig()):
    """Squared Sobolev norm ``int |fhat|^2 (1 + xi^2)^alpha dxi`` (1-d).

    Evaluated in log space, on the one tail-checked path of the three norms:
    raises :class:`AccuracyError` when the estimated truncation tail exceeds
    the configured bound.
    """
    alpha = check_real("alpha", alpha, None)
    log_integrand = _log_integrand(tf, lambda xi: alpha * np.log1p(xi * xi))
    truncation = q.truncation if q.truncation is not None else 8.0 * (abs(alpha) + 1.0) + 80.0
    return _spectral_integral(log_integrand, truncation, q,
                              f"Sobolev norm of {tf.label!r} at alpha={alpha:g}")[0]


def fourier_reconstruction(tf, x, q=QuadratureConfig()):
    """Evaluate ``(2 pi)^{-1} int fhat(xi) exp(i xi x) dxi`` by quadrature.

    Assumes a real, even transform (true for every catalog entry).  Used
    to cross-check a catalog transform against its evaluator.  ``x`` holds
    finite reals (:func:`~maternsmooth.errors.check_array`).
    """
    _require_fourier(tf)
    truncation = q.truncation if q.truncation is not None else 80.0
    nodes, w = _panel_rule(truncation, q.nodes)
    xs = np.atleast_1d(check_array("x", x, None))
    fh = tf.fourier(nodes)
    out = np.array([np.dot(w, fh * np.cos(nodes * xi)) for xi in xs]) / (2.0 * math.pi)
    if np.ndim(x) == 0:
        return float(out[0])
    return out


def sample_gp_path(params, design, seed):
    """Draw a zero-mean sample path at the design points.

    ``seed`` is one seed, giving an ``(n,)`` path, or a sequence of seeds,
    giving the ``(n, s)`` array of their paths as columns; the kernel
    matrix is factored once for all of them, and each column is bit for bit
    that seed's single draw (repeated seeds give equal columns).  Seeds
    are non-negative integers; anything else raises :class:`DomainError`.

    Uses the counter-based Philox generator, so draws are bit-identical
    across platforms and thread counts.  The first ``m`` values of an
    ``n``-point draw equal the ``m``-point draw for the same seed, bit for
    bit when ``m = 16 * 2**k`` and to rounding otherwise (prefixes of a
    design see consistent data; see :func:`~maternsmooth.gp.condition_prefixes`).
    """
    single = np.ndim(seed) == 0
    seeds = [check_integer("seed", s, 0) for s in ([seed] if single else seed)]
    if not seeds:
        raise DomainError("need at least one seed")
    paths = _draw(condition(params, design, np.empty((design.n, 0))).chol, seeds)
    return paths[0] if single else np.stack(paths, axis=1)


def _draw(chol, seeds):
    """One path ``chol @ z`` per checked seed, ``z`` that seed's Philox
    standard normals, for the lower Cholesky factor ``chol`` of a kernel
    matrix.  One contiguous product per seed: a single ``chol @ Z`` rounds
    differently."""
    return [chol @ np.random.Generator(np.random.Philox(s)).standard_normal(chol.shape[0])
            for s in seeds]


def fit_rate(ns, values):
    """The slope of ``value ~ C * n^slope``, fitted by least squares in
    log-log coordinates."""
    ns, values = list(ns), list(values)
    if len(ns) < 3:
        raise DomainError("rate fitting needs at least 3 points")
    x = np.log(check_array("sizes to fit", ns))
    y = np.log(check_array("values to fit", values))
    return float(np.polyfit(x, y, 1)[0])


def builtin_test_functions():
    """Catalog of 1-d test functions addressable by label.

    ``cauchy_like`` lies in every Matern RKHS but outside the Gaussian
    RKHS; ``gauss_bump`` lies in both; ``zero`` is the zero function.
    Finite-smoothness synthetics are generated as fixed-seed sample paths
    via :func:`sample_gp_path`.
    """
    two_pi = 2.0 * math.pi

    def cauchy_eval(x):
        return 1.0 / (0.25 + x**2)

    def cauchy_fourier(xi):
        return two_pi * np.exp(-0.5 * np.abs(xi))

    def gauss_eval(x):
        return np.exp(-x**2 / 4.0) / (2.0 * math.sqrt(math.pi))

    def gauss_fourier(xi):
        return np.exp(-xi**2)

    return {
        "cauchy_like": TestFunction(
            label="cauchy_like",
            evaluator=cauchy_eval,
            fourier=cauchy_fourier,
            smoothness=math.inf,
        ),
        "gauss_bump": TestFunction(
            label="gauss_bump",
            evaluator=gauss_eval,
            fourier=gauss_fourier,
            smoothness=math.inf,
        ),
        "zero": TestFunction(
            label="zero",
            evaluator=np.zeros_like,
            fourier=np.zeros_like,
            smoothness=math.inf,
        ),
    }
