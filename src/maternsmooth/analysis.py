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

from .errors import AccuracyError, DomainError
from .gp import condition
# ``kernel_matrix`` stays bound here for the benchmark tracer, which wraps it.
from .kernels import MaternKernel, kernel_matrix, log_c_scaling  # noqa: F401
from .specfun import log_gamma

__all__ = [
    "TestFunction",
    "QuadratureConfig",
    "matern_rkhs_norm_sq",
    "GaussianNorm",
    "gaussian_rkhs_norm_sq",
    "sobolev_norm_sq",
    "fourier_reconstruction",
    "bump_function",
    "sample_gp_path",
    "RateFit",
    "fit_rate",
    "builtin_test_functions",
]


@dataclass(frozen=True)
class TestFunction:
    """An evaluable response function with optional spectral data.

    ``fourier`` is the closed-form transform (1-d only) under the
    convention in the module docstring; ``smoothness`` is the declared
    Sobolev-scale smoothness, ``math.inf`` for infinitely smooth entries.
    """

    label: str
    evaluator: object
    fourier: object = None
    smoothness: float = None

    def __call__(self, x):
        return self.evaluator(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class QuadratureConfig:
    """Composite Gauss-Legendre configuration for spectral integrals.

    The integrand is evaluated on ``[-truncation, truncation]`` split
    into unit-width panels carrying ``nodes`` Gauss-Legendre points each.
    The estimated relative tail contribution beyond the truncation must
    stay below ``tail_bound``.
    """

    truncation: float = None
    nodes: int = 12
    tail_bound: float = 1e-8

    def __post_init__(self):
        if self.truncation is not None and not (self.truncation > 0):
            raise DomainError("truncation must be positive")
        if self.nodes < 2:
            raise DomainError("need at least 2 nodes per unit interval")
        if not (self.tail_bound > 0):
            raise DomainError("tail_bound must be positive")


def _panel_rule(truncation, nodes):
    """Nodes and weights of a composite Gauss-Legendre rule on [-T, T]."""
    base_x, base_w = np.polynomial.legendre.leggauss(nodes)
    edges = np.arange(0.0, truncation, 1.0)
    edges = np.append(edges, truncation)
    xs, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        xs.append(mid + half * base_x)
        ws.append(half * base_w)
    x = np.concatenate(xs)
    w = np.concatenate(ws)
    return np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])


def _require_fourier(tf):
    if tf.fourier is None:
        raise DomainError(f"test function {tf.label!r} has no closed-form transform")


def _tail_slope(log_integrand, truncation):
    """Local decay rate of the integrand at the truncation point."""
    delta = 0.5
    g1 = log_integrand(truncation - delta)
    g0 = log_integrand(truncation)
    return (g1 - g0) / delta


def _check_tail(log_integrand, truncation, value, tail_bound, what):
    slope = _tail_slope(log_integrand, truncation)
    edge = math.exp(log_integrand(truncation))
    if slope <= 0.0:
        raise AccuracyError(
            f"{what}: integrand is not decaying at truncation {truncation:g}",
            achieved=math.inf,
        )
    tail = edge / slope
    if tail > tail_bound * max(value, tail):
        raise AccuracyError(
            f"{what}: estimated tail {tail:.3e} exceeds bound "
            f"{tail_bound:g} of the integral {value:.6e}; raise the truncation",
            achieved=tail / max(value, tail),
        )
    return tail


def _log_matern_weight(params, d, xi):
    """Log spectral weight of the Matern norm: log C_nu + (nu+d/2) log(2nu/l^2+xi^2)."""
    nu, sigma, lam = params.nu, params.sigma, params.lambda_
    log_c_nu = (
        0.5 * d * math.log(math.pi)
        - 2.0 * math.log(sigma)
        - log_c_scaling(params.scaling, nu)
        - (nu - 1.0) * math.log(2.0)
        - log_gamma(nu + 0.5 * d)
        + nu * math.log(lam * lam / (2.0 * nu))
    )
    return log_c_nu + (nu + 0.5 * d) * np.log(2.0 * nu / lam**2 + xi**2)


def matern_rkhs_norm_sq(tf, params, q=QuadratureConfig()):
    """Squared Matern RKHS norm of a 1-d test function by quadrature.

    Evaluates ``C_nu int |fhat|^2 (2 nu / lambda^2 + xi^2)^(nu + 1/2) dxi``
    with the spectral weight accumulated in log space.  Raises
    :class:`AccuracyError` when the estimated truncation tail exceeds the
    configured bound.
    """
    _require_fourier(tf)
    nu = params.nu
    truncation = q.truncation
    if truncation is None:
        truncation = 8.0 * (nu + 1.0) + 80.0

    def integrand_log(xi):
        fh = float(np.abs(tf.fourier(np.asarray(xi, dtype=float))))
        if fh == 0.0:
            return -math.inf
        return 2.0 * math.log(fh) + float(_log_matern_weight(params, 1, xi))

    x, w = _panel_rule(truncation, q.nodes)
    fh = np.abs(tf.fourier(x))
    with np.errstate(divide="ignore"):
        log_vals = np.where(fh > 0.0, 2.0 * np.log(np.where(fh > 0, fh, 1.0)), -np.inf)
    log_vals = log_vals + _log_matern_weight(params, 1, x)
    vals = np.exp(log_vals)
    value = float(np.dot(w, vals))
    if value != 0.0:
        _check_tail(integrand_log, truncation, value, q.tail_bound,
                    f"Matern norm of {tf.label!r} at nu={nu:g}")
    return max(value, 0.0)


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

    Divergence is detected from growth of the integrand across panels and
    reported via the ``diverged`` flag rather than a number.
    """
    _require_fourier(tf)
    if not (lambda_ > 0):
        raise DomainError("length-scale must be positive")
    truncation = q.truncation
    if truncation is None:
        truncation = 60.0

    def log_integrand(xi):
        xi = np.asarray(xi, dtype=float)
        fh = np.abs(tf.fourier(xi))
        with np.errstate(divide="ignore"):
            log_fh_sq = np.where(fh > 0.0, 2.0 * np.log(np.where(fh > 0.0, fh, 1.0)),
                                 -np.inf)
        return log_fh_sq + 0.5 * lambda_**2 * xi**2

    # Divergence check: the log integrand must decay toward the truncation;
    # growth there means the exponential weight beats the transform.
    probes = np.linspace(max(0.5 * truncation, truncation - 10.0), truncation, 6)
    tail_vals = log_integrand(probes)
    finite_tail = np.isfinite(tail_vals)
    if np.all(finite_tail) and np.all(np.diff(tail_vals) >= 0.0):
        return GaussianNorm(value=None, integral=None, diverged=True,
                            tail_estimate=math.inf)

    x, w = _panel_rule(truncation, q.nodes)
    with np.errstate(over="ignore"):
        vals = np.exp(log_integrand(x))
    if not np.all(np.isfinite(vals)):
        return GaussianNorm(value=None, integral=None, diverged=True,
                            tail_estimate=math.inf)
    integral = float(np.dot(w, vals))
    tail = 0.0
    if integral != 0.0:
        tail = _check_tail(lambda xi: float(log_integrand(xi)), truncation, integral,
                           q.tail_bound, f"Gaussian norm of {tf.label!r}")
    prefactor = (2.0 * math.pi * lambda_**2) ** -0.5
    return GaussianNorm(value=prefactor * integral, integral=integral,
                        diverged=False, tail_estimate=tail)


def sobolev_norm_sq(tf, alpha, q=QuadratureConfig()):
    """Squared Sobolev norm ``int |fhat|^2 (1 + xi^2)^alpha dxi`` (1-d)."""
    _require_fourier(tf)
    truncation = q.truncation
    if truncation is None:
        truncation = 8.0 * (abs(alpha) + 1.0) + 80.0
    x, w = _panel_rule(truncation, q.nodes)
    fh = np.abs(tf.fourier(x))
    vals = fh * fh * (1.0 + x * x) ** alpha
    return float(np.dot(w, vals))


def fourier_reconstruction(tf, x, q=QuadratureConfig()):
    """Evaluate ``(2 pi)^{-1} int fhat(xi) exp(i xi x) dxi`` by quadrature.

    Assumes a real, even transform (true for every catalog entry).  Used
    to cross-check a catalog transform against its evaluator.
    """
    _require_fourier(tf)
    truncation = q.truncation if q.truncation is not None else 80.0
    nodes, w = _panel_rule(truncation, q.nodes)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    fh = tf.fourier(nodes)
    out = np.array([np.dot(w, fh * np.cos(nodes * xi)) for xi in xs]) / (2.0 * math.pi)
    if np.ndim(x) == 0:
        return float(out[0])
    return out


def bump_function(center, h):
    """Smooth bump supported on the radius-``h`` ball around ``center``.

    Normalised so the peak value is exactly 1:
    ``x -> e * exp(-1 / (1 - ||(x - center)/h||^2))`` inside the support,
    0 outside.  Infinitely differentiable; declared smoothness is inf.
    """
    if not (h > 0):
        raise DomainError("bump radius h must be positive")
    center_arr = np.atleast_1d(np.asarray(center, dtype=float))

    def evaluate(x):
        pts = np.asarray(x, dtype=float)
        scalar = pts.ndim == 0
        pts = np.atleast_1d(pts)
        if pts.ndim == 1 and center_arr.size == 1:
            u2 = ((pts - center_arr[0]) / h) ** 2
        else:
            pts2 = np.atleast_2d(pts)
            u2 = np.sum(((pts2 - center_arr) / h) ** 2, axis=-1)
        out = np.zeros_like(u2, dtype=float)
        inside = u2 < 1.0
        out[inside] = math.e * np.exp(-1.0 / (1.0 - u2[inside]))
        return float(out[0]) if scalar else out

    return TestFunction(
        label=f"bump(center={tuple(center_arr)}, h={h:g})",
        evaluator=evaluate,
        fourier=None,
        smoothness=math.inf,
    )


def sample_gp_path(params, design, seed):
    """Draw one zero-mean sample path at the design points.

    Uses the counter-based Philox generator, so draws are bit-identical
    across platforms and thread counts.  The first ``m`` values of an
    ``n``-point draw equal the ``m``-point draw for the same seed, bit for
    bit when ``m = 16 * 2**k`` and to rounding otherwise (prefixes of a
    design see consistent data; see :meth:`~maternsmooth.gp.Posterior.prefix`).
    """
    post = condition(MaternKernel(params), design, np.zeros(design.n))
    z = np.random.Generator(np.random.Philox(int(seed))).standard_normal(design.n)
    return post.chol @ z


@dataclass(frozen=True)
class RateFit:
    """Least-squares line through ``(log n, log value)``."""

    slope: float
    intercept: float
    r_squared: float


def fit_rate(ns, values):
    """Fit ``value ~ C * n^slope`` by least squares in log-log coordinates."""
    ns = np.asarray(list(ns), dtype=float)
    values = np.asarray(list(values), dtype=float)
    if ns.size < 3:
        raise DomainError("rate fitting needs at least 3 points")
    if np.any(values <= 0.0) or np.any(ns <= 0.0):
        raise DomainError("rate fitting needs positive sizes and values")
    x = np.log(ns)
    y = np.log(values)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return RateFit(slope=float(slope), intercept=float(intercept), r_squared=r2)


def builtin_test_functions():
    """Catalog of 1-d test functions addressable by label.

    ``cauchy_like`` lies in every Matern RKHS but outside the Gaussian
    RKHS; ``gauss_bump`` lies in both; ``zero`` is the zero function.
    Compactly supported bumps come from :func:`bump_function`, and
    finite-smoothness synthetics are generated as fixed-seed sample paths
    via :func:`sample_gp_path`.
    """
    two_pi = 2.0 * math.pi

    def cauchy_eval(x):
        return 1.0 / (0.25 + np.asarray(x, dtype=float) ** 2)

    def cauchy_fourier(xi):
        return two_pi * np.exp(-0.5 * np.abs(np.asarray(xi, dtype=float)))

    def gauss_eval(x):
        return np.exp(-np.asarray(x, dtype=float) ** 2 / 4.0) / (2.0 * math.sqrt(math.pi))

    def gauss_fourier(xi):
        return np.exp(-np.asarray(xi, dtype=float) ** 2)

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
            evaluator=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            fourier=lambda xi: np.zeros_like(np.asarray(xi, dtype=float)),
            smoothness=math.inf,
        ),
    }
