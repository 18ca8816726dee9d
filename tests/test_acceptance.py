"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines.  Tolerances are fixed here, not configurable.
"""

import math
import time

import numpy as np

from maternsmooth.analysis import (
    builtin_test_functions,
    fit_rate,
    gaussian_rkhs_norm_sq,
    matern_rkhs_norm_sq,
)
from maternsmooth.designs import Box, Design, van_der_corput
from maternsmooth.estimators import EstimatorConfig
from maternsmooth.experiments import (
    ExperimentConfig,
    run_convergence,
    run_non_undersmoothing,
    run_variance_decay,
)
from maternsmooth.gp import condition, loo, posterior_mean, posterior_var, quadratic_form
from maternsmooth.kernels import MaternParams, matern_eval
from maternsmooth.specfun import bessel_k, log_gamma

UNIT = Box.unit(1)
SQRT2 = math.sqrt(2.0)


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"{criterion} failed: {detail}"


def _half_integer_forms(x):
    base = np.sqrt(np.pi / (2.0 * x)) * np.exp(-x)
    return {
        0.5: base,
        1.5: base * (1.0 + 1.0 / x),
        2.5: base * (1.0 + 3.0 / x + 3.0 / x**2),
        3.5: base * (1.0 + 6.0 / x + 15.0 / x**2 + 15.0 / x**3),
    }


def test_c01_bessel_oracle_suite():
    """Half-integer closed forms at 1e-10 and the recurrence at 1e-8."""
    start = time.monotonic()
    xs = np.geomspace(1e-3, 50.0, 200)
    forms = _half_integer_forms(xs)
    worst_closed = 0.0
    for nu, ref in forms.items():
        got = bessel_k(nu, xs)
        worst_closed = max(worst_closed, float(np.max(np.abs(got - ref) / ref)))

    rng = np.random.default_rng(314)
    worst_rec = 0.0
    for _ in range(400):
        nu = float(rng.uniform(0.1, 20.0))
        x = float(np.exp(rng.uniform(math.log(0.01), math.log(50.0))))
        upper = bessel_k(nu + 1.0, x)
        lower = bessel_k(abs(nu - 1.0), x)
        mid = bessel_k(nu, x)
        resid = abs(upper - lower - (2.0 * nu / x) * mid) / upper
        worst_rec = max(worst_rec, resid)
    elapsed = time.monotonic() - start
    ok = worst_closed <= 1e-10 and worst_rec <= 1e-8 and elapsed < 5.0
    report("C01 bessel-oracles", ok,
           f"closed-form rel {worst_closed:.2e} (<=1e-10), recurrence "
           f"{worst_rec:.2e} (<=1e-8), runtime {elapsed:.2f}s (<5s)")


def test_c02_logdet_identity(identity_result):
    """Log-det equals the summed log prefix variances at 1e-8, grid-wide."""
    result, elapsed = identity_result
    worst = max(row[5] for row in result.rows)
    ok = worst <= 1e-8 and elapsed < 30.0
    report("C02 logdet-identity", ok,
           f"max residual {worst:.2e} (<=1e-8) over {len(result.rows)} cells, "
           f"suite runtime {elapsed:.1f}s (<30s)")


def test_c03_expansion_identity(identity_result):
    """Quadratic form equals the prefix residual expansion at 1e-8."""
    result, _ = identity_result
    worst = max(row[6] for row in result.rows)
    report("C03 expansion-identity", worst <= 1e-8,
           f"max residual {worst:.2e} (<=1e-8) over {len(result.rows)} cells")


def test_c04_loo_fast_vs_naive():
    """Inverse-diagonal leave-one-out against per-point refits at 1e-8."""
    worst = 0.0
    for n in (8, 24, 48):
        design = van_der_corput(UNIT, n)
        for nu in (0.5, 2.5):
            lam = 0.5 * math.sqrt(2.0 * nu) / n
            kernel = MaternParams(nu, 1.0, lam, d=1)
            y = np.random.Generator(np.random.Philox(n * 100 + int(nu * 10))
                                    ).standard_normal(n)
            fast = loo(condition(kernel, design, y))
            for i in range(n):
                keep = [j for j in range(n) if j != i]
                sub = condition(kernel, Design(design.points[keep], UNIT), y[keep])
                mu = float(np.atleast_1d(posterior_mean(sub, design.points[i]))[0])
                var = float(np.atleast_1d(posterior_var(sub, design.points[i]))[0])
                worst = max(worst, abs(fast.residuals[i] - (y[i] - mu)),
                            abs(fast.variances[i] - var))
    report("C04 loo-fast-vs-naive", worst <= 1e-8,
           f"max abs discrepancy {worst:.2e} (<=1e-8)")


def test_c05_interpolant_norm_and_error_bound():
    """Data quadratic form below the squared norm; pointwise error below
    norm times posterior sd, at 100 probes, within 1e-5."""
    gb = builtin_test_functions()["gauss_bump"]
    params = MaternParams(1.5, 1.0, SQRT2)
    norm_sq = matern_rkhs_norm_sq(gb, params)
    box = Box((-1.0,), (1.0,))
    worst_gap = -math.inf
    worst_violation = -math.inf
    for n in (8, 16, 32):
        design = van_der_corput(box, n)
        y = gb(design.points[:, 0])
        post = condition(params, design, y)
        qf = quadratic_form(post)
        worst_gap = max(worst_gap, qf - norm_sq)
        probes = np.linspace(-1.0, 1.0, 100)
        err = np.abs(gb(probes) - posterior_mean(post, probes))
        bound = math.sqrt(norm_sq) * np.sqrt(posterior_var(post, probes))
        worst_violation = max(worst_violation, float(np.max(err - bound)))
    ok = worst_gap <= 1e-5 and worst_violation <= 1e-5
    report("C05 norm-and-error-bound", ok,
           f"quadratic-form excess {worst_gap:.2e} (<=1e-5), error-bound "
           f"violation {worst_violation:.2e} (<=1e-5), 100 probes x 3 sizes")


def test_c06_variance_decay_exponents():
    """Worst leave-one-out variance decays like n^(-2 nu / d)."""
    start = time.monotonic()
    details = []
    ok = True
    cfg1 = ExperimentConfig(experiment="variance-decay", d=1,
                            nu_grid=(0.5, 1.0, 2.0),
                            schedule=(16, 32, 64, 128, 256, 512, 1024))
    res1 = run_variance_decay(cfg1)
    slopes = {}
    for row in res1.rows:
        slopes[row[1]] = row[5]
    for nu in (0.5, 1.0, 2.0):
        target = -2.0 * nu
        good = abs(slopes[nu] - target) <= 0.3
        ok = ok and good
        details.append(f"d=1 nu={nu}: {slopes[nu]:+.3f} vs {target:+.1f} (+-0.3)")

    cfg2 = ExperimentConfig(experiment="variance-decay", d=2,
                            design="uniform_grid", nu_grid=(1.0,),
                            schedule=(9, 25, 81, 289, 1089))
    res2 = run_variance_decay(cfg2)
    slope2 = res2.rows[0][5]
    good2 = abs(slope2 - (-1.0)) <= 0.35
    ok = ok and good2
    details.append(f"d=2 nu=1: {slope2:+.3f} vs -1.0 (+-0.35)")
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 300.0
    report("C06 variance-decay", ok,
           "; ".join(details) + f"; runtime {elapsed:.1f}s (<300s)")


def test_c07_non_undersmoothing():
    """Tail estimates above nu0 - d/2 - 0.1 in at least 8 of 10 seeds."""
    start = time.monotonic()
    cfg = ExperimentConfig(experiment="non-undersmoothing", nu0=1.5, d=1,
                           schedule=(16, 32, 64, 128, 256, 512))
    result = run_non_undersmoothing(cfg)
    by_seed = {}
    for row in result.rows:
        by_seed.setdefault(row[1], []).append(row)
    threshold = 1.5 - 0.5 - 0.1
    ml_pass = cv_pass = 0
    for seed, rows in by_seed.items():
        tail = rows[-3:]
        if min(r[4] for r in tail) >= threshold:
            ml_pass += 1
        if min(r[5] for r in tail) >= threshold:
            cv_pass += 1
    elapsed = time.monotonic() - start
    ok = ml_pass >= 8 and cv_pass >= 8 and elapsed < 600.0
    report("C07 non-undersmoothing", ok,
           f"tail nu_hat >= {threshold:.1f}: ml {ml_pass}/10, cv {cv_pass}/10 "
           f"(need 8); runtime {elapsed:.1f}s (<600s)")


def test_c08_infinite_smoothness_saturation():
    """The estimate pegs the searchable upper bracket for smooth data."""
    cfg = ExperimentConfig(experiment="non-undersmoothing", f0="gauss_bump",
                           schedule=(16, 32, 64, 128, 256, 512))
    result = run_non_undersmoothing(cfg)
    late = [row for row in result.rows if row[2] >= 256]
    ok = len(late) == 2 and all(row[9] for row in late)
    detail = ", ".join(f"n={row[2]}: hit_upper_ml={row[9]}" for row in late)
    report("C08 smooth-saturation", ok, detail)


def test_c09_norm_computations():
    """Quadrature norms against the closed-form scale computations."""
    cat = builtin_test_functions()
    checks = []
    for nu in (1.0, 2.0, 4.0):
        params = MaternParams(nu, 1.0, SQRT2)
        value = matern_rkhs_norm_sq(cat["cauchy_like"], params)
        bound = (2.0 * math.sqrt(math.pi)
                 * math.exp(log_gamma(nu) + log_gamma(2.0 * nu + 2.0)
                            - log_gamma(nu + 0.5)) * nu**-nu)
        checks.append(value > bound)
    membership = gaussian_rkhs_norm_sq(cat["gauss_bump"], SQRT2)
    integral_ok = (not membership.diverged
                   and abs(membership.integral - math.sqrt(math.pi)) <= 1e-6)
    diverged_ok = gaussian_rkhs_norm_sq(cat["cauchy_like"], SQRT2).diverged
    ok = all(checks) and integral_ok and diverged_ok
    report("C09 norm-computations", ok,
           f"lower bound exceeded at nu in (1,2,4): {checks}; membership "
           f"integral err {abs(membership.integral - math.sqrt(math.pi)):.2e} "
           f"(<=1e-6); divergence flag {diverged_ok}")


def test_c10_gaussian_limit():
    """Sup gap to exp(-r^2/4) shrinks in nu and is <= 0.01 at nu = 100."""
    r = np.linspace(0.0, 3.0, 601)
    target = np.exp(-(r**2) / 4.0)
    sups = []
    for nu in (10.0, 50.0, 100.0):
        params = MaternParams(nu, 1.0, SQRT2)
        sups.append(float(np.max(np.abs(matern_eval(params, r) - target))))
    ok = sups[0] > sups[1] > sups[2] and sups[2] <= 0.01
    report("C10 gaussian-limit", ok,
           f"sup gaps at nu=(10,50,100): {sups[0]:.4f} > {sups[1]:.4f} > "
           f"{sups[2]:.4f}, final <= 0.01")


def test_c11_oversmoothed_convergence():
    """Sup-error rate of the oversmoothed mean, and a bounded
    undersmoothed error-to-sd ratio."""
    cfg = ExperimentConfig(experiment="convergence", nu0=1.5,
                           nu_model=(3.0, 0.75), schedule=(32, 64, 128, 256, 512),
                           seeds=(11, 12, 13, 14, 15),
                           estimator=EstimatorConfig(lambda_=0.25))
    result = run_convergence(cfg)

    sup_by_n = {}
    ratio_by_n = {}
    for seed, nu_model, n, sup_err, ratio, note in result.rows:
        if nu_model == 3.0 and math.isfinite(sup_err):
            sup_by_n.setdefault(n, []).append(sup_err)
        if nu_model == 0.75 and math.isfinite(ratio):
            ratio_by_n.setdefault(n, []).append(ratio)

    ns = sorted(sup_by_n)
    gmeans = [float(np.exp(np.mean(np.log(sup_by_n[n])))) for n in ns]
    slope = fit_rate(ns, gmeans)
    slope_ok = abs(slope - (-1.5)) <= 0.4

    ns_r = sorted(ratio_by_n)
    means = [float(np.mean(ratio_by_n[n])) for n in ns_r]
    third = max(1, len(ns_r) // 3)
    first, last = float(np.mean(means[:third])), float(np.mean(means[-third:]))
    ratio_ok = last <= 1.5 * first
    ok = slope_ok and ratio_ok
    report("C11 oversmoothed-convergence", ok,
           f"sup-error slope {slope:+.3f} vs -1.5 (+-0.4); undersmoothed "
           f"ratio first-third {first:.3f} -> last-third {last:.3f} "
           f"(no growth beyond 1.5x)")
