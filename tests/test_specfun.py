"""Special-function accuracy against frozen arbitrary-precision tables.

The JSON table in ``tests/assets`` was generated once with mpmath at 40
significant digits (see ``generate_oracle_tables.py``); the tests here
never recompute it.
"""

import json
import math
import pathlib
import threading
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from scipy import optimize, special

from maternsmooth import specfun
from maternsmooth.designs import Box, Design, van_der_corput
from maternsmooth.errors import AccuracyError, DomainError
from maternsmooth.kernels import MaternParams, kernel_matrix
from maternsmooth.specfun import (
    ORDER_MAX,
    bessel_k,
    log_bessel_k,
    log_gamma,
    _log_k_series,
)

ASSETS = pathlib.Path(__file__).parent / "assets"

with open(ASSETS / "specfun_oracle.json") as fh:
    ORACLE = json.load(fh)

SQRT_PI = math.sqrt(math.pi)


def half_integer_k(m, x):
    """Closed forms K_{m + 1/2}(x) for m = 0..3."""
    x = np.asarray(x, dtype=float)
    base = np.sqrt(np.pi / (2.0 * x)) * np.exp(-x)
    if m == 0:
        return base
    if m == 1:
        return base * (1.0 + 1.0 / x)
    if m == 2:
        return base * (1.0 + 3.0 / x + 3.0 / x**2)
    if m == 3:
        return base * (1.0 + 6.0 / x + 15.0 / x**2 + 15.0 / x**3)
    raise ValueError(m)


class TestLogGamma:
    def test_against_table(self):
        for x, ref in ORACLE["log_gamma"]:
            got = log_gamma(x)
            assert got == pytest.approx(float(ref), rel=1e-13, abs=1e-14)

    def test_known_points(self):
        assert log_gamma(0.5) == pytest.approx(math.log(SQRT_PI), rel=1e-14)
        assert log_gamma(1.0) == 0.0
        assert log_gamma(2.0) == pytest.approx(0.0, abs=1e-15)
        # frozen 40-digit value
        assert log_gamma(7.5) == pytest.approx(7.534364236758732955, rel=1e-14)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            log_gamma(bad)

    def test_array_input(self):
        xs = np.array([0.5, 1.0, 7.5])
        out = log_gamma(xs)
        assert out.shape == (3,)
        assert out[1] == 0.0


class TestBesselTable:
    def test_log_bessel_k_table(self):
        for nu, x, ref in ORACLE["log_bessel_k"]:
            got = log_bessel_k(nu, x)
            ref = float(ref)
            assert got == pytest.approx(ref, abs=1e-9 + 1e-11 * abs(ref)), (nu, x)

    def test_bessel_k_table_where_representable(self):
        for nu, x, ref in ORACLE["log_bessel_k"]:
            ref = float(ref)
            if abs(ref) < 690.0:
                assert bessel_k(nu, x) == pytest.approx(math.exp(ref), rel=1e-10), (nu, x)


class TestBesselClosedForms:
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_half_integers(self, m):
        xs = np.geomspace(1e-3, 50.0, 200)
        got = bessel_k(m + 0.5, xs)
        ref = half_integer_k(m, xs)
        np.testing.assert_allclose(got, ref, rtol=1e-10)

    def test_spec_points(self):
        assert bessel_k(0.5, 1.0) == pytest.approx(math.sqrt(math.pi / 2.0) * math.exp(-1.0),
                                                   rel=1e-12)
        ref_32 = math.sqrt(math.pi / 4.0) * math.exp(-2.0) * 1.5
        assert bessel_k(1.5, 2.0) == pytest.approx(ref_32, rel=1e-12)
        # small-argument regime; frozen 40-digit value 7999999990000.0000125
        assert bessel_k(3.0, 1e-4) == pytest.approx(7999999990000.0, rel=1e-10)

    def test_log_spec_points(self):
        assert log_bessel_k(0.5, 1.0) == pytest.approx(
            math.log(math.sqrt(math.pi / 2.0)) - 1.0, abs=1e-12)
        # finite far beyond double-precision overflow; frozen value
        assert log_bessel_k(200.0, 1.0) == pytest.approx(995.8687024798649, rel=1e-12)
        assert log_bessel_k(1.0, 50.0) == pytest.approx(-51.722793870183626, abs=1e-9)
        assert math.isfinite(log_bessel_k(500.0, 0.01))

    @pytest.mark.parametrize("x", [2.0**30, 1e10, 1e300])
    @pytest.mark.parametrize("nu", [0.5, 1.5])
    def test_past_scipys_argument_range(self, nu, x):
        # SciPy's kve is NaN past x = 2**30 - 0.5.  There
        # log K_1/2(x) = log(pi / 2x) / 2 - x, and K_3/2 has the factor 1 + 1/x.
        ref = 0.5 * math.log(math.pi / (2.0 * x)) - x + (math.log1p(1.0 / x) if nu == 1.5 else 0.0)
        assert log_bessel_k(nu, x) == pytest.approx(ref, rel=1e-15)
        assert log_bessel_k(nu, np.array([0.5, x, 1e-3]))[1] == log_bessel_k(nu, x)
        assert bessel_k(nu, x) == 0.0

    @pytest.mark.parametrize("nu, x, ref", [(0.0, 2.0**30, -1073741834.171416355870868),
                                            (0.0, 1e10, -10000000011.287134112338),
                                            (7.25, 3e9, -3000000010.685147701443783),
                                            (49.9, 2.0**30, -1073741834.171415196369606)])
    def test_past_scipys_argument_range_at_other_orders(self, nu, x, ref):
        # Frozen 40-digit values, order 0 among them, within two ulps: at
        # order 49.9 the expansion's second term moves the value by five.
        assert log_bessel_k(nu, x) == pytest.approx(ref, rel=4e-16)


class TestTrapezoidalRule:
    """``kve`` by the trapezoidal rule at orders up to 16 and arguments from
    1 to 128."""

    def test_bessel_k_table(self):
        # Relative error in decimal arithmetic, so that rounding the
        # reference to a double adds nothing.
        for nu, x, ref in ORACLE["bessel_k_quadrature"]:
            ref = Decimal(ref)
            error = abs((Decimal(bessel_k(nu, x)) - ref) / ref)
            assert error <= Decimal("2.5e-15"), (nu, x, float(error))

    @pytest.mark.parametrize("nu, x", [(3.3, math.nextafter(1.0, 0.0)),
                                       (3.3, math.nextafter(128.0, math.inf)),
                                       (math.nextafter(16.0, math.inf), 10.0),
                                       (0.0, 0.5), (200.0, 60.0)])
    def test_scipy_serves_outside_the_rule(self, nu, x):
        assert specfun._kve(nu, np.array([x]))[0] == special.kve(nu, x)

    def test_every_bucket_and_order_band_has_its_rule(self):
        # A step below pi / 2 and 10 to 45 nodes, fewer for larger
        # arguments; the rules of one band serve every order in it.
        for bucket in range(specfun._QUAD_BUCKETS):
            counts = []
            for order in np.arange(0.5, 16.5, 0.5):
                step, t, c = specfun._nodes(float(order), bucket)
                assert 0.0 < step < math.pi / 2 and 10 <= t.size <= 45
                assert c.shape == (t.size, 1) and not c.flags.writeable
                counts.append(t.size)
            assert counts == sorted(counts)
        assert specfun._trapezoid_rule(0.3, 2)[0] is specfun._trapezoid_rule(0.5, 2)[0]


def _debye_polynomials(count):
    """U_1..U_count of the uniform expansion in exact rationals, each a list
    of its coefficients by power of t, from U_0 = 1 by the recursion
    U_{k+1}(t) = t^2 (1 - t^2) / 2 U_k'(t) + 1/8 int_0^t (1 - 5 s^2) U_k(s) ds."""
    u, out = [Fraction(1)], []
    for _ in range(count):
        nxt = [Fraction(0)] * (len(u) + 3)
        for j, c in enumerate(u):
            if j:  # t^2 (1 - t^2) / 2 times j c t^(j-1)
                nxt[j + 1] += j * c / 2
                nxt[j + 3] -= j * c / 2
            nxt[j + 1] += c / (8 * (j + 1))  # 1/8 int_0^t c s^j ds
            nxt[j + 3] -= 5 * c / (8 * (j + 3))  # -5/8 int_0^t c s^(j+2) ds
        u = nxt
        out.append(u)
    return out


class TestUniformExpansion:
    """The large-order expansion (DLMF 10.41.4) where ``kve`` overflows."""

    def test_table_is_the_recursion(self):
        # U_k = t^k times a polynomial of degree k in t^2: row k of the
        # table holds its coefficients, each the float of the exact one.
        exact = _debye_polynomials(len(specfun._DEBYE_U))
        for k, (row, u) in enumerate(zip(specfun._DEBYE_U, exact), 1):
            assert len(row) == k + 1
            assert all(c == 0 for j, c in enumerate(u) if j < k or (j - k) % 2)
            assert list(row) == [float(u[k + 2 * j]) for j in range(k + 1)], k

    def test_polynomials_are_the_table_by_horner(self):
        # Each U_k at p, against its exact value at the float p, within the
        # rounding bound of Horner's rule: a few ulps of the sum of the
        # terms' magnitudes, as the terms cancel near the roots.
        p = np.linspace(0.0, 1.0, 17)[1:-1]
        exact = _debye_polynomials(len(specfun._DEBYE_U))
        for u, value in zip(exact, specfun._debye_u(p)):
            for pi, vi in zip(p, value):
                terms = [c * Fraction(pi) ** j for j, c in enumerate(u)]
                assert abs(vi - float(sum(terms))) <= 1e-14 * float(sum(map(abs, terms)))

    @pytest.mark.parametrize("nu, x, value", [
        # Frozen bits, where kve(nu, x) overflows just below its edge (0.9689
        # at order 150, 22.137 at 300) and further below it.
        (150.0, 0.96, "0x1.62b47fe78e8e6p+9"), (150.0, 0.5, "0x1.93a149954ae28p+9"),
        (150.0, 1e-3, "0x1.b2dce886d6d0bp+10"), (300.0, 22.0, "0x1.585e32f81cdffp+9"),
        (300.0, 11.0, "0x1.c07dde0f35ef2p+9"), (300.0, 0.02, "0x1.5cc1eb5244956p+11")])
    def test_values_keep_their_bits(self, nu, x, value):
        assert special.kve(nu, x) == math.inf
        assert log_bessel_k(nu, x) == float.fromhex(value)
        assert log_bessel_k(nu, np.array([x]))[0] == float.fromhex(value)


class TestBesselProperties:
    def test_recurrence(self):
        # K_{v+1}(x) = K_{v-1}(x) + (2 v / x) K_v(x)
        rng = np.random.default_rng(42)
        for _ in range(200):
            nu = float(rng.uniform(0.1, 20.0))
            x = float(np.exp(rng.uniform(math.log(0.01), math.log(50.0))))
            lhs = bessel_k(nu + 1.0, x)
            rhs = bessel_k(nu - 1.0, x) + (2.0 * nu / x) * bessel_k(nu, x) \
                if nu >= 1.0 else None
            if rhs is None:
                # negative order equals positive order by symmetry
                rhs = bessel_k(1.0 - nu, x) + (2.0 * nu / x) * bessel_k(nu, x)
            assert lhs == pytest.approx(rhs, rel=1e-8), (nu, x)

    def test_monotone_decreasing_in_x(self):
        xs = np.geomspace(1e-3, 60.0, 300)
        for nu in (0.0, 0.5, 1.7, 5.0, 12.0):
            vals = bessel_k(nu, xs)
            assert np.all(np.diff(vals) < 0.0)

    def test_log_matches_linear(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            nu = float(rng.uniform(0.0, 30.0))
            x = float(np.exp(rng.uniform(math.log(1e-5), math.log(80.0))))
            k = bessel_k(nu, x)
            if 1e-300 < k < 1e300:
                assert log_bessel_k(nu, x) == pytest.approx(math.log(k), abs=1e-9)

    def test_overflow_fallback_is_continuous(self):
        # at nu = 49 the scaled SciPy routine overflows a little below
        # x = 3e-6; the series branch must line up with it
        left = log_bessel_k(49.0, 2.0e-6)
        right = log_bessel_k(49.0, 4.0e-6)
        interp = log_bessel_k(49.0, 2.8e-6)
        assert left > interp > right
        assert math.isfinite(interp)

    @pytest.mark.parametrize("x", [1e-300, 1e-308, 1e-310, 5e-324])
    @pytest.mark.parametrize("nu", [0.5, 1.0, 3.0, 10.0, 40.0])
    def test_tiny_arguments_stay_finite(self, nu, x):
        # log K_nu(x) = log Gamma(nu) + (nu - 1) log 2 - nu log x to rounding
        # here, though 2 / x overflows below about 1e-308; at order 1 the
        # series has no term past its first.
        ref = math.lgamma(nu) + (nu - 1.0) * math.log(2.0) - nu * math.log(x)
        assert log_bessel_k(nu, x) == pytest.approx(ref, rel=2.2e-16)

    def test_bessel_k_is_inf_just_past_the_largest_double(self):
        # log K_120(x) = 709.9 here: above log(max double), below 710
        x = 0.2338078002315107
        assert log_bessel_k(120.0, x) == pytest.approx(709.9, abs=1e-9)
        assert bessel_k(120.0, x) == math.inf

    def test_vectorized_matches_scalar(self):
        xs = np.array([1e-6, 0.1, 1.0, 10.0])
        vec = log_bessel_k(3.3, xs)
        for x, v in zip(xs, vec):
            assert v == log_bessel_k(3.3, float(x))


class TestValidation:
    @pytest.mark.parametrize("bad_x", [0.0, -0.0, -1.0, math.inf, -math.inf, math.nan,
                                       [1.0, math.nan], [2.0, -1.0], [[1.0], [math.inf]]])
    def test_argument_domain(self, bad_x):
        message = f"x must be positive and finite, got {bad_x!r}"
        with pytest.raises(DomainError) as exc:
            bessel_k(1.0, bad_x)
        assert str(exc.value) == message
        with pytest.raises(DomainError) as exc:
            log_bessel_k(1.0, bad_x)
        assert str(exc.value) == message

    def test_empty_arguments(self):
        assert bessel_k(1.0, np.array([])).shape == (0,)
        assert log_bessel_k(1.0, []).shape == (0,)

    def test_values_whose_sum_overflows(self):
        # Two values near the largest double: their sum is infinite though
        # each is finite, and both must come back as computed alone.
        x = optimize.brentq(lambda t: log_bessel_k(60.0, t) - 709.0, 1e-6, 100.0)
        pair = bessel_k(60.0, np.array([x, x]))
        assert np.all(np.isfinite(pair)) and pair.tolist() == [bessel_k(60.0, x)] * 2

    @pytest.mark.parametrize("bad_nu", [-0.5, math.inf, math.nan, "2", True])
    def test_order_domain(self, bad_nu):
        for function in (bessel_k, log_bessel_k):
            with pytest.raises(DomainError) as caught:
                function(bad_nu, 1.0)
            assert str(caught.value) == f"order nu must be nonnegative and finite, got {bad_nu!r}"

    def test_order_above_the_ceiling_is_refused(self):
        # Up to the ceiling the value is finite; above it, at 1e308, the
        # uniform expansion overflowed to NaN with three warnings.
        assert math.isfinite(log_bessel_k(ORDER_MAX, 1.0))
        for function in (bessel_k, log_bessel_k):
            with pytest.raises(DomainError) as caught:
                function(1e308, 1.0)
            assert str(caught.value) == "order nu must be at most 1e+06, got 1e+308"
            with pytest.raises(DomainError, match="at most"):
                function(math.nextafter(ORDER_MAX, math.inf), 1.0)

    @pytest.mark.parametrize("function, args, twin", [
        # An order that is no real number, or a bool, and arguments whose
        # dtype is not integer or floating.
        *((f, args, None) for f in (log_bessel_k, bessel_k) for args in [
            (True, 1.0), (np.True_, 1.0), ("2", 1.0), (None, 1.0), (1 + 0j, 1.0),
            (np.array([1.0, 2.0]), 1.0), (1.0, "2"), (1.0, True), (1.0, [True, False]),
            (1.0, [1 + 0j]), (1.0, None)]),
        *((log_gamma, (x,), None) for x in (True, np.True_, "2", None, [1 + 0j], [True])),
        # Valid input of other real types: the bits of its float64 twin.
        *((f, args, twin) for f in (log_bessel_k, bessel_k) for args, twin in [
            ((2, 3), (2.0, 3.0)), ((np.int64(2), [1, 40]), (2.0, [1.0, 40.0])),
            ((np.float32(1.5), np.float32(2.0)), (1.5, 2.0)),
            ((0.3, np.array([0.5, 7.0], dtype=np.float32)), (0.3, [0.5, 7.0]))]),
        (log_gamma, (3,), (3.0,)), (log_gamma, ([np.float32(0.5), 4],), ([0.5, 4.0],)),
    ])
    def test_order_and_argument_types(self, function, args, twin):
        if twin is None:
            with pytest.raises(DomainError):
                function(*args)
        else:
            assert np.asarray(function(*args)).tobytes() == \
                np.asarray(function(*twin)).tobytes()

    def test_series_nonconvergence_reports_achieved_error(self, monkeypatch):
        # the public routing feeds the series only arguments below 1, where
        # it needs a few terms; force a larger one directly, with a short
        # term budget, to check the failure contract
        monkeypatch.setattr(specfun, "_SERIES_MAX_TERMS", 3)
        with pytest.raises(AccuracyError) as exc:
            _log_k_series(45.0, 10.0)
        assert exc.value.achieved is not None


class TestThreads:
    """The package evaluates on the calling thread."""

    def test_one_worker_starts_no_thread(self, monkeypatch):
        # Bessel calls on 3 * 16,384 arguments and the assembly of a
        # 512-point kernel matrix at nu = 10 (the saturation-scattered
        # design, whose distances are all distinct) start no thread.
        started = []
        start = threading.Thread.start

        def recording(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording)
        before = threading.active_count()
        x = np.linspace(0.1, 30.0, 3 * 16384)
        log_bessel_k(3.3, x)
        bessel_k(3.3, x)
        base = van_der_corput(Box.unit(1), 512).points[:, 0]
        rng = np.random.Generator(np.random.Philox(0))
        jitter = (2.0 * rng.random(512) - 1.0) * 0.25 * np.min(np.diff(np.sort(base)))
        design = Design(np.clip(base + jitter, 0.0, 1.0), Box.unit(1))
        kernel_matrix(MaternParams(10.0, 1.0, 0.05), design)
        assert started == [] and threading.active_count() == before
