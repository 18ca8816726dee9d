"""Property-based checks of the LOO identities, the multi-column objectives,
prefix consistency of the panel-grown factor, the modified Bessel function
of the second kind and the design file format.

Examples are derandomized, so every run of the suite draws the same cases.
"""

import contextlib
import math
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg, optimize

from maternsmooth.designs import (Box, Design, load_design, save_design, uniform_grid,
                                  van_der_corput)
from maternsmooth.errors import ConditioningError
from maternsmooth.experiments import _jittered_grid, _naive_loo
from maternsmooth.gp import condition, condition_prefixes, loo
from maternsmooth.kernels import MaternKernel, kernel_matrix, kernel_panels, matern
from maternsmooth.objectives import ell_cv_from, ell_ml_from
from maternsmooth import specfun
from maternsmooth.specfun import bessel_k, log_bessel_k, thread_limit

PROPERTY = settings(max_examples=25, derandomize=True, deadline=None, database=None)

cases = st.tuples(
    st.sampled_from((1, 2)),                  # dimension
    st.floats(min_value=0.5, max_value=4.0),  # smoothness
    st.integers(min_value=2, max_value=24),   # design size
    st.integers(min_value=0, max_value=2**31 - 1),  # seed of design and data
)


def _instance(d, nu, n, seed, columns=1):
    """Jittered design with the length-scale tied to the spacing, as in the
    identity suite, so every case is well conditioned."""
    design = _jittered_grid(d, n, seed)
    lam = 0.5 * math.sqrt(2.0 * nu) * n ** (-1.0 / d)
    kernel = MaternKernel(matern(nu, 1.2, lam, d=d))
    y = np.random.Generator(np.random.Philox(seed + 7)).standard_normal((n, columns))
    return kernel, design, y


@PROPERTY
@given(cases)
def test_triangular_inverse_loo_matches_refits_and_full_inverse(case):
    kernel, design, y = _instance(*case)
    y = y[:, 0]
    post = condition(kernel, design, y)
    fast = loo(post)

    residuals, variances = _naive_loo(kernel, design, y)
    assert np.max(np.abs(fast.residuals - residuals)) <= 1e-8
    assert np.max(np.abs(fast.variances - variances)) <= 1e-8

    inverse = linalg.cho_solve((post.chol, True), np.eye(design.n))
    np.testing.assert_allclose(1.0 / fast.variances, np.diag(inverse), rtol=1e-10)


@PROPERTY
@given(cases, st.integers(min_value=2, max_value=5))
def test_multi_column_objectives_equal_single_column(case, columns):
    kernel, design, y = _instance(*case, columns=columns)
    multi = condition(kernel, design, y)
    ml, cv = ell_ml_from(multi), ell_cv_from(multi)
    assert np.shape(ml.total) == np.shape(cv.total) == (columns,)
    for j in range(columns):
        single = condition(kernel, design, y[:, j])
        for many, one in ((ml, ell_ml_from(single)), (cv, ell_cv_from(single))):
            assert many.complexity_term == one.complexity_term
            for got, want in ((many.data_term[j], one.data_term),
                              (many.total[j], one.total)):
                assert abs(got - want) <= 1e-12 * abs(want)


# Prefix sizes whose factor is the leading block of every larger one, bit for
# bit: the panels of the factorization end at 16, 32, 64, ... points.
EXACT_SIZES = tuple(range(1, 17)) + (32, 64, 128)
# Largest relative gap, max |a - b| / max |b|, between a prefix read from a
# larger factor and the prefix's own factor at the other sizes, for the
# well-conditioned cells of the identity suite (rounding; measured <= 3e-14).
PREFIX_RTOL = 1e-12

prefix_cases = st.tuples(
    st.sampled_from(("lattice", "jittered")),  # van der Corput / 2-d grid, or all distinct
    st.sampled_from((1, 2)),                   # dimension
    st.floats(min_value=0.5, max_value=4.0),   # smoothness
    st.integers(min_value=17, max_value=160),  # design size
    st.integers(min_value=0, max_value=2**31 - 1),  # seed of design and data
)


def _prefix_instance(kind, d, nu, n, seed, columns=1, lam=None):
    """A nested design with data; the length-scale is tied to the spacing,
    as in the identity suite, unless ``lam`` is given."""
    if kind == "jittered":
        design = _jittered_grid(d, n, seed)
    elif d == 1:
        design = van_der_corput(Box.unit(1), n)
    else:
        design = uniform_grid(Box.unit(2), 17).prefix(n)
    lam = 0.5 * math.sqrt(2.0 * nu) * n ** (-1.0 / d) if lam is None else lam
    y = np.random.Generator(np.random.Philox(seed + 7)).standard_normal((n, columns))
    return MaternKernel(matern(nu, 1.2, lam, d=d)), design, y


def _alone(design, n):
    """The first ``n`` points as a new design, which builds its own distance table."""
    return Design(design.points[:n], design.box)


@PROPERTY
@given(prefix_cases, st.lists(st.integers(min_value=1, max_value=160), min_size=1,
                              max_size=5))
def test_panels_are_the_rows_of_the_prefix_matrix(case, cuts):
    kernel, design, _ = _prefix_instance(*case)
    ends = sorted({min(c, design.n) for c in cuts})
    a = 0
    for b, panel in zip(ends, kernel_panels(kernel, design, ends)):
        assert np.array_equal(panel, kernel_matrix(kernel, _alone(design, b))[a:b])
        a = b


@PROPERTY
@given(prefix_cases, st.integers(min_value=1, max_value=3),
       st.integers(min_value=17, max_value=160))
def test_prefix_posterior_equals_conditioning_the_prefix(case, columns, other):
    kernel, design, y = _prefix_instance(*case, columns=columns)
    full = condition(kernel, design, y)
    for n in [m for m in EXACT_SIZES if m <= design.n] + [min(other, design.n)]:
        got = full.prefix(n)
        want = condition(kernel, _alone(design, n), y[:n])
        pairs = [(got.chol, want.chol), (got.weights, want.weights),
                 (ell_ml_from(got).total, ell_ml_from(want).total)]
        if n >= 2:
            pairs.append((ell_cv_from(got).total, ell_cv_from(want).total))
        for a, b in pairs:
            if n in EXACT_SIZES:
                assert np.array_equal(a, b), n
            else:
                assert np.max(np.abs(a - b)) <= PREFIX_RTOL * np.max(np.abs(b)), n


@PROPERTY
@given(st.sampled_from(("lattice", "jittered")), st.sampled_from((1, 2)),
       st.floats(min_value=10.0, max_value=14.0), st.integers(min_value=0, max_value=2**31 - 1))
def test_failing_factor_reports_one_pivot_at_every_larger_prefix(kind, d, nu, seed):
    kernel, design, y = _prefix_instance(kind, d, nu, 128, seed, lam=1.0)
    posts = condition_prefixes(kernel, design, y, EXACT_SIZES)
    failed = [p for p in posts if isinstance(p, ConditioningError)]
    assert failed  # every cell of this family fails before 128 points
    err = failed[0]
    assert all(p is err for p in failed)
    for n, post in zip(EXACT_SIZES, posts):
        if n <= err.pivot_index:  # served by the failed factor
            assert np.array_equal(post.chol, condition(kernel, _alone(design, n), y[:n]).chol)
            continue
        try:
            condition(kernel, _alone(design, n), y[:n])
        except ConditioningError as own:
            assert (own.pivot_index, own.pivot_value, str(own)) == (
                err.pivot_index, err.pivot_value, str(err))
        else:
            raise AssertionError(f"prefix {n} factored beyond pivot {err.pivot_index}")


def _near_kve_overflow(nu, w):
    """An argument within a factor ``exp(w)`` of where ``kve(nu, x)`` equals
    ``exp(709)``.  ``kve`` overflows just below that argument, so offsets of
    either sign reach both the ``kve`` path and the large-order fallback."""
    edge = optimize.brentq(lambda x: log_bessel_k(nu, x) + x - 709.0, 1e-8, 10.0 * nu)
    return edge * math.exp(w)


arguments = st.floats(min_value=math.log(1e-5), max_value=math.log(500.0)).map(math.exp)
bessel_cases = st.one_of(
    st.tuples(st.floats(min_value=0.0, max_value=300.0), arguments),
    st.tuples(st.floats(min_value=50.0, max_value=300.0),
              st.floats(min_value=-0.05, max_value=0.05)).map(
        lambda c: (c[0], _near_kve_overflow(*c))),
)


@PROPERTY
@given(bessel_cases)
def test_log_bessel_k_matches_log_of_bessel_k(case):
    nu, x = case
    k = bessel_k(nu, x)
    if 1e-300 < k < math.inf:
        assert abs(log_bessel_k(nu, x) - math.log(k)) <= 1e-9


@PROPERTY
@given(bessel_cases)
def test_bessel_three_term_recurrence(case):
    # K_{nu+1}(x) = K_{nu-1}(x) + (2 nu / x) K_nu(x), divided by K_{nu+1}(x)
    # so that it holds in log space beyond overflow; K_{-a} = K_a.
    nu, x = case
    upper = log_bessel_k(nu + 1.0, x)
    lower = log_bessel_k(abs(nu - 1.0), x)
    middle = log_bessel_k(nu, x)
    ratio = math.exp(lower - upper) + (2.0 * nu / x) * math.exp(middle - upper)
    assert abs(ratio - 1.0) <= 1e-8


@PROPERTY
@given(st.floats(min_value=50.0, max_value=300.0),
       st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=1, max_size=20))
def test_large_order_log_bessel_k_vectorized_equals_scalar(nu, offsets):
    xs = np.array([_near_kve_overflow(nu, w) for w in offsets])
    vectorized = log_bessel_k(nu, xs)
    assert vectorized.tolist() == [log_bessel_k(nu, float(x)) for x in xs]


SPLIT = 2 * specfun._SLICE_MIN
bessel_arrays = st.tuples(
    st.floats(min_value=0.0, max_value=300.0),
    st.one_of(st.integers(min_value=1, max_value=SPLIT - 1),
              st.integers(min_value=SPLIT, max_value=3 * SPLIT)),
    st.integers(min_value=0, max_value=2**31 - 1),
)


@contextlib.contextmanager
def _workers(count):
    """``count`` worker threads, as on a machine with that many CPUs."""
    saved = specfun._cpus
    specfun._cpus = count
    try:
        with thread_limit(count):
            yield
    finally:
        specfun._cpus = saved


@PROPERTY
@given(bessel_arrays)
def test_split_bessel_evaluation_is_bit_identical(case):
    # For nu >= 50, every other argument lies within a factor exp(0.5) of
    # where kve overflows, so both the kve path and the fallback are split.
    nu, size, seed = case
    rng = np.random.Generator(np.random.Philox(seed))
    x = np.exp(rng.uniform(math.log(1e-3), math.log(500.0), size))
    if nu >= 50.0:
        x[::2] = _near_kve_overflow(nu, 0.0) * np.exp(rng.uniform(-0.5, 0.5, x[::2].size))
    results = []
    for count in (1, 2):
        with _workers(count):
            results.append((log_bessel_k(nu, x).tobytes(), bessel_k(nu, x).tobytes()))
    assert results[0] == results[1]


BOX_HALF_WIDTH = 1e6
coordinates = st.floats(min_value=-BOX_HALF_WIDTH, max_value=BOX_HALF_WIDTH)
design_points = st.sampled_from((1, 2)).flatmap(
    lambda d: st.lists(st.tuples(*(coordinates,) * d), max_size=30, unique=True).map(
        lambda rows: np.array(rows, dtype=float).reshape(len(rows), d)))


@PROPERTY
@given(design_points)
def test_design_file_round_trip_is_bit_identical(points):
    d = points.shape[1]
    box = Box((-BOX_HALF_WIDTH,) * d, (BOX_HALF_WIDTH,) * d)
    design = Design(points, box)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "design.txt")
        save_design(design, path)
        back = load_design(path, box=box)
    assert back.box == box
    assert back.points.shape == design.points.shape
    assert back.points.tobytes() == design.points.tobytes()
