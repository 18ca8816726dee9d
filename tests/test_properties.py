"""Property-based checks of the LOO identities, the multi-column objectives,
the modified Bessel function of the second kind and the design file format.

Examples are derandomized, so every run of the suite draws the same cases.
"""

import math
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg, optimize

from maternsmooth.designs import Box, Design, load_design, save_design
from maternsmooth.experiments import _jittered_grid, _naive_loo
from maternsmooth.gp import condition, loo
from maternsmooth.kernels import MaternKernel, matern
from maternsmooth.objectives import ell_cv_from, ell_ml_from
from maternsmooth.specfun import bessel_k, log_bessel_k

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
