"""Property-based checks of the LOO identities, the multi-column objectives,
prefix consistency of the panel-grown factor and of its inverse, the
distance table, the coarse-to-fine plan and the refinement of smoothness
estimates, the modified Bessel function of the second kind, and the
one-pass fill and separation distances.

Examples are derandomized, so every run of the suite draws the same cases.
"""

import contextlib
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg, optimize
from scipy.linalg import blas, lapack

from maternsmooth.designs import (Box, Design, _separations, fill_distance, fill_distances,
                                  uniform_grid, van_der_corput)
from maternsmooth.errors import ConditioningError, EstimationError
from maternsmooth.analysis import sample_gp_path
from maternsmooth import estimators
from maternsmooth.estimators import EstimatorConfig, bracketed_minimize, estimate_nu
from maternsmooth.experiments import _jittered_grid, _naive_loo, make_design
from maternsmooth import gp, kernels
from maternsmooth.gp import condition, condition_prefixes, loo
from maternsmooth.kernels import MaternParams, kernel_matrix, kernel_panels
from maternsmooth.objectives import ell_cv_from, ell_ml_from
from maternsmooth.specfun import ORDER_MAX, bessel_k, log_bessel_k
from test_designs import dense_closest, dense_fill

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
    kernel = MaternParams(nu, 1.2, lam, d=d)
    y = np.random.Generator(np.random.Philox(seed + 7)).standard_normal((n, columns))
    return kernel, design, y


@PROPERTY
@given(st.floats(min_value=math.log(0.1), max_value=math.log(10.0)),
       st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=0.25, max_value=2.0))
def test_node_minimum_of_an_analytic_function(c, a, b):
    # exp(a u) - a u + b u^2 in u = log(nu) - c is convex, with its only
    # minimum at nu = exp(c).
    def fn(nu):
        u = math.log(nu) - c
        return math.exp(a * u) - a * u + b * u * u

    cfg = EstimatorConfig()
    scan = bracketed_minimize(fn, cfg.nu_min, cfg.nu_max, cfg.coarse_grid)
    assert not scan.non_unimodal and not scan.hit_upper_bracket
    assert abs(scan.nu_hat - math.exp(c)) <= 1e-3


@pytest.fixture(scope="module")
def c07_paths():
    """The C07 design and a function returning the path of a seed on it."""
    design = make_design("van_der_corput", 1, 512)
    return design, lambda seed: sample_gp_path(MaternParams(1.5, 1.0, 1.0, d=1), design, seed)


@pytest.mark.parametrize("n", [64, 512])
@settings(max_examples=3, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(min_value=101, max_value=110))
def test_node_minimum_of_the_c07_objectives(c07_paths, n, seed):
    # Against a tight bounded search of each objective around the estimate.
    design, path = c07_paths
    prefix, y = design.prefix(n), path(seed)[:n]
    cfg = EstimatorConfig()
    grid = np.geomspace(cfg.nu_min, cfg.nu_max, cfg.coarse_grid)
    for name, est in estimate_nu(prefix, y, cfg).items():
        objective = ell_ml_from if name == "ml" else ell_cv_from

        def total(nu):
            return objective(condition(MaternParams(nu, 1.0, 1.0, d=1), prefix,
                                       y)).total

        i = int(np.argmin(np.abs(np.log(grid / est.nu_hat))))
        reference = optimize.minimize_scalar(total, bounds=(grid[i - 1], grid[i + 1]),
                                             method="bounded", options={"xatol": 1e-8})
        assert not est.non_unimodal and not est.hit_upper_bracket
        assert abs(est.nu_hat - reference.x) <= 1e-3
        # The interpolant's minimum, off the objective's by its interpolation error.
        assert abs(est.objective_at_min - reference.fun) <= 1e-6 * abs(reference.fun)


def _every_cell_scan(fn, lo, hi, count):
    """The coarse search as it read every distinct cell of the lattice, kept
    as the reference that the coarse-to-fine plan is checked against."""
    grid = np.geomspace(lo, hi, count)
    failures = []

    def safe(theta):
        try:
            v = float(fn(theta))
        except ConditioningError as err:
            failures.append((float(theta), str(err)))
            return math.inf
        if not math.isfinite(v):
            failures.append((float(theta), f"objective value {v!r} is not finite"))
            return math.inf
        return v

    cells = {theta: safe(theta) for theta in dict.fromkeys(grid)}
    values = [cells[theta] for theta in grid]
    finite = [i for i, v in enumerate(values) if math.isfinite(v)]
    if not finite:
        raise EstimationError(f"no candidate in [{lo:g}, {hi:g}] could be evaluated "
                              f"({len(failures)} failures)")
    first = top = finite[0]
    while top + 1 < count and math.isfinite(values[top + 1]):
        top += 1
    best = first
    for i in range(first, top + 1):
        if values[i] <= values[best]:
            best = i
    theta, value, non_unimodal = float(grid[best]), values[best], False
    if first < best < top:
        nodes = estimators._bracket_nodes(grid, best)
        coarse = {0: values[best - 1], estimators._MID: values[best],
                  estimators._NODES - 1: values[best + 1]}
        at = np.array([coarse[k] if k in coarse else safe(nu) for k, nu in enumerate(nodes)])
        t, low = (estimators._interpolant_minimum(at) if np.all(np.isfinite(at))
                  else (-1.0, math.inf))
        if abs(t) == 1.0 or not estimators._unimodal(at):
            k = estimators._NODES - 1 - int(np.argmin(at[::-1]))
            theta, value, non_unimodal = nodes[k], float(at[k]), True
        else:
            theta, value = float(estimators._on_bracket(grid, best, t)), low
    return SimpleNamespace(nu_hat=theta, objective_at_min=value, hit_upper_bracket=best == top,
                           searchable_upper=float(grid[top]), non_unimodal=non_unimodal,
                           run=range(first, top + 1), refined=first < best < top)


def _draw_lattice(draw):
    """``(lo, hi, count, low, high)``: a lattice of 8 to 80 cells (one value
    in a quarter of the cases) whose failing cells are the ``low`` lowest and
    every cell from ``high`` on."""
    count = draw(st.integers(min_value=8, max_value=80))
    lo = draw(st.floats(min_value=0.05, max_value=2.0))
    hi = lo if draw(st.integers(0, 3)) == 0 else lo * draw(st.floats(min_value=1.5,
                                                                      max_value=1e3))
    low = draw(st.sampled_from((0, 0, 0, 1, 2, 5)))
    high = draw(st.sampled_from((count, count, draw(st.integers(min_value=0, max_value=count)))))
    return lo, hi, count, min(low, high), high


def _lattice_objective(draw, lo, hi, count, low, high, shape):
    """The objective ``shape(x)`` at the position ``x`` of theta on the
    lattice (a cell's index at a cell), whose failing cells fail by a
    :class:`ConditioningError` or by NaN."""
    nan = draw(st.booleans())
    index = {float(theta): i for i, theta in enumerate(np.geomspace(lo, hi, count))}
    span = math.log(hi / lo) or 1.0

    def fn(theta):
        i = index.get(float(theta))
        if i is None:
            return shape(math.log(theta / lo) / span * (count - 1))
        if not low <= i < high:
            if nan:
                return math.nan
            raise ConditioningError(f"cell {i} fails", 0, -1.0)
        return shape(i)

    return fn


@st.composite
def lattice_objectives(draw):
    """``(fn, lo, hi, count)``: an objective on a lattice of :func:`_draw_lattice`
    whose values are convex in the cell index, with the minimum inside the
    run, below it, above it or anywhere."""
    lo, hi, count, low, high = _draw_lattice(draw)
    where = draw(st.sampled_from(("interior", "below", "above", "anywhere")))
    bounds = {"interior": (low + 0.5, max(high - 1.5, low + 0.5)), "below": (low - 9.0, low),
              "above": (high, high + 9.0), "anywhere": (-5.0, count + 5.0)}[where]
    centre = draw(st.floats(*bounds))
    width = draw(st.floats(min_value=0.5, max_value=20.0))
    shape = lambda x: math.log1p(((x - centre) / width) ** 2)  # noqa: E731
    return _lattice_objective(draw, lo, hi, count, low, high, shape), lo, hi, count


@st.composite
def lattice_objectives_with_ties(draw):
    """``(fn, lo, hi, count)``: an objective on a lattice of :func:`_draw_lattice`
    whose values are unimodal in the cell index with exact ties: a plateau
    of 1 to 6 cells at the minimum, and on one side of it (above it in two
    cases of three) a shelf, 2 to 17 equal cells that interrupt the rise
    from the plateau 1 to 4 cells out.  A shelf above the plateau that holds
    the coarse minimum leads the walk from its right end."""
    lo, hi, count, low, high = _draw_lattice(draw)
    start = draw(st.integers(min_value=low - 8, max_value=high + 1))
    stop = start + draw(st.integers(min_value=0, max_value=5))  # the plateau's last cell
    side = draw(st.sampled_from((-1, 1, 1)))
    rise = draw(st.integers(min_value=1, max_value=4))  # from the plateau to the shelf
    shelf = draw(st.integers(min_value=1, max_value=16))
    slopes = {s: draw(st.floats(min_value=0.25, max_value=4.0)) for s in (-1, 1)}

    def shape(x):
        s, d = (-1, start - x) if x < start else (1, x - stop) if x > stop else (0, 0.0)
        if s == side:
            d = min(d, rise) + max(d - rise - shelf, 0.0)
        return slopes.get(s, 0.0) * d

    return _lattice_objective(draw, lo, hi, count, low, high, shape), lo, hi, count


def _plan_and_scan(fn, lo, hi, count):
    """The plan's estimate and the every-cell scan's, after checking that
    they agree bit for bit; ``None`` when both raise the same error."""
    try:
        expected = _every_cell_scan(fn, lo, hi, count)
    except EstimationError as err:
        with pytest.raises(EstimationError) as caught:
            bracketed_minimize(fn, lo, hi, count)
        distinct = len(set(np.geomspace(lo, hi, count).tolist()))
        assert str(caught.value) == str(err)
        assert str(err).endswith(f"could be evaluated ({distinct} failures)")
        return None
    found = bracketed_minimize(fn, lo, hi, count)
    for field in ("nu_hat", "objective_at_min", "hit_upper_bracket", "searchable_upper",
                  "non_unimodal"):
        assert getattr(found, field) == getattr(expected, field), field
    return found, expected


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(lattice_objectives())
def test_plan_reads_the_bracket_of_the_every_cell_scan(case):
    # Failing cells a lower and an upper set, values unimodal over the run:
    # the plan's estimate is the every-cell scan's, bit for bit.  An interior
    # minimum costs fewer reads than the lattice has cells, from 30 cells on,
    # unless no cell of the run is one of the first round's, which then reads
    # every cell.
    fn, lo, hi, count = case
    both = _plan_and_scan(fn, lo, hi, count)
    if both is None:
        return
    found, expected = both
    stride = estimators._STRIDE
    if count >= 30 and expected.refined and any(i % stride == 0 or i == count - 1
                                                for i in expected.run):
        assert found.evaluations < count


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(lattice_objectives_with_ties())
def test_plan_walks_over_ties_to_the_every_cell_scan(case):
    # Exact ties: the coarse minimum may be the right end of a plateau or a
    # shelf whose left end is far below it, so the walk to the minimum goes
    # on past a left neighbour that ties; the estimate is still the
    # every-cell scan's, bit for bit.
    _plan_and_scan(*case)


def test_plan_misses_a_failing_cell_hidden_inside_the_run():
    # A failing cell between two evaluable cells of the first round, far
    # from the minimum and the run's ends, is not read: the plan's run goes
    # past it, where the every-cell scan's run ends below it.
    hidden, count = 2 * estimators._STRIDE + 1, 30
    grid = np.geomspace(0.5, 20.0, count)

    def fn(theta):
        if theta == grid[hidden]:
            raise ConditioningError("hidden", 0, -1.0)
        return -math.log(theta)  # decreasing: the minimum is the top cell

    expected = _every_cell_scan(fn, 0.5, 20.0, count)
    found = bracketed_minimize(fn, 0.5, 20.0, count)
    assert expected.searchable_upper == expected.nu_hat == grid[hidden - 1]
    assert found.searchable_upper == found.nu_hat == grid[-1]
    assert found.hit_upper_bracket and not found.failures


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
            assert (many.data_term[j], many.total[j]) == (one.data_term, one.total)


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
    return MaternParams(nu, 1.2, lam, d=d), design, y


def _alone(design, n):
    """The first ``n`` points as a new design, which builds its own distance table."""
    return Design(design.points[:n], design.box)


def _unique_table(pts):
    """A distance table whose distinct distances, first rows and numbers
    come from ``np.unique`` (its stable sort gives each distance's first
    pair), as an oracle for the one-sort build of :class:`_DistanceTable`."""
    n = pts.shape[0]
    il = np.tril_indices(n, k=-1)
    diff = pts[il[0]] - pts[il[1]]
    unique, first, inverse = np.unique(np.sqrt(np.sum(diff * diff, axis=-1)),
                                       return_index=True, return_inverse=True)
    rows = il[0][first]
    table = object.__new__(kernels._DistanceTable)
    table.bounds = [0] + kernels._panel_ends(n)
    table.count = np.concatenate(([0], 1 + np.cumsum(np.bincount(rows, minlength=n))))
    table.distances = np.zeros(unique.size + 1)
    number = np.empty(unique.size, dtype=np.int32)
    for a, b in zip(table.bounds, table.bounds[1:]):
        members = np.flatnonzero((rows >= a) & (rows < b))
        number[members] = np.arange(max(table.count[a], 1), table.count[b], dtype=np.int32)
        table.distances[max(table.count[a], 1):table.count[b]] = unique[members]
    table.index = np.zeros((n, n), dtype=np.int32)
    table.index[il] = table.index.T[il] = number[inverse]
    return table


def _check_table(kind, d, n, seed):
    """Check the distance table of a design of ``n`` points against
    :func:`_unique_table`: its distances, counts, panel bounds and index,
    and the new numbers of a few row ranges."""
    # A lattice repeats its distances (ties); jittered points in one
    # dimension have every distance distinct, a jittered 2-d grid nearly so.
    if kind == "jittered":
        design = _jittered_grid(d, n, seed)
    elif d == 1:
        design = van_der_corput(Box.unit(1), n)
    else:
        design = uniform_grid(Box.unit(2), 15).prefix(n)
    table, oracle = kernels._DistanceTable(design.points), _unique_table(design.points)
    assert table.distances.tobytes() == oracle.distances.tobytes()
    assert table.count.tolist() == oracle.count.tolist() and table.bounds == oracle.bounds
    assert table.index.dtype == oracle.index.dtype
    assert np.array_equal(table.index, oracle.index)
    rng = np.random.Generator(np.random.Philox(seed))
    cuts = sorted({0, n} | {int(m) for m in rng.integers(0, n + 1, 3)})
    for a, b in zip(cuts, cuts[1:]):
        assert np.array_equal(np.arange(table.size(b))[table.new(a, b)],
                              np.arange(oracle.size(b))[oracle.new(a, b)]), (a, b)


@PROPERTY
@given(st.sampled_from(("lattice", "jittered")), st.sampled_from((1, 2)),
       st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=2**31 - 1))
def test_distance_table_equals_the_unique_oracle(kind, d, n, seed):
    _check_table(kind, d, n, seed)


@pytest.mark.parametrize("kind,d,n", [
    ("lattice", 1, 1), ("lattice", 1, 2), ("lattice", 1, 3), ("lattice", 1, 16),
    ("lattice", 1, 17), ("lattice", 1, 512), ("jittered", 1, 2), ("jittered", 1, 33),
    ("jittered", 1, 512), ("lattice", 2, 4), ("lattice", 2, 225), ("jittered", 2, 9),
    ("jittered", 2, 512),
])
def test_distance_table_equals_the_unique_oracle_at_panel_sizes(kind, d, n):
    # Sizes at and around panel ends, and 512 points of each kind, the
    # size of the benchmark's designs.
    _check_table(kind, d, n, seed=n)


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
            # The leave-one-out quantities read the full factor's inverse.
            pairs += [(loo(got).residuals, loo(want).residuals),
                      (loo(got).variances, loo(want).variances)]
        for a, b in pairs:
            if n in EXACT_SIZES:
                assert np.array_equal(a, b), n
            else:
                assert np.max(np.abs(a - b)) <= PREFIX_RTOL * np.max(np.abs(b)), n


@PROPERTY
@given(prefix_cases)
def test_inverse_of_a_prefix_is_the_leading_block(case):
    kernel, design, y = _prefix_instance(*case)
    full = condition(kernel, design, y)
    inverse = gp._invert(full.chol, design.n)
    for n in [m for m in EXACT_SIZES if m <= design.n]:
        own = gp._invert(condition(kernel, _alone(design, n), y[:n]).chol, n)
        assert own.shape == (n, n)
        assert np.array_equal(inverse[:n, :n], own), n
        assert np.array_equal(full.prefix(n).factorization.inverse(n), own), n


@PROPERTY
@given(prefix_cases, st.integers(min_value=1, max_value=3), st.booleans(),
       st.integers(min_value=17, max_value=160))
def test_prefix_cells_equal_each_prefix_conditioned_alone(case, columns, profile, other):
    # The one-pass totals of a cell: bit for bit those of each prefix
    # conditioned alone at the exact sizes, and to rounding at others.
    kernel, design, y = _prefix_instance(*case, columns=columns)
    sizes = sorted({m for m in EXACT_SIZES if m <= design.n} | {min(other, design.n)})
    for n, cell in zip(sizes, estimators._cells(design, y, kernel, profile, sizes)):
        post = condition(kernel, _alone(design, n), y[:n])
        assert sorted(cell) == (["cv", "ml"] if n >= 2 else ["ml"])
        for name, ell in (("ml", ell_ml_from), ("cv", ell_cv_from))[:len(cell)]:
            value = ell(post)
            want = np.asarray([estimators._profiled(data, value.complexity_term, n)
                               for data in value.data_term] if profile else value.total)
            got = np.asarray(cell[name])
            if n in EXACT_SIZES:
                assert got.tobytes() == want.tobytes(), (name, n)
            else:
                assert np.max(np.abs(got - want)) <= PREFIX_RTOL * np.max(np.abs(want)), n


# Sizes on either side of the edges of the 64-row sub-panels that factor and
# invert the diagonal blocks of the row panels.
SUB_PANEL_SIZES = (65, 100, 128, 129, 200, 256, 300, 512)


@contextlib.contextmanager
def _serving(K, rows):
    """``gp`` factors the matrix ``K`` whatever kernel it is given, and the
    row count of every ``dpotrf`` and ``dtrtri`` call goes to ``rows``."""
    def panels(kernel, design, ends):
        a = 0
        for b in ends:
            yield np.array(K[a:b, :b], order="F")  # a fresh array, as kernel_panels gives
            a = b

    def recorded(fn):
        def call(c, **kwargs):
            rows.append(c.shape[0])
            return fn(c, **kwargs)
        return call

    saved = gp.kernel_panels, gp._lapack
    gp.kernel_panels = panels
    gp._lapack = SimpleNamespace(dpotrf=recorded(lapack.dpotrf), dtrtri=recorded(lapack.dtrtri))
    try:
        yield
    finally:
        gp.kernel_panels, gp._lapack = saved


@PROPERTY
@given(st.sampled_from(("spd", "matern")), st.sampled_from(SUB_PANEL_SIZES),
       st.floats(min_value=0.5, max_value=3.0), st.integers(min_value=0, max_value=2**31 - 1))
def test_sub_panels_keep_every_prefix_and_the_single_call_values(kind, n, nu, seed):
    if kind == "spd":
        A = np.random.Generator(np.random.Philox(seed)).standard_normal((n, n))
        K = A @ A.T / n + np.eye(n)
    else:
        kernel, design, _ = _prefix_instance("jittered", 1, nu, n, seed)
        K = kernel_matrix(kernel, design)
    rows = []
    with _serving(K, rows):
        L, err = gp._factor(None, SimpleNamespace(n=n))
        assert err is None
        W = gp._invert(L, n)
        for m in (16, 32, 64, 128, 256):
            if m < n:
                own, _ = gp._factor(None, SimpleNamespace(n=m))
                assert np.array_equal(own, L[:m, :m]), m
                assert np.array_equal(gp._invert(own, m), W[:m, :m]), m
    assert max(rows) <= gp._SUB
    assert not np.any(np.triu(L, 1)) and not np.any(np.triu(W, 1))
    # Well conditioned (cond(K) < 1e3): rounding apart, one LAPACK call each.
    single = lapack.dpotrf(K, lower=1, clean=1)[0]
    assert np.max(np.abs(L - single)) <= 1e-12 * np.max(np.abs(single))
    single = lapack.dtrtri(L, lower=1)[0]
    assert np.max(np.abs(W - single)) <= 1e-12 * np.max(np.abs(single))


@contextlib.contextmanager
def _recorded_inversions():
    """Record the diagonal block (``dtrtri``) and the row panel (``dtrmm``)
    sizes of every inversion step ``gp`` takes in the block."""
    calls = []

    def dtrtri(c, **kwargs):
        calls.append(("dtrtri", c.shape[0]))
        return lapack.dtrtri(c, **kwargs)

    def dtrmm(alpha, a, b, **kwargs):
        calls.append(("dtrmm", b.shape[0]))
        return blas.dtrmm(alpha, a, b, **kwargs)

    saved = gp._lapack, gp._blas
    gp._lapack = SimpleNamespace(dpotrf=lapack.dpotrf, dtrtri=dtrtri, dpotrs=lapack.dpotrs)
    gp._blas = SimpleNamespace(dtrsm=blas.dtrsm, dsyrk=blas.dsyrk, dtrmm=dtrmm)
    try:
        yield calls
    finally:
        gp._lapack, gp._blas = saved


def _inversion_steps(m):
    """The steps :func:`_recorded_inversions` sees when ``m`` rows are
    inverted: the first diagonal block is padded to 16 rows."""
    steps, a = [], 0
    for b in gp._panel_ends(m):
        if a:
            steps += [("dtrtri", b - a), ("dtrmm", b - a), ("dtrmm", b - a)]
        else:
            steps.append(("dtrtri", max(b, 16)))
        a = b
    return steps


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
    served = [(n, p) for n, p in zip(EXACT_SIZES, posts) if 2 <= n <= err.pivot_index]
    with _recorded_inversions() as calls:
        got = [loo(post) for _, post in served]
    # One inversion, of the largest prefix served and of nothing past it.
    assert calls == _inversion_steps(max(n for n, _ in served))
    for (n, _), res in zip(served, got):
        want = loo(condition(kernel, _alone(design, n), y[:n]))
        assert np.array_equal(res.residuals, want.residuals), n
        assert np.array_equal(res.variances, want.variances), n
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


def _log_uniform(low, high):
    """Floats drawn uniformly in log scale on ``[low, high]``, both ends
    included."""
    return st.floats(min_value=math.log(low), max_value=math.log(high)).map(
        lambda t: min(max(math.exp(t), low), high))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.one_of(st.floats(min_value=0.05, max_value=50.0, exclude_max=True),
                 _log_uniform(50.0, ORDER_MAX)),
       st.one_of(st.floats(min_value=5e-324, max_value=1e-300),
                 st.sampled_from((5e-324, 1e-310))))
def test_tiny_arguments_give_the_leading_term(nu, x):
    # Below x = 1e-300, K_nu(x) is Gamma(nu) 2**(nu-1) x**-nu to far below
    # rounding, subnormal x included (order 0 is not covered: Gamma(0) is
    # infinite).  From order 50 the uniform expansion serves, whose x / nu
    # is subnormal or zero at the smallest of these arguments.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = log_bessel_k(nu, x)
    ref = math.lgamma(nu) + (nu - 1.0) * math.log(2.0) - nu * math.log(x)
    assert math.isfinite(value) and abs(value - ref) <= 1e-12 * abs(ref)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.one_of(_log_uniform(0.05, ORDER_MAX), st.sampled_from((0.05, ORDER_MAX))),
       st.lists(st.one_of(_log_uniform(1e-300, 1e300), st.sampled_from((1e-300, 1e300))),
                min_size=1, max_size=8))
def test_log_bessel_k_is_finite_on_its_whole_domain(nu, xs):
    # Every order up to the ceiling and every argument from 1e-300 to 1e300:
    # finite values, each that of its argument alone, and no warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = log_bessel_k(nu, np.array(xs))
        alone = [log_bessel_k(nu, x) for x in xs]
    assert np.all(np.isfinite(values)) and values.tolist() == alone


# Array sizes on both sides of LARGE, up to 3 * LARGE arguments.
LARGE = 16384
bessel_arrays = st.tuples(
    st.floats(min_value=0.0, max_value=300.0),
    st.one_of(st.integers(min_value=1, max_value=LARGE - 1),
              st.integers(min_value=LARGE, max_value=3 * LARGE)),
    st.integers(min_value=0, max_value=2**31 - 1),
)


@PROPERTY
@given(bessel_arrays)
def test_split_bessel_evaluation_is_bit_identical(case):
    # An array split by stride into two, each half evaluated alone, gives
    # the same bits as the whole.  For nu >= 50, every other argument lies
    # within a factor exp(0.5) of where kve overflows, so both halves mix
    # the kve path and the fallback.
    nu, size, seed = case
    rng = np.random.Generator(np.random.Philox(seed))
    x = np.exp(rng.uniform(math.log(1e-3), math.log(500.0), size))
    if nu >= 50.0:
        x[1::2] = _near_kve_overflow(nu, 0.0) * np.exp(rng.uniform(-0.5, 0.5, x[1::2].size))
    for fn in (log_bessel_k, bessel_k):
        split = np.empty_like(x)
        split[::2], split[1::2] = fn(nu, x[::2]), fn(nu, x[1::2])
        assert split.tobytes() == fn(nu, x).tobytes()


# Orders on both sides of 16, the rule's top, and of 50, where the uniform
# expansion takes over from the series.
orders = st.one_of(st.floats(min_value=0.0, max_value=16.0),
                   st.floats(min_value=16.0, max_value=50.0, exclude_min=True),
                   st.floats(min_value=50.0, max_value=300.0))


@PROPERTY
@given(orders, st.one_of(st.integers(min_value=2, max_value=64),
                         st.integers(min_value=LARGE, max_value=LARGE + 64)),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_values_do_not_depend_on_position(nu, size, seed):
    # Ascending arguments from below 1 through every bucket of the rule to
    # above 128, a few of them where kve overflows (the uniform expansion
    # from order 50, the series from 5 to 50), evaluated in order and
    # permuted: the values permute with them.
    rng = np.random.Generator(np.random.Philox(seed))
    x = np.exp(rng.uniform(math.log(1e-3), math.log(500.0), size))
    few = min(8, size // 2)
    if nu >= 50.0:
        x[:few] = _near_kve_overflow(nu, 0.0) * np.exp(rng.uniform(-0.5, 0.5, few))
    elif nu >= 5.0:
        x[:few] = np.exp(-720.0 / nu - rng.uniform(0.0, 10.0, few))
    x.sort()
    p = rng.permutation(size)
    for fn in (log_bessel_k, bessel_k):
        assert fn(nu, x[p]).tobytes() == fn(nu, x)[p].tobytes()


# Arguments that all take one path: one bucket [2**k, 2**(k+1)) of the rule,
# SciPy's kve below 1 or above 128 at orders up to 16, or any argument at
# orders above 16, where kve takes them all.
one_path = st.one_of(
    st.tuples(st.floats(min_value=0.0, max_value=16.0),
              st.integers(min_value=0, max_value=6).map(lambda k: (2.0**k, 2.0**(k + 1)))),
    st.tuples(st.floats(min_value=0.0, max_value=16.0), st.just((1e-3, 1.0))),
    st.tuples(st.floats(min_value=0.0, max_value=16.0),
              st.just((math.nextafter(128.0, math.inf), 500.0))),
    st.tuples(st.floats(min_value=16.0, max_value=300.0, exclude_min=True),
              st.just((1e-3, 500.0))),
)


@PROPERTY
@given(one_path, st.one_of(st.integers(min_value=2, max_value=64),
                           st.integers(min_value=LARGE, max_value=LARGE + 64)),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_values_of_one_path_do_not_depend_on_position(case, size, seed):
    # Permuted arguments confined to one path are sorted like any others
    # that do not ascend: the values permute with them.
    nu, (lo, hi) = case
    rng = np.random.Generator(np.random.Philox(seed))
    x = np.exp(rng.uniform(math.log(lo), math.log(hi), size))
    x = np.clip(x, lo, math.nextafter(hi, 0.0) if hi < 128.0 else hi)
    x.sort()
    p = rng.permutation(size)
    for fn in (log_bessel_k, bessel_k):
        assert fn(nu, x[p]).tobytes() == fn(nu, x)[p].tobytes()


def _next_to(values):
    """Each value and the floats on either side of it."""
    return sorted({v for x in values for v in (math.nextafter(x, 0.0), x,
                                               math.nextafter(x, math.inf))})


# Arguments of all four paths and of the edges between them: the trapezoidal
# rule (orders up to 16, arguments 1 to 128, buckets split at powers of
# two), SciPy's kve around it, and where kve overflows, the uniform
# expansion (orders from 50) and the series (below 50, tiny arguments).
path_cases = st.one_of(
    st.tuples(st.floats(min_value=0.0, max_value=16.0),
              st.floats(min_value=0.0, max_value=math.log(128.0)).map(math.exp)),
    st.tuples(st.floats(min_value=0.0, max_value=16.0),
              st.sampled_from(_next_to([2.0**k for k in range(8)]))),
    st.tuples(st.sampled_from(_next_to([16.0])), arguments),
    st.tuples(st.floats(min_value=0.0, max_value=300.0), arguments),
    st.tuples(st.floats(min_value=50.0, max_value=300.0),
              st.floats(min_value=-0.05, max_value=0.05)).map(
        lambda c: (c[0], _near_kve_overflow(*c))),
    st.tuples(st.floats(min_value=5.0, max_value=45.0),
              st.floats(min_value=0.0, max_value=10.0)).map(
        lambda c: (c[0], math.exp(-720.0 / c[0] - c[1]))),
)


@PROPERTY
@given(path_cases, st.one_of(st.integers(min_value=1, max_value=64),
                             st.integers(min_value=LARGE // 2, max_value=LARGE + 64)),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_a_bessel_value_depends_only_on_its_argument(case, half, seed):
    # Alone or at any place of a longer array, flat or in two dimensions:
    # the same bits.
    nu, x = case
    alone = (log_bessel_k(nu, x), bessel_k(nu, x))
    rng = np.random.Generator(np.random.Philox(seed))
    around = np.exp(rng.uniform(math.log(1e-3), math.log(500.0), 2 * half))
    around[rng.integers(2 * half)] = x
    places = np.flatnonzero(around == x)
    for shape in ((2 * half,), (2, half), (half, 2)):
        arr = around.reshape(shape)
        for fn, want in zip((log_bessel_k, bessel_k), alone):
            got = fn(nu, arr)
            assert got.shape == shape
            assert got.reshape(-1)[places].tobytes() == np.full(places.size, want).tobytes()


@PROPERTY
@given(path_cases, st.integers(min_value=0, max_value=2**31 - 1))
def test_kernel_entries_depend_only_on_their_distance(case, seed):
    # A 1-d design of the point 0 and points at the drawn distance and at
    # others from it; with lambda = sqrt(2 nu) the Bessel argument is the
    # distance itself.  The panels, each prefix's own matrix and the kernel
    # alone agree on every entry.
    nu, x = case
    nu = max(nu, 0.05)
    kernel = MaternParams(nu, 1.0, math.sqrt(2.0 * nu))
    rng = np.random.Generator(np.random.Philox(seed))
    others = np.exp(rng.uniform(math.log(1e-3), math.log(500.0), 40))
    points = np.concatenate(([0.0, x], others[others != x]))
    rng.shuffle(points[1:])
    design = Design(points, Box((0.0,), (600.0,)))
    ends = sorted({int(e) for e in rng.integers(1, design.n + 1, 3)} | {design.n})
    a = 0
    for b, panel in zip(ends, kernel_panels(kernel, design, ends)):
        assert np.array_equal(panel, kernel_matrix(kernel, _alone(design, b))[a:b])
        a = b
    full = kernel_matrix(kernel, design)
    assert full[0, 1:].tolist() == [kernel(r) for r in points[1:]]


@PROPERTY
@given(st.sampled_from((1, 2)), st.integers(min_value=1, max_value=200),
       st.integers(min_value=0, max_value=2**31 - 1),
       st.one_of(st.none(), st.integers(min_value=64, max_value=100)))
def test_one_pass_equals_each_prefix_alone(d, n, seed, resolution):
    # The running minima of one pass over the points give each prefix's fill
    # and separation distance bit for bit.
    rng = np.random.Generator(np.random.Philox(seed))
    design = Design(rng.random((n, d)), Box.unit(d))
    count = int(rng.integers(1, min(n, 8) + 1))
    sizes = sorted(int(m) for m in rng.choice(np.arange(1, n + 1), count, replace=False))
    assert fill_distances(design, sizes, resolution) == [
        fill_distance(design.prefix(m), resolution) for m in sizes]
    assert _separations(design, sizes).tolist() == [
        _separations(design.prefix(m), [m])[0] for m in sizes]


def _tie_design(kind, d, seed, resolution):
    """A design in ``d`` dimensions of the given ``kind``: uniform random
    points, a jittered grid, or a shuffled lattice whose points, edge
    midpoints and cell centres all lie on the probe grid, so that probes tie
    between up to ``2**d`` points.  At most 8 points in d = 3, where each
    dense oracle call holds probes x points x d doubles."""
    rng = np.random.Generator(np.random.Philox(seed))
    most = 6 if d == 3 else 40
    if kind == "random":
        return Design(rng.random((int(rng.integers(1, most + 1)), d)), Box.unit(d))
    if kind == "jittered":
        return _jittered_grid(d, int(rng.integers(1, most + 1)), seed)
    # Spacing 2 j and offset a, in steps of the probe grid.
    m = 2 if d == 3 else int(rng.integers(2, 7))
    j = int(rng.integers(1, (resolution - 2) // (2 * (m - 1)) + 1))
    a = rng.integers(0, resolution - 1 - 2 * j * (m - 1), size=d)
    step = 1.0 / (resolution - 1)
    axes = [(a[k] + 2 * j * np.arange(m)) * step for k in range(d)]
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    return Design(rng.permutation(points), Box.unit(d))


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(st.sampled_from(("random", "jittered", "lattice")), st.sampled_from((2, 3)),
       st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=64, max_value=80),
       st.booleans())
def test_tree_queries_equal_the_dense_formulas(kind, d, seed, resolution, every_size):
    # The k-d tree's candidates, re-ranked, give the fill and separation
    # distances of the dense pass over every pair, bit for bit, ties included.
    design = _tie_design(kind, d, seed, resolution)
    sizes = list(range(1, design.n + 1)) if every_size else [design.n]
    assert fill_distances(design, sizes, resolution) == [
        dense_fill(design.prefix(m), resolution) for m in sizes]
    assert _separations(design, sizes).tolist() == [dense_closest(design.prefix(m))
                                                    for m in sizes]
