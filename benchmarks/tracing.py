"""Span tracing of maternsmooth from outside the package.

:meth:`Tracer.install` replaces the module attributes through which the
layers call each other (``maternsmooth.estimators.condition``,
``maternsmooth.gp.kernel_matrix``, ``maternsmooth.kernels.log_bessel_k``,
...) with wrappers that record one span per call: its name, start, end and
parent.  Nothing under ``src/`` changes.  Spans stay in memory and are
written out when the run ends; self time is a span's duration minus that
of its child spans.

Inside a span the wrapper only reads the clock.  What the per-layer counts
need (Bessel arguments, design sizes, points of new designs) is kept by
reference after the span closes, and classified or computed by
:func:`layer_metrics` once the timed run is over, so self times do not
include it.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
import weakref

__all__ = ["Checkpoints", "Tracer", "PER_LAYER", "layer_metrics"]

# (module, attribute, span name).  Every binding of a function is wrapped
# on its own, so a call is recorded once, by the binding its caller used.
WRAPPED = (
    ("maternsmooth.kernels", "log_bessel_k", "specfun.log_bessel_k"),
    ("maternsmooth.kernels", "matern_eval", "kernels.matern_eval"),
    ("maternsmooth.gp", "kernel_matrix", "kernels.kernel_matrix"),
    ("maternsmooth.analysis", "kernel_matrix", "kernels.kernel_matrix"),
    ("maternsmooth.experiments", "kernel_matrix", "kernels.kernel_matrix"),
    ("maternsmooth.designs", "Design.__init__", "designs.Design"),
    ("maternsmooth.estimators", "fill_distance", "designs.fill_distance"),
    ("maternsmooth.estimators", "condition", "gp.condition"),
    ("maternsmooth.objectives", "condition", "gp.condition"),
    ("maternsmooth.experiments", "condition", "gp.condition"),
    ("maternsmooth.objectives", "loo", "gp.loo"),
    ("maternsmooth.experiments", "loo", "gp.loo"),
    ("maternsmooth.estimators", "ell_ml_from", "objectives.ell_ml_from"),
    ("maternsmooth.estimators", "ell_cv_from", "objectives.ell_cv_from"),
    ("maternsmooth.experiments", "ell_ml_from", "objectives.ell_ml_from"),
    ("maternsmooth.experiments", "ell_cv_from", "objectives.ell_cv_from"),
    ("maternsmooth.estimators", "bracketed_minimize", "estimators.bracketed_minimize"),
    ("maternsmooth.estimators", "sweep_prefixes", "estimators.sweep_prefixes"),
    ("maternsmooth.experiments", "sweep_prefixes", "estimators.sweep_prefixes"),
    ("maternsmooth.experiments", "sample_gp_path", "analysis.sample_gp_path"),
    ("maternsmooth.analysis", "sample_gp_path", "analysis.sample_gp_path"),
    ("maternsmooth.cli", "run_non_undersmoothing", "experiments.run_non_undersmoothing"),
    ("maternsmooth.cli", "write_csv", "cli.write_csv"),
)

# Per-layer metrics of the traced run, with units, in report order.
PER_LAYER = (
    ("specfun.log_bessel_k.calls", "count"),
    ("specfun.log_bessel_k.elements", "count"),
    ("specfun.log_bessel_k.self_s", "s"),
    ("specfun.elements_kve", "count"),
    ("specfun.elements_uniform", "count"),
    ("specfun.elements_series", "count"),
    ("kernels.kernel_matrix.calls", "count"),
    ("kernels.kernel_matrix.self_s", "s"),
    ("kernels.matern_eval.calls", "count"),
    ("kernels.matern_eval.self_s", "s"),
    ("kernels.decomposition_builds", "count"),
    ("kernels.distinct_distance_ratio", "ratio"),
    ("designs.fill_distance.calls", "count"),
    ("designs.fill_distance.self_s", "s"),
    ("designs.fill_distance.probe_pairs", "count"),
    ("designs.Design.constructions", "count"),
    ("designs.Design.init_s", "s"),
    ("gp.condition.calls", "count"),
    ("gp.condition.failed", "count"),
    ("gp.condition.self_s", "s"),
    ("gp.condition.failed_self_s", "s"),
    ("gp.condition.n3_per_s", "n3/s"),
    ("gp.loo.calls", "count"),
    ("gp.loo.self_s", "s"),
    ("gp.loo.n3_per_s", "n3/s"),
    ("objectives.self_s", "s"),
    ("estimators.estimates", "count"),
    ("estimators.evals_per_estimate", "count"),
    ("estimators.conditions_per_estimate", "count"),
    ("estimators.failed_cell_share", "ratio"),
    ("estimators.self_s", "s"),
    ("analysis.sample_gp_path.calls", "count"),
    ("analysis.sample_gp_path.self_s", "s"),
    ("experiments.self_s", "s"),
    ("cli.write_csv.self_s", "s"),
    ("cli.write_csv.bytes", "B"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
)

# Order above which maternsmooth.specfun falls back to the uniform
# large-order expansion where ``kve`` overflows (the series otherwise).
UNIFORM_ORDER_MIN = 50.0


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _bindings():
    """The bindings of ``WRAPPED`` the package has, as (owner, attribute,
    original, span name), and the names of those it lacks."""
    found, missing = [], []
    for module_name, attr, span in WRAPPED:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None) if owner is not None else None
        if original is None:
            missing.append(f"{module_name}.{attr}")
        else:
            found.append((owner, leaf, original, span))
    return found, missing


class Checkpoints:
    """Clock readings at the entry and exit of every ``WRAPPED`` call.

    The timed runs install these instead of a :class:`Tracer`: a reading
    costs one list append, and the readings split a run into segments that
    recur, in the same order, in every run on the same inputs.
    """

    def __init__(self):
        self.marks = []
        self.missing = []

    def install(self):
        found, self.missing = _bindings()
        for owner, leaf, original, _ in found:
            setattr(owner, leaf, self._marking(original))

    def _marking(self, fn):
        mark = self.marks.append
        clock = time.perf_counter

        @functools.wraps(fn)
        def marked(*args, **kwargs):
            mark(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                mark(clock())

        return marked


class Tracer:
    """Records spans of wrapped maternsmooth calls, one thread only."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.failed = set()
        self.notes = {}  # span index -> small record for the analysis
        self.missing = []  # wrapped bindings the package no longer has
        self._stack = [-1]
        self._patches = []
        self._seen_designs = weakref.WeakSet()

    # -- recording -------------------------------------------------------

    def wrap(self, name, fn, note=None):
        """``fn`` wrapped to record a span; ``note(args, kwargs, out)`` runs
        after the span has closed and its result is kept for the analysis."""
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, notes, failed = self._stack, self.notes, self.failed
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                ends[i] = clock()
                stack.pop()
                failed.add(i)
                raise
            ends[i] = clock()
            stack.pop()
            if note is not None:
                notes[i] = note(args, kwargs, out)
            return out

        return traced

    def _note_for(self, span):
        if span == "specfun.log_bessel_k":
            return lambda a, k, out: (float(_arg(a, k, 0, "nu")), _arg(a, k, 1, "x"))
        if span == "kernels.kernel_matrix":
            return self._note_kernel_matrix
        if span == "designs.fill_distance":
            return lambda a, k, out: (_arg(a, k, 0, "design").n, _arg(a, k, 0, "design").d,
                                      a[1] if len(a) > 1 else k.get("probe_resolution"))
        if span == "gp.condition":
            return lambda a, k, out: _arg(a, k, 1, "design").n
        if span == "gp.loo":
            return lambda a, k, out: _arg(a, k, 0, "post").n
        if span == "estimators.bracketed_minimize":
            return lambda a, k, out: out.evaluations
        if span == "cli.write_csv":
            return lambda a, k, out: os.path.getsize(_arg(a, k, 0, "path"))
        return None

    def _note_kernel_matrix(self, args, kwargs, out):
        """Points of a design on its first kernel matrix: a decomposition build."""
        design = _arg(args, kwargs, 1, "design")
        if not hasattr(design, "points"):
            return design  # a bare point array is decomposed on every call
        if design.n == 0 or design in self._seen_designs:
            return None
        self._seen_designs.add(design)
        return design.points

    def install(self):
        found, self.missing = _bindings()
        for owner, leaf, original, span in found:
            setattr(owner, leaf, self.wrap(span, original, self._note_for(span)))
            self._patches.append((owner, leaf, original))

    def uninstall(self):
        for owner, leaf, original in reversed(self._patches):
            setattr(owner, leaf, original)
        self._patches.clear()

    def write(self, path):
        """Write every span as columns: name, start, end, parent, failed."""
        table = sorted(set(self.names))
        index = {name: i for i, name in enumerate(table)}
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as fh:
            json.dump({
                "names": table,
                "name": [index[n] for n in self.names],
                "start": [round(t - t0, 9) for t in self.starts],
                "end": [round(t - t0, 9) for t in self.ends],
                "parent": self.parents,
                "failed": sorted(self.failed),
            }, fh, separators=(",", ":"))


# -- analysis, after the timed run ---------------------------------------

def _bessel_paths(records):
    """Elements per path of ``log_bessel_k``: ``kve``, uniform expansion, series."""
    import numpy as np
    from scipy import special

    kve = uniform = series = 0
    for nu, x in records:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            ok = int(np.count_nonzero(np.isfinite(np.log(special.kve(nu, x)) - x)))
        kve += ok
        if nu >= UNIFORM_ORDER_MIN:
            uniform += x.size - ok
        else:
            series += x.size - ok
    return kve, uniform, series


def _distinct_distances(points):
    """Distinct pairwise distances and off-diagonal pairs of a point set,
    with distances computed as ``kernels.pairwise_distances`` does."""
    import numpy as np

    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    n = pts.shape[0]
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=-1))[np.triu_indices(n, k=1)]
    return int(np.unique(dist).size), n * (n - 1) // 2


def layer_metrics(tracer, run_s):
    """Per-layer metrics from the recorded spans; ``trace.overhead`` needs an
    untraced run and is left to the caller."""
    import numpy as np

    name = np.array(tracer.names, dtype=object)
    start = np.asarray(tracer.starts, dtype=float)
    dur = np.asarray(tracer.ends, dtype=float) - start
    parent = np.asarray(tracer.parents, dtype=int)
    failed = np.zeros(name.size, dtype=bool)
    failed[list(tracer.failed)] = True
    nested = parent >= 0
    children = np.zeros(name.size)
    np.add.at(children, parent[nested], dur[nested])
    self_s = dur - children

    # Spans under an estimate (a bracketed_minimize call), at any depth.
    under_list = [False] * name.size
    for i, p in enumerate(tracer.parents):
        if p >= 0:
            under_list[i] = under_list[p] or tracer.names[p] == "estimators.bracketed_minimize"
    under = np.array(under_list, dtype=bool)

    def is_(span):
        return name == span

    def notes(span, mask=None):
        idx = np.nonzero(is_(span) if mask is None else is_(span) & mask)[0]
        return [tracer.notes[i] for i in idx if tracer.notes.get(i) is not None]

    def ratio(a, b):
        return float(a) / float(b) if b else 0.0

    m = {}
    bessel = is_("specfun.log_bessel_k")
    records = notes("specfun.log_bessel_k", ~failed)
    m["specfun.log_bessel_k.calls"] = int(bessel.sum())
    m["specfun.log_bessel_k.elements"] = int(sum(np.size(x) for _, x in records))
    m["specfun.log_bessel_k.self_s"] = float(self_s[bessel].sum())
    (m["specfun.elements_kve"], m["specfun.elements_uniform"],
     m["specfun.elements_series"]) = _bessel_paths(records)

    for span in ("kernels.kernel_matrix", "kernels.matern_eval"):
        m[f"{span}.calls"] = int(is_(span).sum())
        m[f"{span}.self_s"] = float(self_s[is_(span)].sum())
    builds = [_distinct_distances(p) for p in notes("kernels.kernel_matrix")]
    m["kernels.decomposition_builds"] = len(builds)
    m["kernels.distinct_distance_ratio"] = ratio(sum(b[0] for b in builds),
                                                 sum(b[1] for b in builds))

    fill = is_("designs.fill_distance")
    m["designs.fill_distance.calls"] = int(fill.sum())
    m["designs.fill_distance.self_s"] = float(self_s[fill].sum())
    # Probe grid per call: the argument, else the package default
    # (4097 probes in 1-d, 129 per axis in 2-d).
    m["designs.fill_distance.probe_pairs"] = int(sum(
        (res or (4097 if d == 1 else 129)) ** d * n
        for n, d, res in notes("designs.fill_distance")))
    m["designs.Design.constructions"] = int(is_("designs.Design").sum())
    m["designs.Design.init_s"] = float(self_s[is_("designs.Design")].sum())

    cond = is_("gp.condition")
    ok_cond = cond & ~failed
    m["gp.condition.calls"] = int(cond.sum())
    m["gp.condition.failed"] = int((cond & failed).sum())
    m["gp.condition.self_s"] = float(self_s[cond].sum())
    m["gp.condition.failed_self_s"] = float(self_s[cond & failed].sum())
    m["gp.condition.n3_per_s"] = ratio(sum(n**3 for n in notes("gp.condition", ~failed)),
                                       self_s[ok_cond].sum())
    loo = is_("gp.loo")
    m["gp.loo.calls"] = int(loo.sum())
    m["gp.loo.self_s"] = float(self_s[loo].sum())
    m["gp.loo.n3_per_s"] = ratio(sum(n**3 for n in notes("gp.loo")), self_s[loo].sum())

    objectives = is_("objectives.ell_ml_from") | is_("objectives.ell_cv_from")
    m["objectives.self_s"] = float(self_s[objectives].sum())

    estimates = int(is_("estimators.bracketed_minimize").sum())
    cells = cond & under
    m["estimators.estimates"] = estimates
    m["estimators.evals_per_estimate"] = ratio(sum(notes("estimators.bracketed_minimize")),
                                               estimates)
    m["estimators.conditions_per_estimate"] = ratio(cells.sum(), estimates)
    m["estimators.failed_cell_share"] = ratio((cells & failed).sum(), cells.sum())
    layer = np.array([str(s).split(".", 1)[0] for s in name], dtype=object)
    m["estimators.self_s"] = float(self_s[layer == "estimators"].sum())

    path = is_("analysis.sample_gp_path")
    m["analysis.sample_gp_path.calls"] = int(path.sum())
    m["analysis.sample_gp_path.self_s"] = float(self_s[path].sum())
    m["experiments.self_s"] = float(self_s[layer == "experiments"].sum())
    m["cli.write_csv.self_s"] = float(self_s[is_("cli.write_csv")].sum())
    m["cli.write_csv.bytes"] = int(sum(notes("cli.write_csv")))
    m["trace.coverage"] = ratio(dur[~nested].sum(), run_s)
    return m
