"""The functions of ``src/maternsmooth`` that no CLI configuration runs.

    python tools/unreached.py

Starts a profiler (``sys.setprofile``) before the package is imported, runs
every configuration of ``tools/cli_digests.py`` in this process through
``maternsmooth.cli.main``, and prints each function defined in the
package's sources (methods and nested functions included) that none of
them called and that ``KEEP`` does not name.  ``KEEP`` maps each function
kept without a command that runs it to its reason; an entry that some
configuration runs, or that names no function of the sources, is printed
too, as stale.  The exit code is 1 when anything is printed, a
configuration exiting other than 0 among it.

It imports the package from the ``src`` directory of the checkout it lives
in, and only the standard library besides; run on the sources of an
earlier commit (a copy of this file in that checkout's ``tools``), it
lists what that commit kept that no command runs.  The 25 configurations
take about 17 s on one core of a 2-core Intel Xeon.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "maternsmooth")

# Functions that no command runs, kept for the reason given: the oracle of
# a named check, an open ROADMAP item, a binding of the benchmark's tracer
# (benchmarks/tracing.py), a Python protocol method, or a catalog entry.
_NORM = "oracle of C05 and C09 (test_acceptance.py) and of test_analysis.py's norm checks"
KEEP = {
    "analysis.matern_rkhs_norm_sq": _NORM,
    "analysis.gaussian_rkhs_norm_sq": _NORM,
    "analysis.sobolev_norm_sq": _NORM,
    "analysis._spectral_integral": _NORM,
    "analysis._panel_rule": _NORM,
    "analysis._check_rule": _NORM,
    "analysis._require_fourier": _NORM,
    "analysis._log_integrand": _NORM,
    "analysis._log_integrand.<locals>.log_integrand": _NORM,
    "analysis._check_tail": "ROADMAP item 2 (the tail check of the paper's own setting)",
    "analysis._log_matern_weight": "ROADMAP items 10 and 14 (the spectral weight of a "
                                   "certified conditioning ceiling)",
    "analysis.fourier_reconstruction": "oracle of test_analysis.py's catalog inverse-transform "
                                       "check",
    "analysis.builtin_test_functions.<locals>.cauchy_eval": "catalog entry cauchy_like",
    "analysis.builtin_test_functions.<locals>.cauchy_fourier": "catalog entry cauchy_like",
    "analysis.builtin_test_functions.<locals>.gauss_fourier": "catalog entry gauss_bump",
    "errors.AccuracyError.__init__": "raised by the norm layer's tail check and the Bessel "
                                     "series (test_analysis.py, test_specfun.py)",
    "designs.fill_distance": "benchmark tracer binding (estimators.fill_distance), until "
                             "ROADMAP item 1",
    "designs._separations": "ROADMAP items 10 and 14 (the separation of a prefix)",
    "designs.Design.__len__": "Python protocol method",
    "designs.Design.__repr__": "Python protocol method",
    "estimators.estimate_nu": "README's one-vector API, and the oracle of test_estimators.py's "
                              "prefix-alone check",
    "gp.posterior_mean": "oracle of C04 and C05 (test_acceptance.py)",
    "gp.posterior_var": "oracle of C04 and C05 (test_acceptance.py)",
    "specfun.bessel_k": "oracle of C01 (test_acceptance.py) and of the mpmath tables",
    "specfun._log_k_series": "checked against the mpmath tables (test_specfun.py); a design "
                             "denser than any command runs reaches it",
    "specfun._log_k_hankel": "log_bessel_k past SciPy's argument range, checked by "
                             "test_specfun.py's past_scipys_argument_range tests",
}


def functions():
    """``{(path, first line): qualified name}`` of every function defined in
    the package's sources, the first line being that of the function's code
    object (its first decorator's, if it has any)."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                found[path, first] = name
                visit(child, path, f"{name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for entry in sorted(os.listdir(PACKAGE)):
        if entry.endswith(".py"):
            path = os.path.join(PACKAGE, entry)
            with open(path) as fh:
                visit(ast.parse(fh.read()), path, f"{entry[:-3]}.")
    return found


def missing():
    """The ``KEEP`` entries that name no function of the sources."""
    return sorted(set(KEEP) - set(functions().values()))


def main():
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from cli_digests import CONFIGURATIONS

    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            reached.add((code.co_filename, code.co_firstlineno))

    sys.path.insert(0, os.path.join(ROOT, "src"))
    printed = False
    sys.setprofile(profile)
    try:
        from maternsmooth import cli

        for name, argv, lines in CONFIGURATIONS:
            with tempfile.TemporaryDirectory() as work:
                argv = list(argv) + ["--out", os.path.join(work, "out.csv")]
                if lines is not None:
                    config = os.path.join(work, "config.txt")
                    with open(config, "w") as fh:
                        fh.write("\n".join(lines) + "\n")
                    argv += ["--config", config]
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = cli.main(argv)
            if code != 0:
                print(f"configuration {name} exited {code}")
                printed = True
    finally:
        sys.setprofile(None)
    reached = {(os.path.realpath(path), line) for path, line in reached}
    for (path, line), name in sorted(functions().items(), key=lambda item: item[1]):
        ran = (os.path.realpath(path), line) in reached
        where = f"{name} ({os.path.relpath(path, ROOT)}:{line})"
        if not ran and name not in KEEP:
            print(where)
        elif ran and name in KEEP:
            print(f"{where} is in KEEP, but a configuration runs it")
        printed |= ran == (name in KEEP)
    for name in missing():
        print(f"{name} is in KEEP, but the sources define no such function")
        printed = True
    return 1 if printed else 0


if __name__ == "__main__":
    sys.exit(main())
