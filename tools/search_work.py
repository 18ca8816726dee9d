"""Factorizations and inverses of the CLI's configurations that search nu.

    python tools/search_work.py [NAME ...]

Runs each configuration of ``tools/cli_digests.py`` whose command searches
the smoothness (``non-undersmoothing`` and ``logdet-growth``), or only
those named, in this process through ``maternsmooth.cli.main``, and counts
the calls of ``gp._factor`` and ``gp._invert`` that each run makes.  Prints
one line per configuration: its ``gp._factor`` calls by the size of the
design factored, largest first; its ``gp._invert`` calls; and its work,
the sum over both kinds of call of ``(m / 512)**3`` for ``m`` rows, so
that one factorization or inverse of 512 points counts 1.  A failed
factorization counts the rows it factored, those before its failing
pivot.  The last line is the total work.
The exit code is 1 when a configuration exits other than 0 or a name is
not a searching configuration.

It imports the package from the ``src`` directory of the checkout it lives
in, so a copy of this file in an earlier checkout's ``tools`` counts that
commit's work.  The counts depend on the inputs alone, not on the machine,
except where a factorization's success does.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The commands whose runners search the smoothness (``sweep_prefixes``).
SEARCHING = ("non-undersmoothing", "logdet-growth")


def work(sizes):
    """The work of calls on ``sizes`` rows, one 512-row call counting 1."""
    return sum((m / 512.0) ** 3 for m in sizes)


def count(argv, lines):
    """``(exit code, factored sizes, factored rows, inverted sizes)`` of
    one CLI run, the rows of a failed factorization its failing pivot's
    index."""
    from maternsmooth import cli, gp

    factored, rows, inverted = [], [], []
    factor, invert = gp._factor, gp._invert

    def factoring(kernel, design, buffer=None):
        chol, err = factor(kernel, design, buffer)
        factored.append(design.n)
        rows.append(design.n if err is None else err.pivot_index)
        return chol, err

    def inverting(chol, m, buffer=None):
        inverted.append(m)
        return invert(chol, m, buffer)

    gp._factor, gp._invert = factoring, inverting
    try:
        with tempfile.TemporaryDirectory() as work_dir:
            argv = list(argv) + ["--out", os.path.join(work_dir, "out.csv")]
            if lines is not None:
                config = os.path.join(work_dir, "config.txt")
                with open(config, "w") as fh:
                    fh.write("\n".join(lines) + "\n")
                argv += ["--config", config]
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(argv)
    finally:
        gp._factor, gp._invert = factor, invert
    return code, factored, rows, inverted


def main(argv=None):
    sys.path[:0] = [os.path.dirname(os.path.abspath(__file__)), os.path.join(ROOT, "src")]
    from cli_digests import CONFIGURATIONS

    names = sys.argv[1:] if argv is None else list(argv)
    searching = [c for c in CONFIGURATIONS if c[1][0] in SEARCHING]
    unknown = sorted(set(names) - {name for name, *_ in searching})
    for name in unknown:
        print(f"{name} is not a configuration that searches nu")
    failed, total = bool(unknown), 0.0
    for name, cli_argv, lines in searching:
        if names and name not in names:
            continue
        code, factored, rows, inverted = count(cli_argv, lines)
        by_size = {m: factored.count(m) for m in sorted(set(factored), reverse=True)}
        done = work(rows) + work(inverted)
        total += done
        print(f"{name:26s} factor {by_size}  invert {len(inverted)}  work {done:,.2f}",
              flush=True)
        if code != 0:
            print(f"configuration {name} exited {code}")
            failed = True
    print(f"total work {total:,.2f}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
