"""SHA-256 digests of the CLI's outputs over twenty-five fixed configurations.

    python tools/cli_digests.py [--keep DIR] [--against DIR]

Runs each configuration below as ``python -m maternsmooth.cli`` on the
sources of the checkout this file lives in, each in its own temporary
directory, and prints one line per configuration: its name, exit code and
the digests of the CSV it wrote and of the summary it printed (stdout and
stderr).  Run it at two commits and diff the output to see whether a
change leaves every output byte-identical.  Digests depend on the BLAS
build and the platform, so compare runs on one machine only.  Under each
digest line, an indented line gives the child's wall time and peak
resident memory (``ru_maxrss`` from ``os.wait4``); these vary from run to
run, so leave them out of a diff (``grep -v '^    wall'``).

``--keep DIR`` keeps the CSVs and summaries there, to see what differs.
``--against DIR`` compares each CSV and summary with the ones an earlier
``--keep DIR`` run saved: under its digest line, a configuration prints,
per column that changed, the number of rows that differ and the largest
relative (``|new - old| / |old|``) and absolute (``|new - old|``) change
of its numeric cells, or ``identical``, and then whether its summary
differs.  For ``notes``, whose cells are ``;``-separated entries, it names
the keys of the entries that changed instead, as in ``notes: 60 of 60
rows differ (ml_failures, cv_failures)``: the key of ``key=value`` is the
text before its first ``=``, and a bare entry is its own key.  After the
configurations, each name that has a CSV or summary saved in ``DIR`` and
that no configuration holds any more prints one ``removed`` line.  The
exit code is then 1 when any CSV or summary differs from the saved one,
none was saved, or a saved configuration was removed, so one command
checks that a change leaves every output byte-identical.  When a change
adds or removes columns, the columns both CSVs share are compared by
name, and the others are listed as added or removed.  A change of the
refinement is accepted on the absolute change of the ``nu_hat_*``
columns: each estimate may move by at most 1e-3, whatever its size.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FORTY_SEEDS = ",".join(str(seed) for seed in range(1, 41))

# (name, CLI arguments, configuration file lines or None).
CONFIGURATIONS = (
    # --threads is accepted and ignored: each *-threads-2 configuration has
    # the digests of its run with --threads 1 or without the flag
    # (c07-check-threads-1, convergence).
    ("c07-check-threads-1", ["non-undersmoothing", "--nu0", "1.5", "--threads", "1",
                             "--check"], None),
    ("c07-threads-2", ["non-undersmoothing", "--nu0", "1.5", "--threads", "2"], None),
    ("f0-gauss-bump", ["non-undersmoothing", "--f0", "gauss_bump"], None),
    ("sweep-2d-uniform-grid", ["non-undersmoothing", "--nu0", "1.5", "--d", "2",
                               "--design", "uniform_grid", "--seed-list", "101,102,103"],
     None),
    # Without --design, a 2-d run takes the uniform grid: the digests of
    # sweep-2d-uniform-grid.
    ("sweep-2d-default-design", ["non-undersmoothing", "--nu0", "1.5", "--d", "2",
                                 "--seed-list", "101,102,103"], None),
    # The 2-d check to n = 2048: fill distances of a doubling schedule on a
    # coarse-to-fine grid, whose cell-centre probes tie between four points.
    ("sweep-2d-2048", ["non-undersmoothing", "--nu0", "1.5", "--d", "2",
                       "--design", "uniform_grid", "--seed-list", "101,102,103",
                       "--schedule", "64,128,256,512,1024,2048"], None),
    ("logdet-growth-ml", ["logdet-growth"], None),
    ("profile-sigma", ["non-undersmoothing", "--nu0", "1.5", "--seed-list", "101,102,103"],
     ["profile_sigma = true"]),
    ("variance-decay-d1", ["variance-decay"], None),
    ("variance-decay-d2", ["variance-decay", "--d", "2"], None),
    ("convergence", ["convergence"], None),
    ("convergence-threads-2", ["convergence", "--threads", "2"], None),
    ("verify-identities", ["verify-identities"], None),
    # Non-default magnitude and length-scale, from flags and from a file.
    ("sigma-lambda-sweep", ["non-undersmoothing", "--nu0", "1.5", "--sigma", "1.3",
                            "--lambda", "0.7", "--seed-list", "101,102",
                            "--schedule", "16,32,64"], None),
    ("sigma-lambda-file-decay", ["variance-decay", "--schedule", "16,32,64,128"],
     ["lambda = 0.7", "sigma = 1.3"]),
    ("sigma-lambda-logdet", ["logdet-growth", "--sigma", "1.3", "--lambda", "0.7",
                             "--schedule", "16,32,64"], None),
    ("sigma-lambda-convergence", ["convergence", "--sigma", "1.3", "--lambda", "0.7",
                                  "--seed-list", "1,2", "--schedule", "32,64,128"], None),
    # Smooth data on a bracket up to nu = 300: saturated searches, large-order
    # Bessel evaluation, irregular failures above the run, non-unimodal CV.
    ("saturation-nu-max-300", ["non-undersmoothing", "--f0", "gauss_bump"],
     ["nu_max = 300", "lambda = 0.05"]),
    # Prefixes that are not row-panel ends (16, 32, 64, ...): their kernel
    # panels pick their distances out of the panels that cover them.
    ("odd-schedule", ["non-undersmoothing", "--nu0", "1.5", "--schedule", "24,40,100,300",
                      "--seed-list", "101,102"], None),
    # Two sizes far apart, run largest first: two lattice cells that the
    # 512-point searches read fail within the first 16 points, and the
    # 16-point prefix records that failure from the one factorization.  The
    # cells that only the 16-point searches read are factored on 16 points,
    # and two of them fail there.
    ("two-sizes-16-512", ["non-undersmoothing", "--nu0", "1.5", "--schedule", "16,512",
                          "--seed-list", "101,102"], None),
    # Forty seeds at a rough and at a smooth nu0: 480 records, so that a
    # change of the search plan is checked on many objective surfaces.
    ("wide-seeds-nu0-0.5", ["non-undersmoothing", "--nu0", "0.5", "--seed-list", FORTY_SEEDS,
                            "--threads", "1"], None),
    ("wide-seeds-nu0-2.5", ["non-undersmoothing", "--nu0", "2.5", "--seed-list", FORTY_SEEDS,
                            "--threads", "1"], None),
    # Smoothnesses whose factorizations fail on the pivot floor, so that the
    # per-prefix runners write their conditioning notes: nu = 6 fails at
    # pivot 22 of 512, and every nu_model = 8 prefix fails.
    ("variance-decay-failures", ["variance-decay", "--nu-grid", "0.5,6",
                                 "--schedule", "16,64,256,512"], None),
    ("logdet-growth-failures", ["logdet-growth", "--nu-grid", "6", "--schedule", "16,64,256"],
     None),
    ("convergence-failures", ["convergence", "--nu-model", "8,1.5", "--seed-list", "1,2",
                              "--schedule", "16,64,256"], None),
)


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def run(name, argv, lines, keep):
    """Run one configuration; returns its exit code, its CSV, its summary,
    and its wall time (s) and peak resident memory (MB)."""
    with tempfile.TemporaryDirectory() as work:
        argv = list(argv) + ["--out", "out.csv"]
        if lines is not None:
            with open(os.path.join(work, "config.txt"), "w") as fh:
                fh.write("\n".join(lines) + "\n")
            argv += ["--config", "config.txt"]
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        # Output goes to files, not pipes, so that nothing needs reading while
        # the child runs and wait4 can reap it and report its resource usage.
        out_path, err_path = Path(work, "stdout"), Path(work, "stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "maternsmooth.cli", *argv],
                                    cwd=work, env=env, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        summary = out_path.read_bytes() + err_path.read_bytes()
        csv_path = Path(work, "out.csv")
        table = csv_path.read_bytes() if csv_path.exists() else b""
        if keep:
            if table:
                shutil.copy(csv_path, Path(keep, f"{name}.csv"))
            Path(keep, f"{name}.summary").write_bytes(summary)
    # ru_maxrss is in kilobytes on Linux.
    return code, table, summary, wall, usage.ru_maxrss / 1024.0


def _changes(old, new):
    """``(|new - old| / |old|, |new - old|)`` of two numeric cells, None if
    either is not a number."""
    try:
        a, b = float(old), float(new)
    except ValueError:
        return None
    if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
        return math.inf, math.inf
    return (abs(b - a) / abs(a) if a else math.inf), abs(b - a)


def _moved_notes(pairs):
    """The keys of the ``notes`` entries that differ between the old and the
    new cell of any pair, in order of first appearance."""
    moved = {}
    for pair in pairs:
        old, new = (dict((entry.split("=", 1) + [""])[:2] for entry in cell.split(";") if entry)
                    for cell in pair)
        for key in {**old, **new}:
            if old.get(key) != new.get(key):
                moved[key] = None
    return list(moved)


def column_changes(old, new):
    """Lines describing how the CSV text ``new`` differs from ``old``, column
    by column; ``["identical"]`` when it does not."""
    old_rows = list(csv.reader(old.decode().splitlines()))
    new_rows = list(csv.reader(new.decode().splitlines()))
    if not old_rows or not new_rows:
        return ["no CSV on one side"]
    if len(old_rows) != len(new_rows):
        return [f"{len(old_rows) - 1} rows before, {len(new_rows) - 1} now"]
    lines = [f"{column}: {change}" for columns, others, change in
             ((new_rows[0], old_rows[0], "added"), (old_rows[0], new_rows[0], "removed"))
             for column in columns if column not in others]
    for j, column in enumerate(old_rows[0]):
        if column not in new_rows[0]:
            continue
        k = new_rows[0].index(column)
        pairs = [(a[j], b[k]) for a, b in zip(old_rows[1:], new_rows[1:]) if a[j] != b[k]]
        if pairs and column == "notes":
            lines.append(f"{column}: {len(pairs)} of {len(old_rows) - 1} rows differ "
                         f"({', '.join(_moved_notes(pairs))})")
        elif pairs:
            numeric = [c for c in (_changes(a, b) for a, b in pairs) if c is not None]
            largest = (f"largest relative change {max(r for r, _ in numeric):.2e}, "
                       f"absolute {max(d for _, d in numeric):.2e}") if numeric else "text"
            lines.append(f"{column}: {len(pairs)} of {len(old_rows) - 1} rows differ, "
                         f"{largest}")
    return lines or ["identical"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--keep", default=None, help="directory for the outputs")
    parser.add_argument("--against", default=None,
                        help="directory of an earlier --keep run to compare the CSVs and "
                             "summaries with; exit 1 if any differs")
    args = parser.parse_args(argv)
    if args.keep:
        os.makedirs(args.keep, exist_ok=True)
    differs = False
    for name, cli_args, lines in CONFIGURATIONS:
        code, table, summary, wall, peak = run(name, cli_args, lines, args.keep)
        print(f"{name:34s} exit {code}  csv {_sha256(table)}  summary {_sha256(summary)}",
              flush=True)
        print(f"    wall {wall:.2f} s  peak RSS {peak:.1f} MB", flush=True)
        if args.against:
            saved = Path(args.against, f"{name}.csv")
            old = saved.read_bytes() if saved.exists() else b""
            for line in column_changes(old, table):
                print(f"    {line}", flush=True)
            saved_summary = Path(args.against, f"{name}.summary")
            old_summary = saved_summary.read_bytes() if saved_summary.exists() else None
            if old_summary is None:
                print("    no saved summary", flush=True)
            elif old_summary != summary:
                print("    summary differs", flush=True)
            differs |= not saved.exists() or old != table or old_summary != summary
    if args.against:
        saved = {path.stem for pattern in ("*.csv", "*.summary")
                 for path in Path(args.against).glob(pattern)}
        for name in sorted(saved - {name for name, _, _ in CONFIGURATIONS}):
            print(f"{name:34s} removed", flush=True)
            differs = True
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
