"""SHA-256 digests of the CLI's outputs over seventeen fixed configurations.

    python tools/cli_digests.py [--keep DIR] [--against DIR]

Runs each configuration below as ``python -m maternsmooth.cli`` on the
sources of the checkout this file lives in, each in its own temporary
directory, and prints one line per configuration: its name, exit code and
the digests of the CSV it wrote and of the summary it printed (stdout and
stderr).  Run it at two commits and diff the output to see whether a
change leaves every output byte-identical.  Digests depend on the BLAS
build and the platform, so compare runs on one machine only.

``--keep DIR`` keeps the CSVs and summaries there, to see what differs.
``--against DIR`` compares each CSV with the one an earlier ``--keep DIR``
run saved: under its digest line, a configuration prints, per column that
changed, the number of rows that differ and the largest relative
(``|new - old| / |old|``) and absolute (``|new - old|``) change of its
numeric cells, or ``identical``.  A change of the refinement is accepted
on the absolute change of the ``nu_hat_*`` columns: each estimate may
move by at most ``refine_tol`` (1e-3 by default), whatever its size.
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
from pathlib import Path

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (name, CLI arguments, configuration file lines or None).
CONFIGURATIONS = (
    ("c07-check-threads-1", ["non-undersmoothing", "--nu0", "1.5", "--threads", "1",
                             "--check"], None),
    ("c07-threads-2", ["non-undersmoothing", "--nu0", "1.5", "--threads", "2"], None),
    ("f0-gauss-bump", ["non-undersmoothing", "--f0", "gauss_bump"], None),
    ("sweep-2d-uniform-grid", ["non-undersmoothing", "--nu0", "1.5", "--d", "2",
                               "--design", "uniform_grid", "--seed-list", "101,102,103"],
     None),
    ("logdet-growth-ml", ["logdet-growth"], None),
    ("profile-sigma", ["non-undersmoothing", "--nu0", "1.5", "--seed-list", "101,102,103"],
     ["profile_sigma = true"]),
    ("variance-decay-d1", ["variance-decay"], None),
    ("variance-decay-d2", ["variance-decay", "--d", "2"], None),
    ("convergence", ["convergence"], None),
    ("convergence-threads-2", ["convergence", "--threads", "2"], None),
    ("gaussian-scale-probe", ["gaussian-scale-probe"], None),
    ("verify-identities", ["verify-identities"], None),
    # Non-default magnitude and length-scale, from flags and from a file.
    ("sigma-lambda-sweep", ["non-undersmoothing", "--nu0", "1.5", "--sigma", "1.3",
                            "--lambda", "0.7", "--seed-list", "101,102",
                            "--schedule", "16,32,64"], None),
    ("sigma-lambda-file-decay", ["variance-decay", "--schedule", "16,32,64,128"],
     ["lambda = 0.7", "sigma = 1.3"]),
    ("sigma-gaussian-probe", ["gaussian-scale-probe", "--sigma", "2",
                              "--schedule", "8,16,32"], None),
    ("sigma-lambda-logdet", ["logdet-growth", "--sigma", "1.3", "--lambda", "0.7",
                             "--schedule", "16,32,64"], None),
    ("sigma-lambda-convergence", ["convergence", "--sigma", "1.3", "--lambda", "0.7",
                                  "--seed-list", "1,2", "--schedule", "32,64,128"], None),
)


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def run(name, argv, lines, keep):
    """Run one configuration; returns its exit code, its CSV and its summary."""
    with tempfile.TemporaryDirectory() as work:
        argv = list(argv) + ["--out", "out.csv"]
        if lines is not None:
            with open(os.path.join(work, "config.txt"), "w") as fh:
                fh.write("\n".join(lines) + "\n")
            argv += ["--config", "config.txt"]
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        proc = subprocess.run([sys.executable, "-m", "maternsmooth.cli", *argv], cwd=work,
                              env=env, capture_output=True)
        csv_path = Path(work, "out.csv")
        table = csv_path.read_bytes() if csv_path.exists() else b""
        if keep:
            if table:
                shutil.copy(csv_path, Path(keep, f"{name}.csv"))
            Path(keep, f"{name}.summary").write_bytes(proc.stdout + proc.stderr)
    return proc.returncode, table, proc.stdout + proc.stderr


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


def column_changes(old, new):
    """Lines describing how the CSV text ``new`` differs from ``old``, column
    by column; ``["identical"]`` when it does not."""
    old_rows = list(csv.reader(old.decode().splitlines()))
    new_rows = list(csv.reader(new.decode().splitlines()))
    if not old_rows or not new_rows or old_rows[0] != new_rows[0]:
        return ["header differs" if old_rows and new_rows else "no CSV on one side"]
    if len(old_rows) != len(new_rows):
        return [f"{len(old_rows) - 1} rows before, {len(new_rows) - 1} now"]
    lines = []
    for j, column in enumerate(old_rows[0]):
        pairs = [(a[j], b[j]) for a, b in zip(old_rows[1:], new_rows[1:]) if a[j] != b[j]]
        if pairs:
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
                        help="directory of an earlier --keep run to compare the CSVs with")
    args = parser.parse_args(argv)
    if args.keep:
        os.makedirs(args.keep, exist_ok=True)
    for name, cli_args, lines in CONFIGURATIONS:
        code, table, summary = run(name, cli_args, lines, args.keep)
        print(f"{name:24s} exit {code}  csv {_sha256(table)}  summary {_sha256(summary)}",
              flush=True)
        if args.against:
            saved = Path(args.against, f"{name}.csv")
            old = saved.read_bytes() if saved.exists() else b""
            for line in column_changes(old, table):
                print(f"    {line}", flush=True)


if __name__ == "__main__":
    main()
