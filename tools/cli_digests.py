"""SHA-256 digests of the CLI's outputs over twelve fixed configurations.

    python tools/cli_digests.py [--keep DIR]

Runs each configuration below as ``python -m maternsmooth.cli`` on the
sources of the checkout this file lives in, each in its own temporary
directory, and prints one line per configuration: its name, exit code and
the digests of the CSV it wrote and of the summary it printed (stdout and
stderr).  Run it at two commits and diff the output to see whether a
change leaves every output byte-identical.  Digests depend on the BLAS
build and the platform, so compare runs on one machine only.

``--keep DIR`` keeps the CSVs and summaries there, to see what differs.
"""

from __future__ import annotations

import argparse
import hashlib
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
)


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def run(name, argv, lines, keep):
    """Run one configuration; returns its exit code and the two digests."""
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
        csv = csv_path.read_bytes() if csv_path.exists() else b""
        if keep:
            if csv:
                shutil.copy(csv_path, Path(keep, f"{name}.csv"))
            Path(keep, f"{name}.summary").write_bytes(proc.stdout + proc.stderr)
    return proc.returncode, _sha256(csv), _sha256(proc.stdout + proc.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--keep", default=None, help="directory for the outputs")
    args = parser.parse_args(argv)
    if args.keep:
        os.makedirs(args.keep, exist_ok=True)
    for name, cli_args, lines in CONFIGURATIONS:
        code, csv, summary = run(name, cli_args, lines, args.keep)
        print(f"{name:24s} exit {code}  csv {csv}  summary {summary}", flush=True)


if __name__ == "__main__":
    main()
