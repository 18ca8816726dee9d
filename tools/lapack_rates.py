"""Speed of the LAPACK and BLAS calls that factor and invert a kernel matrix.

    python tools/lapack_rates.py [--seconds S]

Prints the environment line of the benchmark (versions, BLAS libraries and
their threads, processors, CPU model), then one row per block size from 16
to 512 rows with the median time in microseconds and the rate in GFMA/s
(10^9 fused multiply-adds per second) of

* ``dpotrf`` (Cholesky factor, n^3/6 FMA) and ``dtrtri`` (triangular
  inverse, n^3/6), one LAPACK call each;
* ``dtrmm`` (lower triangular times square, n^3/2), the level-3 rate that
  sub-panels bring the diagonal blocks towards;
* ``gp._factor_block`` and ``gp._invert_rows``, which factor and invert
  the diagonal block of a row panel in ``maternsmooth.gp`` (the latter
  given the block as its one row block), with sub-panels of 32, 64 and
  128 rows (``gp._SUB`` set for the measurement only).

``gp._SUB`` should be the sub-panel size with the lowest times from 128
rows up; rerun this on a new machine or BLAS to recheck it.  The inputs
are well-conditioned SPD matrices ``A A' / n + I``.  Like the benchmark,
the script runs with one BLAS thread unless ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` or ``MKL_NUM_THREADS`` say otherwise.  ``--seconds``
is the time spent per routine and size (default 0.2).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "benchmarks"))

import numpy as np  # noqa: E402
from scipy.linalg import blas, lapack  # noqa: E402

from environment import environment  # noqa: E402
from maternsmooth import gp  # noqa: E402

SIZES = (16, 32, 64, 128, 256, 512)
SUB_PANELS = (32, 64, 128)


def _median_us(call, fresh, seconds):
    """Median time of ``call(fresh())`` in microseconds; ``fresh`` runs
    outside the timed region, at least five times and for about ``seconds``."""
    times, spent = [], 0.0
    while len(times) < 5 or spent < seconds:
        arg = fresh()
        t0 = time.perf_counter()
        call(arg)
        times.append(time.perf_counter() - t0)
        spent += times[-1]
    return 1e6 * float(np.median(times))


def _with_sub(rows, fn):
    """``fn`` run with ``gp._SUB`` set to ``rows``."""
    def call(arg):
        saved, gp._SUB = gp._SUB, rows
        try:
            return fn(arg)
        finally:
            gp._SUB = saved
    return call


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=0.2,
                        help="time spent per routine and size (default 0.2)")
    args = parser.parse_args(argv)

    print("# environment " + json.dumps(environment()))
    columns = [("dpotrf", 1 / 6), ("dtrtri", 1 / 6), ("dtrmm", 1 / 2)]
    columns += [(f"factor/{s}", 1 / 6) for s in SUB_PANELS]
    columns += [(f"invert/{s}", 1 / 6) for s in SUB_PANELS]
    print(f"{'rows':>5}" + "".join(f"{name:>20}" for name, _ in columns))
    print(f"{'':>5}" + "".join(f"{'us  GFMA/s':>20}" for _ in columns))
    rng = np.random.default_rng(0)
    for n in SIZES:
        A = rng.standard_normal((n, n))
        K = np.asfortranarray(A @ A.T / n + np.eye(n))
        R = lapack.dpotrf(K, lower=1, clean=1)[0]
        B = np.asfortranarray(rng.standard_normal((n, n)))

        def copy(a):
            return lambda: a.copy(order="F")

        timed = [
            _median_us(lambda k: lapack.dpotrf(k, lower=1, clean=1, overwrite_a=1), copy(K),
                       args.seconds),
            _median_us(lambda r: lapack.dtrtri(r, lower=1, overwrite_c=1), copy(R),
                       args.seconds),
            _median_us(lambda b: blas.dtrmm(1.0, R, b, lower=1, overwrite_b=1), copy(B),
                       args.seconds),
        ]
        timed += [_median_us(_with_sub(s, lambda k: gp._factor_block(k, 0.0, 0)), copy(K),
                             args.seconds) for s in SUB_PANELS]
        timed += [_median_us(_with_sub(s, lambda r: gp._invert_rows(
                      r, np.zeros((n, n), order="F"), [n])), lambda: R, args.seconds)
                  for s in SUB_PANELS]
        cells = [f"{us:9.1f} {fma * n**3 / us / 1e3:6.2f}"
                 for us, (_, fma) in zip(timed, columns)]
        print(f"{n:>5}" + "".join(f"{cell:>20}" for cell in cells))


if __name__ == "__main__":
    main()
