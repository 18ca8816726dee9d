"""Speed of ``log_bessel_k`` on each of its paths, in nanoseconds per element.

    python tools/bessel_rates.py [--seconds S]

Prints the environment line of the benchmark (versions, BLAS libraries and
their threads, processors, CPU model), then one row per path of
``maternsmooth.specfun`` with the median time per element of one
``log_bessel_k`` call on ``2**17`` arguments, for arguments
that ascend and for the same arguments shuffled, on the calling thread (the
package starts no threads).  The paths:

* the trapezoidal rule, one row per argument bucket ``[2**k, 2**(k+1))``
  (the top one with 128), at orders 0.53 and 5.6;
* SciPy's ``kve`` below 1 and above 128, at the same orders;
* all of these at once, arguments from 0.001 to 500, as a kernel matrix
  passes them;
* SciPy's ``kve`` at an order above 16 (20.3), arguments from 0.1 to 128;
* the uniform large-order expansion (order 150, arguments within a factor
  ``e**0.5`` below where ``kve`` overflows, so every element pays for the
  overflowing ``kve`` call too).

Each row's arguments are drawn log-uniformly in its range.  Shuffled
arguments that take more than one path are sorted inside ``specfun``
before each path evaluates its run, so on the "every path" rows the gap
between the two columns is that sort and the scatter back.
``--seconds`` is the time spent per cell (default 0.2).  Like the
benchmark, the script runs with one BLAS thread unless
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` or ``MKL_NUM_THREADS`` say
otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "benchmarks"))

import numpy as np  # noqa: E402
from scipy import optimize  # noqa: E402

from environment import environment  # noqa: E402
from maternsmooth import specfun  # noqa: E402

SIZE = 2**17
SMALL_ORDERS = (0.53, 5.6)


def _kve_overflow(nu):
    """The argument below which ``kve(nu, x)`` exceeds ``exp(709)``."""
    return optimize.brentq(lambda x: specfun.log_bessel_k(nu, x) + x - 709.0,
                           1e-8, 10.0 * nu)


def _paths():
    """``(name, order, lowest argument, highest argument)`` of each row."""
    rows = []
    for nu in SMALL_ORDERS:
        for k in range(specfun._QUAD_BUCKETS):
            if k + 1 < specfun._QUAD_BUCKETS:
                rows.append((f"rule [{2**k}, {2**(k + 1)})", nu, 2.0**k,
                             math.nextafter(2.0 ** (k + 1), 0.0)))
            else:
                rows.append((f"rule [{2**k}, 128]", nu, 2.0**k, 128.0))
        rows.append(("kve below 1", nu, 1e-3, math.nextafter(1.0, 0.0)))
        rows.append(("kve above 128", nu, math.nextafter(128.0, math.inf), 500.0))
        rows.append(("every path", nu, 1e-3, 500.0))
    rows.append(("kve, order above 16", 20.3, 0.1, 128.0))
    edge = _kve_overflow(150.0)
    rows.append(("uniform expansion", 150.0, edge * math.exp(-0.5), edge * math.exp(-1e-3)))
    return rows


def _median_ns(nu, x, seconds):
    """Median time per element of ``log_bessel_k(nu, x)`` in nanoseconds,
    over at least five calls and about ``seconds``."""
    times, spent = [], 0.0
    specfun.log_bessel_k(nu, x)  # node tables and weights
    while len(times) < 5 or spent < seconds:
        t0 = time.perf_counter()
        specfun.log_bessel_k(nu, x)
        times.append(time.perf_counter() - t0)
        spent += times[-1]
    return 1e9 * float(np.median(times)) / x.size


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=0.2,
                        help="time spent per cell (default 0.2)")
    args = parser.parse_args(argv)

    print("# environment " + json.dumps(environment()))
    print(f"# ns per element, {SIZE} arguments per call")
    print(f"{'path':>22}{'order':>8}{'ascending':>14}{'shuffled':>14}")
    rng = np.random.default_rng(0)
    for name, nu, lo, hi in _paths():
        x = np.sort(np.exp(rng.uniform(math.log(lo), math.log(hi), SIZE)))
        shuffled = rng.permutation(x)
        cells = [_median_ns(nu, values, args.seconds) for values in (x, shuffled)]
        print(f"{name:>22}{nu:>8g}" + "".join(f"{c:>14.1f}" for c in cells), flush=True)


if __name__ == "__main__":
    main()
