"""Regenerate the arbitrary-precision oracle tables used by the test suite.

Run from the repository root:

    python tests/assets/generate_oracle_tables.py

Values are computed with mpmath at 40 significant digits and stored as
decimal strings, so the tables are exact well beyond double precision.
The test suite never imports mpmath; it reads the frozen JSON only.
"""

import json
import pathlib

import mpmath as mp
import numpy as np

mp.mp.dps = 40

HERE = pathlib.Path(__file__).parent

LOG_K_ORDERS = [0.0, 0.3, 0.5, 1.0, 1.5, 2.0, 2.7, 3.0, 5.5, 7.5, 10.0, 15.25,
                20.0, 35.0, 50.0]
LOG_K_ARGS = [1e-6, 1e-4, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0]

LARGE_ORDERS = [60.0, 75.0, 100.0, 150.0, 200.0, 350.0, 500.0]
LARGE_ARGS = [0.01, 0.5, 1.0, 5.0, 20.0, 50.0, 100.0]

NEAR_INTEGER_ORDERS = [0.9999999, 1.0000001, 2.9999999, 3.0000001, 43.9999999,
                       44.0000001]
NEAR_INTEGER_ARGS = [1e-6, 1e-3, 0.1, 1.0, 10.0]

# Where the trapezoidal rule evaluates K_nu (orders up to 16, arguments
# 1 to 128): a geometric grid, plus every bucket edge 2**k and the floats
# next to it inside [1, 128].  Past 1 and 128 SciPy's kve serves, whose own
# error is up to 2e-14 just below x = 1.
QUADRATURE_ORDERS = np.geomspace(0.05, 16.0, 24).tolist()
QUADRATURE_EDGES = [2.0**k for k in range(8)]
QUADRATURE_ARGS = sorted(
    {float(x) for x in np.geomspace(1.0, 128.0, 24)}
    | {float(x) for e in QUADRATURE_EDGES
       for x in (np.nextafter(e, 0.0), e, np.nextafter(e, np.inf)) if 1.0 <= x <= 128.0})

# Small orders past SciPy's kve (which fails below about x = 1e-305), where
# the second branch of K_nu's series cancels part of the first.
SMALL_ORDERS = sorted({float(nu) for nu in np.geomspace(1e-300, 0.05, 16)}
                      | {1e-12, 1e-4, 0.01, 0.025})
SMALL_ORDER_ARGS = [5e-324, 1e-320, 1e-310, 1e-308, 1e-306, 2.2e-305]

LGAMMA_ARGS = [1e-3, 0.01, 0.1, 0.5, 1.0, 1.5, 2.0, 2.5, 7.5, 10.0, 100.0,
               1000.0, 1e4]


def fmt(value):
    return mp.nstr(value, 30)


def main():
    log_k = []
    for nu in LOG_K_ORDERS + NEAR_INTEGER_ORDERS:
        args = LOG_K_ARGS if nu in LOG_K_ORDERS else NEAR_INTEGER_ARGS
        for x in args:
            log_k.append([nu, x, fmt(mp.log(mp.besselk(nu, mp.mpf(x))))])
    for nu in LARGE_ORDERS:
        for x in LARGE_ARGS:
            log_k.append([nu, x, fmt(mp.log(mp.besselk(nu, mp.mpf(x))))])

    small_order = [[nu, x, fmt(mp.log(mp.besselk(nu, mp.mpf(x))))]
                   for nu in SMALL_ORDERS for x in SMALL_ORDER_ARGS]

    lgamma = [[x, fmt(mp.log(mp.gamma(mp.mpf(x))))] for x in LGAMMA_ARGS]

    quadrature = [[nu, x, fmt(mp.besselk(nu, mp.mpf(x)))]
                  for nu in QUADRATURE_ORDERS for x in QUADRATURE_ARGS]

    table = {
        "_provenance": "mpmath 1.3, mp.dps=40; see generate_oracle_tables.py",
        "log_bessel_k": log_k,
        "log_bessel_k_small_order": small_order,
        "log_gamma": lgamma,
        "bessel_k_quadrature": quadrature,
    }
    out = HERE / "specfun_oracle.json"
    out.write_text(json.dumps(table, indent=1))
    print(f"wrote {out} ({len(log_k)} log Bessel entries, {len(small_order)} at small "
          f"orders, {len(lgamma)} log-gamma "
          f"entries, {len(quadrature)} Bessel entries of the trapezoidal rule)")


if __name__ == "__main__":
    main()
