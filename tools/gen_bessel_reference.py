#!/usr/bin/env python3
"""Generate arbitrary-precision reference values for J0, Y0 and H0^(2).

Writes tests/data/bessel_reference.json with mpmath (dps=40) evaluations of
J0(x), Y0(x) and the second-kind Hankel function H0^(2)(x) = J0(x) - i*Y0(x)
on a grid of arguments covering x in [1e-8, 1e4]:

  * log-spaced sweep across the full range,
  * a dense band around the series/asymptotic crossover at x = 12,
  * near-zeros of J0 and Y0 (where relative accuracy of the individual
    components is hardest to hold),
  * a handful of hand-pinned sanity points.

gihelm's evaluator (gihelm.special) is tested against these frozen values;
regenerate only with this script so the reference stays independent of the
implementation.

Usage: python tools/gen_bessel_reference.py [out.json]
"""

import json
import sys
from pathlib import Path

import mpmath as mp

mp.mp.dps = 40

PINNED = [
    1.0,        # classic tabulated argument
    0.1,        # sign check for Im H0^(2) = -Y0 > 0 at small x
    1e-8, 1e-6, 1e-4, 1e-2,
    0.5, 2.0, 5.0, 8.0,
    11.0, 11.791534439014281, 12.0, 12.1,   # around crossover; 11.79... ~ J0 zero
    13.0, 20.0, 50.0, 100.0, 1000.0, 1e4,
]

# First few zeros of J0 and Y0: relative error of the small component is the
# stress case for both the series and the asymptotic branch.
BESSEL_ZEROS = [
    2.404825557695773, 5.520078110286311, 8.653727912911013,
    14.930917708487787, 21.21163662987926, 55.76551075501998,
    3.957678419314858, 7.086051060301773, 10.222345043496417,  # Y0 zeros
]


def log_sweep(lo, hi, n):
    ratio = mp.mpf(hi) / mp.mpf(lo)
    return [float(lo * ratio ** (mp.mpf(i) / (n - 1))) for i in range(n)]


def main(out_path):
    xs = sorted(set(PINNED + BESSEL_ZEROS + log_sweep(mp.mpf("1e-8"), mp.mpf("1e4"), 120)))
    rows = []
    for x in xs:
        xm = mp.mpf(repr(x))
        j0 = mp.besselj(0, xm)
        y0 = mp.bessely(0, xm)
        rows.append({
            "x": repr(float(x)),
            "j0": mp.nstr(j0, 25),
            "y0": mp.nstr(y0, 25),
        })
    payload = {
        "generator": "tools/gen_bessel_reference.py",
        "dps": mp.mp.dps,
        "note": "H0^(2)(x) = j0 - 1j*y0",
        "values": rows,
    }
    Path(out_path).write_text(json.dumps(payload, indent=1))
    print(f"wrote {len(rows)} reference rows to {out_path}")


if __name__ == "__main__":
    out = sys.argv[1] if len(sys.argv) > 1 else "tests/data/bessel_reference.json"
    main(out)
