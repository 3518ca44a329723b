"""Bessel J0/Y0 and the second-kind Hankel function H0^(2).

Everything downstream (Green's function, kernel tables, background field)
funnels through :func:`bessel_j0_y0`, so this module owns its accuracy
budget: >= 10 significant digits of the complex value over x in (1e-8, 1e4),
checked against the arbitrary-precision table frozen by
``tools/gen_bessel_reference.py``.  The values come from ``scipy.special``'s
``j0``/``y0`` (Cephes), which leaves ``scipy.special.hankel2`` (AMOS) free
to serve as an independent counterpart in cross-checks.
"""

import numpy as np
import scipy.special


def bessel_j0_y0(x):
    """J0(x) and Y0(x) for x > 0, elementwise; preserves input shape."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.size and (not np.isfinite(arr).all() or (arr <= 0).any()):
        raise ValueError("bessel_j0_y0 requires finite x > 0")
    return scipy.special.j0(arr), scipy.special.y0(arr)


def hankel_h0_second(x):
    """H0^(2)(x) = J0(x) - i Y0(x) for x > 0, elementwise.

    Outgoing-wave convention under the e^{+i omega t} time factor; the
    first-kind function is its conjugate, conj(H0^(2)(x)) = H0^(1)(x).
    """
    j0, y0 = bessel_j0_y0(x)
    return j0 - 1j * y0
