"""Classical solvers and spectral diagnostics for (I - A) us = b.

All routines take the linear-system view from operators.linear_system_view
(or any object with the same apply_A / apply_AH / b / assemble_dense
surface) and work on bare complex arrays internally so that divergence
shows up as a recorded status instead of a finiteness-guard exception.
"""

import csv
import time
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import SingularSystemError
from .grid import ComplexField
from .operators import DENSE_CAP

DIVERGENCE_FACTOR = 1e6
DIVERGENCE_HYSTERESIS = 10  # consecutive steps above the threshold

PIVOT_FLOOR = 1e-14


@dataclass
class IterationTrace:
    """Per-step (step, residual L2 norm, elapsed ms) records and a status."""

    steps: list = field(default_factory=list)
    status: str = "max_iters"

    def record(self, step, residual_norm, elapsed_ms):
        self.steps.append((int(step), float(residual_norm), float(elapsed_ms)))

    @property
    def residual_norms(self):
        return np.array([s[1] for s in self.steps])

    @property
    def final_norm(self):
        return self.steps[-1][1] if self.steps else float("nan")

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "residual_norm", "elapsed_ms"])
            for step, norm, ms in self.steps:
                writer.writerow([step, repr(norm), repr(ms)])


def _norm(values):
    return float(np.linalg.norm(values.ravel()))


def solve_direct(view, cap=DENSE_CAP):
    """Dense LU solve of (I - A) us = b with a residual postcondition.

    Raises SingularSystemError when an LU pivot falls below 1e-14; one
    pass of iterative refinement guarantees |(I-A)us - b| <= 1e-10 |b|.
    """
    b = view.b.values
    norm_b = _norm(b)
    if norm_b == 0.0:
        return ComplexField(view.grid, np.zeros_like(b))

    system = view.assemble_dense(cap=cap)
    np.negative(system, out=system)
    idx = np.arange(system.shape[0])
    system[idx, idx] += 1.0

    with warnings.catch_warnings():
        # the pivot check below owns the singularity diagnosis
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(system, overwrite_a=False, check_finite=False)
    pivots = np.abs(lu[idx, idx])
    if pivots.min() < PIVOT_FLOOR:
        raise SingularSystemError(
            f"(I - A) is numerically singular: LU pivot {pivots.min():.3e} below {PIVOT_FLOOR}")

    x = scipy.linalg.lu_solve((lu, piv), b.ravel(), check_finite=False)
    for _ in range(3):
        r = b.ravel() - system @ x
        if _norm(r) <= 1e-10 * norm_b:
            break
        x = x + scipy.linalg.lu_solve((lu, piv), r, check_finite=False)
    else:
        raise SingularSystemError(
            "direct solve could not reach the 1e-10 relative residual; "
            "the system is too ill-conditioned")
    return ComplexField(view.grid, x.reshape(b.shape))


def _iterate(view, residual, advance, max_iters, tol):
    """Loop shared by the fixed-point solvers, from u = 0.

    residual(u) returns (|r_n|, carry) and advance(u, carry) returns the
    next iterate; advance runs only when the loop goes on.  Stops on
    |r| <= tol |b| (converged), on a non-finite |r| or after
    DIVERGENCE_HYSTERESIS consecutive steps with |r| > 1e6 |b| (diverged),
    or on max_iters.
    """
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    b = view.b.values
    norm_b = _norm(b)
    u = np.zeros_like(b)
    trace = IterationTrace()
    t0 = time.perf_counter()
    if norm_b == 0.0:
        trace.record(0, 0.0, 0.0)
        trace.status = "converged"
        return ComplexField(view.grid, u), trace

    above = 0
    for n in range(max_iters):
        norm_r, carry = residual(u)
        trace.record(n, norm_r, (time.perf_counter() - t0) * 1e3)
        if not np.isfinite(norm_r):
            trace.status = "diverged"
            break
        if norm_r <= tol * norm_b:
            trace.status = "converged"
            break
        above = above + 1 if norm_r > DIVERGENCE_FACTOR * norm_b else 0
        if above >= DIVERGENCE_HYSTERESIS:
            trace.status = "diverged"
            break
        u = advance(u, carry)
    return ComplexField(view.grid, u), trace


def born_iterate(view, max_iters=200, tol=1e-12):
    """Fixed-point iteration u <- A u + b from u = 0 (Neumann series).

    Stops on |r| <= tol |b|, on max_iters, or declares divergence after
    DIVERGENCE_HYSTERESIS consecutive steps with |r| > 1e6 |b|.
    """
    b = view.b.values

    def residual(u):
        v = view.apply_A(u) + b
        return _norm(u - v), v  # r_n = (I - A) u_n - b = u_n - v

    return _iterate(view, residual, lambda u, v: v, max_iters, tol)


def landweber_iterate(view, eta, max_iters=500, tol=1e-12):
    """Gradient iteration u <- u - eta (I - A)^H r on the residual.

    Converges to the least-squares solution for 0 < eta < 2/sigma_max^2;
    eta = 0 is permitted and leaves the iterate at zero (status
    max_iters), which is occasionally useful as a control run.
    """
    if not (np.isfinite(eta) and eta >= 0):
        raise ValueError(f"eta must be finite and nonnegative, got {eta}")
    b = view.b.values

    def residual(u):
        r = u - view.apply_A(u) - b
        return _norm(r), r

    def advance(u, r):
        return u - eta * (r - view.apply_AH(r))

    return _iterate(view, residual, advance, max_iters, tol)


def _seeded_start(view, seed):
    rng = np.random.default_rng(seed)
    shape = view.b.values.shape
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return v / _norm(v)


def estimate_sigma_max(view, iters=200, seed=0):
    """Power iteration on (I-A)^H (I-A); used to auto-set eta = 1/sigma^2."""
    if iters < 1:
        raise ValueError("iters must be >= 1")
    v = _seeded_start(view, seed)
    for _ in range(iters):
        w = v - view.apply_A(v)
        bv = w - view.apply_AH(w)
        norm_bv = _norm(bv)
        if norm_bv < 1e-300:
            return 0.0
        v = bv / norm_bv
    return _norm(v - view.apply_A(v))


def estimate_rho(view, iters=300, seed=0):
    """Power-iteration estimate of the dominant eigenvalue magnitude of A."""
    if iters < 1:
        raise ValueError("iters must be >= 1")
    v = _seeded_start(view, seed)
    for _ in range(iters):
        w = view.apply_A(v)
        norm_w = _norm(w)
        if norm_w < 1e-300:
            return 0.0
        v = w / norm_w
    return float(abs(np.vdot(v.ravel(), view.apply_A(v).ravel())))


def bisect_to_rho(make_view, target_rho, lo=0.0, hi=0.5, band=0.05,
                  rho_iters=300, max_steps=60, seed=0):
    """Find a parameter value whose system has estimate_rho near target_rho.

    make_view(value) must build the linear-system view for that value,
    with rho monotone nondecreasing in the value (true when the value
    scales the perturbation strength).  Returns (value, rho) with rho in
    [target_rho, (1 + band) target_rho].
    """
    rho_hi = estimate_rho(make_view(hi), iters=rho_iters, seed=seed)
    grow = 0
    while rho_hi < target_rho:
        lo, hi = hi, 2.0 * hi
        rho_hi = estimate_rho(make_view(hi), iters=rho_iters, seed=seed)
        grow += 1
        if grow > 20:
            raise ValueError("could not bracket target rho; perturbation too weak")

    value, rho = hi, rho_hi
    for _ in range(max_steps):
        if target_rho <= rho <= (1.0 + band) * target_rho:
            break
        mid = 0.5 * (lo + hi)
        rho_mid = estimate_rho(make_view(mid), iters=rho_iters, seed=seed)
        if rho_mid >= target_rho:
            hi, value, rho = mid, mid, rho_mid
        else:
            lo = mid
    return value, rho
