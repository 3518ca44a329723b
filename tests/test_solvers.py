"""Direct, Born, and Landweber solvers plus spectral estimators."""

import numpy as np
import pytest

from gihelm import (
    ComplexField,
    SingularSystemError,
    bisect_to_rho,
    born_iterate,
    estimate_rho,
    estimate_sigma_max,
    landweber_iterate,
    linear_system_view,
    residual,
    solve_direct,
)
from gihelm.grid import Grid2D

from util import make_lens, make_view, rel_l2


class ScalarView:
    """1x1-system stand-in: A = a (complex scalar), so every iteration
    formula collapses to its textbook scalar form."""

    def __init__(self, a, b):
        self.grid = Grid2D(nz=2, nx=2, dz=1.0, dx=1.0)  # unused by iterations
        self.a = complex(a)
        self.b = ComplexField(self.grid, np.full((2, 2), complex(b)))

    def apply_A(self, u):
        return self.a * u

    def apply_AH(self, u):
        return np.conj(self.a) * u


class TestSolveDirect:
    def test_residual_postcondition(self):
        view = make_view(10, 12, contrast=-0.25)
        us = solve_direct(view)
        r = residual(view, us.values)
        assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(view.b.values)

    def test_zero_rhs_short_circuits_to_zero(self):
        view = make_view(8, 8, contrast=0.0)
        assert np.all(view.b.values == 0.0)
        us = solve_direct(view)
        assert np.all(us.values == 0.0)

    def test_singular_system_raises(self):
        class IdentityView(ScalarView):
            def assemble_dense(self, cap=None):
                return np.eye(4, dtype=complex)

        view = IdentityView(1.0, 1.0)  # I - A == 0
        with pytest.raises(SingularSystemError):
            solve_direct(view)

    def test_matches_dense_numpy_solve(self):
        view = make_view(9, 9, contrast=-0.3)
        a = view.assemble_dense()
        want = np.linalg.solve(np.eye(a.shape[0]) - a, view.b.values.ravel())
        us = solve_direct(view)
        assert rel_l2(us.values.ravel(), want) < 1e-12


class TestBornScalar:
    def test_contractive_scalar_converges_to_geometric_sum(self):
        view = ScalarView(0.5 + 0.1j, 1.0)
        us, trace = born_iterate(view, max_iters=200, tol=1e-14)
        assert trace.status == "converged"
        want = 1.0 / (1.0 - view.a)  # sum of a^k b
        assert us.values[0, 0] == pytest.approx(want, rel=1e-12)

    def test_expanding_scalar_diverges(self):
        view = ScalarView(1.5, 1.0)
        us, trace = born_iterate(view, max_iters=400, tol=1e-14)
        assert trace.status == "diverged"
        norms = trace.residual_norms
        assert norms[-1] > norms[0]

    def test_divergence_requires_sustained_growth(self):
        # hysteresis: a single residual bump must not trip the flag
        view = ScalarView(0.9, 1.0)
        us, trace = born_iterate(view, max_iters=300, tol=1e-13)
        assert trace.status == "converged"

    def test_one_operator_application_per_step(self):
        calls = {"n": 0}

        class CountingView(ScalarView):
            def apply_A(self, u):
                calls["n"] += 1
                return super().apply_A(u)

        view = CountingView(0.5, 1.0)
        _, trace = born_iterate(view, max_iters=50, tol=1e-13)
        assert calls["n"] == len(trace.steps)


class TestBornOnLens:
    def test_weak_lens_matches_direct(self):
        view = make_view(12, 12, contrast=-0.08)
        assert estimate_rho(view) < 0.8
        direct = solve_direct(view)
        us, trace = born_iterate(view, max_iters=200, tol=1e-13)
        assert trace.status == "converged"
        assert rel_l2(us.values, direct.values) < 1e-6

    def test_residual_norms_recorded_every_step(self):
        view = make_view(10, 10, contrast=-0.05)
        _, trace = born_iterate(view, max_iters=100, tol=1e-13)
        steps = [s for s, _, _ in trace.steps]
        assert steps == list(range(len(steps)))
        ms = [t for _, _, t in trace.steps]
        assert all(t >= 0.0 for t in ms)


@pytest.mark.parametrize("solve", [
    born_iterate, lambda view, **kw: landweber_iterate(view, eta=0.5, **kw),
], ids=["born", "landweber"])
class TestIterationArguments:
    @pytest.mark.parametrize("max_iters", [0, -3])
    def test_max_iters_below_one_rejected(self, solve, max_iters):
        with pytest.raises(ValueError, match="max_iters"):
            solve(ScalarView(0.5, 1.0), max_iters=max_iters)

    @pytest.mark.parametrize("tol", [-1e-12, float("nan"), float("inf")])
    def test_bad_tolerance_rejected(self, solve, tol):
        with pytest.raises(ValueError, match="tol"):
            solve(ScalarView(0.5, 1.0), tol=tol)


class TestLandweber:
    def test_negative_step_rejected(self):
        view = ScalarView(0.5, 1.0)
        with pytest.raises(ValueError):
            landweber_iterate(view, eta=-0.1)

    @pytest.mark.parametrize("eta", [float("nan"), float("inf")])
    def test_non_finite_step_rejected(self, eta):
        view = ScalarView(0.5, 1.0)
        with pytest.raises(ValueError, match="eta"):
            landweber_iterate(view, eta=eta)

    def test_zero_step_stalls_at_max_iters(self):
        view = ScalarView(0.5, 1.0)
        us, trace = landweber_iterate(view, eta=0.0, max_iters=20)
        assert trace.status == "max_iters"
        assert np.all(us.values == 0.0)
        norms = trace.residual_norms
        assert np.all(norms == norms[0])

    def test_scalar_step_formula(self):
        # u1 = u0 - eta (I-A)^H ((I-A) u0 - b) from u0 = 0
        a, b, eta = 0.4 + 0.2j, 1.0 - 0.5j, 0.3
        view = ScalarView(a, b)
        us, _ = landweber_iterate(view, eta=eta, max_iters=1)
        want = eta * np.conj(1 - a) * b
        assert us.values[0, 0] == pytest.approx(want, rel=1e-14)

    def test_converges_where_born_diverges(self):
        view = make_view(12, 12, contrast=-0.6, span=1.5)
        rho = estimate_rho(view)
        assert rho > 1.0
        _, born_trace = born_iterate(view, max_iters=400)
        assert born_trace.status == "diverged"

        sigma = estimate_sigma_max(view)
        us, trace = landweber_iterate(
            view, eta=1.0 / sigma**2, max_iters=4000, tol=1e-9
        )
        direct = solve_direct(view)
        assert rel_l2(us.values, direct.values) < 1e-3

    def test_monotone_residuals_at_safe_step(self):
        view = make_view(10, 10, contrast=-0.4, span=1.5)
        sigma = estimate_sigma_max(view)
        _, trace = landweber_iterate(view, eta=1.0 / sigma**2, max_iters=400)
        norms = trace.residual_norms
        assert np.all(norms[1:] <= norms[:-1] * (1.0 + 1e-12))


class TestSpectralEstimates:
    def test_sigma_max_matches_lapack_svd(self):
        view = make_view(10, 11, contrast=-0.35)
        system = np.eye(view.grid.n) - view.assemble_dense()
        want = np.linalg.svd(system, compute_uv=False)[0]
        got = estimate_sigma_max(view, iters=300)
        assert got == pytest.approx(want, rel=1e-6)

    def test_rho_matches_eigvals(self):
        view = make_view(10, 10, contrast=-0.3)
        want = np.abs(np.linalg.eigvals(view.assemble_dense())).max()
        got = estimate_rho(view, iters=500)
        assert got == pytest.approx(want, rel=1e-4)

    def test_rho_zero_for_zero_operator(self):
        view = ScalarView(0.0, 1.0)
        assert estimate_rho(view, iters=10) == 0.0

    def test_estimates_are_seeded_and_deterministic(self):
        view = make_view(9, 9, contrast=-0.3)
        assert estimate_rho(view, seed=3) == estimate_rho(view, seed=3)
        assert estimate_sigma_max(view, seed=5) == estimate_sigma_max(view, seed=5)


def test_bisect_to_rho_lands_in_band():
    def make(contrast):
        return make_view(10, 10, contrast=-contrast, span=1.5)

    contrast, rho = bisect_to_rho(make, target_rho=1.2, band=0.05)
    assert 1.2 <= rho <= 1.2 * 1.05
    check = estimate_rho(make(contrast))
    assert check == pytest.approx(rho, rel=1e-9)
