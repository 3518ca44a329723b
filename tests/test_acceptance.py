"""End-to-end numerical contracts, each with an explicit runtime budget.

Covers: FFT/dense operator equivalence, self-term refinement order,
Born and Landweber solver regimes on bisected instances, derivative and
loss-gradient correctness against finite differences, the first-order
tangent-kernel law, trivial-solution discrimination between the two
losses, a scaled-down training run with a hybrid comparison, the
collocation selection law, and bit-level reproducibility.
"""

import hashlib
import time

import numpy as np
import pytest
from scipy import special as sp

from gihelm import (
    ComplexField,
    Grid2D,
    NeuralField,
    SourceSpec,
    TrainConfig,
    background_field,
    build_kernel,
    build_pool,
    gaussian_lens_medium,
    gi_loss,
    homogeneous_medium,
    linear_system_view,
    nmse,
    ntk_apply,
    pde_loss,
    save_checkpoint,
    solve_direct,
    train,
)
from gihelm.grid import normalize_points
from gihelm.operators import convolve, convolve_adjoint, gi_reconstruct_dense
from gihelm.solvers import (
    bisect_to_rho,
    born_iterate,
    estimate_rho,
    estimate_sigma_max,
    landweber_iterate,
)
from gihelm.training import _bilinear, grid_encoding, weighted_sample_without_replacement

from util import FixedGridField, make_lens, random_field_values, random_medium


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# --- 1: the padded-FFT reconstruction equals the dense quadratic-cost one


def test_01_fft_reconstruction_matches_dense():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    for _ in range(20):
        nz, nx = (int(v) for v in rng.integers(8, 17, size=2))
        medium = random_medium(rng, nz, nx)
        kernel = build_kernel(medium.grid, medium.k0)
        u0 = ComplexField(medium.grid, random_field_values(rng, medium.grid.shape))
        us = ComplexField(medium.grid, random_field_values(rng, medium.grid.shape))
        view = linear_system_view(kernel, medium, u0)
        fast = view.apply_A(us.values) + view.b.values
        dense = gi_reconstruct_dense(medium, kernel, u0, us).values
        rel = np.linalg.norm(fast - dense) / np.linalg.norm(dense)
        assert rel <= 1e-11, f"{nz}x{nx}: rel={rel:.3e}"
    assert time.perf_counter() - t0 < 5.0


# --- 2: cell-averaged self term beats the zero mode on a one-cell scatterer


def _disk_potential(k, radius, r):
    """Outgoing solution of (lap + k^2)u = -1 on a disk, 0 outside.

    Matched J0/H0 solutions; evaluated with an independent Bessel
    implementation on purpose (tools/gen_disk_reference.py cross-checks
    the formula against adaptive quadrature).
    """
    r = np.asarray(r)
    out = np.empty(r.shape, dtype=complex)
    inside = r < radius
    h1 = sp.j1(k * radius) - 1j * sp.y1(k * radius)
    out[inside] = 1 / k**2 + 1j * np.pi * radius / (2 * k) * h1 * sp.j0(k * r[inside])
    ro = r[~inside]
    h0 = sp.j0(k * ro) - 1j * sp.y0(k * ro)
    out[~inside] = 1j * np.pi * radius / (2 * k) * sp.j1(k * radius) * h0
    return out


def test_02_self_term_refinement():
    t0 = time.perf_counter()
    span = 2.0
    errs = {"zero": [], "cell_averaged": []}
    hs = []
    for n in (17, 33, 65, 129):
        h = span / (n - 1)
        hs.append(h)
        grid = Grid2D(nz=n, nx=n, dz=h, dx=h)
        base = homogeneous_medium(grid, 1.0, 1.0)
        dm = np.zeros((n, n))
        c = (n - 1) // 2
        dm[c, c] = 1.0
        medium = type(base)(grid, 1.0 / np.sqrt(base.m0 + dm), 1.0, 1.0)
        u0 = ComplexField(grid, np.ones((n, n), complex))

        # one active cell of weight W against the equal-area disk
        radius = np.sqrt(h * h / np.pi)
        zz, xx = np.meshgrid(grid.z_coords(), grid.x_coords(), indexing="ij")
        r = np.hypot(zz - grid.z_coords()[c], xx - grid.x_coords()[c])
        ref = _disk_potential(medium.k0, radius, r)

        for mode in errs:
            kernel = build_kernel(grid, medium.k0, mode=mode)
            got = linear_system_view(kernel, medium, u0).b.values
            errs[mode].append(np.linalg.norm(got - ref) / np.linalg.norm(ref))

    for cell, zero in zip(errs["cell_averaged"], errs["zero"]):
        assert cell < zero
    order = np.polyfit(np.log(hs), np.log(errs["zero"]), 1)[0]
    assert 0.7 <= order <= 1.3, f"zero-mode observed order {order:.2f}"
    assert time.perf_counter() - t0 < 30.0


# --- 3 and 4: solver regimes on a weak lens and a bisected divergent one

_DIVERGENT = {}


def _lens_view(strength):
    medium, kernel, source, u0 = make_lens(16, 16, contrast=-strength, span=2.0)
    return linear_system_view(kernel, medium, u0)


def _divergent_view():
    if not _DIVERGENT:
        strength, rho = bisect_to_rho(_lens_view, 1.2, seed=0)
        _DIVERGENT["view"] = _lens_view(strength)
        _DIVERGENT["rho"] = rho
    return _DIVERGENT["view"], _DIVERGENT["rho"]


def test_03_born_regimes():
    t0 = time.perf_counter()
    weak = _lens_view(0.25)
    assert estimate_rho(weak, seed=0) <= 0.8
    direct = solve_direct(weak)
    us, trace = born_iterate(weak, max_iters=200, tol=1e-14)
    assert len(trace.steps) <= 200
    assert nmse(us.values, direct.values) <= 1e-10

    strong, rho = _divergent_view()
    assert rho >= 1.2
    _, trace = born_iterate(strong, max_iters=200, tol=1e-12)
    assert trace.status == "diverged"
    assert time.perf_counter() - t0 < 60.0


def test_04_landweber_on_born_divergent_instance():
    view, _ = _divergent_view()
    t0 = time.perf_counter()
    eta = 1.0 / estimate_sigma_max(view, seed=0) ** 2
    direct = solve_direct(view)
    us, trace = landweber_iterate(view, eta=eta, max_iters=2000, tol=1e-14)
    assert nmse(us.values, direct.values) <= 1e-6
    norms = np.array([n for _, n, _ in trace.steps])
    assert np.all(norms[1:] <= norms[:-1] * (1.0 + 1e-12))
    assert time.perf_counter() - t0 < 120.0


# --- 5: network Laplacian and both loss gradients vs finite differences


def _lap_fd(net, pts, h=1e-3):
    """Fourth-order central second differences, summed over both axes."""
    out = np.zeros(len(pts), dtype=complex)
    for axis in range(2):
        for c, s in ((-1, 2), (16, 1), (-30, 0), (16, -1), (-1, -2)):
            p = pts.copy()
            p[:, axis] += s * h
            out += c * net.forward(p)
    return out / (12.0 * h * h)


def _grad_fd(loss_fn, net, entries, h=1e-4):
    """Fourth-order central differences of a scalar loss along flat params."""
    theta = net.get_flat()
    out = {}
    for e in entries:
        acc = 0.0
        for c, s in ((8, 1), (-8, -1), (-1, 2), (1, -2)):
            t = theta.copy()
            t[e] += s * h
            net.set_flat(t)
            acc += c * loss_fn()
        net.set_flat(theta)
        out[e] = acc / (12.0 * h)
    return out


def _sampled_entries(rng, grad, k=20):
    idx = np.flatnonzero(np.abs(grad) >= 1e-3 * np.abs(grad).max())
    return rng.choice(idx, size=min(k, idx.size), replace=False)


def test_05_derivatives_match_finite_differences():
    t0 = time.perf_counter()
    for i in range(10):  # 10 nets x 5 points
        net = NeuralField.init(np.random.default_rng(100 + i), width=16,
                               k_bands=3, n_hidden=3)
        pts = np.random.default_rng(200 + i).uniform(0.0, 2.0, size=(5, 2))
        _, _, lap = net.laplacian(pts)
        fd = _lap_fd(net, pts)
        assert np.linalg.norm(lap - fd) <= 1e-5 * np.linalg.norm(fd)

    medium, kernel, source, u0 = make_lens(10, 12, contrast=-0.3)
    net = NeuralField.init(np.random.default_rng(42), width=12, k_bands=2,
                           n_hidden=3)
    rng = np.random.default_rng(7)

    feats = grid_encoding(net, medium)
    _, grad, _ = gi_loss(net, kernel, medium, u0, grid_features=feats)
    fd = _grad_fd(lambda: gi_loss(net, kernel, medium, u0, grid_features=feats)[0],
                  net, _sampled_entries(rng, grad))
    for e, want in fd.items():
        assert abs(grad[e] - want) <= 1e-5 * abs(want)

    pool = build_pool(medium, source, 64, 256, 1.0, 0.01,
                      np.random.default_rng(3))
    pts, dm, u0p = pool.points[:30], pool.dm[:30], pool.u0[:30]
    scale = (medium.v0 / medium.omega) ** 2
    _, grad = pde_loss(net, medium, pts, dm, u0p, residual_scale=scale)
    fd = _grad_fd(lambda: pde_loss(net, medium, pts, dm, u0p,
                                   residual_scale=scale, with_grad=False)[0],
                  net, _sampled_entries(rng, grad))
    for e, want in fd.items():
        assert abs(grad[e] - want) <= 1e-5 * abs(want)
    assert time.perf_counter() - t0 < 60.0


# --- 6: one plain gradient step is the tangent-kernel step up to O(eta^2)


def test_06_tangent_kernel_first_order_law():
    t0 = time.perf_counter()
    medium, kernel, source, u0 = make_lens(12, 12, contrast=-0.2)
    g = medium.grid
    net = NeuralField.init(np.random.default_rng(0), width=32, k_bands=3,
                           n_hidden=3)
    feats = grid_encoding(net, medium)
    zz, xx = np.meshgrid(g.z_coords(), g.x_coords(), indexing="ij")
    pts = normalize_points(np.column_stack([zz.ravel(), xx.ravel()]),
                           medium.omega, medium.v0)

    _, grad, us = gi_loss(net, kernel, medium, u0, grid_features=feats)
    m_values = medium.omega**2 * g.w * medium.delta_m
    mask = medium.interior_mask()
    err = np.where(mask, convolve(kernel, m_values * (u0.values + us)) - us, 0.0)
    w_adj = (2.0 / mask.sum()) * (m_values * convolve_adjoint(kernel, err) - err)
    kernel_step = ntk_apply(net, pts, w_adj.ravel()).reshape(g.shape)

    theta = net.get_flat()
    etas = (1e-2, 1e-3, 1e-4)
    remainders = []
    for eta in etas:
        net.set_flat(theta - eta * grad)
        actual = net.forward(pts).reshape(g.shape) - us
        net.set_flat(theta)
        remainders.append(np.linalg.norm(actual - (-eta) * kernel_step))
    slope = np.polyfit(np.log(etas), np.log(remainders), 1)[0]
    assert slope >= 1.7, f"remainder slope {slope:.3f}"
    assert time.perf_counter() - t0 < 60.0


# --- 7: us = -u0 fools the pointwise residual but not the integral loss


class _AnalyticField:
    """Prescribed values and normalized-coordinate Laplacian."""

    def __init__(self, value, lap):
        self._value, self._lap = value, lap

    def laplacian(self, points):
        return self._value, np.zeros((len(points), 2), complex), self._lap


def test_07_trivial_solution_discrimination():
    t0 = time.perf_counter()
    medium, kernel, source, u0 = make_lens(24, 24, contrast=-0.2)
    g = medium.grid

    loss, _, _ = gi_loss(FixedGridField(-u0.values), kernel, medium, u0)
    mask = medium.interior_mask()
    want = float(np.mean(np.abs(u0.values[mask]) ** 2))
    assert abs(loss - want) <= 1e-10 * want

    # 2000 collocation points kept clear of the source cell
    rng = np.random.default_rng(5)
    depth, width = (g.nz - 1) * g.dz, (g.nx - 1) * g.dx
    sz, sx = source.position
    pts = np.empty((0, 2))
    while len(pts) < 2000:
        cand = np.column_stack([rng.uniform(g.z0, g.z0 + depth, 4000),
                                rng.uniform(g.x0, g.x0 + width, 4000)])
        keep = np.hypot(cand[:, 0] - sz, cand[:, 1] - sx) > 3 * g.dz
        pts = np.vstack([pts, cand[keep]])
    pts = pts[:2000]

    u0_pts = background_field(medium, source, eval_points=pts)
    dm_pts = _bilinear(medium.delta_m, g, pts)
    pts_norm = normalize_points(pts, medium.omega, medium.v0)
    lap_factor = (medium.omega / (2.0 * np.pi * medium.v0)) ** 2

    trivial = _AnalyticField(-u0_pts, medium.omega**2 * medium.m0 * u0_pts / lap_factor)
    silent = _AnalyticField(np.zeros_like(u0_pts), np.zeros_like(u0_pts))
    loss_trivial, _ = pde_loss(trivial, medium, pts_norm, dm_pts, u0_pts,
                               with_grad=False)
    loss_silent, _ = pde_loss(silent, medium, pts_norm, dm_pts, u0_pts,
                              with_grad=False)
    assert loss_trivial <= 1e-6 * loss_silent
    assert time.perf_counter() - t0 < 10.0


# --- 8 and 10: scaled-down training run, hybrid comparison, reproducibility


def _training_problem():
    v0, freq, n = 2.0, 10.0, 64
    omega = 2.0 * np.pi * freq
    length = 4.0 * v0 / freq  # four wavelengths across
    d = length / (n - 1)
    grid = Grid2D(nz=n, nx=n, dz=d, dx=d)
    medium = gaussian_lens_medium(grid, v0, omega, contrast=-0.15, sigma=0.12)
    source = SourceSpec((0.07 * length, 0.43 * length))
    kernel = build_kernel(grid, medium.k0)
    return medium, kernel, source


def _gi_config():
    return TrainConfig(mode="gi", epochs=6000, width=64, k_bands=3, n_hidden=5,
                       seed=1, eval_every=500, early_stop_nmse=0.04)


@pytest.fixture(scope="module")
def scaled_gi_run(tmp_path_factory):
    medium, kernel, source = _training_problem()
    reference = solve_direct(
        linear_system_view(kernel, medium, background_field(medium, source))
    )
    workdir = tmp_path_factory.mktemp("scaled_gi")
    t0 = time.perf_counter()
    net, report = train(_gi_config(), medium, kernel, source,
                        reference=reference, workdir=workdir)
    elapsed = time.perf_counter() - t0
    save_checkpoint(net, workdir / "checkpoint.gihc")
    return {
        "medium": medium, "kernel": kernel, "source": source,
        "reference": reference, "report": report, "workdir": workdir,
        "elapsed": elapsed,
    }


def test_08_scaled_training_run(scaled_gi_run, tmp_path):
    report = scaled_gi_run["report"]
    assert report.epochs_run <= 30000
    assert scaled_gi_run["elapsed"] < 900.0
    assert report.nmse <= 0.05, f"gi nmse {report.nmse:.4f}"

    medium, kernel, source = (scaled_gi_run[k] for k in
                              ("medium", "kernel", "source"))
    hybrid_cfg = TrainConfig(
        mode="hybrid", epochs=6000, width=64, k_bands=3, n_hidden=5, seed=1,
        eval_every=500, early_stop_nmse=0.04, lambda_max=0.01,
        pde_residual_scale=(medium.v0 / medium.omega) ** 2,
    )
    t0 = time.perf_counter()
    _, hybrid = train(hybrid_cfg, medium, kernel, source,
                      reference=scaled_gi_run["reference"], workdir=tmp_path)
    assert time.perf_counter() - t0 < 900.0
    assert hybrid.nmse <= 2.0 * report.nmse, (
        f"hybrid nmse {hybrid.nmse:.4f} vs gi {report.nmse:.4f}")


def test_10_training_is_bit_reproducible(scaled_gi_run, tmp_path):
    medium, kernel, source = (scaled_gi_run[k] for k in
                              ("medium", "kernel", "source"))
    net, report = train(_gi_config(), medium, kernel, source,
                        reference=scaled_gi_run["reference"], workdir=tmp_path)
    save_checkpoint(net, tmp_path / "checkpoint.gihc")
    first = scaled_gi_run["workdir"]
    for name in ("loss.csv", "eval.csv"):
        assert sha256(tmp_path / name) == sha256(first / name), name
    assert (tmp_path / "checkpoint.gihc").read_bytes() == \
        (first / "checkpoint.gihc").read_bytes()
    assert report.epochs_run == scaled_gi_run["report"].epochs_run


# --- 9: empirical selection frequencies follow the importance law


def test_09_selection_law_frequencies():
    t0 = time.perf_counter()
    weights = np.array([0.03, 1.03, 3.03])  # |dm| = [0, 1, 3], alpha 1, eps 0.03
    p = weights / weights.sum()
    rng = np.random.default_rng(0)
    n = 100_000
    counts = np.zeros(3)
    for _ in range(n):
        counts[weighted_sample_without_replacement(rng, weights, 1)[0]] += 1
    freq = counts / n
    sigma = np.sqrt(p * (1.0 - p) / n)
    assert np.all(np.abs(freq - p) <= 3.0 * sigma), (freq, p)
    assert time.perf_counter() - t0 < 5.0
