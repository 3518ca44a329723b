"""Losses, collocation sampling, schedules, and the training loop."""

import numpy as np
import pytest

from gihelm import (
    Grid2D,
    NeuralField,
    NonFiniteLossError,
    SourceSpec,
    TrainConfig,
    background_field,
    build_kernel,
    build_pool,
    gaussian_lens_medium,
    gi_loss,
    lambda_at,
    linear_system_view,
    load_checkpoint,
    nmse,
    pde_loss,
    solve_direct,
    taper_perturbation,
    train,
)
from gihelm.grid import normalize_points
from gihelm.training import (
    EVAL_HEADER,
    LOSS_HEADER,
    grid_encoding,
    selection_weights,
    weighted_sample_without_replacement,
)
from gihelm.fieldfile import write_rows_csv

from util import FixedGridField, make_lens, random_field_values


def tiny_config(**kw):
    base = dict(mode="gi", epochs=40, width=10, k_bands=2, n_hidden=2, seed=0,
                eval_every=20, n_x=16, n_pool=64, n_raw=256)
    base.update(kw)
    return TrainConfig(**base)


class TestNmse:
    def test_values(self):
        ref = np.array([1.0 + 1j, 2.0])
        assert nmse(ref, ref) == 0.0
        assert nmse(np.zeros(2), ref) == pytest.approx(1.0)
        assert nmse(2 * ref, ref) == pytest.approx(1.0)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            nmse(np.ones(3), np.zeros(3))


class TestSelectionWeights:
    def test_formula(self):
        dm = np.array([0.0, 1.0, -3.0])
        w = selection_weights(dm, alpha=1.0, eps_fraction=0.01)
        np.testing.assert_allclose(w, [0.03, 1.03, 3.03])

    def test_alpha_exponent(self):
        dm = np.array([2.0, 4.0])
        w = selection_weights(dm, alpha=2.0, eps_fraction=0.0)
        np.testing.assert_allclose(w, [4.0, 16.0])

    def test_zero_perturbation_is_uniform(self):
        w = selection_weights(np.zeros(5), alpha=1.0, eps_fraction=0.01)
        np.testing.assert_array_equal(w, np.ones(5))


class TestWeightedSample:
    def test_without_replacement(self):
        rng = np.random.default_rng(0)
        w = np.ones(10)
        idx = weighted_sample_without_replacement(rng, w, 7)
        assert len(idx) == 7 and len(set(idx.tolist())) == 7

    def test_rejects_bad_inputs(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError):
            weighted_sample_without_replacement(rng, np.array([1.0, 0.0]), 1)
        with pytest.raises(ValueError):
            weighted_sample_without_replacement(rng, np.ones(3), 4)

    def test_heavy_weight_dominates(self):
        rng = np.random.default_rng(2)
        w = np.array([1e12, 1.0, 1.0, 1.0, 1.0])
        hits = sum(0 in weighted_sample_without_replacement(rng, w, 1)
                   for _ in range(200))
        assert hits == 200


class TestBuildPool:
    def _pool(self, seed=0, **kw):
        medium, kernel, source, u0 = make_lens(16, 16, contrast=-0.2)
        rng = np.random.default_rng(seed)
        pool = build_pool(medium, source, n_pool=48, n_raw=256, alpha=1.0,
                          eps_fraction=0.01, rng=rng, **kw)
        return medium, source, pool

    def test_counts_and_domain(self):
        medium, _, pool = self._pool()
        g = medium.grid
        zsl, xsl = medium.interior
        assert pool.n_pool == 48
        assert pool.physical_points.shape == (48, 2)
        z, x = pool.physical_points[:, 0], pool.physical_points[:, 1]
        assert np.all(z >= g.z0 + zsl.start * g.dz)
        assert np.all(z <= g.z0 + (zsl.stop - 1) * g.dz)
        assert np.all(x >= g.x0 + xsl.start * g.dx)
        assert np.all(x <= g.x0 + (xsl.stop - 1) * g.dx)

    def test_normalized_and_physical_points_agree(self):
        medium, _, pool = self._pool()
        want = normalize_points(pool.physical_points, medium.omega, medium.v0)
        np.testing.assert_allclose(pool.points, want, rtol=1e-14)

    def test_u0_matches_background_field(self):
        medium, source, pool = self._pool()
        want = background_field(medium, source, eval_points=pool.physical_points)
        np.testing.assert_allclose(pool.u0, want, rtol=1e-13)

    def test_deterministic_per_seed(self):
        _, _, a = self._pool(seed=9)
        _, _, b = self._pool(seed=9)
        np.testing.assert_array_equal(a.physical_points, b.physical_points)

    def test_importance_concentrates_samples(self):
        # strong alpha should favor the lens core over the edges
        medium, kernel, source, u0 = make_lens(24, 24, contrast=-0.4)
        rng = np.random.default_rng(3)
        pool = build_pool(medium, source, n_pool=200, n_raw=4000, alpha=4.0,
                          eps_fraction=1e-3, rng=rng)
        uniform_mean = np.abs(medium.delta_m).mean()
        assert np.abs(pool.dm).mean() > 2.0 * uniform_mean


def zero_output_net(seed=0):
    """Real net with the output layer zeroed: Us == 0 identically."""
    net = NeuralField.init(np.random.default_rng(seed), width=10,
                           k_bands=2, n_hidden=2)
    net.weights[-1][:] = 0.0
    net.biases[-1][:] = 0.0
    return net


class TestGiLoss:
    def test_zero_field_loss_is_mean_background_reconstruction(self):
        medium, kernel, source, u0 = make_lens(12, 12, contrast=-0.2)
        net = zero_output_net()
        loss, grad, us = gi_loss(net, kernel, medium, u0)
        from gihelm.operators import convolve

        m_values = medium.omega**2 * medium.grid.w * medium.delta_m
        b = convolve(kernel, m_values * u0.values)
        mask = medium.interior_mask()
        want = float(np.sum(np.abs(b[mask]) ** 2)) / mask.sum()
        assert loss == pytest.approx(want, rel=1e-13)
        assert np.all(us == 0.0)

    def test_parameter_gradient_matches_finite_differences(self):
        medium, kernel, source, u0 = make_lens(8, 8, contrast=-0.3)
        net = NeuralField.init(np.random.default_rng(4), width=8, k_bands=2,
                               n_hidden=2)
        feats = grid_encoding(net, medium)
        _, grad, _ = gi_loss(net, kernel, medium, u0, grid_features=feats)

        rng = np.random.default_rng(5)
        idx = np.flatnonzero(np.abs(grad) >= 1e-3 * np.abs(grad).max())
        entries = rng.choice(idx, size=min(10, idx.size), replace=False)
        theta = net.get_flat()
        h = 1e-6
        for e in entries:
            for sign, acc in ((+1, "up"), (-1, "dn")):
                t = theta.copy()
                t[e] += sign * h
                net.set_flat(t)
                val = gi_loss(net, kernel, medium, u0, grid_features=feats)[0]
                if sign > 0:
                    up = val
                else:
                    dn = val
            net.set_flat(theta)
            assert grad[e] == pytest.approx((up - dn) / (2 * h), rel=1e-5)

    def test_trivial_solution_is_mean_background_power(self):
        medium, kernel, source, u0 = make_lens(10, 12, contrast=-0.2)
        loss, _, _ = gi_loss(FixedGridField(-u0.values), kernel, medium, u0)
        want = float(np.mean(np.abs(u0.values) ** 2))
        assert loss == pytest.approx(want, rel=1e-14)

    def test_zero_at_exact_solution(self):
        medium, kernel, source, u0 = make_lens(10, 10, contrast=-0.1)
        us = solve_direct(linear_system_view(kernel, medium, u0))
        scale = float(np.mean(np.abs(us.values) ** 2))
        loss, _, _ = gi_loss(FixedGridField(us.values), kernel, medium, u0)
        assert loss < 1e-20 * scale

    def test_observes_interior_only(self):
        g = Grid2D(nz=10, nx=10, dz=0.1, dx=0.1)
        med = gaussian_lens_medium(g, 1.0, 2 * np.pi, contrast=-0.2, sigma=0.25)
        big = taper_perturbation(med, pad_cells=4, taper_width_cells=3)
        ker = build_kernel(big.grid, big.k0)
        u0 = background_field(big, SourceSpec((0.3, 0.5)))
        rng = np.random.default_rng(9)
        us = random_field_values(rng, big.grid.shape)

        loss, _, _ = gi_loss(FixedGridField(us), ker, big, u0)
        # the pad scatters but is not observed: compare against a
        # hand-built mean over the interior block of A us + b - us
        view = linear_system_view(ker, big, u0)
        diff = (view.apply_A(us) + view.b.values - us)[big.interior]
        assert diff.shape == (10, 10)
        assert loss == pytest.approx(float(np.mean(np.abs(diff) ** 2)), rel=1e-14)


class MockAnalyticField:
    """Duck-typed field with prescribed values and normalized Laplacian."""

    def __init__(self, value, lap):
        self._value = value
        self._lap = lap

    def laplacian(self, points):
        grad = np.zeros((len(points), 2), dtype=complex)
        return self._value, grad, self._lap


class TestPdeLoss:
    def test_plane_wave_in_homogeneous_medium_has_zero_residual(self):
        # Us = exp(i 2 pi x~): normalized Laplacian -(2 pi)^2 Us exactly
        # cancels w^2 m0 Us through the (w / 2 pi v0)^2 factor
        medium, _, _, _ = make_lens(8, 8, contrast=0.0)
        rng = np.random.default_rng(6)
        pts = rng.uniform(0.0, 2.0, size=(40, 2))
        value = np.exp(1j * 2.0 * np.pi * pts[:, 1])
        lap = -((2.0 * np.pi) ** 2) * value
        mock = MockAnalyticField(value, lap)
        dm = np.zeros(40)
        u0 = np.zeros(40, dtype=complex)
        loss, _ = pde_loss(mock, medium, pts, dm, u0, with_grad=False)
        assert loss < 1e-24

    def test_trivial_solution_has_vanishing_residual(self):
        # Us = -U0 zeroes the residual at source-free points for any dm
        medium, kernel, source, _ = make_lens(16, 16, contrast=-0.25)
        rng = np.random.default_rng(7)
        g = medium.grid
        pts_phys = np.column_stack([
            rng.uniform(g.z0 + 0.55 * (g.nz - 1) * g.dz,
                        g.z0 + (g.nz - 1) * g.dz, 60),
            rng.uniform(g.x0, g.x0 + (g.nx - 1) * g.dx, 60),
        ])  # lower half, away from the source at 0.21 depth
        u0 = background_field(medium, source, eval_points=pts_phys)
        lap_factor = (medium.omega / (2.0 * np.pi * medium.v0)) ** 2
        # away from the impulse, lap U0 = -w^2 m0 U0 exactly
        value = -u0
        lap = (medium.omega**2 * medium.m0 * u0) / lap_factor
        mock = MockAnalyticField(value, lap)
        from gihelm.training import _bilinear

        dm = _bilinear(medium.delta_m, g, pts_phys)
        pts = normalize_points(pts_phys, medium.omega, medium.v0)
        trivial, _ = pde_loss(mock, medium, pts, dm, u0, with_grad=False)

        zero_mock = MockAnalyticField(np.zeros_like(u0), np.zeros_like(u0))
        baseline, _ = pde_loss(zero_mock, medium, pts, dm, u0, with_grad=False)
        assert baseline > 0.0
        assert trivial <= 1e-12 * baseline

    def test_residual_scale_is_quadratic_in_loss(self):
        medium, _, source, _ = make_lens(8, 8, contrast=-0.2)
        net = NeuralField.init(np.random.default_rng(8), width=8, k_bands=2,
                               n_hidden=2)
        rng = np.random.default_rng(9)
        pts = rng.uniform(0.0, 1.5, size=(20, 2))
        dm = rng.uniform(0.0, 0.2, size=20)
        u0 = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        a, _ = pde_loss(net, medium, pts, dm, u0, residual_scale=1.0,
                        with_grad=False)
        b, _ = pde_loss(net, medium, pts, dm, u0, residual_scale=0.5,
                        with_grad=False)
        assert b == pytest.approx(0.25 * a, rel=1e-12)

    def test_parameter_gradient_matches_finite_differences(self):
        medium, _, source, _ = make_lens(8, 8, contrast=-0.2)
        net = NeuralField.init(np.random.default_rng(10), width=8, k_bands=2,
                               n_hidden=2)
        rng = np.random.default_rng(11)
        pts = rng.uniform(0.0, 1.5, size=(15, 2))
        dm = rng.uniform(0.0, 0.2, size=15)
        u0 = rng.standard_normal(15) + 1j * rng.standard_normal(15)
        scale = 0.03
        _, grad = pde_loss(net, medium, pts, dm, u0, residual_scale=scale)

        idx = np.flatnonzero(np.abs(grad) >= 1e-3 * np.abs(grad).max())
        entries = rng.choice(idx, size=min(10, idx.size), replace=False)
        theta = net.get_flat()
        h = 1e-6
        for e in entries:
            vals = {}
            for sign in (+1, -1):
                t = theta.copy()
                t[e] += sign * h
                net.set_flat(t)
                vals[sign], _ = pde_loss(net, medium, pts, dm, u0,
                                         residual_scale=scale, with_grad=False)
            net.set_flat(theta)
            fd = (vals[+1] - vals[-1]) / (2 * h)
            assert grad[e] == pytest.approx(fd, rel=2e-5)


class TestLambdaSchedule:
    def test_pins(self):
        cfg = tiny_config(mode="hybrid", epochs=1000, lambda_max=0.01,
                          lambda_mid=0.5, lambda_steepness=20.0)
        assert lambda_at(500, cfg) == pytest.approx(0.005)
        sig10 = 1.0 / (1.0 + np.exp(10.0))
        assert lambda_at(0, cfg) == pytest.approx(0.01 * sig10, rel=1e-12)
        assert lambda_at(1000, cfg) == pytest.approx(0.01 * (1 - sig10), rel=1e-12)

    def test_monotone(self):
        cfg = tiny_config(mode="hybrid", epochs=200, lambda_max=0.02)
        vals = [lambda_at(t, cfg) for t in range(0, 201, 10)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_far_before_the_ramp_is_zero(self):
        # exp(-arg) overflows a float here
        cfg = tiny_config(mode="hybrid", epochs=10, lambda_mid=36.0, lambda_steepness=20.0)
        assert lambda_at(0, cfg) == 0.0


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_config(mode="nope")
        with pytest.raises(ValueError):
            tiny_config(epochs=0)
        with pytest.raises(ValueError):
            tiny_config(n_x=100, n_pool=50)
        with pytest.raises(ValueError):
            tiny_config(eval_every=0)
        with pytest.raises(ValueError):
            tiny_config(lambda_max=-0.1)

    @pytest.mark.parametrize("key,value", [
        ("width", 0), ("k_bands", 0), ("n_hidden", 0), ("n_x", 0),
        ("lr0", float("nan")), ("lambda_max", float("nan")),
        ("alpha", float("inf")), ("seed", -1), ("eval_every", 0), ("alpha", -1.0),
        ("eps_fraction", -0.1), ("adam_beta1", 1.0), ("adam_beta2", -0.5),
        ("adam_eps", 0.0), ("lr_decay_ratio", -2.0),
    ])
    def test_rejects_bad_numbers(self, key, value):
        with pytest.raises(ValueError, match=key):
            tiny_config(**{key: value})


class TestTrainLoop:
    def _problem(self):
        return make_lens(10, 10, contrast=-0.15)

    def test_rows_and_eval_cadence(self):
        medium, kernel, source, u0 = self._problem()
        from gihelm import linear_system_view, solve_direct

        ref = solve_direct(linear_system_view(kernel, medium, u0))
        net, report = train(tiny_config(), medium, kernel, source, reference=ref)
        assert report.epochs_run == 40
        assert len(report.loss_rows) == 40
        assert [r[0] for r in report.eval_rows] == [20, 40]
        assert report.status == "complete"
        assert np.isfinite(report.nmse)

    def test_early_stop(self):
        medium, kernel, source, u0 = self._problem()
        from gihelm import linear_system_view, solve_direct

        ref = solve_direct(linear_system_view(kernel, medium, u0))
        # threshold above the starting NMSE: stops at the first eval
        cfg = tiny_config(early_stop_nmse=1e6, epochs=100, eval_every=10)
        net, report = train(cfg, medium, kernel, source, reference=ref)
        assert report.status == "early_stop"
        assert report.epochs_run == 10

    def test_deterministic_repeat(self):
        medium, kernel, source, _ = self._problem()
        cfg = tiny_config(mode="hybrid", lambda_max=0.01, seed=7)
        n1, r1 = train(cfg, medium, kernel, source)
        n2, r2 = train(cfg, medium, kernel, source)
        assert r1.loss_rows == r2.loss_rows
        np.testing.assert_array_equal(n1.get_flat(), n2.get_flat())

    def test_lambda_zero_hybrid_equals_gi_mode(self):
        medium, kernel, source, _ = self._problem()
        nh, _ = train(tiny_config(mode="hybrid", lambda_max=0.0, seed=3),
                      medium, kernel, source)
        ng, _ = train(tiny_config(mode="gi", seed=3), medium, kernel, source)
        np.testing.assert_array_equal(nh.get_flat(), ng.get_flat())

    def test_mode_column_layout(self):
        medium, kernel, source, _ = self._problem()
        _, gi_rep = train(tiny_config(seed=1, epochs=4, eval_every=2),
                          medium, kernel, source)
        row = gi_rep.loss_rows[0]
        assert len(row) == len(LOSS_HEADER)
        assert row[3] == "" and row[4] == ""  # no pde term, no lambda
        _, pde_rep = train(
            tiny_config(mode="pde_only", seed=1, epochs=4, eval_every=2),
            medium, kernel, source)
        assert pde_rep.loss_rows[0][2] == ""  # no gi term

    def test_nonfinite_loss_aborts_with_checkpoint(self, tmp_path):
        medium, kernel, source, _ = self._problem()
        cfg = tiny_config(lr0=1e160, epochs=30)
        with pytest.raises(NonFiniteLossError) as err:
            with np.errstate(all="ignore"):
                train(cfg, medium, kernel, source, workdir=tmp_path)
        path = err.value.checkpoint_path
        assert path is not None and str(tmp_path) in str(path)
        saved = load_checkpoint(path)
        assert np.all(np.isfinite(saved.get_flat()))

    def test_nonfinite_gradient_aborts_with_checkpoint(self, tmp_path, monkeypatch):
        import gihelm.training

        medium, kernel, source, _ = self._problem()
        real_gi_loss = gihelm.training.gi_loss
        calls = []

        def poisoned(*args, **kw):
            loss, grad, us = real_gi_loss(*args, **kw)
            calls.append(args[0].get_flat())
            if len(calls) == 3:
                grad = grad.copy()
                grad[0] = np.inf
            return loss, grad, us

        monkeypatch.setattr(gihelm.training, "gi_loss", poisoned)
        with pytest.raises(NonFiniteLossError, match="gradient") as err:
            train(tiny_config(epochs=5), medium, kernel, source, workdir=tmp_path)
        saved = load_checkpoint(err.value.checkpoint_path)
        np.testing.assert_array_equal(saved.get_flat(), calls[-1])

    def test_nonfinite_parameters_abort_with_checkpoint(self, tmp_path):
        # the first Adam step overflows the parameters while loss and gradient
        # are still finite
        medium, kernel, source, _ = self._problem()
        with pytest.raises(NonFiniteLossError, match="parameters") as err:
            train(tiny_config(mode="pde_only", epochs=3, lr0=1.7e308), medium, kernel,
                  source, workdir=tmp_path)
        assert load_checkpoint(err.value.checkpoint_path).n_params > 0

    def test_workdir_csvs(self, tmp_path):
        medium, kernel, source, u0 = self._problem()
        from gihelm import linear_system_view, solve_direct

        ref = solve_direct(linear_system_view(kernel, medium, u0))
        train(tiny_config(epochs=6, eval_every=3), medium, kernel, source,
              reference=ref, workdir=tmp_path)
        loss_blob = (tmp_path / "loss.csv").read_bytes()
        eval_blob = (tmp_path / "eval.csv").read_bytes()
        assert loss_blob.count(b"\r\n") == 7  # header + 6 epochs
        assert loss_blob.decode().splitlines()[0] == ",".join(LOSS_HEADER)
        assert eval_blob.decode().splitlines()[0] == ",".join(EVAL_HEADER)


def test_write_rows_csv_is_rfc4180(tmp_path):
    path = tmp_path / "t.csv"
    write_rows_csv(path, ["a", "b"], [(1, 0.5), (2, 0.25)])
    blob = path.read_bytes()
    assert blob == b"a,b\r\n1,0.5\r\n2,0.25\r\n"
