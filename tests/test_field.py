"""Sine-activated neural field: encoding, derivatives, NTK, Adam, checkpoints."""

import struct

import numpy as np
import pytest

from gihelm import (
    FieldFormatError,
    NeuralField,
    ResourceLimitError,
    adam_step,
    encode,
    load_checkpoint,
    lr_at,
    ntk_apply,
    save_checkpoint,
)
from gihelm.field import AdamState, EncodingConfig, encode_with_derivs


def small_net(seed=0, width=12, k_bands=2, n_hidden=3):
    return NeuralField.init(np.random.default_rng(seed), width=width,
                            k_bands=k_bands, n_hidden=n_hidden)


def rand_points(rng, n):
    return rng.uniform(-1.0, 2.0, size=(n, 2))


class TestEncoding:
    def test_feature_dim(self):
        assert EncodingConfig(k_bands=3).feature_dim == 14
        with pytest.raises(ValueError):
            EncodingConfig(k_bands=0)

    def test_feature_layout(self):
        z, x = 0.3, 0.7
        f = encode(np.array([[z, x]]), k_bands=2)[0]
        assert f.shape == (10,)
        assert f[0] == x and f[1] == z
        for k in range(2):
            w = 2.0**k * np.pi
            base = 2 + 4 * k
            assert f[base + 0] == pytest.approx(np.sin(w * x))
            assert f[base + 1] == pytest.approx(np.cos(w * x))
            assert f[base + 2] == pytest.approx(np.sin(w * z))
            assert f[base + 3] == pytest.approx(np.cos(w * z))

    def test_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(1)
        pts = rand_points(rng, 6)
        f, gz, gx, hz, hx = encode_with_derivs(pts, k_bands=3)
        h = 1e-6
        dz = np.array([[h, 0.0]])
        dx = np.array([[0.0, h]])
        gz_fd = (encode(pts + dz, 3) - encode(pts - dz, 3)) / (2 * h)
        gx_fd = (encode(pts + dx, 3) - encode(pts - dx, 3)) / (2 * h)
        np.testing.assert_allclose(gz, gz_fd, atol=1e-8)
        np.testing.assert_allclose(gx, gx_fd, atol=1e-8)
        # second differences need a larger step to beat roundoff
        h2 = 1e-4
        dz = np.array([[h2, 0.0]])
        dx = np.array([[0.0, h2]])
        hz_fd = (encode(pts + dz, 3) - 2 * f + encode(pts - dz, 3)) / h2**2
        hx_fd = (encode(pts + dx, 3) - 2 * f + encode(pts - dx, 3)) / h2**2
        np.testing.assert_allclose(hz, hz_fd, rtol=1e-4, atol=1e-5)
        np.testing.assert_allclose(hx, hx_fd, rtol=1e-4, atol=1e-5)


class TestInit:
    def test_architecture_and_bounds(self):
        net = NeuralField.init(7, width=16, k_bands=2, n_hidden=4)
        assert net.layer_dims == [(10, 16), (16, 16), (16, 16), (16, 16), (16, 2)]
        w0 = net.weights[0]
        assert np.max(np.abs(w0)) <= 1.0 / 10
        for w in net.weights[1:]:
            assert np.max(np.abs(w)) <= np.sqrt(6.0 / w.shape[0]) + 1e-15
        for b in net.biases:
            assert np.all(b == 0.0)

    def test_seed_reproducibility(self):
        a = NeuralField.init(3, width=8, k_bands=1, n_hidden=2)
        b = NeuralField.init(3, width=8, k_bands=1, n_hidden=2)
        np.testing.assert_array_equal(a.get_flat(), b.get_flat())

    def test_flat_round_trip(self):
        net = small_net()
        flat = net.get_flat()
        rng = np.random.default_rng(0)
        new = rng.standard_normal(flat.shape)
        net.set_flat(new)
        np.testing.assert_array_equal(net.get_flat(), new)
        bad = new.copy()
        bad[3] = np.inf
        with pytest.raises(ValueError):
            net.set_flat(bad)

    def test_forward_is_complex(self):
        net = small_net()
        rng = np.random.default_rng(2)
        out = net.forward(rand_points(rng, 5))
        assert out.shape == (5,) and out.dtype == np.complex128


def _fd_param_grad(net, loss_fn, entries, h=1e-6):
    theta = net.get_flat()
    grad = np.zeros(len(entries))
    for n, idx in enumerate(entries):
        for sign in (+1.0, -1.0):
            step = theta.copy()
            step[idx] += sign * h
            net.set_flat(step)
            grad[n] += sign * loss_fn(net)
    net.set_flat(theta)
    return grad / (2 * h)


def _sampled_entries(g, rng, count=12):
    # FD is meaningless on near-zero entries: relative error explodes
    idx = np.flatnonzero(np.abs(g) >= 1e-3 * np.abs(g).max())
    return rng.choice(idx, size=min(count, idx.size), replace=False)


class TestGradients:
    def test_param_gradient_of_real_pairing(self):
        net = small_net(seed=5)
        rng = np.random.default_rng(6)
        pts = rand_points(rng, 7)
        adj = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        g = net.param_gradient(pts, adj)

        def pairing(n):
            return float(np.real(np.vdot(adj, n.forward(pts))))

        entries = _sampled_entries(g, rng)
        fd = _fd_param_grad(net, pairing, entries)
        np.testing.assert_allclose(g[entries], fd, rtol=1e-5)

    def test_laplacian_matches_finite_differences(self):
        net = small_net(seed=8)
        rng = np.random.default_rng(9)
        pts = rand_points(rng, 5)
        value, grad, lap = net.laplacian(pts)
        np.testing.assert_allclose(value, net.forward(pts), rtol=1e-14)

        h = 1e-4
        dz = np.array([[h, 0.0]])
        dx = np.array([[0.0, h]])
        fz = (net.forward(pts + dz) - net.forward(pts - dz)) / (2 * h)
        fx = (net.forward(pts + dx) - net.forward(pts - dx)) / (2 * h)
        np.testing.assert_allclose(grad[:, 0], fz, rtol=1e-6, atol=1e-10)
        np.testing.assert_allclose(grad[:, 1], fx, rtol=1e-6, atol=1e-10)
        lap_fd = (
            net.forward(pts + dz) + net.forward(pts - dz)
            + net.forward(pts + dx) + net.forward(pts - dx)
            - 4 * net.forward(pts)
        ) / h**2
        np.testing.assert_allclose(lap, lap_fd, rtol=1e-5, atol=1e-8)

    def test_laplacian_param_gradient(self):
        net = small_net(seed=10)
        rng = np.random.default_rng(11)
        pts = rand_points(rng, 6)
        v_adj = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        l_adj = rng.standard_normal(6) + 1j * rng.standard_normal(6)

        _, _, cache = net.laplacian_with_cache(pts)
        g = net.laplacian_param_gradient(cache, v_adj, l_adj)

        def pairing(n):
            value, _, lap = n.laplacian(pts)
            return float(np.real(np.vdot(v_adj, value) + np.vdot(l_adj, lap)))

        entries = _sampled_entries(g, rng)
        fd = _fd_param_grad(net, pairing, entries)
        np.testing.assert_allclose(g[entries], fd, rtol=2e-5)

    def test_jvp_matches_directional_difference(self):
        net = small_net(seed=12)
        rng = np.random.default_rng(13)
        pts = rand_points(rng, 6)
        tangent = rng.standard_normal(net.n_params)
        jv = net.jvp(pts, tangent)

        h = 1e-7
        theta = net.get_flat()
        net.set_flat(theta + h * tangent)
        up = net.forward(pts)
        net.set_flat(theta - h * tangent)
        dn = net.forward(pts)
        net.set_flat(theta)
        np.testing.assert_allclose(jv, (up - dn) / (2 * h), rtol=1e-6, atol=1e-9)


class TestNtk:
    def test_self_adjoint_under_real_pairing(self):
        net = small_net(seed=14)
        rng = np.random.default_rng(15)
        pts = rand_points(rng, 9)
        u = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        v = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        ku = ntk_apply(net, pts, u)
        kv = ntk_apply(net, pts, v)
        lhs = np.real(np.vdot(u, kv))
        rhs = np.real(np.vdot(ku, v))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_single_complex_parameter_sums_vector(self):
        # field(theta) = (theta_re + i theta_im) at every point:
        # J = ones, so J J^H v = sum(v) at every output
        class ConstantField:
            n_params = 2

            def param_gradient(self, points, adjoint):
                return np.array(
                    [np.sum(np.real(adjoint)), np.sum(np.imag(adjoint))]
                )

            def jvp(self, points, tangent):
                return np.full(len(points), tangent[0] + 1j * tangent[1])

        rng = np.random.default_rng(16)
        v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        out = ntk_apply(ConstantField(), np.zeros((5, 2)), v)
        np.testing.assert_allclose(out, np.full(5, v.sum()), rtol=1e-14)

    def test_point_cap(self):
        net = small_net()
        pts = np.zeros((2001, 2))
        v = np.zeros(2001, dtype=complex)
        with pytest.raises(ResourceLimitError):
            ntk_apply(net, pts, v)


class TestAdam:
    def test_first_step_is_signed_learning_rate(self):
        # with bias correction, step 1 moves by lr*g/(|g| + eps')
        params = np.array([1.0, -2.0])
        grad = np.array([0.3, -0.7])
        state = AdamState.for_params(2)
        new = adam_step(state, params, grad, lr=1e-2)
        np.testing.assert_allclose(
            new, params - 1e-2 * np.sign(grad), rtol=1e-6
        )

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(17)
        params = rng.standard_normal(6)
        state = AdamState.for_params(6)
        m = np.zeros(6)
        v = np.zeros(6)
        b1, b2, eps = 0.9, 0.999, 1e-8
        x = params.copy()
        for t in range(1, 8):
            g = np.sin(x) + 0.1 * x  # arbitrary smooth gradient
            params = adam_step(state, params, g, lr=3e-3)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mh = m / (1 - b1**t)
            vh = v / (1 - b2**t)
            x = x - 3e-3 * mh / (np.sqrt(vh) + eps)
            np.testing.assert_allclose(params, x, rtol=1e-12)
            x = params.copy()

    def test_lr_schedule_pins(self):
        assert lr_at(0, 30000) == pytest.approx(1e-3)
        assert lr_at(30000, 30000) == pytest.approx(3.4e-4)
        assert lr_at(15000, 30000) == pytest.approx(5.831e-4, rel=1e-4)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        net = small_net(seed=18, width=9, k_bands=3, n_hidden=2)
        path = tmp_path / "net.gihc"
        save_checkpoint(net, path)
        back = load_checkpoint(path)
        assert back.layer_dims == net.layer_dims
        assert back.k_bands == net.k_bands
        np.testing.assert_array_equal(back.get_flat(), net.get_flat())

    def test_truncated_file_reports_offset(self, tmp_path):
        net = small_net()
        path = tmp_path / "net.gihc"
        save_checkpoint(net, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 16])
        with pytest.raises(FieldFormatError, match="byte"):
            load_checkpoint(path)

    def test_wrong_magic_rejected(self, tmp_path):
        net = small_net()
        path = tmp_path / "net.gihc"
        save_checkpoint(net, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(FieldFormatError):
            load_checkpoint(path)

    def _rewrite(self, tmp_path, k_bands, dims, payload=None):
        """Checkpoint with a hand-written header, layer table and payload."""
        path = tmp_path / "net.gihc"
        blob = struct.pack("<4sHII", b"GIHC", 1, k_bands, len(dims))
        blob += b"".join(struct.pack("<II", fi, fo) for fi, fo in dims)
        if payload is None:
            payload = np.zeros(sum(fi * fo + fo for fi, fo in dims))
        path.write_bytes(blob + payload.astype("<f8").tobytes())
        return path

    def test_zero_layers_rejected(self, tmp_path):
        path = self._rewrite(tmp_path, 2, [])
        with pytest.raises(FieldFormatError, match="no layers") as err:
            load_checkpoint(path)
        assert err.value.byte_offset == 10

    @pytest.mark.parametrize("k_bands,fan_in", [(3, 10), (2, 11), (1, 10)])
    def test_k_bands_must_match_first_fan_in(self, tmp_path, k_bands, fan_in):
        path = self._rewrite(tmp_path, k_bands, [(fan_in, 4), (4, 2)])
        with pytest.raises(FieldFormatError, match="k_bands") as err:
            load_checkpoint(path)
        assert err.value.byte_offset == 14

    def test_non_finite_payload_reports_offset(self, tmp_path):
        net = small_net()
        flat = net.get_flat()
        flat[5] = np.nan
        path = self._rewrite(tmp_path, net.k_bands, net.layer_dims, flat)
        header = 14 + 8 * len(net.layer_dims)
        with pytest.raises(FieldFormatError, match="non-finite") as err:
            load_checkpoint(path)
        assert err.value.byte_offset == header + 8 * 5

    def test_broken_layer_chain_rejected(self, tmp_path):
        path = self._rewrite(tmp_path, 2, [(10, 4), (5, 2)])
        with pytest.raises(FieldFormatError, match="chain"):
            load_checkpoint(path)
