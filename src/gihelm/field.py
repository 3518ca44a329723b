"""Sine-activated neural representation of the scattered field.

The network maps wavelength-normalized coordinates (z~, x~) through a
sinusoidal feature encoding and a stack of sine-activated dense layers
to two real outputs, read as (Re Us, Im Us).  Spatial derivatives are
propagated analytically alongside the values: each sine layer
y = sin(W x + b) carries the first derivatives x_z, x_x of its input
along z~ and x~, and the input's Laplacian h = x_zz + x_xx as one array:

    y_z = cos(p) (W x_z),   y_x = cos(p) (W x_x),   p = W x + b
    h'  = cos(p) (W h) - sin(p) ((W x_z)^2 + (W x_x)^2)

This is exact because a layer is linear in h, and yields the exact
Laplacian for the differential residual without finite differences.
The reverse passes below backpropagate through this derivative
propagation as well, so losses may touch values and Laplacians alike.

All parameters live in one flat float64 vector (param_layout): layer by
layer, the row-major (fan_in, fan_out) weight matrix and then the bias.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .errors import FieldFormatError, ResourceLimitError

NTK_POINT_CAP = 2000

CHECKPOINT_MAGIC = b"GIHC"
CHECKPOINT_VERSION = 1


def feature_dim(k_bands):
    """Width of the encoding with frequency bands 2^k pi, k = 0..k_bands-1."""
    if k_bands < 1:
        raise ValueError(f"k_bands must be >= 1, got {k_bands}")
    return 2 + 4 * k_bands


def encode(points, k_bands):
    """Features [x~, z~, sin/cos(2^k pi x~), sin/cos(2^k pi z~)]_{k<K}.

    points is (N, 2) in (z~, x~) row order; the raw coordinates pass
    through as the first two features with x~ leading.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    z, x = pts[:, 0], pts[:, 1]
    feats = np.empty((pts.shape[0], feature_dim(k_bands)))
    feats[:, 0] = x
    feats[:, 1] = z
    for k in range(k_bands):
        w = (2.0**k) * np.pi
        base = 2 + 4 * k
        feats[:, base + 0] = np.sin(w * x)
        feats[:, base + 1] = np.cos(w * x)
        feats[:, base + 2] = np.sin(w * z)
        feats[:, base + 3] = np.cos(w * z)
    return feats


def encode_with_derivs(points, k_bands):
    """encode plus first and second feature derivatives along z~ and x~."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n = pts.shape[0]
    d = feature_dim(k_bands)
    f = encode(pts, k_bands)
    gz = np.zeros((n, d))
    gx = np.zeros((n, d))
    hz = np.zeros((n, d))
    hx = np.zeros((n, d))
    gx[:, 0] = 1.0
    gz[:, 1] = 1.0
    for k in range(k_bands):
        w = (2.0**k) * np.pi
        base = 2 + 4 * k
        sx, cx = f[:, base + 0], f[:, base + 1]
        sz, cz = f[:, base + 2], f[:, base + 3]
        gx[:, base + 0] = w * cx
        gx[:, base + 1] = -w * sx
        hx[:, base + 0] = -(w * w) * sx
        hx[:, base + 1] = -(w * w) * cx
        gz[:, base + 2] = w * cz
        gz[:, base + 3] = -w * sz
        hz[:, base + 2] = -(w * w) * sz
        hz[:, base + 3] = -(w * w) * cz
    return f, gz, gx, hz, hx


def param_layout(dims, flat=None):
    """The flat parameter layout of a network with layer shapes dims.

    Returns (n, weights, biases): the vector length n and, when a flat
    vector of that length is given, per-layer weight and bias views into
    it (the lists are empty otherwise, so a layer table can be sized
    before any vector is made).
    """
    n = sum(fi * fo + fo for fi, fo in dims)
    weights, biases = [], []
    if flat is not None:
        if flat.shape != (n,):
            raise ValueError(f"expected {n} values, got {flat.shape}")
        at = 0
        for fi, fo in dims:
            weights.append(flat[at:at + fi * fo].reshape(fi, fo))
            at += fi * fo
            biases.append(flat[at:at + fo])
            at += fo
    return n, weights, biases


def _sincos(p, cos_out=None):
    """sin(p) and cos(p) of a layer's pre-activation, both needed per layer.

    p is consumed: sin(p) is written over it, and cos(p) into cos_out when
    one is given, so no new array is made per layer.
    """
    c = np.cos(p, out=cos_out)
    return np.sin(p, out=p), c


class NeuralField:
    """Encoded-input MLP with sine hidden layers and a linear 2-real output.

    Architecture is fixed at construction; parameters are mutable through
    set_flat so one optimizer state can drive the object in place.
    weights[i] and biases[i] are views into the one parameter vector.
    """

    def __init__(self, weights, biases, k_bands):
        if len(weights) != len(biases) or not weights:
            raise ValueError("need matching, nonempty weight and bias lists")
        if weights[0].shape[0] != feature_dim(k_bands):
            raise ValueError(
                f"first layer expects {feature_dim(k_bands)} features, "
                f"got fan-in {weights[0].shape[0]}")
        if weights[-1].shape[1] != 2:
            raise ValueError("output layer must have 2 units (Re, Im)")
        for i, (w, b) in enumerate(zip(weights, biases)):
            if w.ndim != 2 or b.shape != (w.shape[1],):
                raise ValueError(f"layer {i}: weight/bias shape mismatch")
            if i > 0 and w.shape[0] != weights[i - 1].shape[1]:
                raise ValueError(f"layer {i}: fan-in does not chain")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {i}: non-finite parameters")
        self.k_bands = k_bands
        dims = [w.shape for w in weights]
        self._flat = np.empty(param_layout(dims)[0])
        _, self.weights, self.biases = param_layout(dims, self._flat)
        for dst, src in zip(self.weights + self.biases, [*weights, *biases]):
            dst[...] = src

    @classmethod
    def init(cls, seed, width=128, k_bands=3, n_hidden=5):
        """Seeded init: first layer U(+-1/fan_in), rest U(+-sqrt(6/fan_in)).

        The sqrt(6/fan_in) spread keeps hidden pre-activations within
        roughly one principal branch of the sine at init (std about 1).
        """
        if width < 1 or n_hidden < 1:
            raise ValueError("width and n_hidden must be >= 1")
        rng = np.random.default_rng(seed)
        dims = [feature_dim(k_bands)] + [width] * n_hidden + [2]
        weights, biases = [], []
        for i in range(len(dims) - 1):
            fan_in = dims[i]
            bound = 1.0 / fan_in if i == 0 else np.sqrt(6.0 / fan_in)
            weights.append(rng.uniform(-bound, bound, size=(fan_in, dims[i + 1])))
            biases.append(np.zeros(dims[i + 1]))
        return cls(weights, biases, k_bands)

    @property
    def n_hidden(self):
        return len(self.weights) - 1

    @property
    def layer_dims(self):
        return [(w.shape[0], w.shape[1]) for w in self.weights]

    @property
    def n_params(self):
        return self._flat.size

    def get_flat(self):
        return self._flat.copy()

    def set_flat(self, flat):
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (self.n_params,):
            raise ValueError(f"expected {self.n_params} parameters, got {flat.shape}")
        if not np.isfinite(flat).all():
            raise ValueError("non-finite parameters")
        self._flat[...] = flat

    def _param_like(self):
        """A new flat vector and its per-layer (weight, bias) views."""
        flat = np.empty(self.n_params)
        _, weights, biases = param_layout(self.layer_dims, flat)
        return flat, weights, biases

    # -- value ------------------------------------------------------------

    def forward(self, points):
        """Complex Us at (N, 2) points in (z~, x~); scalar point allowed."""
        feats = encode(points, self.k_bands)
        out, _ = self._forward_from_features(feats, keep_cache=False)
        values = out[:, 0] + 1j * out[:, 1]
        return values[0] if np.asarray(points).ndim == 1 else values

    def layer_buffers(self, n_points):
        """Per hidden layer, the two (n_points, width) arrays that
        _forward_from_features fills (sin, cos); reusing them across calls
        spares the allocator fresh, zeroed pages every epoch."""
        return [(np.empty((n_points, w.shape[1])), np.empty((n_points, w.shape[1])))
                for w in self.weights[:-1]]

    def _forward_from_features(self, feats, keep_cache=True, buffers=None):
        """Output and, with keep_cache, the per-layer (input, sin, cos).

        buffers, from layer_buffers, receive the sin and cos arrays; the
        cache then refers to them until the next call that uses them.
        """
        x = feats
        cache = [] if keep_cache else None
        for layer, (w, b) in enumerate(zip(self.weights[:-1], self.biases[:-1])):
            p, c_out = (None, None) if buffers is None else buffers[layer]
            p = np.matmul(x, w, out=p)
            p += b
            s, c = _sincos(p, c_out)
            if keep_cache:
                cache.append((x, s, c))
            x = s
        out = x @ self.weights[-1] + self.biases[-1]
        if keep_cache:
            cache.append((x, None, None))
        return out, cache

    def _backward_from_cache(self, cache, d_out):
        """Parameter gradient of sum(d_out * output) given a forward cache."""
        grad, grads_w, grads_b = self._param_like()
        x_last = cache[-1][0]
        np.matmul(x_last.T, d_out, out=grads_w[-1])
        d_out.sum(axis=0, out=grads_b[-1])
        dx = d_out @ self.weights[-1].T
        for layer in range(self.n_hidden - 1, -1, -1):
            x_in, _, c = cache[layer]
            dp = dx * c
            np.matmul(x_in.T, dp, out=grads_w[layer])
            dp.sum(axis=0, out=grads_b[layer])
            if layer > 0:
                dx = dp @ self.weights[layer].T
        return grad

    def param_gradient(self, points, adjoint):
        """Gradient of Re<adjoint, Us> = sum_j (Re a_j Re u_j + Im a_j Im u_j).

        adjoint is complex per point; this is the real-pairing pullback
        J_a^T Re(adjoint) + J_b^T Im(adjoint) over the flat parameters.
        """
        adj = np.asarray(adjoint, dtype=np.complex128).ravel()
        if not np.isfinite(adj).all():
            raise ValueError("adjoint must be finite")
        feats = encode(points, self.k_bands)
        if feats.shape[0] != adj.shape[0]:
            raise ValueError("adjoint length does not match point count")
        _, cache = self._forward_from_features(feats)
        d_out = np.column_stack([adj.real, adj.imag])
        return self._backward_from_cache(cache, d_out)

    # -- spatial derivatives ----------------------------------------------

    def laplacian(self, points):
        """(value, gradient, laplacian) of Us in normalized coordinates.

        gradient is (N, 2) complex ordered (d/dz~, d/dx~); laplacian is
        the exact d2/dz~2 + d2/dx~2.
        """
        value, grad, lap, _ = self._laplacian_full(points, keep_cache=False)
        return value, grad, lap

    def laplacian_with_cache(self, points):
        """(value, laplacian, cache) for a later laplacian_param_gradient."""
        value, _, lap, cache = self._laplacian_full(points, keep_cache=True)
        return value, lap, cache

    def _laplacian_full(self, points, keep_cache):
        x, gz, gx, hz, hx = encode_with_derivs(points, self.k_bands)
        h = hz + hx
        cache = [] if keep_cache else None
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            p = x @ w + b
            s, c = _sincos(p)
            gpz, gpx = gz @ w, gx @ w
            hp = h @ w
            if keep_cache:
                cache.append((x, gz, gx, h, s, c, gpz, gpx, hp))
            x = s
            gz, gx = c * gpz, c * gpx
            h = c * hp - s * (gpz**2 + gpx**2)
        w_out = self.weights[-1]
        out = x @ w_out + self.biases[-1]
        g2z, g2x = gz @ w_out, gx @ w_out
        h2 = h @ w_out
        if keep_cache:
            cache.append((x, h))
        value = out[:, 0] + 1j * out[:, 1]
        grad = np.stack([g2z[:, 0] + 1j * g2z[:, 1], g2x[:, 0] + 1j * g2x[:, 1]], axis=1)
        lap = h2[:, 0] + 1j * h2[:, 1]
        return value, grad, lap, cache

    def laplacian_param_gradient(self, cache, value_adjoint, lap_adjoint):
        """Gradient of Re<value_adjoint, Us> + Re<lap_adjoint, lap Us>.

        Backpropagates through the (value, first derivative, Laplacian)
        propagation of _laplacian_full, so the Laplacian's dependence on
        every layer's weights is accounted for exactly.
        """
        v_adj = np.asarray(value_adjoint, dtype=np.complex128).ravel()
        l_adj = np.asarray(lap_adjoint, dtype=np.complex128).ravel()
        d_val = np.column_stack([v_adj.real, v_adj.imag])
        d_lap = np.column_stack([l_adj.real, l_adj.imag])
        grad, grads_w, grads_b = self._param_like()

        x, h = cache[-1]
        w_out = self.weights[-1]
        # out = x W + b; lap_out = h W: first derivatives feed the output
        # only through deeper layers, which do not exist here.
        np.matmul(x.T, d_val, out=grads_w[-1])
        grads_w[-1] += h.T @ d_lap
        d_val.sum(axis=0, out=grads_b[-1])
        dx = d_val @ w_out.T
        dgz = np.zeros_like(dx)
        dgx = np.zeros_like(dx)
        dh = d_lap @ w_out.T

        for layer in range(self.n_hidden - 1, -1, -1):
            x, gz, gx, h, s, c, gpz, gpx, hp = cache[layer]
            w = self.weights[layer]
            # outputs were: x' = s; g' = c gp; h' = c hp - s (gpz^2 + gpx^2)
            dp = dx * c
            dp -= s * (dgz * gpz + dgx * gpx + dh * hp)
            dp -= dh * c * (gpz**2 + gpx**2)
            ds = 2.0 * dh * s
            dgpz = dgz * c - ds * gpz
            dgpx = dgx * c - ds * gpx
            dhp = dh * c
            np.matmul(x.T, dp, out=grads_w[layer])
            grads_w[layer] += gz.T @ dgpz + gx.T @ dgpx + h.T @ dhp
            dp.sum(axis=0, out=grads_b[layer])
            if layer > 0:
                dx = dp @ w.T
                dgz, dgx = dgpz @ w.T, dgpx @ w.T
                dh = dhp @ w.T
        return grad

    # -- parameter tangents -------------------------------------------------

    def jvp(self, points, tangent):
        """Directional derivative of Us along a flat parameter tangent."""
        _, dws, dbs = param_layout(self.layer_dims, np.asarray(tangent, dtype=np.float64))
        x = encode(points, self.k_bands)
        dx = np.zeros_like(x)
        for w, b, dw, db in zip(self.weights[:-1], self.biases[:-1], dws, dbs):
            p = x @ w + b
            s, c = _sincos(p)
            dp = x @ dw + db + dx @ w
            x, dx = s, c * dp
        d_out = x @ dws[-1] + dbs[-1] + dx @ self.weights[-1]
        return d_out[:, 0] + 1j * d_out[:, 1]


def ntk_apply(field, points, vector):
    """Tangent-kernel action J (J^H v) under the real output pairing.

    One reverse pass pulls the complex field-space vector back to
    parameter space, one forward-tangent pass pushes it forward again.
    Diagnostic only, hence the NTK_POINT_CAP on the point count.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.shape[0] > NTK_POINT_CAP:
        raise ResourceLimitError(
            f"ntk_apply refused: {pts.shape[0]} points exceeds cap {NTK_POINT_CAP}")
    pullback = field.param_gradient(pts, vector)
    return field.jvp(pts, pullback)


# -- optimizer --------------------------------------------------------------

@dataclass
class AdamState:
    """First/second moment accumulators and step counter."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, n_params, beta1=0.9, beta2=0.999, eps=1e-8):
        return cls(np.zeros(n_params), np.zeros(n_params), 0, beta1, beta2, eps)


def adam_step(state, params, grad, lr):
    """One bias-corrected Adam update; returns the new parameter vector."""
    if params.shape != grad.shape or params.shape != state.m.shape:
        raise ValueError("parameter, gradient, and moment shapes must match")
    state.t += 1
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * grad
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * grad**2
    m_hat = state.m / (1.0 - state.beta1**state.t)
    v_hat = state.v / (1.0 - state.beta2**state.t)
    return params - lr * m_hat / (np.sqrt(v_hat) + state.eps)


def lr_at(step, total, lr0=1e-3, decay_ratio=0.34):
    """Exponential schedule lr0 * decay_ratio^(t/T): lr0 down to lr0*ratio."""
    if total <= 0:
        raise ValueError("total must be positive")
    return lr0 * decay_ratio ** (step / total)


# -- checkpoints -------------------------------------------------------------

def save_checkpoint(field, path):
    """Versioned little-endian parameter dump; round-trips bit-exactly."""
    dims = field.layer_dims
    header = struct.pack("<4sHII", CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                         field.k_bands, len(dims))
    shapes = b"".join(struct.pack("<II", fi, fo) for fi, fo in dims)
    payload = field.get_flat().astype("<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(shapes)
        fh.write(payload)


def load_checkpoint(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    head_size = struct.calcsize("<4sHII")
    if len(blob) < head_size:
        raise FieldFormatError("checkpoint truncated before header", byte_offset=len(blob))
    magic, version, k_bands, n_layers = struct.unpack_from("<4sHII", blob, 0)
    if magic != CHECKPOINT_MAGIC:
        raise FieldFormatError(f"bad checkpoint magic {magic!r}", byte_offset=0)
    if version != CHECKPOINT_VERSION:
        raise FieldFormatError(f"unsupported checkpoint version {version}")
    # header: magic at byte 0, version at 4, k_bands at 6, n_layers at 10
    if k_bands < 1:
        raise FieldFormatError(f"checkpoint k_bands must be >= 1, got {k_bands}",
                               byte_offset=6)
    if n_layers < 1:
        raise FieldFormatError("checkpoint has no layers", byte_offset=10)
    pos = head_size
    dims = []
    for _ in range(n_layers):
        if pos + 8 > len(blob):
            raise FieldFormatError("checkpoint truncated in layer table", byte_offset=len(blob))
        fi, fo = struct.unpack_from("<II", blob, pos)
        dims.append((fi, fo))
        pos += 8
    if dims[0][0] != feature_dim(k_bands):
        raise FieldFormatError(
            f"checkpoint k_bands {k_bands} needs a first-layer fan-in of "
            f"{feature_dim(k_bands)}, got {dims[0][0]}", byte_offset=head_size)
    n_params, _, _ = param_layout(dims)
    expected = pos + 8 * n_params
    if len(blob) != expected:
        raise FieldFormatError(
            f"checkpoint payload holds {len(blob) - pos} bytes, expected {8 * n_params}",
            byte_offset=min(len(blob), expected))
    flat = np.frombuffer(blob, dtype="<f8", count=n_params, offset=pos)
    bad = np.flatnonzero(~np.isfinite(flat))
    if bad.size:
        raise FieldFormatError("checkpoint holds a non-finite parameter",
                               byte_offset=pos + 8 * int(bad[0]))
    _, weights, biases = param_layout(dims, flat)
    try:
        return NeuralField(weights, biases, k_bands)
    except ValueError as exc:
        raise FieldFormatError(f"checkpoint layer table: {exc}",
                               byte_offset=head_size) from exc
