"""Loss assembly, collocation sampling, schedules, and the training loop.

Two residuals drive the network.  The integral loss compares the field
against its own reconstruction through the Green's-function map, which
is blind to nothing: the total-field-zero shortcut us = -u0 zeroes the
scattering source and leaves the full |u0|^2 as penalty.  The
differential loss is the pointwise Helmholtz residual in normalized
coordinates; it vanishes on us = -u0 away from the source, which is why
it is only ever used as a weighted companion term.
"""

import csv
import math
import time
from dataclasses import dataclass, field as dc_field, fields
from pathlib import Path

import numpy as np

from .errors import NonFiniteLossError
from .field import AdamState, NeuralField, adam_step, lr_at, save_checkpoint, encode
from .grid import ComplexField, normalize_points
from .kernel import background_field
from .operators import convolve, convolve_adjoint, scattering_weights

TWO_PI = 2.0 * np.pi


# -- metrics -----------------------------------------------------------------

def nmse(pred, ref):
    """sum |pred - ref|^2 / sum |ref|^2."""
    p = pred.values if isinstance(pred, ComplexField) else np.asarray(pred)
    r = ref.values if isinstance(ref, ComplexField) else np.asarray(ref)
    if p.shape != r.shape:
        raise ValueError(f"shape mismatch {p.shape} vs {r.shape}")
    denom = float(np.sum(r.real**2 + r.imag**2))
    if denom == 0.0:
        raise ValueError("reference field is identically zero")
    diff = p - r
    return float(np.sum(diff.real**2 + diff.imag**2)) / denom


# -- collocation pool --------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CollocationPool:
    """Importance-selected PDE collocation points with cached medium data.

    points are wavelength-normalized (z~, x~); physical_points are the
    same locations in km; dm and u0 are the perturbation and background
    field sampled at pool construction time.
    """

    points: np.ndarray
    physical_points: np.ndarray
    dm: np.ndarray
    u0: np.ndarray
    n_pool: int


def selection_weights(dm_values, alpha, eps_fraction):
    """Importance I = |dm|^alpha + eps with eps = eps_fraction * max|dm|.

    Degenerate dm = 0 everywhere collapses to uniform weights (I = 1).
    """
    magn = np.abs(np.asarray(dm_values, dtype=np.float64))
    peak = magn.max() if magn.size else 0.0
    if peak == 0.0:
        return np.ones_like(magn)
    return magn**alpha + eps_fraction * peak


def weighted_sample_without_replacement(rng, weights, k):
    """k indices drawn without replacement with probability proportional
    to weights, via smallest exponential(1)/w keys."""
    w = np.asarray(weights, dtype=np.float64)
    if k > w.size:
        raise ValueError(f"cannot draw {k} from {w.size} candidates")
    if (w <= 0).any() or not np.isfinite(w).all():
        raise ValueError("weights must be finite and strictly positive")
    keys = rng.exponential(size=w.size) / w
    if k == w.size:
        return np.argsort(keys)
    return np.argpartition(keys, k)[:k]


def _bilinear(grid_values, grid, pts):
    fz = np.clip((pts[:, 0] - grid.z0) / grid.dz, 0.0, grid.nz - 1.0)
    fx = np.clip((pts[:, 1] - grid.x0) / grid.dx, 0.0, grid.nx - 1.0)
    iz = np.minimum(fz.astype(np.intp), grid.nz - 2)
    ix = np.minimum(fx.astype(np.intp), grid.nx - 2)
    tz, tx = fz - iz, fx - ix
    v = grid_values
    return ((1 - tz) * (1 - tx) * v[iz, ix] + (1 - tz) * tx * v[iz, ix + 1]
            + tz * (1 - tx) * v[iz + 1, ix] + tz * tx * v[iz + 1, ix + 1])


def build_pool(medium, source, n_pool, n_raw, alpha, eps_fraction, rng):
    """Draw n_raw uniform candidates over the interior box, keep n_pool of
    them without replacement with probability proportional to
    |dm|^alpha + eps_fraction * max|dm|, and cache dm and U0 there.

    rng may be a seed or a Generator; training passes its own stream so
    the whole run is one deterministic sequence of draws.
    """
    if n_raw < n_pool:
        raise ValueError(f"need n_raw >= n_pool, got {n_raw} < {n_pool}")
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    rng = np.random.default_rng(rng)
    g = medium.grid
    zsl, xsl = medium.interior
    z_lo, z_hi = g.z0 + zsl.start * g.dz, g.z0 + (zsl.stop - 1) * g.dz
    x_lo, x_hi = g.x0 + xsl.start * g.dx, g.x0 + (xsl.stop - 1) * g.dx
    cand = np.column_stack([rng.uniform(z_lo, z_hi, n_raw),
                            rng.uniform(x_lo, x_hi, n_raw)])
    dm_cand = _bilinear(medium.delta_m, g, cand)
    weights = selection_weights(dm_cand, alpha, eps_fraction)
    keep = np.sort(weighted_sample_without_replacement(rng, weights, n_pool))
    physical = cand[keep]
    u0 = background_field(medium, source, physical)
    return CollocationPool(
        points=normalize_points(physical, medium.omega, medium.v0),
        physical_points=physical,
        dm=dm_cand[keep],
        u0=u0,
        n_pool=n_pool,
    )


# -- losses ------------------------------------------------------------------

def gi_loss(field, kernel, medium, u0, grid_features=None, buffers=None):
    """Mean squared integral mismatch on the grid, with parameter gradient.

    Evaluates Us at every grid node, reconstructs it through the padded
    convolution, and penalizes (1/N_y) sum |Us_hat - Us|^2 over the
    medium interior.  The reconstruction participates in the gradient:
    the pullback of the mismatch through the convolution is
    (2/N)(M C^H E - E) with M the diagonal w^2 dm W map from
    scattering_weights.  buffers, from field.layer_buffers, hold the
    network's per-layer arrays between calls.
    """
    g = medium.grid
    if kernel.physical_grid != g or u0.grid != g:
        raise ValueError("kernel, medium, and u0 must share one grid")
    if grid_features is None:
        grid_features = grid_encoding(field, medium)
    out, cache = field._forward_from_features(grid_features, buffers=buffers)
    us = (out[:, 0] + 1j * out[:, 1]).reshape(g.shape)

    m_values = scattering_weights(medium)
    rec = convolve(kernel, m_values * (u0.values + us))
    err = rec - us
    mask = medium.interior_mask()
    n_obs = int(mask.sum())
    masked = np.where(mask, err, 0.0)
    loss = float(np.sum(masked.real**2 + masked.imag**2)) / n_obs

    w_adj = (2.0 / n_obs) * (m_values * convolve_adjoint(kernel, masked) - masked)
    grad = field._backward_from_cache(cache, np.column_stack(
        [w_adj.real.ravel(), w_adj.imag.ravel()]))
    return loss, grad, us


def grid_encoding(field, medium):
    """Encoded features of the medium's grid nodes (cache for gi_loss)."""
    g = medium.grid
    zz, xx = np.meshgrid(g.z_coords(), g.x_coords(), indexing="ij")
    pts = np.column_stack([zz.ravel(), xx.ravel()])
    return encode(normalize_points(pts, medium.omega, medium.v0), field.k_bands)


def pde_loss(field, medium, points, dm, u0, residual_scale=1.0, with_grad=True):
    """Mean squared Helmholtz residual at normalized collocation points.

    The residual (lap + w^2 m) Us + w^2 dm U0 is evaluated with the
    network Laplacian taken in normalized coordinates, which carries the
    factor (w / 2 pi v0)^2 back to physical space.  points are (z~, x~);
    dm and u0 are the cached per-point medium samples.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    dm = np.asarray(dm, dtype=np.float64)
    u0 = np.asarray(u0, dtype=np.complex128)
    n = pts.shape[0]
    w2 = medium.omega**2
    lap_factor = (medium.omega / (TWO_PI * medium.v0)) ** 2
    m_pts = medium.m0 + dm

    if with_grad:
        value, lap, cache = field.laplacian_with_cache(pts)
    else:
        value, _, lap = field.laplacian(pts)
    res = residual_scale * (lap_factor * lap + w2 * m_pts * value + w2 * dm * u0)
    loss = float(np.mean(res.real**2 + res.imag**2))
    if not with_grad:
        return loss, None
    common = (2.0 / n) * residual_scale * res
    grad = field.laplacian_param_gradient(
        cache, value_adjoint=w2 * m_pts * common, lap_adjoint=lap_factor * common)
    return loss, grad


def lambda_at(epoch, config):
    """Sigmoid ramp lambda_max * sigma(s (t/T - t_mid)) of the PDE weight."""
    t = epoch / config.epochs
    arg = config.lambda_steepness * (t - config.lambda_mid)
    return config.lambda_max / (1.0 + math.exp(-arg))


# -- training loop -----------------------------------------------------------

MODES = ("gi", "hybrid", "pde_only")


@dataclass
class TrainConfig:
    mode: str = "gi"
    epochs: int = 30000
    width: int = 128
    k_bands: int = 3
    n_hidden: int = 5
    seed: int = 0
    lr0: float = 1e-3
    lr_decay_ratio: float = 0.34
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    lambda_max: float = 0.01
    lambda_mid: float = 0.5
    lambda_steepness: float = 20.0
    n_x: int = 512
    n_pool: int = 4096
    n_raw: int = 16384
    alpha: float = 1.0
    eps_fraction: float = 0.01
    pde_residual_scale: float = 1.0
    eval_every: int = 500
    early_stop_nmse: float = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        for name in ("epochs", "width", "k_bands", "n_hidden", "n_x"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.lambda_max < 0:
            raise ValueError("lambda_max must be >= 0")
        if not self.n_x <= self.n_pool <= self.n_raw:
            raise ValueError("need n_x <= n_pool <= n_raw")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")


@dataclass
class EvalReport:
    nmse: float
    mae: float
    wall_time_s: float
    epochs_run: int
    status: str
    loss_rows: list = dc_field(default_factory=list)
    eval_rows: list = dc_field(default_factory=list)


LOSS_HEADER = ["epoch", "total_loss", "gi_loss", "pde_loss", "lambda", "lr"]
EVAL_HEADER = ["epoch", "nmse"]


def write_rows_csv(path, header, rows):
    """RFC-4180 CSV (CRLF, header row); floats via repr for stable bytes."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _predict_grid(field, grid_features, shape):
    out, _ = field._forward_from_features(grid_features, keep_cache=False)
    return (out[:, 0] + 1j * out[:, 1]).reshape(shape)


def _abort_non_finite(net, workdir, message):
    """Raise NonFiniteLossError, first saving the network's current (last
    finite) parameters as a diagnostic checkpoint when a workdir is given."""
    ckpt = None
    if workdir is not None:
        ckpt = str(Path(workdir) / "diagnostic.gihc")
        save_checkpoint(net, ckpt)
    raise NonFiniteLossError(message, checkpoint_path=ckpt)


def train(config, medium, kernel, source, reference=None, workdir=None):
    """Run one training job; returns (field, EvalReport).

    Deterministic per (config, platform): one seeded generator drives
    network init, pool selection, and per-epoch batch draws in a fixed
    order, and the PDE machinery is skipped entirely in gi mode and in
    hybrid mode with lambda_max = 0 so those two configs produce
    bit-identical trajectories.  A non-finite loss or gradient aborts with
    the last finite parameters saved as a diagnostic checkpoint when a
    workdir is given.
    """
    rng = np.random.default_rng(config.seed)
    net = NeuralField.init(rng, width=config.width, k_bands=config.k_bands,
                           n_hidden=config.n_hidden)
    u0 = background_field(medium, source)
    feats = grid_encoding(net, medium)
    buffers = net.layer_buffers(feats.shape[0])
    mask = medium.interior_mask()

    use_gi = config.mode != "pde_only"
    use_pde = config.mode == "pde_only" or (config.mode == "hybrid" and config.lambda_max > 0)
    pool = None
    if use_pde:
        pool = build_pool(medium, source, config.n_pool, config.n_raw,
                          config.alpha, config.eps_fraction, rng)

    state = AdamState.for_params(net.n_params, beta1=config.adam_beta1,
                                 beta2=config.adam_beta2, eps=config.adam_eps)
    theta = net.get_flat()
    loss_rows, eval_rows = [], []
    status = "complete"
    epochs_run = 0
    t0 = time.perf_counter()

    for t in range(config.epochs):
        loss_gi_v, grad, us_grid = None, None, None
        if use_gi:
            loss_gi_v, grad, us_grid = gi_loss(net, kernel, medium, u0, feats, buffers)
        loss_pde_v, lam = None, None
        if use_pde:
            batch = rng.choice(config.n_pool, size=config.n_x, replace=False)
            loss_pde_v, grad_pde = pde_loss(
                net, medium, pool.points[batch], pool.dm[batch], pool.u0[batch],
                residual_scale=config.pde_residual_scale)
            if config.mode == "pde_only":
                grad = grad_pde
                total = loss_pde_v
            else:
                lam = lambda_at(t, config)
                grad = grad + lam * grad_pde
                total = loss_gi_v + lam * loss_pde_v
        else:
            total = loss_gi_v

        if not np.isfinite(total):
            _abort_non_finite(net, workdir, f"loss became non-finite at epoch {t}")
        if not np.isfinite(grad).all():
            _abort_non_finite(net, workdir, f"gradient became non-finite at epoch {t}")

        lr = lr_at(t, config.epochs, config.lr0, config.lr_decay_ratio)
        theta = adam_step(state, theta, grad, lr)
        net.set_flat(theta)
        epochs_run = t + 1
        loss_rows.append((t,
                          float(total),
                          float(loss_gi_v) if loss_gi_v is not None else "",
                          float(loss_pde_v) if loss_pde_v is not None else "",
                          float(lam) if lam is not None else "",
                          float(lr)))

        if reference is not None and (epochs_run % config.eval_every == 0
                                      or epochs_run == config.epochs):
            pred = _predict_grid(net, feats, medium.grid.shape)
            score = nmse(pred[mask], reference.values[mask])
            eval_rows.append((epochs_run, float(score)))
            if config.early_stop_nmse is not None and score <= config.early_stop_nmse:
                status = "early_stop"
                break

    wall = time.perf_counter() - t0
    final_nmse, final_mae = float("nan"), float("nan")
    pred = _predict_grid(net, feats, medium.grid.shape)
    if reference is not None:
        final_nmse = nmse(pred[mask], reference.values[mask])
        final_mae = float(np.mean(np.abs(pred[mask] - reference.values[mask])))
        if not eval_rows or eval_rows[-1][0] != epochs_run:
            eval_rows.append((epochs_run, final_nmse))

    report = EvalReport(nmse=final_nmse, mae=final_mae, wall_time_s=wall,
                        epochs_run=epochs_run, status=status,
                        loss_rows=loss_rows, eval_rows=eval_rows)
    if workdir is not None:
        workdir = Path(workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        write_rows_csv(workdir / "loss.csv", LOSS_HEADER, loss_rows)
        write_rows_csv(workdir / "eval.csv", EVAL_HEADER, eval_rows)
    return net, report
