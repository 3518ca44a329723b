"""Frequency-domain acoustic scattering on regular 2D grids.

Solves the scattered-field Helmholtz problem through its volume-integral
form: a Green's-function convolution (FFT fast path plus a dense oracle),
classical fixed-point and gradient iterations, and a sine-activated
neural field trained against the integral and differential residuals.
"""

from .errors import (
    ConfigError,
    FieldFormatError,
    GihelmError,
    NonFiniteLossError,
    ResourceLimitError,
    SingularEvaluationError,
    SingularSystemError,
)
from .grid import (
    ComplexField,
    Grid2D,
    Medium,
    SourceSpec,
    gaussian_lens_medium,
    homogeneous_medium,
    layered_medium,
    normalize_coords,
    normalize_points,
    read_velocity_model,
    taper_perturbation,
    write_velocity_model,
)
from .kernel import (
    GreensKernel,
    background_field,
    build_kernel,
    green0,
    hankel_h0_second,
    next_5smooth,
    self_term,
)
from .operators import (
    DENSE_CAP,
    LinearSystemView,
    gi_reconstruct_dense,
    linear_system_view,
    residual,
    scattering_weights,
)
from .solvers import (
    IterationTrace,
    bisect_to_rho,
    born_iterate,
    estimate_rho,
    estimate_sigma_max,
    landweber_iterate,
    solve_direct,
)
from .field import (
    EncodingConfig,
    NeuralField,
    adam_step,
    encode,
    load_checkpoint,
    lr_at,
    ntk_apply,
    save_checkpoint,
)
from .fieldfile import read_field, write_field
from .training import (
    CollocationPool,
    EvalReport,
    TrainConfig,
    build_pool,
    gi_loss,
    lambda_at,
    nmse,
    pde_loss,
    train,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
