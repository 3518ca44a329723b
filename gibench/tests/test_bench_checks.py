"""Each output check accepts a right field and rejects a wrong one."""

import math

import numpy as np
import pytest

import gihelm.solvers
import gihelm.training
from gihelm import ComplexField, Grid2D, write_field
from gihelm.operators import linear_system_view

import checks
import workloads
from checks import CheckFailed, Lens

# two wavelengths across a 20 x 20 grid, Born-convergent
LENS = Lens(20, 2.0 / 19, 1.0, 1.0, -0.2, 0.4)
NODE_A, NODE_B = (3, 5), (14, 11)


def direct(lens, source):
    medium, _, kernel, u0 = workloads.lens_problem(lens, source)
    return gihelm.solvers.solve_direct(linear_system_view(kernel, medium, u0)).values


@pytest.fixture(scope="module")
def shots():
    return {node: direct(LENS, LENS.node(*node)) for node in (NODE_A, NODE_B)}


@pytest.fixture(scope="module")
def rows():
    rows = checks.sample_rows(np.random.default_rng(0), LENS, 24)
    return rows, checks.green_rows(LENS, rows)


def residual(field, rows, node=NODE_A, bound=workloads.BORN_RESIDUAL):
    return checks.check_row_residual(LENS, *rows, checks.background(LENS, LENS.node(*node)),
                                     field, bound)


def test_row_residual_accepts_the_direct_solution(shots, rows):
    assert residual(shots[NODE_A], rows, bound=workloads.REFERENCE_RESIDUAL) < 1e-10


def test_row_residual_rejects_a_perturbed_solution(shots, rows):
    us = shots[NODE_A]
    noise = np.random.default_rng(1).standard_normal(us.shape)
    with pytest.raises(CheckFailed, match="sampled-row residual"):
        residual(us * (1.0 + 1e-4 * noise), rows)


def test_row_residual_rejects_the_conjugated_hankel_convention(shots, rows):
    # H0^(1) in place of H0^(2) conjugates the whole system, hence the field
    with pytest.raises(CheckFailed, match="sampled-row residual"):
        residual(np.conj(shots[NODE_A]), rows)


def test_grid_residual_nmse_separates_right_from_wrong(shots):
    u0 = checks.background(LENS, LENS.node(*NODE_A))
    us = shots[NODE_A]
    assert checks.grid_residual_nmse(LENS, u0, us) < 1e-20
    assert checks.grid_residual_nmse(LENS, u0, np.conj(us)) > 1e-3


def test_reciprocity_holds_and_fails_on_a_swapped_pair(shots):
    us_a, us_b = shots[NODE_A], shots[NODE_B]
    assert checks.check_reciprocity(us_a, us_b, NODE_A, NODE_B, workloads.RECIPROCITY) < 1e-10
    with pytest.raises(CheckFailed, match="reciprocity"):
        checks.check_reciprocity(us_b, us_a, NODE_A, NODE_B, workloads.RECIPROCITY)


def test_gihf_reader_follows_the_documented_layout(shots, tmp_path):
    g = Grid2D(LENS.n, LENS.n, LENS.d, LENS.d)
    path = tmp_path / "field.gihf"
    write_field(path, ComplexField(g, shots[NODE_A]))
    got = checks.read_gihf(path, LENS)
    want = shots[NODE_A]
    assert np.array_equal(got.real, want.real.astype(np.float32))
    assert np.array_equal(got.imag, want.imag.astype(np.float32))

    with pytest.raises(CheckFailed, match="grid header"):
        checks.read_gihf(path, Lens(20, 0.1, 1.0, 1.0, -0.2, 0.4))
    path.write_bytes(b"XIHF" + path.read_bytes()[4:])
    with pytest.raises(CheckFailed, match="bad magic"):
        checks.read_gihf(path, LENS)


def test_regime_check():
    checks.check_regime(2, 0, "converged", 1e-10, workloads.LANDWEBER_NMSE)
    for args in [(0, 0, "converged", 1e-10), (2, 0, "max_iters", 1e-10),
                 (2, 0, "converged", 1e-3)]:
        with pytest.raises(CheckFailed):
            checks.check_regime(*args, workloads.LANDWEBER_NMSE)


def test_training_nmse_check():
    checks.check_training_nmse(0.9, 3.0)
    with pytest.raises(CheckFailed, match="zero field"):
        checks.check_training_nmse(1.2, 3.0)
    with pytest.raises(CheckFailed, match="first evaluation"):
        checks.check_training_nmse(0.9, 0.8)


@pytest.mark.parametrize("mode", ["gi", "hybrid"])
def test_loss_columns_of_a_real_run(mode, tmp_path):
    medium, source, kernel, _ = workloads.lens_problem(LENS, LENS.node(*NODE_A))
    epochs, ramp = 12, (0.01, 0.5, 20.0)
    config = gihelm.training.TrainConfig(mode=mode, epochs=epochs, width=8, n_hidden=2,
                                         lambda_max=ramp[0], n_x=16, n_pool=64, n_raw=256)
    gihelm.training.train(config, medium, kernel, source, workdir=tmp_path)
    rows = checks.read_loss_csv(tmp_path / "loss.csv")
    checks.check_loss_columns(rows, mode, epochs, *ramp)

    if mode == "gi":
        rows[3]["pde_loss"] = "0.5"
        with pytest.raises(CheckFailed, match="pde_loss"):
            checks.check_loss_columns(rows, mode, epochs, *ramp)
    else:
        rows[3]["lambda"] = repr(float(rows[3]["lambda"]) * (1 + 1e-9))
        with pytest.raises(CheckFailed, match="lambda"):
            checks.check_loss_columns(rows, mode, epochs, *ramp)
    with pytest.raises(CheckFailed, match="rows"):
        checks.check_loss_columns(rows[:-1], mode, epochs, *ramp)


def test_lambda_ramp_is_the_sigmoid():
    assert checks.lambda_ramp(50, 100, 0.01, 0.5, 20.0) == 0.005
    assert math.isclose(checks.lambda_ramp(0, 100, 0.01, 0.5, 20.0),
                        0.01 / (1.0 + math.exp(10.0)))


def test_block_means():
    stamps = [0.0, 1.0, 3.0, 6.0, 10.0, 15.0]
    assert workloads.block_means(stamps, 2) == [1.5, 3.5]
    assert workloads.block_means(stamps, 50) == [3.0]
    assert workloads.block_means([4.0], 2) == []


def test_epoch_clock_stamps_every_epoch_and_is_removed():
    medium, source, kernel, _ = workloads.lens_problem(LENS, LENS.node(*NODE_A))
    config = gihelm.training.TrainConfig(epochs=7, width=8, n_hidden=2)
    stamps = []
    with workloads.epoch_clock(stamps):
        gihelm.training.train(config, medium, kernel, source)
    assert len(stamps) == 7
    assert gihelm.training.lr_at is gihelm.field.lr_at
