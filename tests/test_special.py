"""Bessel/Hankel evaluation against the frozen arbitrary-precision table."""

import json
from pathlib import Path

import numpy as np
import pytest

from gihelm.special import bessel_j0_y0, hankel_h0_second

REFERENCE = json.loads(
    (Path(__file__).parent / "data" / "bessel_reference.json").read_text()
)


def _columns():
    rows = REFERENCE["values"]
    x = np.array([float(row["x"]) for row in rows])
    j0 = np.array([float(row["j0"]) for row in rows])
    y0 = np.array([float(row["y0"]) for row in rows])
    return x, j0, y0


def test_reference_table_spans_both_branches():
    x, _, _ = _columns()
    assert x.min() < 1e-6 and x.max() > 1e3
    assert np.any(x < 12.0) and np.any(x > 12.0)


def test_j0_y0_against_reference():
    # floored-relative error: near the functions' zeros the meaningful
    # bound is absolute
    x, j0_ref, y0_ref = _columns()
    j0, y0 = bessel_j0_y0(x)
    scale_j = np.maximum(np.abs(j0_ref), 1e-3)
    scale_y = np.maximum(np.abs(y0_ref), 1e-3)
    assert np.max(np.abs(j0 - j0_ref) / scale_j) < 1e-9
    assert np.max(np.abs(y0 - y0_ref) / scale_y) < 1e-9


def test_hankel_h0_second_pinned_values():
    h1 = hankel_h0_second(np.array([1.0]))[0]
    assert h1 == pytest.approx(0.7651976866 - 0.0882569642j, abs=1e-9)
    h01 = hankel_h0_second(np.array([0.1]))[0]
    assert h01.imag == pytest.approx(1.5342, abs=5e-5)


def test_hankel_combination_identity():
    x = np.geomspace(1e-4, 100.0, 200)
    j0, y0 = bessel_j0_y0(x)
    h = hankel_h0_second(x)
    np.testing.assert_allclose(h.real, j0, rtol=0, atol=1e-15)
    np.testing.assert_allclose(h.imag, -y0, rtol=0, atol=1e-15)


def test_nonpositive_argument_rejected():
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            bessel_j0_y0(np.array([1.0, bad]))
