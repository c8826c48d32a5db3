import json
import math
from fractions import Fraction

import pytest

from ellgenus.bvloc import (
    EquivariantSurfaceProblem,
    FixedPointDegenerate,
    bv_localize,
    calibration_problem,
    fixed_point_weights,
    parse_poly,
    q_closedness_residual,
)


def test_parse_poly():
    p = parse_poly("3*z**2 - z/2 + 1")
    assert p(2.0) == pytest.approx(12 - 1 + 1)
    with pytest.raises(ValueError):
        parse_poly("__import__('os')")
    with pytest.raises(ValueError):
        parse_poly("z**z")


def test_q_closedness_examples():
    assert q_closedness_residual(EquivariantSurfaceProblem.make("z", "-1", 1)) < 1e-12
    assert q_closedness_residual(EquivariantSurfaceProblem.make("z**2", "-2*z", 1)) < 1e-12
    # deliberately broken input: |alpha0' + s g| = |1 + s| for g = +1
    for s in (2, 3):
        res = q_closedness_residual(EquivariantSurfaceProblem.make("z", "1", s))
        assert res >= abs(1 + s) - 1e-9


def test_localize_zero_form():
    out = bv_localize(EquivariantSurfaceProblem.make("0", "0", 1))
    assert out["lhs"] == out["rhs"] == 0


def test_localize_rejects_non_closed_input():
    with pytest.raises(ValueError):
        bv_localize(EquivariantSurfaceProblem.make("z", "1", 1))


def test_degenerate_action():
    with pytest.raises(FixedPointDegenerate):
        fixed_point_weights(0)
    with pytest.raises(FixedPointDegenerate):
        calibration_problem(0)


def test_calibration_pins_the_normalization():
    """The quadrature oracle fixes e(z=+-1) = -+ s/(2 pi)."""
    out = bv_localize(calibration_problem(1, 256))
    assert out["residual"] < 1e-6
    assert out["lhs"] == pytest.approx(-4 * math.pi, abs=1e-9)
    e = fixed_point_weights(1)
    assert e[1] == pytest.approx(-1 / (2 * math.pi))
    assert e[-1] == pytest.approx(1 / (2 * math.pi))


def test_frozen_constant_on_independent_problems():
    # alpha0 = z^2, g = -2 z / s: rhs = (1 - 1) * 2 pi / s = 0 = lhs by parity
    out = bv_localize(EquivariantSurfaceProblem.make("z**2", "-2*z", 1, 256))
    assert out["residual"] < 1e-9
    # alpha0 = z^3 + z, g = -(3 z^2 + 1)/s
    out = bv_localize(EquivariantSurfaceProblem.make("z**3 + z", "-(3*z**2 + 1)/2", 2, 256))
    assert out["residual"] < 1e-9


@pytest.mark.parametrize("s", [Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5)])
def test_dh_family(s):
    prob = calibration_problem(s, 512)
    for t in (0.5, 1.0, 2.0):
        assert bv_localize(prob, t)["residual"] < 1e-6
    assert bv_localize(prob)["residual"] < 1e-6


def test_scaling_in_s():
    base = bv_localize(calibration_problem(1, 256))
    doubled = bv_localize(calibration_problem(2, 256))
    assert doubled["rhs"] == pytest.approx(base["rhs"] / 2, abs=1e-12)
    assert doubled["residual"] < 1e-6


def test_grid_convergence():
    # non-polynomial integrand through the exp family: residual decreases
    residuals = []
    for grid in (4, 8, 16, 64):
        prob = calibration_problem(1, grid)
        residuals.append(bv_localize(prob, 2.0)["residual"])
    assert residuals[-1] < residuals[0]
    assert residuals[-1] < 1e-10


def test_problem_file_round_trip():
    rec = {"alpha0": "z**2", "g": "-2*z", "s": "1", "grid": 128}
    prob = EquivariantSurfaceProblem.loads(json.dumps(rec))
    assert prob.grid == 128 and prob.s == 1
    assert bv_localize(prob)["residual"] < 1e-8


def test_localize_rejects_non_finite_values():
    # e^{1000} overflows a float: an error naming t, never a residual
    with pytest.raises(ValueError, match=r"t = 1000\.0 is not finite"):
        bv_localize(calibration_problem(grid=64), 1000.0)
    # infinite coefficients make the closedness residual nan, which must not pass
    with pytest.raises(ValueError, match="not Q-closed"):
        bv_localize(EquivariantSurfaceProblem.make("1e308*z**3", "-3e308*z**2", 1, grid=8))
