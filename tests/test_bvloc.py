import json
import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from ellgenus import bvloc
from ellgenus.bvloc import (
    MAX_GRID,
    EquivariantSurfaceProblem,
    FixedPointDegenerate,
    bv_localize,
    calibration_problem,
    fixed_point_weights,
    parse_poly,
    q_closedness_residual,
)
from ellgenus.cli import OK, main


def test_parse_poly():
    p = parse_poly("3*z**2 - z/2 + 1")
    assert p(2.0) == pytest.approx(12 - 1 + 1)
    with pytest.raises(ValueError):
        parse_poly("__import__('os')")
    with pytest.raises(ValueError):
        parse_poly("z**z")
    for text in ("z +", "(", ""):
        with pytest.raises(ValueError, match="cannot parse"):
            parse_poly(text)
    for text in ("1/0", "z/(z - z)"):
        with pytest.raises(ValueError, match="division by zero"):
            parse_poly(text)


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


def test_closedness_tolerance_scales_with_the_coefficients(tmp_path):
    # alpha0' and s g are both 1e15 in size: round-off there is not a failure
    rec = {"alpha0": "1e15*z", "g": "-1e15/7", "s": "7"}
    assert bv_localize(EquivariantSurfaceProblem.from_record(rec))["residual"] < 1e-12
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(rec))
    assert main(["localize", "--problem", str(path)]) == OK
    # a relative mismatch of 7e-8 is still not closed
    with pytest.raises(ValueError, match="not Q-closed"):
        bv_localize(EquivariantSurfaceProblem.make("1e15*z", "-1e15/7 + 1e7", 7))


def test_infinite_coefficient_is_not_closed():
    # the residual and the scale are both inf here, and inf <= 1e-9 * inf
    with pytest.raises(ValueError, match="not Q-closed"):
        bv_localize(EquivariantSurfaceProblem.make(Polynomial([0, 0, 1]), Polynomial([0, -np.inf]), 1, 8))


def test_one_gauss_legendre_rule_per_problem(capsys, tmp_path, monkeypatch):
    grids = []
    build = bvloc._gauss_legendre
    monkeypatch.setattr(bvloc, "_gauss_legendre", lambda n: grids.append(n) or build(n))
    q_closedness_residual(calibration_problem(1, 64))
    assert grids == []
    path = tmp_path / "prob.json"
    path.write_text(json.dumps({"alpha0": "z", "g": "-1", "s": "1", "grid": 64}))
    assert main(["localize", "--problem", str(path), "--t", "0.5", "--t", "1", "--t", "2"]) == OK
    assert grids == [64]
    nodes, weights = calibration_problem(1, 8).gauss_legendre
    assert not nodes.flags.writeable and not weights.flags.writeable


# ---------------------------------------------------------------------------
# The Newton rule against numpy's eigenvalue rule (the leggauss fixture)

ULP = np.finfo(float).eps  # one ulp of 1.0, the largest node size
RULE_GRIDS = [*range(1, 41), 63, 64, 100, 255, 256, 511, 512, 1000, 1024, 2048, MAX_GRID]


@pytest.mark.parametrize("n", RULE_GRIDS)
def test_rule_nodes_match_the_oracle(leggauss, n):
    nodes, weights = bvloc._gauss_legendre(n)
    oracle_nodes, oracle_weights = leggauss(n)
    assert nodes.shape == weights.shape == (n,)
    assert np.max(np.abs(nodes - oracle_nodes)) <= 2 * ULP
    assert np.allclose(weights, oracle_weights, rtol=1e-6, atol=0)


@pytest.mark.parametrize("n", RULE_GRIDS)
def test_rule_is_symmetric_and_sums_to_two(n):
    nodes, weights = bvloc._gauss_legendre(n)
    assert np.all(np.diff(nodes) > 0) and np.all(weights > 0)
    assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(weights, weights[::-1])
    if n % 2:
        assert nodes[n // 2] == 0
    assert abs(np.sum(weights) - 2) <= 4 * ULP


@pytest.mark.parametrize("n", range(1, 13))
def test_rule_integrates_polynomials_of_degree_below_2n_exactly(n):
    nodes, weights = bvloc._gauss_legendre(n)
    for degree in range(2 * n):
        exact = 2 / (degree + 1) if degree % 2 == 0 else 0.0
        assert np.sum(weights * nodes**degree) == pytest.approx(exact, rel=1e-14, abs=1e-15)
    # degree 2n is the first the rule misses
    assert np.sum(weights * nodes ** (2 * n)) != pytest.approx(2 / (2 * n + 1), rel=1e-12)


@pytest.mark.parametrize("n", [1024, 2048])
@pytest.mark.parametrize("c", [0.5, 2.0, 8.0])
def test_rule_integrates_exponentials_at_least_as_well_as_the_oracle(leggauss, n, c):
    exact = 2 * math.sinh(c) / c

    def error(rule):
        nodes, weights = rule
        return abs(math.fsum(weights * np.exp(c * nodes)) - exact) / exact

    assert error(bvloc._gauss_legendre(n)) <= error(leggauss(n))


SWEEP_GRIDS = [*range(1, 9), 16, 64, 256, 1024, 2048, MAX_GRID]
SWEEP_T = [None, 0.5, 1.0, 2.0, 8.0]


@pytest.mark.parametrize("grid", SWEEP_GRIDS)
def test_residuals_no_worse_than_the_oracle_rule(leggauss, monkeypatch, grid):
    """Every calibration residual stays within round-off of the one the oracle
    rule gives: a literal "no larger" cannot hold at one ulp."""
    for s in (Fraction(1, 2), Fraction(3, 2), Fraction(2), Fraction(3)):
        problem = calibration_problem(s, grid)
        newton = [bv_localize(problem, t)["residual"] for t in SWEEP_T]
        with monkeypatch.context() as patch:
            patch.setattr(bvloc, "_gauss_legendre", leggauss)
            problem = calibration_problem(s, grid)
            oracle = [bv_localize(problem, t)["residual"] for t in SWEEP_T]
        for t, new, old in zip(SWEEP_T, newton, oracle):
            assert new <= old + 1e-15 + 1e-8 * old, (s, t)
