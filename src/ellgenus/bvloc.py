"""Numeric verification of fixed-point localization on the sphere.

The sphere carries cylindrical coordinates (z, phi) with area form dz ^ dphi
and the circle action xi = s d/dphi.  An invariant form alpha = alpha0(z) +
g(z) dz ^ dphi is closed for Q = d - iota_xi exactly when alpha0' + s g = 0,
and the localization identity

    integral_M alpha = sum_{z = +-1} alpha0(p) / e(p)

holds with e(+1) = -s/(2 pi), e(-1) = +s/(2 pi).  The 2 pi and the signs are
frozen from a one-time quadrature calibration (alpha0 = z, g = -1/s, s = 1),
not asserted a priori; every other case must pass with the frozen constants.
Every density here is phi-independent, so quadrature is Gauss-Legendre in z
times the exact phi integral 2 pi: O(grid) memory.  The grid is capped at
MAX_GRID because the Gauss-Legendre rule itself costs O(grid^2) to build.
"""

from __future__ import annotations

import ast
import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


# twice the largest grid the perfbench workloads run (2048)
MAX_GRID = 4096


class FixedPointDegenerate(ValueError):
    """s = 0: the action has no isolated fixed points."""


_BINOPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
}


def parse_poly(text: str) -> np.polynomial.Polynomial:
    """Safe polynomial-in-z parser: numbers, z, + - * / ** and parentheses."""

    def walk(node):
        if isinstance(node, ast.Expression):
            return walk(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return np.polynomial.Polynomial([node.value])
        if isinstance(node, ast.Name) and node.id == "z":
            return np.polynomial.Polynomial([0.0, 1.0])
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            inner = walk(node.operand)
            return -inner if isinstance(node.op, ast.USub) else inner
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            left, right = walk(node.left), walk(node.right)
            if isinstance(node.op, ast.Pow):
                if len(right) != 1 or right.coef[0] != int(right.coef[0]):
                    raise ValueError("exponent must be a constant integer")
                return left ** int(right.coef[0])
            if isinstance(node.op, ast.Div):
                if len(right.trim().coef) > 1:
                    raise ValueError("division only by constants")
                return left / right.coef[0]
            return _BINOPS[type(node.op)](left, right)
        raise ValueError(f"unsupported expression node {ast.dump(node)}")

    return walk(ast.parse(text, mode="eval")).trim()


@dataclass(frozen=True)
class EquivariantSurfaceProblem:
    """Sphere problem: alpha = alpha0(z) + g(z) dz ^ dphi, action speed s, grid n."""

    alpha0: np.polynomial.Polynomial
    g: np.polynomial.Polynomial
    s: Fraction
    grid: int = 256

    @staticmethod
    def make(alpha0, g, s, grid=256) -> "EquivariantSurfaceProblem":
        if isinstance(alpha0, str):
            alpha0 = parse_poly(alpha0)
        if isinstance(g, str):
            g = parse_poly(g)
        if not all(isinstance(p, np.polynomial.Polynomial) for p in (alpha0, g)):
            raise ValueError("alpha0 and g must be polynomials in z")
        if isinstance(grid, bool) or not isinstance(grid, int) or not 1 <= grid <= MAX_GRID:
            raise ValueError(f"grid must be an integer in [1, {MAX_GRID}], got {grid!r}")
        return EquivariantSurfaceProblem(alpha0, g, Fraction(s), grid)

    @staticmethod
    def from_record(rec: dict) -> "EquivariantSurfaceProblem":
        return EquivariantSurfaceProblem.make(
            rec["alpha0"], rec["g"], Fraction(rec["s"]), rec.get("grid", 256)
        )

    @staticmethod
    def loads(text: str) -> "EquivariantSurfaceProblem":
        return EquivariantSurfaceProblem.from_record(json.loads(text))


def _quadrature(problem, values_of_z):
    """Integral of a phi-independent density f(z) dz dphi: 2 pi sum_i w_i f(z_i)."""
    nodes, weights = np.polynomial.legendre.leggauss(problem.grid)
    return float(2 * math.pi * np.sum(weights * values_of_z(nodes)))


def q_closedness_residual(problem: EquivariantSurfaceProblem) -> float:
    """max over the z-grid of |alpha0'(z) + s g(z)| (Q alpha = 0 residual)."""
    nodes, _ = np.polynomial.legendre.leggauss(problem.grid)
    d_alpha0 = problem.alpha0.deriv()
    mismatch = d_alpha0(nodes) + float(problem.s) * problem.g(nodes)
    return float(np.max(np.abs(mismatch)))


def fixed_point_weights(s) -> dict:
    """Frozen per-fixed-point normalization e(p) at z = +1, -1."""
    s = float(s)
    if s == 0:
        raise FixedPointDegenerate("s = 0 has non-isolated fixed points")
    return {1: -s / (2 * math.pi), -1: s / (2 * math.pi)}


def bv_localize(problem: EquivariantSurfaceProblem, t: float | None = None,
                closedness_tol: float = 1e-9) -> dict:
    """Compare the quadrature of alpha (or exp(t alpha)) with the fixed-point sum.

    Returns {"lhs", "rhs", "residual"}, the residual normalized as
    |lhs - rhs| / max(1, |lhs|, |rhs|) so that round-off on a large value does
    not read as a violated identity.  With t given, alpha is replaced by
    exp(t alpha) = e^{t alpha0} (1 + t g dz dphi), the Duistermaat-Heckman
    family; exactness of stationary phase means the residual stays at
    quadrature accuracy for every t.  A side that overflows or is not finite
    raises ValueError naming t: such a residual says nothing about the identity.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values raise below
        res = q_closedness_residual(problem)
        if not res <= closedness_tol:
            raise ValueError(f"input not Q-closed: residual {res:.3e}")
        e = fixed_point_weights(problem.s)
        if t is None:
            lhs = _quadrature(problem, lambda z: problem.g(z))
            rhs = float(sum(problem.alpha0(p) / e[p] for p in (1, -1)))
        else:
            lhs = _quadrature(problem, lambda z: t * np.exp(t * problem.alpha0(z)) * problem.g(z))
            try:
                rhs = sum(math.exp(t * problem.alpha0(p)) / e[p] for p in (1, -1))
            except OverflowError:
                rhs = math.inf
    residual = abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
    if not math.isfinite(residual):
        where = "the base form" if t is None else f"t = {t!r}"
        raise ValueError(f"localization at {where} is not finite: lhs {lhs!r}, rhs {rhs!r}")
    return {"lhs": lhs, "rhs": rhs, "residual": residual}


def calibration_problem(s=1, grid=256) -> EquivariantSurfaceProblem:
    """The textbook equivariant extension alpha0 = z, g = -1/s."""
    s = Fraction(s)
    if s == 0:
        raise FixedPointDegenerate("s = 0 has non-isolated fixed points")
    return EquivariantSurfaceProblem.make("z", f"-1/({s.numerator}/{s.denominator})", s, grid)
