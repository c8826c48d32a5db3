"""Numeric verification of fixed-point localization on the sphere.

The sphere carries cylindrical coordinates (z, phi) with area form dz ^ dphi
and the circle action xi = s d/dphi.  An invariant form alpha = alpha0(z) +
g(z) dz ^ dphi is closed for Q = d - iota_xi exactly when alpha0' + s g = 0,
and the localization identity

    integral_M alpha = sum_{z = +-1} alpha0(p) / e(p)

holds with e(+1) = -s/(2 pi), e(-1) = +s/(2 pi).  The 2 pi and the signs are
frozen from a one-time quadrature calibration (alpha0 = z, g = -1/s, s = 1),
not asserted a priori; every other case must pass with the frozen constants.
Q-closedness is checked on coefficients, with no grid.  Every density here is
phi-independent, so quadrature is Gauss-Legendre in z times the exact phi
integral 2 pi: O(grid) memory.  The rule comes from Newton's method on the
Legendre three-term recurrence, O(grid^2) work built at most once per problem,
and MAX_GRID caps its cost.
"""

from __future__ import annotations

import ast
import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np


# twice the largest grid the perfbench workloads run (2048); the rule's O(grid^2)
# Newton build takes about 0.1 s at grid 2048 and 0.25 s at 4096 on one core
MAX_GRID = 4096

# cap on Newton steps for the rule; from the asymptotic guess every grid up to
# MAX_GRID converges to a step of one ulp in 4 or 5
_NEWTON_STEPS = 10

# alpha is Q-closed when no coefficient of alpha0' + s g exceeds this times
# max(1, the largest coefficient of alpha0' or of s g)
CLOSEDNESS_RTOL = 1e-9


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
                if right.coef[0] == 0:
                    raise ValueError("division by zero")
                return left / right.coef[0]
            return _BINOPS[type(node.op)](left, right)
        raise ValueError(f"unsupported expression node {ast.dump(node)}")

    try:
        return walk(ast.parse(text, mode="eval")).trim()
    except SyntaxError as exc:
        raise ValueError(f"cannot parse {text!r} as a polynomial in z") from exc
    except (MemoryError, RecursionError) as exc:  # the parser's or walk's stack ran out
        raise ValueError(f"expression of {len(text)} characters is nested too deeply") from exc


def _parse_field(name: str, value):
    """parse_poly for a problem field given as text, its errors prefixed by the field."""
    if not isinstance(value, str):
        return value
    try:
        return parse_poly(value)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from exc


@dataclass(frozen=True)
class EquivariantSurfaceProblem:
    """Sphere problem: alpha = alpha0(z) + g(z) dz ^ dphi, action speed s, grid n."""

    alpha0: np.polynomial.Polynomial
    g: np.polynomial.Polynomial
    s: Fraction
    grid: int = 256

    @staticmethod
    def make(alpha0, g, s, grid=256) -> "EquivariantSurfaceProblem":
        alpha0, g = _parse_field("alpha0", alpha0), _parse_field("g", g)
        if not all(isinstance(p, np.polynomial.Polynomial) for p in (alpha0, g)):
            raise ValueError("alpha0 and g must be polynomials in z")
        if isinstance(grid, bool) or not isinstance(grid, int) or not 1 <= grid <= MAX_GRID:
            raise ValueError(f"grid must be an integer in [1, {MAX_GRID}], got {grid!r}")
        try:
            if isinstance(s, bool):  # Fraction(True) would read it as 1, as grid does not
                raise ValueError
            speed = Fraction(s)
            float(speed)  # a Fraction past the double range raises OverflowError here
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"s must be a number finite in double precision, got {s!r}") from exc
        return EquivariantSurfaceProblem(alpha0, g, speed, grid)

    @staticmethod
    def from_record(rec: dict) -> "EquivariantSurfaceProblem":
        return EquivariantSurfaceProblem.make(
            rec["alpha0"], rec["g"], rec["s"], rec.get("grid", 256)
        )

    @staticmethod
    def loads(text: str) -> "EquivariantSurfaceProblem":
        return EquivariantSurfaceProblem.from_record(json.loads(text))

    @cached_property
    def gauss_legendre(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights of the grid-point Gauss-Legendre rule on [-1, 1], read-only."""
        nodes, weights = _gauss_legendre(self.grid)
        nodes.flags.writeable = weights.flags.writeable = False
        return nodes, weights


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) at every x in (-1, 1), by the three-term recurrence."""
    p_prev, p = np.ones_like(x), x
    for j in range(1, n):
        p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
    return p, n * (x * p - p_prev) / (x * x - 1)


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Newton's method from the asymptotic guess cos(pi (k - 1/4) / (n + 1/2)) finds
    the nonnegative nodes, vectorized over nodes, until the largest step is below
    one ulp of 1; the negative ones are their mirror images, and for odd n the
    middle node is exactly 0.  The weights 2 / ((1 - x^2) P_n'(x)^2) are rescaled
    to sum to 2.
    """
    k = np.arange(1, (n + 1) // 2 + 1)
    x = np.cos(np.pi * (k - 0.25) / (n + 0.5))  # descending, in [0, 1)
    if n % 2:
        x[-1] = 0.0
    for _ in range(_NEWTON_STEPS):
        p, dp = _legendre(n, x)
        step = p / dp
        if np.max(np.abs(step)) <= np.finfo(float).eps:
            break
        x = x - step
    else:  # no early exit: dp is one step behind x
        _, dp = _legendre(n, x)
    half = 2 / ((1 - x * x) * dp * dp)
    middle = n % 2  # the node 0 appears once
    nodes = np.concatenate((-x[: len(x) - middle], x[::-1]))
    weights = np.concatenate((half[: len(x) - middle], half[::-1]))
    weights *= 2 / weights.sum()
    return nodes, weights


def _quadrature(problem, values_of_z):
    """Integral of a phi-independent density f(z) dz dphi: 2 pi sum_i w_i f(z_i)."""
    nodes, weights = problem.gauss_legendre
    return float(2 * math.pi * np.sum(weights * values_of_z(nodes)))


def _closedness_terms(problem: EquivariantSurfaceProblem):
    return problem.alpha0.deriv(), float(problem.s) * problem.g


def _largest_coefficient(p: np.polynomial.Polynomial) -> float:
    return float(np.max(np.abs(p.coef)))


def q_closedness_residual(problem: EquivariantSurfaceProblem) -> float:
    """Largest |coefficient| of alpha0' + s g: zero exactly when Q alpha = 0."""
    return _largest_coefficient(operator.add(*_closedness_terms(problem)))


def fixed_point_weights(s) -> dict:
    """Frozen per-fixed-point normalization e(p) at z = +1, -1."""
    s = float(s)
    if s == 0:
        raise FixedPointDegenerate("s = 0 has non-isolated fixed points")
    return {1: -s / (2 * math.pi), -1: s / (2 * math.pi)}


def bv_localize(problem: EquivariantSurfaceProblem, t: float | None = None) -> dict:
    """Compare the quadrature of alpha (or exp(t alpha)) with the fixed-point sum.

    Returns {"lhs", "rhs", "residual"}, the residual normalized as
    |lhs - rhs| / max(1, |lhs|, |rhs|) so that round-off on a large value does
    not read as a violated identity.  With t given, alpha is replaced by
    exp(t alpha) = e^{t alpha0} (1 + t g dz dphi), the Duistermaat-Heckman
    family; exactness of stationary phase means the residual stays at
    quadrature accuracy for every t.  A side that overflows or is not finite
    raises ValueError naming t: such a residual says nothing about the identity.
    Input that is not Q-closed to CLOSEDNESS_RTOL raises ValueError.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values raise below
        res = q_closedness_residual(problem)
        scale = max(1.0, *map(_largest_coefficient, _closedness_terms(problem)))
        # a finite res rules out an infinite scale, where inf <= inf would pass
        if not (math.isfinite(res) and res <= CLOSEDNESS_RTOL * scale):
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
