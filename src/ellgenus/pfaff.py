"""Exact Pfaffians over the graded algebra and the regularized mode products.

The torus-mode operator restricts on the (n, m) Fourier block to
2 pi i (n tau - m) Id + beta R, whose +-paired skew matrix has a Pfaffian.
Normalizing by the R = 0 block turns the Pfaffian ratio into
det(Id + beta R / (2 pi i (n tau - m))), an identity this module *checks* on
every exact evaluation rather than assumes: both routes are computed and must
agree.  The regularized product multiplies these blocks over the half lattice
Z^2_+ = {m < 0, or m = 0 and n > 0} within a shell bound; by nilpotency it
equals the exponential of partial lattice sums exactly at every truncation,

    prod = exp( - sum_k beta^{2k} s_k P_{2k} / k ),   P_{2k} = sum_{Z^2_+} (n tau - m)^{-2k}

(the determinant expansion carries -1/(2k) per symmetrized pair; the plus-sign
variant sometimes quoted drops that minus).  The circle-mode analogue produces
the A-hat class; its per-mode normalization is pinned by the (z/2)/sinh(z/2)
Taylor oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import dga
from .dga import Element, unit_inverse
from .geom import ChernRootModel, _two_pi
from .qmod import z2plus_points, z2plus_power_sums
from .scalars import QI, PiScalar, bernoulli, two_pi_i_times


class PfaffianRouteMismatch(ArithmeticError):
    """The Pfaffian-ratio and determinant routes disagreed (identity violated)."""


@dataclass(frozen=True)
class BlockIndex:
    """Fourier block label (n, m) in Z^2_+."""

    n: int
    m: int

    def __post_init__(self):
        if not (self.m < 0 or (self.m == 0 and self.n > 0)):
            raise ValueError(f"({self.n}, {self.m}) is not in Z^2_+")


# ---------------------------------------------------------------------------
# Pfaffian and determinant over the algebra


def _check_skew(matrix):
    n = len(matrix)
    if n % 2:
        raise ValueError("skew matrix must have even size")
    for i in range(n):
        if not matrix[i][i].is_zero():
            raise ValueError("nonzero diagonal")
        for j in range(i + 1, n):
            if not (matrix[i][j] + matrix[j][i]).is_zero():
                raise ValueError(f"not skew at ({i}, {j})")
    return n


def _is_unit(el: Element) -> bool:
    c = el.unit_part()
    if not (c.is_unit() if el.mode == dga.PI else c):
        return False
    rest = el - el.algebra.scalar(c, el.mode)
    return rest.is_zero() or rest.min_form_degree() >= 1


def pfaffian(matrix) -> Element:
    """Pfaffian of a skew matrix of algebra elements; Pf(M)^2 = det(M).

    Perfect-matching expansion up to size 8 (with zero pruning), skew
    elimination with unit pivots above, falling back to the expansion when no
    unit pivot exists.
    """
    n = _check_skew(matrix)
    alg = matrix[0][0].algebra if n else None
    if n == 0:
        raise ValueError("empty matrix has no algebra context")
    if n <= 8:
        return _pf_matchings(matrix, tuple(range(n)))
    return _pf_eliminate([row[:] for row in matrix])


def _pf_matchings(matrix, idx) -> Element:
    alg = matrix[0][0].algebra
    mode = matrix[0][0].mode
    if len(idx) == 0:
        return alg.one(mode)
    i0 = idx[0]
    rest = idx[1:]
    out = alg.zero(mode)
    for t, jt in enumerate(rest):
        entry = matrix[i0][jt]
        if entry.is_zero():
            continue
        sub = rest[:t] + rest[t + 1 :]
        term = entry * _pf_matchings(matrix, sub)
        out = out + (term if t % 2 == 0 else -term)
    return out


def _pf_eliminate(m, context=None) -> Element:
    n = len(m)
    if n == 0:
        alg, mode = context
        return alg.one(mode)
    alg = m[0][0].algebra
    mode = m[0][0].mode
    if not _is_unit(m[0][1]):
        swap = next(
            ((i, j) for i in range(n) for j in range(i + 1, n) if _is_unit(m[i][j])),
            None,
        )
        if swap is None:
            return _pf_matchings(m, tuple(range(n)))
        i, j = swap
        flips = 0
        if i != 0:
            _swap_rowcol(m, i, 0)  # j > i >= 0, so j is untouched
            flips += 1
        if j != 1:
            _swap_rowcol(m, j, 1)
            flips += 1
        result = _pf_eliminate(m)
        return -result if flips % 2 else result
    p = m[0][1]
    pinv = unit_inverse(p)
    sub = [
        [
            m[i][j] - (m[0][i] * m[1][j] - m[0][j] * m[1][i]) * pinv
            for j in range(2, n)
        ]
        for i in range(2, n)
    ]
    return p * _pf_eliminate(sub, (alg, mode))


def _swap_rowcol(m, a, b):
    m[a], m[b] = m[b], m[a]
    for row in m:
        row[a], row[b] = row[b], row[a]


def determinant(matrix) -> Element:
    """Determinant via elimination on unit pivots, Laplace fallback otherwise."""
    n = len(matrix)
    alg = matrix[0][0].algebra
    mode = matrix[0][0].mode
    m = [row[:] for row in matrix]
    det = alg.one(mode)
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if _is_unit(m[r][col])), None)
        if pivot_row is None:
            if all(m[r][col].is_zero() for r in range(col, n)):
                return alg.zero(mode)
            minor = [row[col:] for row in m[col:]]
            return det * _det_laplace(minor)
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            det = -det
        p = m[col][col]
        pinv = unit_inverse(p)
        det = det * p
        for r in range(col + 1, n):
            if m[r][col].is_zero():
                continue
            f = m[r][col] * pinv
            m[r] = [m[r][j] - f * m[col][j] for j in range(n)]
    return det


def _det_laplace(m) -> Element:
    n = len(m)
    alg = m[0][0].algebra
    mode = m[0][0].mode
    cache = {}

    def minor(row, cols):
        if not cols:
            return alg.one(mode)
        key = (row, cols)
        if key in cache:
            return cache[key]
        out = alg.zero(mode)
        for t, c in enumerate(cols):
            if m[row][c].is_zero():
                continue
            term = m[row][c] * minor(row + 1, cols[:t] + cols[t + 1 :])
            out = out + (term if t % 2 == 0 else -term)
        cache[key] = out
        return out

    return minor(0, tuple(range(n)))


def identity_matrix(alg, size, mode):
    one, zero = alg.one(mode), alg.zero(mode)
    return [[one if i == j else zero for j in range(size)] for i in range(size)]


# ---------------------------------------------------------------------------
# Normalized torus-mode blocks


def _tau_qi(tau) -> QI:
    if isinstance(tau, QI):
        return tau
    if isinstance(tau, complex):
        return QI(Fraction(tau.real), Fraction(tau.imag))
    raise TypeError("exact modes need tau as a QI (or complex with exact parts)")


def _block_scalar(n, m, tau, mode):
    """1 / (i (n tau - m)) in the requested mode."""
    if mode == dga.COMPLEX:
        return 1.0 / (1j * (n * complex(tau) - m))
    z = QI(n) * _tau_qi(tau) - QI(m)
    val = (QI(0, 1) * z).inverse()
    return dga.coerce(mode, val)


def normalized_block_matrix(idx, model: ChernRootModel, tau, mode):
    """Id + beta R / (2 pi i (n tau - m)) over the model's algebra."""
    n, m = (idx.n, idx.m) if isinstance(idx, BlockIndex) else idx
    size = 2 * model.r
    mat = identity_matrix(model.algebra, size, mode)
    scal = _block_scalar(n, m, tau, mode)
    beta = model.beta(mode)
    for jdx, x in enumerate(model.roots(mode)):
        entry = beta * x * scal
        mat[2 * jdx][2 * jdx + 1] = mat[2 * jdx][2 * jdx + 1] + entry
        mat[2 * jdx + 1][2 * jdx] = mat[2 * jdx + 1][2 * jdx] - entry
    return mat


def _block_z(idx, tau, mode):
    """2 pi i (n tau - m) in the requested mode."""
    n, m = (idx.n, idx.m) if isinstance(idx, BlockIndex) else idx
    if mode == dga.COMPLEX:
        return 2j * math.pi * (n * complex(tau) - m)
    return dga.coerce(mode, two_pi_i_times(QI(n) * _tau_qi(tau) - QI(m)))


def _paired_skew_block(idx, model: ChernRootModel, tau, mode):
    """[[0, A], [-A^T, 0]] with A = 2 pi i (n tau - m) Id + beta R."""
    alg = model.algebra
    size = 2 * model.r
    z = alg.scalar(_block_z(idx, tau, mode), mode)
    beta = model.beta(mode)
    a = [[alg.zero(mode) for _ in range(size)] for _ in range(size)]
    for jdx, x in enumerate(model.roots(mode)):
        entry = beta * x * _two_pi(mode)
        a[2 * jdx][2 * jdx] = z
        a[2 * jdx + 1][2 * jdx + 1] = z
        a[2 * jdx][2 * jdx + 1] = entry
        a[2 * jdx + 1][2 * jdx] = -entry
    zero = alg.zero(mode)
    top = [[zero] * size + row for row in a]
    bottom = [[-a[j][i] for j in range(size)] + [zero] * size for i in range(size)]
    return top + bottom


def block_norm_pfaffian(idx, model: ChernRootModel, tau, mode=dga.PI, verify_routes=True):
    """det(Id + beta R / (2 pi i (n tau - m))), checked against the Pfaffian ratio.

    With verify_routes the value is computed twice: as a determinant over the
    algebra and as Pf(paired block) / Pf(paired block with R = 0), the latter in
    closed form; exact modes require exact agreement (PfaffianRouteMismatch
    otherwise).
    """
    if model.r == 0:
        return model.algebra.one(mode)
    det = determinant(normalized_block_matrix(idx, model, tau, mode))
    if verify_routes:
        pf = pfaffian(_paired_skew_block(idx, model, tau, mode))
        ratio = pf * _zero_block_pfaffian(idx, model.r, tau, mode) ** -1
        if mode == dga.COMPLEX:
            if not _close_elements(ratio, det):
                raise PfaffianRouteMismatch(f"block {idx}: ratio != det (numeric)")
        elif ratio != det:
            raise PfaffianRouteMismatch(f"block {idx}: ratio != det")
    return det


def _zero_block_pfaffian(idx, r, tau, mode):
    """(-1)^r z^{2r}, the Pfaffian of the R = 0 paired block [[0, z Id], [-z Id, 0]]."""
    return (-1) ** r * _block_z(idx, tau, mode) ** (2 * r)


def _close_elements(a: Element, b: Element, tol=1e-9) -> bool:
    keys = set(a.terms) | set(b.terms)
    for k in keys:
        va = a.terms.get(k, 0j)
        vb = b.terms.get(k, 0j)
        if abs(va - vb) > tol * max(1.0, abs(va), abs(vb)):
            return False
    return True


# ---------------------------------------------------------------------------
# The regularized product over Z^2_+


def regularized_product(model: ChernRootModel, shell_bound: int, tau, mode=dga.PI,
                        verify_routes=None) -> Element:
    """Product of normalized block Pfaffians over Z^2_+ within the shell bound.

    Blocks are independent; the reduction follows the shell enumeration order
    deterministically (part of the semantics for the conditional k = 1 part).
    Complex mode without route checks returns product_exponential_form, the
    closed form the block product equals at every truncation.
    """
    if shell_bound < 0:
        raise ValueError("shell bound must be >= 0")
    if verify_routes is None:
        verify_routes = mode != dga.COMPLEX
    if mode == dga.COMPLEX and not verify_routes:
        return product_exponential_form(model, shell_bound, tau, mode)
    acc = model.algebra.one(mode)
    for n, m in z2plus_points(shell_bound):
        acc = acc * block_norm_pfaffian((n, m), model, tau, mode, verify_routes)
    return acc


def product_exponential_form(model: ChernRootModel, shell_bound: int, tau, mode=dga.PI) -> Element:
    """exp(-sum_k beta^{2k} s_k P_{2k} / k) with P_{2k} the Z^2_+ partial sums.

    This is the resummed closed form the product equals exactly at every
    truncation (nilpotency); over the symmetrized index set the exponent reads
    -sum_k beta^{2k} s_k P^sym_{2k} / (2k).
    """
    arg = model.algebra.zero(mode)
    beta = model.beta(mode)
    numeric = mode == dga.COMPLEX
    sums = z2plus_power_sums(model.dim // 4, shell_bound, complex(tau) if numeric else _tau_qi(tau))
    for k, p2k in enumerate(sums, 1):
        scal = p2k * (-1.0 / k) if numeric else dga.coerce(mode, p2k * QI(Fraction(-1, k)))
        arg = arg + model.power_sum(k, mode) * beta ** (2 * k) * scal
    return dga.exp_nilpotent(arg)


# ---------------------------------------------------------------------------
# Circle modes: the A-hat product


def a_hat_mode_matrix(model: ChernRootModel, n: int, mode, sign=1):
    """Id + N / n with N the pinned root blocks [[0, x/(2pi)], [-x/(2pi), 0]].

    Pinned so that the inverse mode product converges to prod (x_j/2)/sinh(x_j/2);
    the curvature enters in the normalization that makes p1 = sum x_j^2, the
    same convention the torus blocks use.
    """
    alg = model.algebra
    size = 2 * model.r
    mat = identity_matrix(alg, size, mode)
    if mode == dga.COMPLEX:
        scal = sign / (2 * math.pi * n)
    else:
        scal = dga.coerce(mode, PiScalar.pi_power(-1, QI(Fraction(sign, 2 * n))))
    for jdx, x in enumerate(model.roots(mode)):
        entry = x * scal
        mat[2 * jdx][2 * jdx + 1] = mat[2 * jdx][2 * jdx + 1] + entry
        mat[2 * jdx + 1][2 * jdx] = mat[2 * jdx + 1][2 * jdx] - entry
    return mat


def a_hat_product(model: ChernRootModel, mode_bound: int, mode=dga.COMPLEX) -> Element:
    """Inverse regularized circle-mode determinant product, mode n = 1..bound.

    Each +-n pair contributes det(Id + N/n) det(Id - N/n) = det(Id + N/n)^2, so
    the pair's inverse square root is a single inverse determinant.  Converges
    coefficientwise to prod_j (x_j/2)/sinh(x_j/2).  Complex mode resums the
    product as exp(-sum_k (-1)^{k-1} s_k sum_n c_n^k / k), c_n = 1/(2 pi n)^2.
    """
    if mode_bound < 0:
        raise ValueError("mode bound must be >= 0")
    alg = model.algebra
    if model.r == 0 or mode_bound == 0:
        return alg.one(mode)
    if mode == dga.COMPLEX:
        n = np.arange(1, mode_bound + 1, dtype=np.float64)
        c = 1.0 / (4 * math.pi**2 * n * n)
        arg = alg.zero(mode)
        for k in range(1, model.dim // 4 + 1):
            arg = arg + model.power_sum(k, mode) * ((-1) ** k * float(np.sum(c**k)) / k)
        return dga.exp_nilpotent(arg)
    acc = alg.one(mode)
    for n in range(1, mode_bound + 1):
        dplus = determinant(a_hat_mode_matrix(model, n, mode, +1))
        dminus = determinant(a_hat_mode_matrix(model, n, mode, -1))
        if mode != dga.COMPLEX and dplus != dminus:
            raise PfaffianRouteMismatch(f"mode {n}: det+ != det-")
        acc = acc * dplus
    return unit_inverse(acc)


def a_hat_class(model: ChernRootModel, mode=dga.RATIONAL) -> Element:
    """Closed-form limit prod_j (x_j/2)/sinh(x_j/2) = exp(-sum_k B_{2k} s_k/(2k (2k)!))."""
    arg = model.algebra.zero(mode)
    for k in range(1, model.dim // 4 + 1):
        coeff = Fraction(-1, 2 * k * math.factorial(2 * k)) * bernoulli(2 * k)
        arg = arg + model.power_sum(k, mode) * coeff
    return dga.exp_nilpotent(arg)
