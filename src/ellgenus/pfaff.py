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

A Pfaffian is one perfect-matching expansion that computes each sub-Pfaffian
once; a determinant is elimination on unit pivots, with a Laplace expansion
when no unit pivot is left.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import dga
from .dga import Element, unit_inverse
from .geom import ChernRootModel, _two_pi, root_blocks
from .qmod import half_lattice_normalization, z2plus_power_sums, z2plus_shell
from .scalars import QI, PiScalar


class PfaffianRouteMismatch(ArithmeticError):
    """The Pfaffian-ratio and determinant routes disagreed (identity violated);
    lhs and rhs are the two routes' elements."""

    def __init__(self, message, lhs: Element, rhs: Element):
        super().__init__(message)
        self.lhs, self.rhs = lhs, rhs


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
    """Invertible scalar part c, and every other monomial of form degree >= 1.

    A nan or infinite complex c is no unit: c - c does not vanish.
    """
    c = el.unit_part()
    if not (c.is_unit() if el.mode == dga.PI else c) or c - c:
        return False
    degree = el.algebra.form_degree
    return all(degree(mono) >= 1 for mono in el.terms if mono)


def pfaffian(matrix) -> Element:
    """Pfaffian of a skew matrix of algebra elements; Pf(M)^2 = det(M).

    The perfect-matching expansion along the first remaining row, skipping
    zero entries; see _pf_matchings.
    """
    n = _check_skew(matrix)
    if n == 0:
        raise ValueError("empty matrix has no algebra context")
    return _pf_matchings(matrix)


def _pf_matchings(matrix) -> Element:
    """Pf(M) = sum_t (-1)^t M[i0][j_t] Pf(M without rows and columns i0, j_t).

    Each sub-Pfaffian is computed once, keyed by its tuple of remaining
    indices, so a sparse matrix costs its number of distinct sub-Pfaffians
    rather than its number of matchings: the paired torus block links each row
    to two columns and has O(r) of them.  The keys are found level by level
    (each pairing removes two indices) and evaluated deepest level first, with
    no recursion; each sum runs in matching order.
    """
    alg = matrix[0][0].algebra
    mode = matrix[0][0].mode
    top = tuple(range(len(matrix)))
    terms = {}  # key -> [(t, M[i0][j_t], key without i0 and j_t)] over the nonzero entries
    level = [top]
    while level and level[0]:
        below = {}
        for idx in level:
            i0, rest = idx[0], idx[1:]
            terms[idx] = [(t, matrix[i0][j], rest[:t] + rest[t + 1 :])
                          for t, j in enumerate(rest) if not matrix[i0][j].is_zero()]
            below.update(dict.fromkeys(sub for _, _, sub in terms[idx]))
        level = list(below)
    pf = {(): alg.one(mode)}
    for idx in reversed(terms):
        pf[idx] = alg.sum((_signed(t, entry * pf[sub]) for t, entry, sub in terms[idx]), mode)
    return pf[top]


def _signed(t, term):
    """(-1)^t term, by negation rather than a scalar product."""
    return term if t % 2 == 0 else -term


def determinant(matrix) -> Element:
    """Determinant via elimination on unit pivots, Laplace fallback otherwise.

    Each pivot's inverse is formed only when a row below has a nonzero entry in
    the pivot column, and a row update touches only the columns right of the
    pivot where the pivot row is nonzero: the entries left of the pivot are
    never read again, and the fallback takes the minor right of it.
    """
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
        det = det * p
        pinv = None
        live = [j for j in range(col + 1, n) if not m[col][j].is_zero()]
        for r in range(col + 1, n):
            if m[r][col].is_zero():
                continue
            if pinv is None:
                pinv = unit_inverse(p)
            f = m[r][col] * pinv
            row = m[r]
            for j in live:
                row[j] = row[j] - f * m[col][j]
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
        cache[key] = alg.sum((_signed(t, m[row][c] * minor(row + 1, cols[:t] + cols[t + 1 :]))
                              for t, c in enumerate(cols) if not m[row][c].is_zero()), mode)
        return cache[key]

    return minor(0, tuple(range(n)))


# ---------------------------------------------------------------------------
# Normalized torus-mode blocks


def _tau_qi(tau) -> QI:
    if isinstance(tau, QI):
        return tau
    if isinstance(tau, complex):
        return QI(Fraction(tau.real), Fraction(tau.imag))
    raise TypeError("exact modes need tau as a QI (or complex with exact parts)")


_TWO_PI_I = PiScalar.pi_power(1, QI(0, 2))


def _block_z(idx, tau, mode):
    """n tau - m in the requested mode."""
    n, m = (idx.n, idx.m) if isinstance(idx, BlockIndex) else idx
    if mode == dga.COMPLEX:
        return n * complex(tau) - m
    return dga.coerce(mode, QI(n) * _tau_qi(tau) - QI(m))


def root_entries(model: ChernRootModel, mode) -> list:
    """beta x_j for each root: the curvature entries every block shares, built
    once per product and passed to each block."""
    beta = model.beta(mode)
    return [beta * x for x in model.roots(mode)]


def normalized_block_matrix(idx, model: ChernRootModel, tau, mode, entries=None):
    """Id + beta R / (2 pi i (n tau - m)) over the model's algebra.

    entries is root_entries(model, mode), built here when None."""
    # beta R / (2 pi i z) has entries beta x_j / (i z): the 2 pi of R cancels
    scal = dga.MODES[mode].inverse(dga.coerce(mode, QI(0, 1)) * _block_z(idx, tau, mode))
    if entries is None:
        entries = root_entries(model, mode)
    return root_blocks(model.algebra.one(mode), [bx * scal for bx in entries])


def _paired_skew_block(idx, model: ChernRootModel, tau, mode, entries=None):
    """[[0, A], [-A^T, 0]] with A = 2 pi i (n tau - m) Id + beta R."""
    alg = model.algebra
    if entries is None:
        entries = root_entries(model, mode)
    z = alg.scalar(dga.coerce(mode, _TWO_PI_I) * _block_z(idx, tau, mode), mode)
    a = root_blocks(z, [bx * _two_pi(mode) for bx in entries])
    size, zero = len(a), alg.zero(mode)
    top = [[zero] * size + row for row in a]
    bottom = [[-a[j][i] for j in range(size)] + [zero] * size for i in range(size)]
    return top + bottom


def block_norm_pfaffian(idx, model: ChernRootModel, tau, mode=dga.PI, verify_routes=True,
                        entries=None):
    """det(Id + beta R / (2 pi i (n tau - m))), checked against the Pfaffian ratio.

    With verify_routes the value is computed twice: as a determinant over the
    algebra and as Pf(paired block) / Pf(paired block with R = 0), the latter in
    closed form; exact modes require exact agreement (PfaffianRouteMismatch
    otherwise).  entries is root_entries(model, mode), built here when None.
    """
    if model.r == 0:
        return model.algebra.one(mode)
    if entries is None:
        entries = root_entries(model, mode)
    det = determinant(normalized_block_matrix(idx, model, tau, mode, entries))
    if verify_routes:
        pf = pfaffian(_paired_skew_block(idx, model, tau, mode, entries))
        ratio = pf * _zero_block_pfaffian(idx, model.r, tau, mode) ** -1
        if mode == dga.COMPLEX:
            if not _close_elements(ratio, det):
                raise PfaffianRouteMismatch(f"block {idx}: ratio != det (numeric)", ratio, det)
        elif ratio != det:
            raise PfaffianRouteMismatch(f"block {idx}: ratio != det", ratio, det)
    return det


def _zero_block_pfaffian(idx, r, tau, mode):
    """(-1)^r z^{2r}, the Pfaffian of the R = 0 paired block [[0, z Id], [-z Id, 0]]."""
    return (-1) ** r * (dga.coerce(mode, _TWO_PI_I) * _block_z(idx, tau, mode)) ** (2 * r)


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


def shell_products(model: ChernRootModel, bounds, tau, mode=dga.PI, verify_routes=True):
    """Yield (bound, product of the normalized block Pfaffians within the bound) for
    each nondecreasing shell bound, one at bound 0: the only loop over Z^2_+ blocks.
    One pass multiplies each block into one accumulator once, in z2plus_shell
    order, so each product is the one regularized_product forms at its bound."""
    acc, done = model.algebra.one(mode), 0
    entries = root_entries(model, mode)
    for bound in bounds:
        if bound < done:
            raise ValueError("shell bounds must be >= 0 and nondecreasing")
        for s in range(done + 1, bound + 1):
            n, m = z2plus_shell(s)
            for point in zip(n.tolist(), m.tolist()):
                acc = acc * block_norm_pfaffian(point, model, tau, mode, verify_routes, entries)
        done = bound
        yield bound, acc


def regularized_product(model: ChernRootModel, shell_bound: int, tau, mode=dga.PI,
                        verify_routes=None) -> Element:
    """Product of normalized block Pfaffians over Z^2_+ within the shell bound.

    Blocks are independent; the reduction follows the shell enumeration order
    deterministically (part of the semantics for the conditional k = 1 part).
    Complex mode without route checks (its default) returns
    product_exponential_form, the closed form the block product equals at every
    truncation; otherwise this is the product shell_products yields at the bound.
    """
    if shell_bound < 0:
        raise ValueError("shell bound must be >= 0")
    verify = mode != dga.COMPLEX if verify_routes is None else verify_routes
    if mode == dga.COMPLEX and not verify:
        return product_exponential_form(model, shell_bound, tau, mode)
    return next(shell_products(model, [shell_bound], tau, mode, verify))[1]


def product_exponential_form(model: ChernRootModel, shell_bound: int, tau, mode=dga.PI) -> Element:
    """exp(-sum_k beta^{2k} s_k P_{2k} / k) with P_{2k} the Z^2_+ partial sums.

    This is the resummed closed form the product equals exactly at every
    truncation (nilpotency); over the symmetrized index set the exponent reads
    -sum_k beta^{2k} s_k P^sym_{2k} / (2k).
    """
    beta = model.beta(mode)
    numeric = mode == dga.COMPLEX
    sums = z2plus_power_sums(model.dim // 4, shell_bound, complex(tau) if numeric else _tau_qi(tau))
    scales = (p2k * (-1.0 / k) if numeric else dga.coerce(mode, p2k * QI(Fraction(-1, k)))
              for k, p2k in enumerate(sums, 1))
    terms = (model.power_sum(k, mode) * beta ** (2 * k) * scal for k, scal in enumerate(scales, 1))
    return dga.exp_nilpotent(model.algebra.sum(terms, mode))


# ---------------------------------------------------------------------------
# Circle modes: the A-hat product


def a_hat_mode_matrix(model: ChernRootModel, n: int, mode, sign=1):
    """Id + N / n with N the pinned root blocks [[0, x/(2pi)], [-x/(2pi), 0]].

    Pinned so that the inverse mode product converges to prod (x_j/2)/sinh(x_j/2);
    the curvature enters in the normalization that makes p1 = sum x_j^2, the
    same convention the torus blocks use.
    """
    if mode == dga.COMPLEX:
        scal = sign / (2 * math.pi * n)
    else:
        scal = dga.coerce(mode, PiScalar.pi_power(-1, QI(Fraction(sign, 2 * n))))
    return root_blocks(model.algebra.one(mode), [x * scal for x in model.roots(mode)])


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
        c = [1.0 / (4 * math.pi**2 * n * n) for n in range(1, mode_bound + 1)]
        terms = (model.power_sum(k, mode) * ((-1) ** k * math.fsum(x**k for x in c) / k)
                 for k in range(1, model.dim // 4 + 1))
        return dga.exp_nilpotent(alg.sum(terms, mode))
    acc = alg.one(mode)
    for n in range(1, mode_bound + 1):
        dplus = determinant(a_hat_mode_matrix(model, n, mode, +1))
        dminus = determinant(a_hat_mode_matrix(model, n, mode, -1))
        if dplus != dminus:
            raise PfaffianRouteMismatch(f"mode {n}: det+ != det-", dplus, dminus)
        acc = acc * dplus
    return unit_inverse(acc)


def a_hat_class(model: ChernRootModel, mode=dga.RATIONAL) -> Element:
    """Closed-form limit prod_j (x_j/2)/sinh(x_j/2) = exp(-sum_k B_{2k} s_k/(2k (2k)!)),
    the coefficient of s_k being the E{2k} normalization -B_{2k}/(2 (2k)!) over k."""
    terms = (model.power_sum(k, mode) * (half_lattice_normalization(k) / k)
             for k in range(1, model.dim // 4 + 1))
    return dga.exp_nilpotent(model.algebra.sum(terms, mode))
