from functools import cache

import numpy as np
import pytest

from ellgenus import dga
from ellgenus.pfaff import _det_laplace, _pf_matchings, _swap_rowcol
from ellgenus.qmod import z2plus_shell


def _square_shell_sum(power, tau, bound):
    """sum of 1/(m tau + n)^power over 0 < max(|m|, |n|) <= bound, shell by shell,
    for even power: a square shell is its Z^2_+ part and that part's mirror image.

    The square order, kept as an oracle beside the library's row-major sums.
    """
    total = 0.0 + 0.0j
    for s in range(1, bound + 1):
        n, m = z2plus_shell(s)
        total += 2 * np.sum((m * tau + n) ** (-power))
    return complex(total)


@pytest.fixture
def square_shell_sum():
    return _square_shell_sum


# ---------------------------------------------------------------------------
# Dense elimination kernels, kept as oracles beside the library's sparse ones:
# every pivot inverse formed, every entry of every row below rewritten.


def _dense_is_unit(el):
    c = el.unit_part()
    if not (c.is_unit() if el.mode == dga.PI else c):
        return False
    rest = el - el.algebra.scalar(c, el.mode)
    return rest.is_zero() or rest.min_form_degree() >= 1


def _series_unit_inverse(a):
    """Inverse of c + nilpotent by the geometric series, a scalar c included."""
    c = a.unit_part()
    if not c:
        raise ZeroDivisionError("no unit part")
    cinv = dga.MODES[a.mode].inverse(c)
    n = (a - a.algebra.scalar(c, a.mode)) * cinv
    if not n.is_zero() and n.min_form_degree() < 1:
        raise ZeroDivisionError("non-nilpotent remainder: cannot invert")
    alg = a.algebra
    neg_n = -n
    out = alg.one(a.mode)
    power = alg.one(a.mode)
    for _ in range(1, alg.trunc + 1):
        power = power * neg_n
        if power.is_zero():
            break
        out = out + power
    return out * cinv


def _dense_pf_eliminate(m, context=None):
    n = len(m)
    if n == 0:
        alg, mode = context
        return alg.one(mode)
    alg = m[0][0].algebra
    mode = m[0][0].mode
    if not _dense_is_unit(m[0][1]):
        swap = next(
            ((i, j) for i in range(n) for j in range(i + 1, n) if _dense_is_unit(m[i][j])),
            None,
        )
        if swap is None:
            return _pf_matchings(m, tuple(range(n)))
        i, j = swap
        flips = 0
        if i != 0:
            _swap_rowcol(m, i, 0)
            flips += 1
        if j != 1:
            _swap_rowcol(m, j, 1)
            flips += 1
        result = _dense_pf_eliminate(m)
        return -result if flips % 2 else result
    p = m[0][1]
    pinv = _series_unit_inverse(p)
    sub = [
        [
            m[i][j] - (m[0][i] * m[1][j] - m[0][j] * m[1][i]) * pinv
            for j in range(2, n)
        ]
        for i in range(2, n)
    ]
    return p * _dense_pf_eliminate(sub, (alg, mode))


def _dense_determinant(matrix):
    n = len(matrix)
    alg = matrix[0][0].algebra
    mode = matrix[0][0].mode
    m = [row[:] for row in matrix]
    det = alg.one(mode)
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if _dense_is_unit(m[r][col])), None)
        if pivot_row is None:
            if all(m[r][col].is_zero() for r in range(col, n)):
                return alg.zero(mode)
            minor = [row[col:] for row in m[col:]]
            return det * _det_laplace(minor)
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            det = -det
        p = m[col][col]
        pinv = _series_unit_inverse(p)
        det = det * p
        for r in range(col + 1, n):
            if m[r][col].is_zero():
                continue
            f = m[r][col] * pinv
            m[r] = [m[r][j] - f * m[col][j] for j in range(n)]
    return det


@pytest.fixture
def dense_determinant():
    return _dense_determinant


@pytest.fixture
def dense_pf_eliminate():
    """Pfaffian of a skew matrix by dense elimination on a copy of it."""
    return lambda matrix: _dense_pf_eliminate([row[:] for row in matrix])


@pytest.fixture
def series_unit_inverse():
    return _series_unit_inverse


# ---------------------------------------------------------------------------
# numpy's eigenvalue-based Gauss-Legendre rule, kept as the oracle beside the
# library's Newton rule.  Its O(grid^3) solve takes seconds at grid 4096, so
# each grid's rule is built once per session and frozen.


@cache
def _leggauss(n):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@pytest.fixture
def leggauss():
    return _leggauss
