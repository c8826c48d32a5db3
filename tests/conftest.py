import math
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import accumulate, islice, takewhile

import numpy as np
import pytest

from ellgenus import dga
from ellgenus.dga import Algebra, Element, Generator, coerce
from ellgenus.geom import eisenstein_symbols, power_sums_to_pontryagin, symbol_k
from ellgenus.pfaff import _det_laplace, _pf_matchings, _swap_rowcol
from ellgenus.qmod import eisenstein_q, half_lattice_normalization, z2plus_shell
from ellgenus.scalars import QI, PiScalar, power
from ellgenus.witten import _partitions, _require_every_number


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
# The Chern-Weil trace route to the Pontryagin character, kept as the oracle
# beside the library's splitting-principle closed form ph_k = s_k / k.


def _mat_mul(a, b):
    n = len(a)
    alg, mode = a[0][0].algebra, a[0][0].mode
    return [[alg.sum((a[i][k] * b[k][j] for k in range(n)
                      if not a[i][k].is_zero() and not b[k][j].is_zero()), mode)
             for j in range(n)] for i in range(n)]


def _trace_of_power(mat, power):
    """Tr(mat^power) of a nonempty square matrix of algebra elements, power >= 1."""
    acc = mat
    for _ in range(power - 1):
        acc = _mat_mul(acc, mat)
    alg, mode = mat[0][0].algebra, mat[0][0].mode
    return alg.sum((acc[i][i] for i in range(len(acc))), mode)


def _chern_weil_ph(model, k, mode=dga.RATIONAL):
    """Tr(R^{2k}) / (2k (2 pi i)^{2k}) of the pi-mode curvature, in the requested mode."""
    if model.r == 0:
        return model.algebra.zero(mode)
    tr = _trace_of_power(model.curvature(dga.PI), 2 * k)
    # 1/(2k (2 pi i)^{2k}) = (-1)^k / (2k 4^k) * pi^{-2k}
    scale = PiScalar.pi_power(-2 * k, QI(Fraction((-1) ** k, 2 * k * 4**k)))
    return (tr * dga.coerce(dga.PI, scale)).convert(dga.RATIONAL).convert(mode)


@pytest.fixture
def trace_of_power():
    return _trace_of_power


@pytest.fixture
def chern_weil_ph():
    return _chern_weil_ph


# ---------------------------------------------------------------------------
# Lex-order division that scans the remainder for its lex-largest monomial on
# every step, kept as the oracle beside the library's heap-ordered dga._divide.


def _lex_max_divide(a, g):
    """(quotient, remainder) of a by g in lex order; dga._divide's checks are not repeated."""
    alg, mode = a.algebra, a.mode
    lead = dga._lex_max(alg, g.terms)
    lc_inv = dga.MODES[mode].inverse(g.terms[lead])
    zero = dga._ZERO[mode]
    rest, quotient, remainder = dict(a.terms), {}, {}
    while rest:
        m = dga._lex_max(alg, rest)
        quot_mono = dga._mono_divides(lead, m)
        if quot_mono is None:
            remainder[m] = rest.pop(m)
        else:
            t = alg.element({quot_mono: rest[m] * lc_inv}, mode)
            dga._add_terms(quotient, t.terms, zero)
            dga._add_terms(rest, (-(t * g)).terms, zero)
    return dga.Element(alg, mode, quotient), dga.Element(alg, mode, remainder)


@pytest.fixture
def lex_max_divide():
    return _lex_max_divide


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


# ---------------------------------------------------------------------------
# Dict-of-Fraction q-series arithmetic and Fraction Gauss-Jordan elimination,
# kept as oracles beside the library's integer-vector QSeries and fraction-free
# solve: every coefficient a Fraction, re-normalized after every operation.


def _min_order(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class FractionQSeries:
    """A q-series as {exponent: Fraction}, with the library's order and weight rules."""

    def __init__(self, weight, coeffs, order):
        self.weight = int(weight)
        self.order = None if order is None else int(order)
        self.coeffs = {
            int(e): Fraction(c) for e, c in coeffs.items()
            if Fraction(c) != 0 and (order is None or e < order)
        }

    @property
    def min_exp(self):
        return min(self.coeffs) if self.coeffs else 0

    def _join_weight(self, other):
        if not self.coeffs:
            return other.weight
        if not other.coeffs:
            return self.weight
        assert self.weight == other.weight
        return self.weight

    def __add__(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, Fraction(0)) + c
        return FractionQSeries(self._join_weight(other), out, _min_order(self.order, other.order))

    def __neg__(self):
        return FractionQSeries(self.weight, {e: -c for e, c in self.coeffs.items()}, self.order)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, FractionQSeries):
            c = Fraction(other)
            return FractionQSeries(self.weight, {e: c * v for e, v in self.coeffs.items()}, self.order)
        order = _min_order(
            None if self.order is None else self.order + other.min_exp,
            None if other.order is None else other.order + self.min_exp,
        )
        out = {}
        for ea, ca in self.coeffs.items():
            for eb, cb in other.coeffs.items():
                e = ea + eb
                if order is None or e < order:
                    out[e] = out.get(e, Fraction(0)) + ca * cb
        return FractionQSeries(self.weight + other.weight, out, order)

    def inverse(self):
        m = self.min_exp
        lead = self.coeffs[m]
        target = max(self.coeffs) - m + 1 if self.order is None else self.order - m
        shifted = {e - m: c for e, c in self.coeffs.items()}
        inv = {0: 1 / lead}
        for n in range(1, target):
            s = Fraction(0)
            for j in range(1, n + 1):
                if j in shifted and (n - j) in inv:
                    s += shifted[j] * inv[n - j]
            if s:
                inv[n] = -s / lead
        order = None if self.order is None else self.order - 2 * m
        return FractionQSeries(-self.weight, {e - m: c for e, c in inv.items()}, order)

    def truncate(self, order):
        return FractionQSeries(self.weight, self.coeffs, _min_order(self.order, order))

    def hash(self):
        if not self.coeffs:
            return hash(())
        return hash((self.weight, frozenset(self.coeffs.items()), self.order))

    def evaluate(self, q):
        return sum(complex(c) * q**e for e, c in sorted(self.coeffs.items()))

    def render(self, var="q"):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                power = var if e == 1 else f"{var}^{e}"
                body = power if mag == 1 else f"{mag} {power}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def compact(self):
        cs = ";".join(f"{e}:{c}" for e, c in sorted(self.coeffs.items()))
        order = "inf" if self.order is None else str(self.order)
        return "q{w=%d;N=%s;%s}" % (self.weight, order, cs)

    def to_record(self):
        if self.coeffs:
            lo = self.min_exp
            hi = (self.order - 1) if self.order is not None else max(self.coeffs)
        else:
            lo, hi = 0, -1
        return {
            "weight": self.weight,
            "min_exp": lo,
            "coeffs": [str(self.coeffs.get(e, Fraction(0))) for e in range(lo, hi + 1)],
            "order": self.order,
        }


def _fraction_solve_exact(matrix, rhs):
    """Gauss-Jordan over Fractions; None if inconsistent, ValueError if underdetermined."""
    rows = [[Fraction(v) for v in r] + [Fraction(b)] for r, b in zip(matrix, rhs)]
    ncols = len(matrix[0]) if matrix else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [v / pv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    for i in range(r, len(rows)):
        if rows[i][ncols] != 0:
            return None
    if len(pivots) < ncols:
        raise ValueError("underdetermined")
    sol = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        sol[c] = rows[i][ncols]
    return sol


@pytest.fixture
def fraction_qseries():
    return FractionQSeries


@pytest.fixture
def fraction_solve_exact():
    return _fraction_solve_exact


# ---------------------------------------------------------------------------
# Gaussian rationals as a pair of Fractions, kept as the oracle beside the
# library's integer-numerator QI: every part re-normalized after every operation.


class FractionQI:
    """Gaussian rational re + im*i with exact Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, *a):
        raise AttributeError("FractionQI is immutable")

    @staticmethod
    def of(value) -> "FractionQI":
        if isinstance(value, FractionQI):
            return value
        if isinstance(value, (int, Fraction)):
            return FractionQI(value)
        if isinstance(value, complex):
            raise TypeError("no implicit float -> FractionQI coercion")
        raise TypeError(f"cannot coerce {type(value).__name__} to FractionQI")

    def __add__(self, other):
        try:
            other = FractionQI.of(other)
        except TypeError:
            return NotImplemented
        return FractionQI(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return FractionQI(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-FractionQI.of(other))

    def __rsub__(self, other):
        return FractionQI.of(other) + (-self)

    def __mul__(self, other):
        try:
            other = FractionQI.of(other)
        except TypeError:
            return NotImplemented
        return FractionQI(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def inverse(self) -> "FractionQI":
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return FractionQI(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * FractionQI.of(other).inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return power(self, e, FractionQI(1))

    def __eq__(self, other):
        try:
            other = FractionQI.of(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self):
        return not self.is_zero()

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    __complex__ = to_complex

    def __repr__(self):
        return f"FractionQI({self.re!s}, {self.im!s})"

    def compact(self) -> str:
        """Render without spaces or top-level '+', e.g. ``3/4-1/2i``."""
        if self.im == 0:
            return str(self.re)
        im = f"{self.im}i" if self.im < 0 else f"+{self.im}i"
        return f"{self.re}{im}"

    @staticmethod
    def parse(text: str) -> "FractionQI":
        t = text.strip()
        if t.endswith("i"):
            body = t[:-1]
            # split at the sign of the imaginary part (not the leading sign)
            for p in range(len(body) - 1, 0, -1):
                if body[p] in "+-" and body[p - 1] not in "+-/":
                    return FractionQI(Fraction(body[:p]), Fraction(body[p:] or "1"))
            return FractionQI(0, Fraction(body or "1"))
        return FractionQI(Fraction(t))


@pytest.fixture
def fraction_qi():
    return FractionQI


# ---------------------------------------------------------------------------
# Term-by-term substitution and differential, kept as oracles beside the
# library's dga.substitute (merged monomial times cached powers) and
# dga.differential (one product per generator): two Element products per
# differential term, and one product plus one fresh power per factor of a
# substituted term.


def _term_by_term_differential(a: Element) -> Element:
    """Graded Leibniz extension of the generators' differentials."""
    alg = a.algebra

    def pieces():
        for mono, c in a.terms.items():
            prefix_parity = 0
            for pos, (i, e) in enumerate(mono):
                g = alg.gens[i]
                di = alg.d_image(i, a.mode)
                if di is not None and not di.is_zero():
                    head = alg.element({mono[:pos]: 1}, a.mode)
                    tail_mono = ((i, e - 1),) if e > 1 else ()
                    tail = alg.element({tail_mono + mono[pos + 1 :]: 1}, a.mode)
                    piece = head * di * tail
                    scale = coerce(a.mode, e) * c
                    if prefix_parity:
                        scale = -scale
                    yield piece * scale
                prefix_parity = (prefix_parity + e * g.degree) % 2

    return alg.sum(pieces(), a.mode)


def _term_by_term_substitute(a: Element, images: dict) -> Element:
    """Replace even generators by elements (names -> images in the same algebra)."""
    alg = a.algebra
    img = {}
    for name, el in images.items():
        i = alg.index[name]
        if alg.gens[i].odd:
            raise ValueError("substitution is defined for even generators only")
        el = a._check(el) if isinstance(el, Element) else alg.scalar(el, a.mode)
        img[i] = el

    def images():
        for mono, c in a.terms.items():
            factor = alg.scalar(c, a.mode)
            for i, e in mono:
                if i in img:
                    piece = img[i] ** e
                else:
                    piece = alg.element({((i, e),): 1}, a.mode)
                factor = factor * piece
                if factor.is_zero():
                    break
            yield factor

    return alg.sum(images(), a.mode)


@pytest.fixture
def term_by_term_substitute():
    return _term_by_term_substitute


@pytest.fixture
def term_by_term_differential():
    return _term_by_term_differential


# ---------------------------------------------------------------------------
# Helpers no library code calls, kept for the tests that state their identities:
# log inverts dga.exp_nilpotent, and E{2k} stands for a normalized Ẽ_{2k}.


def _log_unital(u: Element) -> Element:
    """log of 1 + nilpotent; mutually inverse with exp_nilpotent."""
    if u.unit_part() != coerce(u.mode, 1):
        raise ValueError("log argument must be 1 + nilpotent")
    n = u - u.algebra.one(u.mode)
    if not n.is_zero() and n.min_form_degree() < 1:
        raise ValueError("log argument must be unital with nilpotent remainder")
    alg = u.algebra
    powers = accumulate(range(alg.trunc), lambda p, _: p * n, initial=alg.one(u.mode))
    nonzero = takewhile(lambda p: not p.is_zero(), islice(powers, 1, None))  # n^k for k >= 1
    return alg.sum((p * Fraction((-1) ** (k + 1), k) for k, p in enumerate(nonzero, 1)), u.mode)


def _eisenstein_symbol_series(k: int, q_order: int):
    """The q-series the symbol E{2k} stands for: -B_{2k}/(2(2k)!) * Ẽ_{2k}."""
    return eisenstein_q(k, q_order) * half_lattice_normalization(k)


@pytest.fixture
def log_unital():
    return _log_unital


@pytest.fixture
def eisenstein_symbol_series():
    return _eisenstein_symbol_series


# ---------------------------------------------------------------------------
# The genus through E-monomial elements, kept as the oracle beside the
# library's per-partition pairing: every s_lambda times its E-monomial in an
# algebra on p_i, b and the E-symbols, one sum, one product by b^{dim/2}, and a
# pairing that reads the E-monomial and the b exponent back out of each term.


def _e_symbol_algebra(dim):
    """Algebra on Pontryagin generators p1..p_{dim/4} plus b and the E-symbols."""
    gens = [Generator(f"p{i}", 4 * i) for i in range(1, dim // 4 + 1)]
    gens.append(Generator("b", 0))
    gens.extend(eisenstein_symbols(dim))
    return Algebra(gens, trunc=dim)


def _integrate_e_keyed(descriptor, cls):
    """Pair the form-degree-dim part of a rational-mode class in Pontryagin
    generators with the descriptor's numbers, keeping the Eisenstein symbols.

    Returns {E-monomial exponents tuple: Fraction} where the key lists the
    exponent of E{2k} for k = 1..dim/4; asserts the genus weight dim/2 on
    every contributing monomial.
    """
    alg = cls.algebra
    dim = descriptor.dim
    out = {}
    for mono, coeff in cls.terms.items():
        if alg.form_degree(mono) != dim:
            continue
        partition, beta_exp, eweight, ekey = [], 0, 0, [0] * (dim // 4)
        for i, e in mono:
            g = alg.gens[i]
            if k := symbol_k(g.name):
                eweight += 2 * k * e
                ekey[k - 1] = e
            elif g.name == "b":
                beta_exp = e
            elif g.name.startswith("p"):
                partition.extend([int(g.name[1:])] * e)
            else:
                raise ValueError(f"cannot integrate monomial containing {g.name}")
        if beta_exp != dim // 2 or eweight != dim // 2:
            raise AssertionError(
                f"weight bookkeeping broke: b^{beta_exp}, E-weight {eweight}, dim {dim}"
            )
        ekey = tuple(ekey)
        s = out.get(ekey, Fraction(0)) + coeff * descriptor.number(partition)
        if s:
            out[ekey] = s
        else:
            out.pop(ekey, None)
    return out


def _genus_by_e_monomials(descriptor):
    """Genus as {E-monomial exponents: Fraction}; weight dim/2 per monomial.

    The sum over partitions of dim/4: each s_lambda is its largest part's s_k
    times its tail's product, built once.
    """
    dim = descriptor.dim
    if dim == 0:
        return {(): Fraction(1)}
    _require_every_number(descriptor)
    alg = _e_symbol_algebra(dim)
    s_products = {(): alg.one()}
    for k, s_k in enumerate(power_sums_to_pontryagin(alg), 1):
        s_products[(k,)] = s_k

    def s_product(part):
        if part not in s_products:
            s_products[part] = s_products[part[:1]] * s_product(part[1:])
        return s_products[part]

    def term(part):
        mult = Counter(part)
        e_part = tuple((alg.index[f"E{2 * k}"], m) for k, m in mult.items())
        denominator = math.prod(k**m * math.factorial(m) for k, m in mult.items())
        return s_product(part) * alg.element({e_part: Fraction(1, denominator)})

    top = alg.sum(map(term, _partitions(dim // 4)))
    return _integrate_e_keyed(descriptor, top * alg.gen("b", power=dim // 2))


@pytest.fixture
def e_symbol_algebra():
    return _e_symbol_algebra


@pytest.fixture
def integrate_e_keyed():
    return _integrate_e_keyed


@pytest.fixture
def genus_by_e_monomials():
    return _genus_by_e_monomials
