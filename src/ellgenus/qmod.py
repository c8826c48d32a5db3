"""Exact q-expansions and numeric lattice sums for Eisenstein series.

Two independent evaluation pipelines live here.  ``eisenstein_q`` produces the
normalized series Ẽ_{2k} (constant term 1, rational coefficients) from divisor
sums; ``eisenstein_lattice`` computes partial sums of
sum 1/(m*tau + n)^{2k} over Z^2 \\ {0}.  They are tied together by
E^lat_{2k} = 2 zeta(2k) Ẽ_{2k}, which the tests and the CLI check numerically.

The sums run in row-major order: for each m, sum the whole row over n, then
sum over m.  For k >= 2 the lattice sum converges absolutely and any order
gives the same value; for k = 1 it is only conditionally convergent, and this
order realizes the holomorphic quasi-modular E2, which is validated against
its SL2(Z) transformation law rather than assumed.  Each row
sum_n (w + n)^{-p}, w = m tau, converges absolutely; only the order of m
against n is conditional.  So a row is a literal sum over |n| <= N plus its
two tails in closed form, by Euler-Maclaurin (DLMF 2.10.1): with x = N + w
(and x = N - w for n < -N),

    sum_{n>N} (n + w)^{-p} = x^{1-p}/(p-1) - x^{-p}/2
                             + sum_{j=1}^{J} B_{2j}/(2j)! (p)_{2j-1} x^{1-p-2j},

(p)_r the rising factorial.  J = TAIL_ORDER = 8 makes any N >= MIN_COLUMNS = 16
accurate to round-off; the series is asymptotic and fails at small x, so a
smaller N is raised to 16.  Rows are periodic in w, so each row's window is
centred on its pole (w is reduced to |Re w| <= 1/2).  The rows |m| > M fall
off like e^{-2 pi M Im tau}, so M is the smallest M >= MIN_ROWS with
M Im tau >= ROW_DECAY, i.e. that factor below e^{-2 pi 7} ~ 8e-20; a tau
needing more than MAX_ROWS rows is rejected before anything is allocated.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import ClassVar

from .scalars import QI, bernoulli, exact_number, power


class WeightMismatch(ValueError):
    """Adding q-series of different modular weights."""


class NoDecomposition(ValueError):
    """The series is not quasi-modular of the claimed weight at this truncation."""


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v)
    raise TypeError(f"expected exact rational, got {type(v).__name__}")


_set = object.__setattr__


class QSeries:
    """Truncated Laurent series in q with exact rational coefficients and a weight.

    ``order`` is the exponent bound: coefficients are valid for exponents < order.
    ``order=None`` marks an exact polynomial (infinite order), used for constants.

    The coefficients are stored as integer numerators over one positive
    denominator: q^(lo + i) has coefficient num[i] / den, num is dense from
    the lowest nonzero exponent lo to the highest, both ends nonzero (num is
    empty and lo is 0 for the zero series), no exponent reaches the order, and
    gcd(den, *num) = 1.  That form is unique, so equal series have equal
    vectors.  Each operation builds its result's vector in integers (a
    product is an integer convolution, a sum works over the lcm of the two
    denominators) and normalizes it once: trim the zero ends, divide out one
    gcd.  ``coeffs``, ``__getitem__`` and the text forms present the
    coefficients as Fractions.
    """

    __slots__ = ("weight", "order", "_lo", "_num", "_den", "_coeffs")

    def __init__(self, weight, coeffs, order):
        order = None if order is None else int(order)
        clean = {}
        for e, c in coeffs.items():
            c = _as_fraction(c)
            if c != 0 and (order is None or e < order):
                clean[int(e)] = c
        # over the lcm of reduced denominators the numerators already share no factor with it
        den = math.lcm(*(c.denominator for c in clean.values()))
        lo = min(clean, default=0)
        num = [0] * (max(clean) - lo + 1) if clean else []
        for e, c in clean.items():
            num[e - lo] = c.numerator * (den // c.denominator)
        _init(self, int(weight), lo, num, den, order)

    def __setattr__(self, *a):
        raise AttributeError("QSeries is immutable")

    @staticmethod
    def constant(value, weight=0) -> "QSeries":
        c = _as_fraction(value)
        return _raw(int(weight), 0, [c.numerator] if c else [], c.denominator, None)

    @staticmethod
    def zero(weight=0) -> "QSeries":
        return _raw(int(weight), 0, [], 1, None)

    @property
    def min_exp(self) -> int:
        return self._lo

    @property
    def coeffs(self):
        """The nonzero coefficients, a read-only mapping exponent -> Fraction."""
        if self._coeffs is None:
            lo, den = self._lo, self._den
            _set(self, "_coeffs", MappingProxyType(
                {lo + i: Fraction(n, den) for i, n in enumerate(self._num) if n}))
        return self._coeffs

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self):
        return bool(self._num)

    def __getitem__(self, e: int) -> Fraction:
        if self.order is not None and e >= self.order:
            raise IndexError(f"coefficient q^{e} beyond truncation order {self.order}")
        i = e - self._lo
        return Fraction(self._num[i], self._den) if 0 <= i < len(self._num) else Fraction(0)

    def _join_weight(self, other: "QSeries") -> int:
        if self.is_zero():
            return other.weight
        if other.is_zero():
            return self.weight
        if self.weight != other.weight:
            raise WeightMismatch(f"weights {self.weight} != {other.weight}")
        return self.weight

    def __add__(self, other):
        if not isinstance(other, QSeries):
            try:
                other = QSeries.constant(other)
            except TypeError:
                return NotImplemented
        w = self._join_weight(other)
        order = _min_order(self.order, other.order)
        a, b = self._num, other._num
        if not b:
            return self._with(w, order)
        if not a:
            return other._with(w, order)
        # over the lcm of the denominators: self's numerators times fa, other's times fb
        da, db = self._den, other._den
        g = math.gcd(da, db)
        fa, fb = db // g, da // g
        la, lb = self._lo, other._lo
        lo = min(la, lb)
        hi = max(la + len(a), lb + len(b))
        if order is not None and order < hi:
            hi = order
            a, b = a[:max(0, hi - la)], b[:max(0, hi - lb)]
        num = [0] * max(0, hi - lo)
        num[la - lo:la - lo + len(a)] = [fa * x for x in a] if fa != 1 else a
        off = lb - lo
        num[off:off + len(b)] = [x + fb * y for x, y in zip(num[off:off + len(b)], b)]
        return _fresh(w, lo, num, da * fa, order)

    __radd__ = __add__

    def __neg__(self):
        return _raw(self.weight, self._lo, [-x for x in self._num], self._den, self.order)

    def __sub__(self, other):
        if not isinstance(other, QSeries):
            other = QSeries.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return QSeries.constant(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, QSeries):
            # scalar multiple keeps weight and order
            try:
                c = _as_fraction(other)
            except TypeError:
                return NotImplemented
            p = c.numerator
            return _fresh(self.weight, self._lo, [p * x for x in self._num],
                          self._den * c.denominator, self.order)
        order = _min_order(
            None if self.order is None else self.order + other._lo,
            None if other.order is None else other.order + self._lo,
        )
        w = self.weight + other.weight
        a, b = self._num, other._num
        lo = self._lo + other._lo
        n = len(a) + len(b) - 1
        if order is not None:
            n = min(n, order - lo)
        if not a or not b or n <= 0:
            return _raw(w, 0, [], 1, order)
        return _fresh(w, lo, _convolve(a, b, n), self._den * other._den, order)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return power(self, e, QSeries.constant(1))

    def inverse(self) -> "QSeries":
        """Multiplicative inverse up to this truncation order.

        With a = num shifted to start at q^0, 1/a = sum_k R_k q^k / a_0^(k+1)
        where R_0 = 1 and R_k = -sum_{j=1..k} a_j a_0^(j-1) R_{k-j} are
        integers; the inverse is den times that over the common a_0^target.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero series")
        a, m = self._num, self._lo
        target = len(a) if self.order is None else self.order - m
        a0 = a[0]
        scaled = [0] + [aj * a0 ** (j - 1) for j, aj in enumerate(a[1:target], 1)]
        r = [1]
        for k in range(1, target):
            r.append(-sum(scaled[j] * r[k - j] for j in range(1, min(k, len(scaled) - 1) + 1)))
        den = a0**target
        num = [self._den * rk * a0 ** (target - 1 - k) for k, rk in enumerate(r)]
        if den < 0:
            den, num = -den, [-x for x in num]
        order = None if self.order is None else self.order - 2 * m
        return _fresh(-self.weight, -m, num, den, order)

    def truncate(self, order: int) -> "QSeries":
        return self._with(self.weight, _min_order(self.order, order))

    def _with(self, weight: int, order) -> "QSeries":
        """This series under another weight, truncated to order (at most its own)."""
        num = self._num
        n = len(num) if order is None else max(0, min(len(num), order - self._lo))
        if n == len(num):
            return _raw(weight, self._lo, num, self._den, order)
        return _fresh(weight, self._lo, num[:n], self._den, order)

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        if self.is_zero() and other.is_zero():
            return True
        return (
            self.weight == other.weight
            and self.order == other.order
            and self._lo == other._lo
            and self._den == other._den
            and self._num == other._num
        )

    def __hash__(self):
        if self.is_zero():
            return hash(())
        return hash((self.weight, frozenset(self.coeffs.items()), self.order))

    def evaluate(self, q: complex) -> complex:
        """sum c_e q^e in increasing e, each c_e the correctly rounded float of num/den."""
        lo, den = self._lo, self._den
        return sum(complex(n / den) * q ** (lo + i) for i, n in enumerate(self._num) if n)

    def render(self, var: str = "q") -> str:
        """Human form, e.g. ``1 + 240 q + 2160 q^2``."""
        if self.is_zero():
            return "0"
        parts = []
        for e, c in self.coeffs.items():
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

    def compact(self) -> str:
        """Space-free token for embedding in algebra renderings."""
        cs = ";".join(f"{e}:{c}" for e, c in self.coeffs.items())
        order = "inf" if self.order is None else str(self.order)
        return "q{w=%d;N=%s;%s}" % (self.weight, order, cs)

    @staticmethod
    def parse_compact(text: str) -> "QSeries":
        t = text.strip()
        if not (t.startswith("q{") and t.endswith("}")):
            raise ValueError(f"bad QSeries token: {text!r}")
        fields = t[2:-1].split(";")
        w = int(fields[0].removeprefix("w="))
        n = fields[1].removeprefix("N=")
        order = None if n == "inf" else int(n)
        coeffs = {}
        for item in fields[2:]:
            if item:
                e, c = item.split(":")
                coeffs[int(e)] = Fraction(c)
        return QSeries(w, coeffs, order)

    def to_record(self) -> dict:
        """External record: {weight, min_exp, coeffs, order} with "p/q" strings."""
        if self.is_zero():
            lo, hi = 0, -1
        else:
            lo = self._lo
            hi = (self.order - 1) if self.order is not None else lo + len(self._num) - 1
        coeffs = self.coeffs
        return {
            "weight": self.weight,
            "min_exp": lo,
            "coeffs": [str(coeffs.get(e, Fraction(0))) for e in range(lo, hi + 1)],
            "order": self.order,
        }

    @staticmethod
    def from_record(rec: dict) -> "QSeries":
        weight, lo, order, coeffs = rec["weight"], rec["min_exp"], rec.get("order"), rec["coeffs"]
        for key, value in (("weight", weight), ("min_exp", lo), ("order", order)):
            # a float's fraction would be dropped by int(), and a bool read as 0 or 1
            if type(value) is not int and (key != "order" or value is not None):
                raise TypeError(f"{key} must be a JSON integer, got {value!r}")
        if type(coeffs) is not list:  # a string would be read digit by digit
            raise TypeError(f"coeffs must be a JSON list, got {coeffs!r}")
        return QSeries(weight, {lo + i: exact_number(c, f"coeffs[{i}]") for i, c in enumerate(coeffs)}, order)

    def dumps(self) -> str:
        return json.dumps(self.to_record())

    @staticmethod
    def loads(text: str) -> "QSeries":
        return QSeries.from_record(json.loads(text))

    def __repr__(self):
        return f"QSeries(w={self.weight}, {self.render()}, order={self.order})"


def _init(s: QSeries, weight: int, lo: int, num: list, den: int, order) -> None:
    _set(s, "weight", weight)
    _set(s, "order", order)
    _set(s, "_lo", lo)
    _set(s, "_num", num)
    _set(s, "_den", den)
    _set(s, "_coeffs", None)


def _raw(weight: int, lo: int, num: list, den: int, order) -> QSeries:
    """A QSeries from a vector already in normal form (see the class docstring)."""
    s = object.__new__(QSeries)
    _init(s, weight, lo, num, den, order)
    return s


def _fresh(weight: int, lo: int, num: list, den: int, order) -> QSeries:
    """A QSeries from a vector an operation has just built: num a list of ints
    no other series holds, den > 0, no entry at or past the order.  Trims the
    zero ends and divides out the common gcd, once."""
    start, stop = 0, len(num)
    while stop and not num[stop - 1]:
        stop -= 1
    while start < stop and not num[start]:
        start += 1
    if start == stop:
        return _raw(weight, 0, [], 1, order)
    if start or stop < len(num):
        num, lo = num[start:stop], lo + start
    g = math.gcd(den, *num)
    if g != 1:
        num, den = [x // g for x in num], den // g
    return _raw(weight, lo, num, den, order)


def _convolve(a: list, b: list, n: int) -> list:
    """The first n coefficients of the product of integer polynomials a and b."""
    if len(a) < len(b):
        a, b = b, a
    out = [0] * n
    for i, x in enumerate(b[:n]):
        if x:
            m = min(len(a), n - i)
            out[i:i + m] = [o + x * y for o, y in zip(out[i:i + m], a)]
    return out


def _min_order(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


# ---------------------------------------------------------------------------
# Eisenstein q-expansions


def eisenstein_q(k: int, order: int) -> QSeries:
    """Normalized Eisenstein series Ẽ_{2k} = 1 - (4k/B_{2k}) sum sigma_{2k-1}(n) q^n.

    The divisor sums come from a sieve: d^{2k-1} is added to every multiple
    of d below the order.
    """
    if k < 1 or order < 1:
        raise ValueError("need k >= 1 and order >= 1")
    pref = Fraction(-4 * k) / bernoulli(2 * k)
    sigma = [0] * order
    for d in range(1, order):
        power = d ** (2 * k - 1)
        for n in range(d, order, d):
            sigma[n] += power
    p, den = pref.numerator, pref.denominator
    return _fresh(2 * k, 0, [den] + [p * s for s in sigma[1:]], den, order)


class EMonomials(dict):
    """The products Ẽ_{2k_1} ... Ẽ_{2k_n} at one truncation order, each expanded once.

    Keyed by the nondecreasing tuple (k_1, ..., k_n); () is the exact constant 1.
    A missing entry is its parent's (the tuple without its last k) times
    Ẽ_{2k_n}, one product each.  The Witten class and genus read their
    E-symbol monomials here (scaled by the symbol normalizations), and the
    decomposition its columns Ẽ2^a Ẽ4^b Ẽ6^c, the tuples of a ones, b twos
    and c threes.  A table serves one evaluation and is then dropped.
    """

    def __init__(self, order: int):
        super().__init__({(): QSeries.constant(1)})
        self.order = order

    def __missing__(self, ks: tuple) -> QSeries:
        if len(ks) == 1:
            s = eisenstein_q(ks[0], self.order)
        else:
            s = self[ks[:-1]] * self[ks[-1:]]
        self[ks] = s
        return s


def half_lattice_normalization(k: int) -> Fraction:
    """Rational c with zeta(2k)/(2 pi i)^{2k} = c; c = -B_{2k}/(2 (2k)!).

    Half the full-lattice constant: E^lat_{2k} = 2c (2 pi i)^{2k} Ẽ_{2k}."""
    return -bernoulli(2 * k) / (2 * math.factorial(2 * k))


# ---------------------------------------------------------------------------
# SL2(Z) elements and row-major lattice sums


@dataclass(frozen=True)
class GammaElement:
    """SL2(Z) element [[a, b], [c, d]]."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError("determinant must be 1")

    def apply(self, tau: complex) -> complex:
        return (self.a * tau + self.b) / (self.c * tau + self.d)

    def automorphy(self, tau: complex) -> complex:
        return self.c * tau + self.d


GAMMA_T = GammaElement(1, 1, 0, 1)
GAMMA_S = GammaElement(0, 1, -1, 0)


MIN_ROWS = 8  # row-major M is never below this
ROW_DECAY = 7.0  # M * Im tau >= ROW_DECAY puts the dropped rows below e^{-2 pi 7} ~ 8e-20
MAX_ROWS = 4096  # cap on row-major M, reached at Im tau ~ 1.7e-3
MIN_COLUMNS = 16  # row-major N is never below this: the row tails are at round-off from here on
TAIL_ORDER = 8  # Bernoulli terms in each Euler-Maclaurin row tail


@dataclass(frozen=True)
class LatticeOrdering:
    """The row-major enumeration of Z^2 \\ {0} and its ranges.

    Rows |m| <= M, each a literal sum over |n| <= N (centred on the row's
    pole) plus its Euler-Maclaurin tails with TAIL_ORDER Bernoulli terms; this
    order realizes the holomorphic E2.  N is the bound but at least
    MIN_COLUMNS, M is the least M >= MIN_ROWS with M Im tau >= ROW_DECAY (at
    most MAX_ROWS).  Unset ranges are derived from the call-site bound and
    tau; setting m_range sums a chosen number of rows.
    """

    variant: ClassVar[str] = "rowmajor"
    m_range: int | None = None
    n_range: int | None = None

    def effective_ranges(self, bound: int, tau: complex | None = None) -> tuple[int, int]:
        """(M, N).

        N is at least MIN_COLUMNS, where the row tails hold to round-off.
        Without tau M is MIN_ROWS; a tau that needs more than MAX_ROWS rows
        is a ValueError.
        """
        n = max(MIN_COLUMNS, self.n_range if self.n_range is not None else bound)
        if self.m_range is not None:
            return self.m_range, n
        if tau is None:
            return MIN_ROWS, n
        if not tau.imag * MAX_ROWS >= ROW_DECAY:  # written so that a nan Im is rejected too
            raise ValueError(
                f"Im = {tau.imag:.3g} needs more than {MAX_ROWS} row-major rows "
                f"(need Im >= {ROW_DECAY / MAX_ROWS:.3g})"
            )
        return max(MIN_ROWS, math.ceil(ROW_DECAY / tau.imag)), n


ROWMAJOR = LatticeOrdering()


def z2plus_shell(s: int):
    """Shell s of Z^2_+ (max(|n|, |m|) = s) as (n, m) integer arrays of 4s points.

    The one definition of the half lattice and its order: the m = -s edge with
    n = -s..s, the n = -s then n = s sides with m = -s+1..-1, then (s, 0).
    """
    import numpy as np

    n = np.concatenate([np.arange(-s, s + 1), np.full(s - 1, -s), np.full(s - 1, s), [s]])
    m = np.concatenate([np.full(2 * s + 1, -s), np.arange(-s + 1, 0), np.arange(-s + 1, 0), [0]])
    return n, m


def z2plus_points(bound: int):
    """Z^2_+ within max(|m|,|n|) <= bound as Python int pairs (n, m), shell order."""
    for s in range(1, bound + 1):
        n, m = z2plus_shell(s)
        yield from zip(n.tolist(), m.tolist())


def z2plus_power_sums(k_max: int, bound: int, tau) -> list:
    """[P_2, ..., P_{2 k_max}] with P_{2k} = sum over Z^2_+ within the bound of (n tau - m)^{-2k}.

    A QI tau gives exact QI sums (one inverse square per point, running
    products over k); any other tau gives complex sums accumulated shell by shell.
    """
    if isinstance(tau, QI):
        sums = [QI(0)] * k_max
        for n, m in z2plus_points(bound):
            inv2 = ((QI(n) * tau - QI(m)) ** 2).inverse()
            term = inv2
            for k in range(k_max):
                sums[k] = sums[k] + term
                term = term * inv2
        return sums
    import numpy as np

    sums = [0j] * k_max
    for s in range(1, bound + 1):
        n, m = z2plus_shell(s)
        inv2 = 1.0 / (n * complex(tau) - m) ** 2
        term = inv2
        for k in range(k_max):
            sums[k] += complex(np.sum(term))
            term = term * inv2
    return sums


_BLOCK = 1 << 20  # lattice points per numpy block


@functools.cache
def _tail_terms(power: int) -> tuple:
    """(B_2j/(2j)! (power)_{2j-1}, power - 1 + 2j) for j = 1..TAIL_ORDER."""
    return tuple(
        (float(bernoulli(2 * j) * math.prod(range(power, power + 2 * j - 1)) / math.factorial(2 * j)),
         power - 1 + 2 * j)
        for j in range(1, TAIL_ORDER + 1)
    )


# Both helpers take powers of reciprocals, (1/x)^p, never x^-p: numpy forms x^p
# first, which overflows to nan at large p, where (1/x)^p just underflows to 0.
def _row_tail(x, power: int):
    """sum_{n>N} (n + w)^-power at x = N + w: Euler-Maclaurin with TAIL_ORDER Bernoulli terms."""
    r = 1 / x
    tail = r ** (power - 1) / (power - 1) - r**power / 2
    for c, e in _tail_terms(power):
        tail += c * r**e
    return tail


def _row_sums(w, power: int, lo: int, hi: int):
    """sum_{n=lo..hi} (w + n)^-power for each entry of w, in blocks of about _BLOCK points."""
    import numpy as np

    sums = np.zeros(len(w), dtype=complex)
    step = max(1, _BLOCK // max(1, len(w)))
    for a in range(lo, hi + 1, step):
        n = np.arange(a, min(a + step, hi + 1), dtype=np.float64)
        sums += np.sum((1 / (w[:, None] + n)) ** power, axis=1)
    return sums


def lattice_partial_sum(power: int, tau: complex, ordering: LatticeOrdering, bound: int) -> complex:
    """Partial sum of 1/(m*tau + n)^power in row-major order, over the ordering's ranges.

    (n, m) is paired with (-n, -m), which makes odd powers cancel exactly and
    tames floating-point cancellation for the conditional k = 1 case.
    """
    if tau.imag <= 0:
        raise ValueError("tau must lie in the upper half plane")
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if power % 2:
        return 0j  # (n, m) <-> (-n, -m) antisymmetry, exactly
    import numpy as np

    # the m = 0 row (n > 0, paired), then rows +-m paired, each row whole
    m_range, n_range = ordering.effective_ranges(bound, tau)
    w = np.arange(1, m_range + 1) * tau
    w -= np.rint(w.real)  # a row is periodic in w: centre its window on the pole
    # p is even: the n < -N tail is the n > N tail at -w
    zero_row = _row_sums(np.zeros(1), power, 1, n_range)[0] + _row_tail(float(n_range), power)
    rows = _row_sums(w, power, -n_range, n_range) + _row_tail(n_range + w, power) + _row_tail(n_range - w, power)
    return complex(2 * (zero_row + np.sum(rows)))


def eisenstein_lattice(k: int, tau: complex, bound: int) -> complex:
    """Partial lattice sum of E_{2k}(tau) = sum 1/(m tau + n)^{2k} in row-major order."""
    if k < 1:
        raise ValueError("need k >= 1")
    return lattice_partial_sum(2 * k, tau, ROWMAJOR, bound)


def transform_residual(k: int, gamma: GammaElement, tau: complex, bound: int,
                       value: complex | None = None) -> complex:
    """(left - right) / max(1, |left|, |right|), left = E(gamma tau) and
    right = (c tau + d)^{2k} E(tau) + anomaly, anomaly = -2 pi i c (c tau + d) for k = 1.

    value is E(tau) = eisenstein_lattice(k, tau, bound) when the caller has it
    already; it is summed here otherwise."""
    if tau.imag <= 0:
        raise ValueError("tau must lie in the upper half plane")
    j = gamma.automorphy(tau)
    left = eisenstein_lattice(k, gamma.apply(tau), bound)
    if value is None:
        value = eisenstein_lattice(k, tau, bound)
    right = j ** (2 * k) * value
    if k == 1:
        right += -2j * math.pi * gamma.c * j
    return (left - right) / max(1.0, abs(left), abs(right))


# ---------------------------------------------------------------------------
# Quasi-modular decomposition


def weight_monomial_count(weight: int) -> int:
    """len(weight_monomials(weight)) without listing them: the partitions of
    weight/2 into parts 1, 2, 3 number round((weight/2 + 3)^2 / 12)."""
    if weight < 0 or weight % 2:
        return 0
    return ((weight // 2 + 3) ** 2 + 6) // 12


def weight_monomials(weight: int) -> list[tuple[int, int, int]]:
    """Exponent triples (a, b, c) with 2a + 4b + 6c = weight, ordered."""
    out = []
    for c in range(weight // 6 + 1):
        for b in range((weight - 6 * c) // 4 + 1):
            rest = weight - 6 * c - 4 * b
            if rest >= 0 and rest % 2 == 0:
                out.append((rest // 2, b, c))
    return sorted(out)


@dataclass(frozen=True)
class QuasiModularDecomposition:
    """Exact polynomial in Ẽ2, Ẽ4, Ẽ6 matching a q-expansion."""

    weight: int
    coeffs: dict  # (a, b, c) -> Fraction, zero coefficients omitted

    @property
    def is_modular(self) -> bool:
        return all(a == 0 for (a, _, _) in self.coeffs)

    @property
    def e2_part(self) -> dict:
        return {m: c for m, c in self.coeffs.items() if m[0] > 0}

    def render(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(
            f"({c})*{e_monomial_name(mono)}" if any(mono) else f"({c})"
            for mono, c in sorted(self.coeffs.items())
        )


def e_monomial_name(mono) -> str:
    """E2^a*E4^b*E6^c for exponents (a, b, c), without ^1 or ^0 factors; "1" if none."""
    names = ("E2", "E4", "E6")
    return "*".join(f"{names[i]}^{e}" if e > 1 else names[i] for i, e in enumerate(mono) if e) or "1"


def quasi_modular_decompose(f: QSeries, table: EMonomials | None = None) -> QuasiModularDecomposition:
    """Solve for f as an exact polynomial in Ẽ2, Ẽ4, Ẽ6 of f's weight.

    Matches every available q-coefficient; raises NoDecomposition when the
    linear system is inconsistent (the series is not quasi-modular of that
    weight at this truncation) or underdetermined.  The columns come from
    table, an EMonomials at f's order (a new one when None).
    """
    w = f.weight
    if f.order is None:
        raise NoDecomposition("need a truncated series with a definite order")
    needed = weight_monomial_count(w) + 2
    if f.order < needed:  # before the monomials, whose number grows like w^2
        raise ValueError(f"order {f.order} too small: need >= {needed}")
    if f.is_zero():
        return QuasiModularDecomposition(w, {})
    if w < 0 or w % 2:
        raise NoDecomposition(f"no quasi-modular forms of weight {w}")
    if f.min_exp < 0:
        raise NoDecomposition("polynomials in Ẽ2, Ẽ4, Ẽ6 have no pole at q = 0")
    order = f.order
    if table is None:
        table = EMonomials(order)
    elif table.order != order:
        raise ValueError(f"monomial table at order {table.order}, series at order {order}")
    monos = weight_monomials(w)
    cols = [table[(1,) * a + (2,) * b + (3,) * c] for a, b, c in monos]
    # column j is N_j / D_j: solve with the numerators, then x_j = D_j y_j / den(f)
    matrix = list(zip(*(_numerators(col, order) for col in cols)))
    sol = _solve_exact(matrix, _numerators(f, order))
    if sol is None:
        raise NoDecomposition(f"weight-{w} system inconsistent at order {order}")
    coeffs = {m: y * Fraction(col._den, f._den) for m, y, col in zip(monos, sol, cols)}
    return QuasiModularDecomposition(w, {m: c for m, c in coeffs.items() if c})


def _numerators(f: QSeries, order: int) -> list:
    """f's numerators at q^0 .. q^(order - 1), for a series without a pole."""
    out = [0] * order
    out[f._lo:f._lo + len(f._num)] = f._num
    return out


def _solve_exact(matrix, rhs):
    """Solve an overdetermined integer system exactly; None if inconsistent.

    Fraction-free Gaussian elimination (Bareiss 1968): with p the previous
    pivot, each step replaces the entries below pivot v by (v x - f y) / p, a
    division that is always exact, so every entry stays an integer minor of
    the system.  Back substitution over the last pivot det gives the integers
    det * solution (Cramer's rule), divided out once at the end.
    """
    rows = [list(r) + [b] for r, b in zip(matrix, rhs)]
    ncols = len(matrix[0]) if matrix else 0
    prev = 1
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        top = rows[r]
        v = top[c]
        for i in range(r + 1, len(rows)):
            row = rows[i]
            f = row[c]
            row[c:] = [(v * x - f * y) // prev for x, y in zip(row[c:], top[c:])]
        prev = v
        r += 1
        if r == len(rows):
            break
    if any(rows[i][ncols] for i in range(r, len(rows))):
        return None  # 0 = nonzero: inconsistent
    if r < ncols:  # a column without a pivot
        raise NoDecomposition("underdetermined system: increase the order")
    det = prev
    scaled = [0] * ncols  # det * solution
    for i in reversed(range(r)):
        row = rows[i]
        acc = det * row[ncols] - sum(row[j] * scaled[j] for j in range(i + 1, ncols))
        scaled[i] = acc // row[i]
    return [Fraction(x, det) for x in scaled]
