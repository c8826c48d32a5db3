"""Exact scalar tower shared by the series and graded-algebra layers.

The tower is

    Fraction --> QI (Gaussian rationals) --> PiScalar (Laurent polynomials in pi over QI)

with explicit injections only; floating point (``complex``) sits apart and is
reached through ``complex()`` (``to_complex``) at comparison boundaries.  Each
scalar is falsy exactly when it is zero.  PiScalar is the home
of exact quantities like 2*pi*i*(n*tau - m) for Gaussian-rational tau, which is
what keeps the Pfaffian-product identities checkable without floats.

A QI is stored as integers over one denominator, (a + b*i) / d in lowest
terms, so its operators do integer arithmetic and one gcd and build no
Fraction; a PiScalar is a dict {pi exponent: nonzero QI} whose operators
build that dict directly.  ``_qi`` and ``_pi`` construct both from parts
already in normal form, without the public constructors' conversions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n (B_1 = -1/2 convention), exact.

    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) from the tangent number T_k,
    and T_1..T_k come from the Brent-Harvey recurrence in O(k^2) integer steps.
    """
    if n < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2:
        return Fraction(0)
    k = n // 2
    t = [0, 1] + [0] * (k - 1)  # t[j] = T_j once the sweeps are done
    for j in range(2, k + 1):
        t[j] = (j - 1) * t[j - 1]
    for i in range(2, k + 1):
        for j in range(i, k + 1):
            t[j] = (j - i) * t[j - 1] + (j - i + 2) * t[j]
    four_k = 4**k
    return Fraction((-1) ** (k - 1) * 2 * k * t[k], four_k * (four_k - 1))


def power(base, e: int, one):
    """base ** e for an integer e >= 0 by square-and-multiply, from the unit one."""
    out = one
    while e:
        if e & 1:
            out = out * base
        base = base * base
        e >>= 1
    return out


def exact_number(value, field: str) -> Fraction:
    """An exact number read from JSON: a string such as "7/2", or an integer.

    A float is refused, because it carries its binary round-off (0.1 would be
    read as 3602879701896397/2^55), and so is a bool, which Fraction reads as 0 or 1.
    """
    if type(value) not in (str, int):
        raise TypeError(f"{field} must be a JSON string or integer, got {value!r}")
    return Fraction(value)


def zeta_even_over_pi_power(k: int) -> Fraction:
    """The rational r with zeta(2k) = r * pi^(2k)."""
    if k < 1:
        raise ValueError("need k >= 1")
    return Fraction((-1) ** (k + 1) * 4**k, 2 * math.factorial(2 * k)) * bernoulli(2 * k)


_new = object.__new__
_set = object.__setattr__


class QI:
    """Gaussian rational (a + b*i) / d over Gaussian-integer numerators.

    The value is stored as three ints: the numerator pair ``a``, ``b`` over
    one denominator ``d > 0`` with gcd(a, b, d) = 1.  That form is unique,
    so equality compares the triples, and each operation builds integers and
    normalizes them with one gcd.  ``re`` and ``im`` are read-only Fraction
    views; the constructor takes anything ``Fraction`` takes.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            a, b, d = re, im, 1
        else:
            re, im = Fraction(re), Fraction(im)
            # over the lcm of reduced denominators the numerators share no factor with it
            d = math.lcm(re.denominator, im.denominator)
            a = re.numerator * (d // re.denominator)
            b = im.numerator * (d // im.denominator)
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "d", d)

    def __setattr__(self, *a):
        raise AttributeError("QI is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    @staticmethod
    def of(value) -> "QI":
        if type(value) is QI:
            return value
        if type(value) is int:
            return _qi(value, 0, 1)
        if isinstance(value, (int, Fraction)):
            return QI(value)
        if isinstance(value, complex):
            raise TypeError("no implicit float -> QI coercion")
        raise TypeError(f"cannot coerce {type(value).__name__} to QI")

    def __add__(self, other):
        if type(other) is not QI:
            try:
                other = QI.of(other)
            except TypeError:
                return NotImplemented
        d, e = self.d, other.d
        if d == e:
            return _normal(self.a + other.a, self.b + other.b, d)
        return _normal(self.a * e + other.a * d, self.b * e + other.b * d, d * e)

    __radd__ = __add__

    def __neg__(self):
        return _qi(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + (-QI.of(other))

    def __rsub__(self, other):
        return QI.of(other) + (-self)

    def __mul__(self, other):
        if type(other) is not QI:
            try:
                other = QI.of(other)
            except TypeError:
                return NotImplemented
        a, b, c, e = self.a, self.b, other.a, other.b
        return _normal(a * c - b * e, a * e + b * c, self.d * other.d)

    __rmul__ = __mul__

    def inverse(self) -> "QI":
        """d (a - b i) / (a^2 + b^2)."""
        a, b, d = self.a, self.b, self.d
        n = a * a + b * b
        if n == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return _normal(d * a, -d * b, n)

    def __truediv__(self, other):
        return self * QI.of(other).inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return power(self, e, _qi(1, 0, 1))

    def __eq__(self, other):
        if type(other) is not QI:
            try:
                other = QI.of(other)
            except TypeError:
                return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        """A real QI hashes as its Fraction, so values equal to an int or Fraction hash alike."""
        return hash((self.re, self.im)) if self.b else hash(self.re)

    def is_zero(self) -> bool:
        return not (self.a or self.b)

    def __bool__(self):
        return bool(self.a or self.b)

    def to_complex(self) -> complex:
        return complex(self.a / self.d) + 1j * complex(self.b / self.d)

    __complex__ = to_complex

    def __repr__(self):
        return f"QI({self.re!s}, {self.im!s})"

    def compact(self) -> str:
        """Render without spaces or top-level '+', e.g. ``3/4-1/2i``."""
        if not self.b:
            return str(self.re)
        im = f"{self.im}i" if self.b < 0 else f"+{self.im}i"
        return f"{self.re}{im}"


def _qi(a: int, b: int, d: int) -> QI:
    """A QI from a triple already in normal form (see the class docstring)."""
    q = _new(QI)
    _set(q, "a", a)
    _set(q, "b", b)
    _set(q, "d", d)
    return q


def _normal(a: int, b: int, d: int) -> QI:
    """(a + b i) / d for d > 0, with the common factor divided out."""
    g = math.gcd(a, b, d)
    if g == 1:
        return _qi(a, b, d)
    return _qi(a // g, b // g, d // g)


class PiScalar:
    """Element of QI[pi, pi^-1]: finite Laurent polynomial in the symbol pi."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        if coeffs:
            for k, v in coeffs.items():
                v = QI.of(v)
                if v:
                    clean[int(k)] = v
        _set(self, "coeffs", clean)

    def __setattr__(self, *a):
        raise AttributeError("PiScalar is immutable")

    @staticmethod
    def of(value) -> "PiScalar":
        if type(value) is PiScalar:
            return value
        return _pi({0: QI.of(value)})

    @staticmethod
    def pi_power(k: int, coeff=1) -> "PiScalar":
        return PiScalar({k: QI.of(coeff)})

    def __add__(self, other):
        try:
            other = PiScalar.of(other)
        except TypeError:
            return NotImplemented
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            w = out.get(k)
            out[k] = v if w is None else w + v
        return _pi(out)

    __radd__ = __add__

    def __neg__(self):
        return _pi({k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-PiScalar.of(other))

    def __rsub__(self, other):
        return PiScalar.of(other) + (-self)

    def __mul__(self, other):
        try:
            other = PiScalar.of(other)
        except TypeError:
            return NotImplemented
        out = {}
        for ka, va in self.coeffs.items():
            for kb, vb in other.coeffs.items():
                k, v = ka + kb, va * vb
                w = out.get(k)
                out[k] = v if w is None else w + v
        return _pi(out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return power(self, e, PiScalar.of(1))

    def __eq__(self, other):
        try:
            other = PiScalar.of(other)
        except TypeError:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        """A pi^0-only PiScalar hashes as its QI coefficient, so equal values hash alike."""
        if self.coeffs.keys() <= {0}:
            return hash(self.coeffs.get(0, QI(0)))
        return hash(frozenset(self.coeffs.items()))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def is_unit(self) -> bool:
        """Units of QI[pi, pi^-1] are single nonzero pi-monomials."""
        return len(self.coeffs) == 1

    def inverse(self) -> "PiScalar":
        if not self.is_unit():
            raise ZeroDivisionError("PiScalar inverse only for pi-monomial units")
        ((k, v),) = self.coeffs.items()
        return _pi({-k: v.inverse()})

    def as_fraction(self) -> Fraction:
        """Extract the value when the element is a plain real rational."""
        if self.is_zero():
            return Fraction(0)
        if set(self.coeffs) != {0} or self.coeffs[0].im != 0:
            raise ValueError(f"not a plain rational: {self!r}")
        return self.coeffs[0].re

    def to_complex(self) -> complex:
        return sum(
            (v.to_complex() * math.pi**k for k, v in self.coeffs.items()),
            start=0j,
        )

    __complex__ = to_complex

    def __repr__(self):
        if not self.coeffs:
            return "PiScalar(0)"
        parts = [f"({v.compact()})*pi^{k}" for k, v in sorted(self.coeffs.items())]
        return "PiScalar(" + " + ".join(parts) + ")"

    def compact(self) -> str:
        """Space-free rendering, e.g. ``pi{-2:1/4;0:-1+2i}``."""
        items = ";".join(f"{k}:{v.compact()}" for k, v in sorted(self.coeffs.items()))
        return "pi{" + items + "}"


def _pi(coeffs: dict) -> PiScalar:
    """A PiScalar from int keys and QI values, dropping the zero coefficients."""
    s = _new(PiScalar)
    _set(s, "coeffs", {k: v for k, v in coeffs.items() if v})
    return s
