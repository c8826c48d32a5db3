"""Exact scalar tower shared by the series and graded-algebra layers.

The tower is

    Fraction --> QI (Gaussian rationals) --> PiScalar (Laurent polynomials in pi over QI)

with explicit injections only; floating point (``complex``) sits apart and is
reached through ``complex()`` (``to_complex``) at comparison boundaries.  Each
scalar is falsy exactly when it is zero.  PiScalar is the home
of exact quantities like 2*pi*i*(n*tau - m) for Gaussian-rational tau, which is
what keeps the Pfaffian-product identities checkable without floats.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n (B_1 = -1/2 convention), exact."""
    if n < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    if n == 0:
        return Fraction(1)
    # B_n = -1/(n+1) * sum_{j<n} C(n+1, j) B_j
    acc = Fraction(0)
    for j in range(n):
        acc += math.comb(n + 1, j) * bernoulli(j)
    return -acc / (n + 1)


def zeta_even_over_pi_power(k: int) -> Fraction:
    """The rational r with zeta(2k) = r * pi^(2k)."""
    if k < 1:
        raise ValueError("need k >= 1")
    return Fraction((-1) ** (k + 1) * 4**k, 2 * math.factorial(2 * k)) * bernoulli(2 * k)


class QI:
    """Gaussian rational re + im*i with exact Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, *a):
        raise AttributeError("QI is immutable")

    @staticmethod
    def of(value) -> "QI":
        if isinstance(value, QI):
            return value
        if isinstance(value, (int, Fraction)):
            return QI(value)
        if isinstance(value, complex):
            raise TypeError("no implicit float -> QI coercion")
        raise TypeError(f"cannot coerce {type(value).__name__} to QI")

    def __add__(self, other):
        try:
            other = QI.of(other)
        except TypeError:
            return NotImplemented
        return QI(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return QI(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-QI.of(other))

    def __rsub__(self, other):
        return QI.of(other) + (-self)

    def __mul__(self, other):
        try:
            other = QI.of(other)
        except TypeError:
            return NotImplemented
        return QI(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QI":
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return QI(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * QI.of(other).inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        out, base = QI(1), self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other):
        try:
            other = QI.of(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self):
        return not self.is_zero()

    def conjugate(self) -> "QI":
        return QI(self.re, -self.im)

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    __complex__ = to_complex

    def __repr__(self):
        return f"QI({self.re!s}, {self.im!s})"

    def compact(self) -> str:
        """Render without spaces or top-level '+', e.g. ``3/4-1/2i``."""
        if self.im == 0:
            return str(self.re)
        im = f"{self.im}i" if self.im < 0 else f"+{self.im}i"
        return f"{self.re}{im}"

    @staticmethod
    def parse(text: str) -> "QI":
        t = text.strip()
        if t.endswith("i"):
            body = t[:-1]
            # split at the sign of the imaginary part (not the leading sign)
            for p in range(len(body) - 1, 0, -1):
                if body[p] in "+-" and body[p - 1] not in "+-/":
                    return QI(Fraction(body[:p]), Fraction(body[p:] or "1"))
            return QI(0, Fraction(body or "1"))
        return QI(Fraction(t))


_I = QI(0, 1)


class PiScalar:
    """Element of QI[pi, pi^-1]: finite Laurent polynomial in the symbol pi."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        if coeffs:
            for k, v in coeffs.items():
                v = QI.of(v)
                if not v.is_zero():
                    clean[int(k)] = v
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, *a):
        raise AttributeError("PiScalar is immutable")

    @staticmethod
    def of(value) -> "PiScalar":
        if isinstance(value, PiScalar):
            return value
        return PiScalar({0: QI.of(value)})

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
            out[k] = out.get(k, QI(0)) + v
        return PiScalar(out)

    __radd__ = __add__

    def __neg__(self):
        return PiScalar({k: -v for k, v in self.coeffs.items()})

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
                k = ka + kb
                out[k] = out.get(k, QI(0)) + va * vb
        return PiScalar(out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        out, base = PiScalar.of(1), self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other):
        try:
            other = PiScalar.of(other)
        except TypeError:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
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
        return PiScalar({-k: v.inverse()})

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

    @staticmethod
    def parse(text: str) -> "PiScalar":
        t = text.strip()
        if not (t.startswith("pi{") and t.endswith("}")):
            raise ValueError(f"bad PiScalar token: {text!r}")
        body = t[3:-1]
        out = {}
        if body:
            for item in body.split(";"):
                k, v = item.split(":")
                out[int(k)] = QI.parse(v)
        return PiScalar(out)


def two_pi_i_times(z: QI) -> PiScalar:
    """Exact 2*pi*i*z as a PiScalar."""
    return PiScalar({1: QI(0, 2) * z})
