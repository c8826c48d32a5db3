"""Finitely generated graded-commutative differential algebras with exact coefficients.

Elements are dictionaries from canonical monomials to scalars drawn from one of
four modes: exact rationals (``Fraction``), Gaussian rationals with a formal pi
symbol (``PiScalar``), rational q-series (``QSeries``), or complex floats.
``MODES`` holds each mode's decisions in one ``ScalarMode`` record: its type,
the types that inject into it (a float only into complex mode), the scalar
inverse, and the text form used by ``render`` and ``parse_element``.  Every
scalar type is falsy exactly when it is zero, so ``not s`` is the zero test in
every mode.

Monomials are sorted tuples of (generator index, exponent) with generators
ordered lexicographically by name; the Koszul sign of a product is the parity
of the transpositions of odd generators needed to restore that order.
Monomials whose total form degree exceeds the algebra's truncation degree
vanish, which is what makes every exponential and inverse here a finite
computation.

Generators marked invertible (the Bott symbol, the automorphy symbol) may carry
negative exponents; they must have form degree 0, so truncation is unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .qmod import QSeries
from .scalars import PiScalar, QI

RATIONAL = "rational"
PI = "pi"
QSERIES = "qseries"
COMPLEX = "complex"


class ScalarModeMismatch(TypeError):
    """Combining elements whose coefficients live in different scalar modes."""


class NotDivisible(ArithmeticError):
    """Exact division failed: some term lacks the divisor factor."""


@dataclass(frozen=True)
class ScalarMode:
    """One scalar mode's decisions: its type, what injects into it, inverse, text form."""

    kind: type
    injects: tuple
    make: Callable
    inverse: Callable
    compact: Callable
    parse: Callable


def _complex_compact(s) -> str:
    return f"c{{{s.real!r},{s.imag!r}}}"


def _complex_parse(text: str) -> complex:
    body = text.strip()
    if not (body.startswith("c{") and body.endswith("}")):
        raise ValueError(f"bad complex token {text!r}")
    re, im = body[2:-1].split(",")
    return complex(float(re), float(im))


# A float injects only into complex mode: exact modes never see round-off.
MODES = {
    RATIONAL: ScalarMode(Fraction, (int,), Fraction, lambda s: 1 / s, str, Fraction),
    PI: ScalarMode(PiScalar, (QI, int, Fraction), PiScalar.of, PiScalar.inverse,
                   PiScalar.compact, PiScalar.parse),
    QSERIES: ScalarMode(QSeries, (int, Fraction), QSeries.constant, QSeries.inverse,
                        QSeries.compact, QSeries.parse_compact),
    COMPLEX: ScalarMode(complex, (int, float, Fraction, QI, PiScalar), complex,
                        lambda s: 1.0 / s, _complex_compact, _complex_parse),
}
_ZERO = {name: mode.make(0) for name, mode in MODES.items()}


def coerce(mode, value):
    """Explicit injection of a value into a scalar mode (no float -> exact)."""
    m = MODES.get(mode)
    if m is None:
        raise ValueError(f"unknown scalar mode {mode!r}")
    if isinstance(value, m.kind):
        return value
    if isinstance(value, m.injects):
        return m.make(value)
    raise TypeError(f"cannot coerce {type(value).__name__} into {mode} mode")


@dataclass(frozen=True)
class Generator:
    """Algebra generator: name, form degree, optional modular-weight tag."""

    name: str
    degree: int
    invertible: bool = False
    weight: int = 0

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("form degree must be nonnegative")
        if self.invertible and self.degree != 0:
            raise ValueError("only form-degree-0 generators may be invertible")

    @property
    def odd(self) -> bool:
        return self.degree % 2 == 1


class Algebra:
    """Generator roster, truncation degree, and the differential on generators."""

    def __init__(self, generators, trunc: int):
        gens = sorted(generators, key=lambda g: g.name)
        names = [g.name for g in gens]
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")
        self.gens = tuple(gens)
        self.index = {g.name: i for i, g in enumerate(gens)}
        self.trunc = int(trunc)
        self._d = {}  # generator index -> Element

    # -- construction -----------------------------------------------------

    def set_differential(self, name: str, image: "Element"):
        i = self.index[name]
        g = self.gens[i]
        if image.algebra is not self:
            raise ValueError("differential image from a different algebra")
        for mono in image.terms:
            if self.form_degree(mono) != g.degree + 1:
                raise ValueError(f"d({name}) must be homogeneous of degree {g.degree + 1}")
        self._d[i] = image

    def d_image(self, i: int, mode):
        el = self._d.get(i)
        if el is None:
            return None
        return el if el.mode == mode else el.convert(mode)

    def check_differential(self):
        """d(d_image) = 0 for every generator, once assembled."""
        for i in self._d:
            dd = differential(self.d_image(i, RATIONAL))
            if not dd.is_zero():
                raise ValueError(f"d^2 != 0 on generator {self.gens[i].name}")

    # -- monomial helpers ---------------------------------------------------

    def form_degree(self, mono) -> int:
        return sum(e * self.gens[i].degree for i, e in mono)

    def parity(self, mono) -> int:
        return self.form_degree(mono) % 2

    def _mono_valid(self, mono):
        for i, e in mono:
            g = self.gens[i]
            if g.odd and e != 1:
                return False
            if e < 0 and not g.invertible:
                return False
        return self.form_degree(mono) <= self.trunc

    def _mono_mul(self, ma, mb):
        """(sign, merged monomial) or None when zero / truncated away."""
        odd_a = [i for i, e in ma if self.gens[i].odd]
        odd_b = [i for i, e in mb if self.gens[i].odd]
        if set(odd_a) & set(odd_b):
            return None  # odd generator squared
        sign = 1
        for y in odd_b:
            sign *= (-1) ** sum(1 for x in odd_a if x > y)
        merged = dict(ma)
        for i, e in mb:
            merged[i] = merged.get(i, 0) + e
        mono = tuple(sorted((i, e) for i, e in merged.items() if e != 0))
        if self.form_degree(mono) > self.trunc:
            return None
        return sign, mono

    # -- element constructors ------------------------------------------------

    def element(self, terms, mode=RATIONAL) -> "Element":
        clean = {}
        for mono, c in terms.items():
            mono = tuple(sorted(mono))
            if not self._mono_valid(mono):
                if any(self.gens[i].odd and e != 1 for i, e in mono):
                    raise ValueError(f"invalid monomial {mono}")
                continue  # truncated away
            c = coerce(mode, c)
            if c:
                clean[mono] = c
        return Element(self, mode, clean)

    def zero(self, mode=RATIONAL) -> "Element":
        return Element(self, mode, {})

    def one(self, mode=RATIONAL) -> "Element":
        return self.scalar(1, mode)

    def scalar(self, value, mode=RATIONAL) -> "Element":
        value = coerce(mode, value)
        if not value:
            return self.zero(mode)
        return Element(self, mode, {(): value})

    def gen(self, name: str, mode=RATIONAL, power: int = 1) -> "Element":
        i = self.index[name]
        if power == 0:
            return self.one(mode)
        return self.element({((i, power),): 1}, mode)


class Element:
    """Immutable element of an Algebra in a fixed scalar mode."""

    __slots__ = ("algebra", "mode", "terms")

    def __init__(self, algebra, mode, terms):
        if mode not in MODES:
            raise ValueError(f"unknown scalar mode {mode!r}")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "terms", dict(terms))

    def __setattr__(self, *a):
        raise AttributeError("Element is immutable")

    # -- plumbing ----------------------------------------------------------

    def _check(self, other) -> "Element":
        if not isinstance(other, Element):
            return self.algebra.scalar(other, self.mode)
        if other.algebra is not self.algebra:
            raise ValueError("elements from different algebras")
        if other.mode != self.mode:
            raise ScalarModeMismatch(f"{self.mode} vs {other.mode}")
        return other

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, mono):
        return self.terms.get(tuple(sorted(mono)), _ZERO[self.mode])

    def unit_part(self):
        return self.terms.get((), _ZERO[self.mode])

    def min_form_degree(self) -> int:
        if not self.terms:
            return self.algebra.trunc + 1
        return min(self.algebra.form_degree(m) for m in self.terms)

    def homogeneous_part(self, degree: int) -> "Element":
        alg = self.algebra
        return Element(
            alg, self.mode,
            {m: c for m, c in self.terms.items() if alg.form_degree(m) == degree},
        )

    def is_even(self) -> bool:
        return all(self.algebra.parity(m) == 0 for m in self.terms)

    def convert(self, mode) -> "Element":
        """Explicit scalar injection; raises when lossy (e.g. pi -> rational)."""
        if mode == self.mode:
            return self
        terms = self.terms
        if self.mode == PI and mode == RATIONAL:
            terms = {m: c.as_fraction() for m, c in terms.items()}
        try:
            return self.algebra.element(terms, mode)
        except TypeError as exc:
            raise ScalarModeMismatch(f"no injection {self.mode} -> {mode}") from exc

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        other = self._check(other)
        out = dict(self.terms)
        zero = _ZERO[self.mode]
        for m, c in other.terms.items():
            s = out.get(m, zero) + c
            if not s:
                out.pop(m, None)
            else:
                out[m] = s
        return Element(self.algebra, self.mode, out)

    __radd__ = __add__

    def __neg__(self):
        return Element(self.algebra, self.mode, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return self._check(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, Element):
            c = coerce(self.mode, other)
            if not c:
                return self.algebra.zero(self.mode)
            return Element(self.algebra, self.mode, {m: v * c for m, v in self.terms.items()})
        other = self._check(other)
        alg = self.algebra
        out = {}
        zero = _ZERO[self.mode]
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                hit = alg._mono_mul(ma, mb)
                if hit is None:
                    continue
                sign, mono = hit
                v = ca * cb
                if sign < 0:
                    v = -v
                s = out.get(mono, zero) + v
                if not s:
                    out.pop(mono, None)
                else:
                    out[mono] = s
        return Element(alg, self.mode, out)

    def __rmul__(self, other):
        # scalars and plain numbers commute with everything here
        return self.__mul__(other)

    def __pow__(self, e: int):
        if e < 0:
            return _invert_unit_monomial(self) ** (-e)
        out = self.algebra.one(self.mode)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.algebra.scalar(other, self.mode)
        if not isinstance(other, Element):
            return NotImplemented
        return (
            self.algebra is other.algebra
            and self.mode == other.mode
            and self.terms == other.terms
        )

    def __hash__(self):
        raise TypeError("unhashable: Element")

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        """Canonical text: sorted monomials with explicit coefficients."""
        if not self.terms:
            return "0"
        alg = self.algebra
        keys = sorted(self.terms, key=lambda m: (alg.form_degree(m), m))
        parts = []
        compact = MODES[self.mode].compact
        for m in keys:
            c = compact(self.terms[m])
            factors = [
                alg.gens[i].name + (f"^{e}" if e != 1 else "") for i, e in m
            ]
            if not factors:
                parts.append(f"({c})")
            else:
                parts.append(f"({c})·" + "·".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"<{self.mode} element: {self.render()}>"


def parse_element(algebra: Algebra, mode, text: str) -> Element:
    """Inverse of Element.render (terms joined by ' + ', coefficients in parens)."""
    text = text.strip()
    if text == "0":
        return algebra.zero(mode)
    parse, zero = MODES[mode].parse, _ZERO[mode]
    terms = {}
    for chunk in text.split(" + "):
        chunk = chunk.strip()
        if not chunk.startswith("("):
            raise ValueError(f"bad term {chunk!r}")
        depth, pos = 0, 0
        for pos, ch in enumerate(chunk):
            depth += ch == "("
            depth -= ch == ")"
            if depth == 0:
                break
        coeff = parse(chunk[1:pos])
        mono = []
        rest = chunk[pos + 1 :]
        if rest:
            for factor in rest.lstrip("·").split("·"):
                name, _, exp = factor.partition("^")
                mono.append((algebra.index[name], int(exp) if exp else 1))
        key = tuple(sorted(mono))
        terms[key] = terms.get(key, zero) + coeff
    return algebra.element(terms, mode)


# ---------------------------------------------------------------------------
# Differential and the calculus on nilpotents


def differential(a: Element) -> Element:
    """Graded Leibniz extension of the generators' differentials."""
    alg = a.algebra
    out = alg.zero(a.mode)
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
                out = out + piece * scale
            prefix_parity = (prefix_parity + e * g.degree) % 2
    return out


def exp_nilpotent(a: Element) -> Element:
    """exp of an even element with no form-degree-0 part (finite by truncation)."""
    if not a.is_even():
        raise ValueError("exp argument must be even")
    if not a.is_zero() and a.min_form_degree() < 1:
        raise ValueError("exp argument must have zero degree-0 component")
    alg = a.algebra
    out = alg.one(a.mode)
    term = alg.one(a.mode)
    for n in range(1, alg.trunc + 1):
        term = term * a * Fraction(1, n)
        if term.is_zero():
            break
        out = out + term
    return out


def log_unital(u: Element) -> Element:
    """log of 1 + nilpotent; mutually inverse with exp_nilpotent."""
    if u.unit_part() != coerce(u.mode, 1):
        raise ValueError("log argument must be 1 + nilpotent")
    n = u - u.algebra.one(u.mode)
    if not n.is_zero() and n.min_form_degree() < 1:
        raise ValueError("log argument must be unital with nilpotent remainder")
    alg = u.algebra
    out = alg.zero(u.mode)
    power = alg.one(u.mode)
    for k in range(1, alg.trunc + 1):
        power = power * n
        if power.is_zero():
            break
        out = out + power * Fraction((-1) ** (k + 1), k)
    return out


def unit_inverse(a: Element) -> Element:
    """Inverse of c + nilpotent with invertible scalar part c."""
    c = a.unit_part()
    if not c:
        raise ZeroDivisionError("no unit part")
    cinv = MODES[a.mode].inverse(c)
    n = (a - a.algebra.scalar(c, a.mode)) * cinv
    if not n.is_zero() and n.min_form_degree() < 1:
        raise ZeroDivisionError("non-nilpotent remainder: cannot invert")
    alg = a.algebra
    out = alg.one(a.mode)
    power = alg.one(a.mode)
    for _ in range(1, alg.trunc + 1):
        power = power * (-n)
        if power.is_zero():
            break
        out = out + power
    return out * cinv


def _invert_unit_monomial(a: Element) -> Element:
    """Inverse of a single-term element whose generators are all invertible."""
    if len(a.terms) != 1:
        return unit_inverse(a)
    ((mono, c),) = a.terms.items()
    if all(a.algebra.gens[i].invertible for i, _ in mono):
        inv_mono = tuple((i, -e) for i, e in mono)
        return a.algebra.element({inv_mono: MODES[a.mode].inverse(c)}, a.mode)
    return unit_inverse(a)


# ---------------------------------------------------------------------------
# Division, relations, substitution


def _lex_key(alg: Algebra, mono):
    vec = [0] * len(alg.gens)
    for i, e in mono:
        vec[i] = e
    return tuple(vec)


def _lex_max(alg, terms):
    return max(terms, key=lambda m: _lex_key(alg, m))


def _mono_divides(ma, mb):
    """ma | mb as exponent vectors; returns quotient monomial or None."""
    da = dict(ma)
    out = dict(mb)
    for i, e in da.items():
        r = out.get(i, 0) - e
        if r < 0:
            return None
        if r == 0:
            out.pop(i, None)
        else:
            out[i] = r
    return tuple(sorted(out.items()))


def _prepare_divisor(g: Element):
    if g.is_zero():
        raise ZeroDivisionError("division by zero element")
    if not g.is_even():
        raise NotDivisible("divisor must be even")
    for mono, _ in g.terms.items():
        if any(e < 0 for _, e in mono):
            raise NotDivisible("divisor with negative exponents unsupported")
    alg = g.algebra
    lead = _lex_max(alg, g.terms)
    return lead, g.terms[lead]


def divide_exact(a: Element, g: Element) -> Element:
    """Exact quotient q with q*g = a; raises NotDivisible otherwise.

    The divisor must be even with a unit lex-leading coefficient (a single
    closed even generator times a unit in the intended uses).
    """
    g = a._check(g)
    alg = a.algebra
    lead, lc = _prepare_divisor(g)
    lc_inv = MODES[a.mode].inverse(lc)
    q = alg.zero(a.mode)
    r = a
    while not r.is_zero():
        m = _lex_max(alg, r.terms)
        quot_mono = _mono_divides(lead, m)
        if quot_mono is None:
            raise NotDivisible(f"term {m} lacks the divisor factor")
        t = alg.element({quot_mono: r.terms[m] * lc_inv}, a.mode)
        q = q + t
        r = r - t * g
    return q


def impose_relation(a: Element, rel: Element) -> Element:
    """Normal form of a modulo the ideal (rel): division remainder in lex order."""
    rel = a._check(rel)
    alg = a.algebra
    lead, lc = _prepare_divisor(rel)
    lc_inv = MODES[a.mode].inverse(lc)
    remainder = alg.zero(a.mode)
    r = a
    while not r.is_zero():
        m = _lex_max(alg, r.terms)
        quot_mono = _mono_divides(lead, m)
        if quot_mono is None:
            keep = alg.element({m: r.terms[m]}, a.mode)
            remainder = remainder + keep
            r = r - keep
        else:
            t = alg.element({quot_mono: r.terms[m] * lc_inv}, a.mode)
            r = r - t * rel
    return remainder


def substitute(a: Element, images: dict) -> Element:
    """Replace even generators by elements (names -> images in the same algebra).

    Negative exponents require the image to be a single invertible monomial
    with a unit coefficient (the Bott/automorphy substitutions).
    """
    alg = a.algebra
    img = {}
    for name, el in images.items():
        i = alg.index[name]
        if alg.gens[i].odd:
            raise ValueError("substitution is defined for even generators only")
        el = a._check(el) if isinstance(el, Element) else alg.scalar(el, a.mode)
        img[i] = el
    out = alg.zero(a.mode)
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
        out = out + factor
    return out
