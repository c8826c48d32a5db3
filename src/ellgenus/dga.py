"""Finitely generated graded-commutative differential algebras with exact coefficients.

Elements are dictionaries from canonical monomials to scalars drawn from one of
four modes: exact rationals (``Fraction``), Gaussian rationals with a formal pi
symbol (``PiScalar``), rational q-series (``QSeries``), or complex floats.
``MODES`` holds each mode's decisions in one ``ScalarMode`` record: its type,
the types that inject into it (a float only into complex mode), the scalar
inverse, and the text form used by ``render`` and ``parse_element``.  Every
scalar type is falsy exactly when it is zero, so ``not s`` is the zero test in
every mode.  A sum of many elements (``Algebra.sum``) adds the pieces in order
into one dict, so it equals the chain of ``+`` from zero, term for term and in
insertion order.

Monomials are sorted tuples of (generator index, exponent >= 1), each
generator at most once, with generators ordered lexicographically by name; the
Koszul sign of a product is the parity of the transpositions of odd generators
needed to restore that order.
Monomials whose total form degree exceeds the algebra's truncation degree
vanish, which is what makes every exponential and inverse here a finite
computation.

Each ``Algebra`` keeps its own monomial table, filled the first time a
monomial is seen: monomial -> (form degree, odd-generator bitmask), bit i set
when the odd generator with index i occurs.  The product reads both factors'
entries once per product and skips a pair before any merge or scalar multiply
when the degrees sum past the truncation or the masks share a bit (an odd
generator squared).  The Koszul sign comes from the masks: for each odd
generator y of the right factor, the odd generators of the left factor above y
are counted with one popcount.  Pairs are visited in the order of the two
factors' terms, so every coefficient is summed in the same order whatever is
skipped, and complex-mode results keep their last digits.

The two whole-element maps avoid ``Element`` products where they can.
``substitute`` raises each image to each exponent once per call, merges the
factors that are single monomials without odd generators into one monomial,
and multiplies only by the rest (the SL2(Z) transform's E2 image, in
practice).  ``differential`` collects, per generator g with dg != 0, the
signed reduced monomials of all terms and multiplies by dg once.  Each
returns the terms of the term-by-term evaluation; ``substitute`` also keeps
their insertion order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, takewhile
from typing import Callable

from .qmod import QSeries
from .scalars import PiScalar, QI, power

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
    """Algebra generator: name and form degree."""

    name: str
    degree: int

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("form degree must be nonnegative")

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
        self._d_converted = {}  # (generator index, mode) -> d_image in that mode
        self._mono_table = {}  # monomial -> (form degree, odd-generator bitmask)

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
        self._d_converted.clear()

    def d_image(self, i: int, mode):
        el = self._d.get(i)
        if el is None or el.mode == mode:
            return el
        key = (i, mode)
        converted = self._d_converted.get(key)
        if converted is None:
            converted = self._d_converted[key] = el.convert(mode)
        return converted

    def check_differential(self):
        """d(d_image) = 0 for every generator, once assembled."""
        for i in self._d:
            dd = differential(self.d_image(i, RATIONAL))
            if not dd.is_zero():
                raise ValueError(f"d^2 != 0 on generator {self.gens[i].name}")

    # -- monomial helpers ---------------------------------------------------

    def mono_info(self, mono) -> tuple[int, int]:
        """(form degree, odd-generator bitmask) of a monomial, from this algebra's table."""
        info = self._mono_table.get(mono)
        if info is None:
            degree = mask = 0
            for i, e in mono:
                d = self.gens[i].degree
                degree += e * d
                if d & 1:
                    mask |= 1 << i
            info = self._mono_table[mono] = (degree, mask)
        return info

    def form_degree(self, mono) -> int:
        return self.mono_info(mono)[0]

    def parity(self, mono) -> int:
        return self.mono_info(mono)[0] % 2

    def monomial_name(self, mono) -> str:
        """The factors of a monomial joined by '·', exponents as ^e; '1' when empty."""
        return "·".join(self.gens[i].name + (f"^{e}" if e != 1 else "") for i, e in mono) or "1"

    def _kept(self, mono) -> bool:
        """Whether a sorted monomial survives truncation.  ValueError unless it is
        canonical: exponents >= 1, each generator once, odd ones to the first power."""
        last = -1
        for i, e in mono:
            if e < 1 or i == last or (e != 1 and self.gens[i].odd):
                raise ValueError(f"invalid monomial {mono}")
            last = i
        return self.form_degree(mono) <= self.trunc

    # -- element constructors ------------------------------------------------

    def element(self, terms, mode=RATIONAL) -> "Element":
        """The element with these {monomial: scalar} terms; a monomial past the
        truncation degree is dropped, a malformed one is a ValueError."""
        clean = {}
        for mono, c in terms.items():
            mono = tuple(sorted(mono))
            if not self._kept(mono):
                continue  # truncated away
            c = coerce(mode, c)
            if c:
                clean[mono] = c
        return Element(self, mode, clean)

    def zero(self, mode=RATIONAL) -> "Element":
        return Element(self, mode, {})

    def sum(self, pieces, mode=RATIONAL) -> "Element":
        """The sum of ``pieces``, added in order into one dict: equal, item for
        item and in insertion order, to the left fold of ``+`` from zero."""
        out = Element(self, mode, {})
        zero = _ZERO[mode]
        for piece in pieces:
            _add_terms(out.terms, out._check(piece).terms, zero)
        return out

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
    """Immutable element of an Algebra in a fixed scalar mode.

    The element takes over ``terms``, a fresh dict of canonical monomials to
    nonzero scalars that no one else holds, without copying it.
    """

    __slots__ = ("algebra", "mode", "terms")

    def __init__(self, algebra, mode, terms: dict):
        if mode not in MODES:
            raise ValueError(f"unknown scalar mode {mode!r}")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "terms", terms)

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
        _add_terms(out, other.terms, _ZERO[self.mode])
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
        info = alg.mono_info
        right = [(mb, cb) + info(mb) for mb, cb in other.terms.items()]
        trunc = alg.trunc
        out = {}
        zero = _ZERO[self.mode]
        for ma, ca in self.terms.items():
            da, oa = info(ma)
            room = trunc - da
            for mb, cb, db, ob in right:
                if db > room or oa & ob:
                    continue  # truncated away, or an odd generator squared
                if not ma:
                    mono = mb
                elif not mb:
                    mono = ma
                else:
                    merged = dict(ma)
                    for i, e in mb:
                        merged[i] = merged.get(i, 0) + e
                    mono = tuple(sorted(merged.items()))
                if oa and ob and _koszul_odd(oa, ob):
                    s = out.get(mono, zero) - ca * cb
                else:
                    s = out.get(mono, zero) + ca * cb
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
            return unit_inverse(self) ** -e
        return power(self, e, self.algebra.one(self.mode))

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
            parts.append(f"({c})·{alg.monomial_name(m)}" if m else f"({c})")
        return " + ".join(parts)

    def __repr__(self):
        return f"<{self.mode} element: {self.render()}>"


def _add_terms(out: dict, terms: dict, zero) -> None:
    """Add ``terms`` into ``out`` in order, dropping a monomial whose sum is zero."""
    for m, c in terms.items():
        s = out.get(m, zero) + c
        if not s:
            out.pop(m, None)
        else:
            out[m] = s


def _koszul_odd(odd_a: int, odd_b: int) -> int:
    """1 when moving b's odd generators past a's to their sorted places is an odd permutation."""
    swaps = 0
    while odd_b:
        low = odd_b & -odd_b
        swaps += (odd_a & -(low << 1)).bit_count()  # a's odd generators above this one
        odd_b ^= low
    return swaps & 1


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
    """Graded Leibniz extension of the generators' differentials.

    A monomial m = head·g^e·tail gets (-1)^|head| e·head·dg·g^(e-1)·tail from
    each generator g with dg != 0.  Moving dg to the front costs
    (-1)^(|dg||head|), and |dg| = |g| + 1, so that term is
    (-1)^(|g||head|) e·dg·(m/g).  The signed, scaled reduced monomials m/g of
    all terms are collected per generator into one dict, which is multiplied
    by dg once: one product per generator instead of two per term.
    """
    alg, mode = a.algebra, a.mode
    zero = _ZERO[mode]
    reduced = {}  # generator index -> {m/g: (-1)^(|g||head|) e·c}
    for mono, c in a.terms.items():
        head_parity = 0
        for pos, (i, e) in enumerate(mono):
            g = alg.gens[i]
            di = alg.d_image(i, mode)
            if di is not None and di.terms:
                rest = ((i, e - 1),) if e != 1 else ()
                key = mono[:pos] + rest + mono[pos + 1 :]
                v = coerce(mode, e) * c
                bucket = reduced.setdefault(i, {})
                v = bucket.get(key, zero) + (-v if head_parity and g.odd else v)
                if v:
                    bucket[key] = v
                else:
                    bucket.pop(key, None)
            head_parity ^= e * g.degree & 1
    return alg.sum((alg.d_image(i, mode) * Element(alg, mode, terms)
                    for i, terms in reduced.items()), mode)


def _nonzero(a: Element) -> bool:
    return not a.is_zero()


def exp_nilpotent(a: Element) -> Element:
    """exp of an even element with no form-degree-0 part (finite by truncation)."""
    if not a.is_even():
        raise ValueError("exp argument must be even")
    if not a.is_zero() and a.min_form_degree() < 1:
        raise ValueError("exp argument must have zero degree-0 component")
    alg = a.algebra
    terms = accumulate(range(1, alg.trunc + 1), lambda t, n: t * a * Fraction(1, n),
                       initial=alg.one(a.mode))  # a^n / n!
    return alg.sum(takewhile(_nonzero, terms), a.mode)


def unit_inverse(a: Element) -> Element:
    """Inverse of c + nilpotent with invertible scalar part c."""
    c = a.unit_part()
    if not c:
        raise ZeroDivisionError("no unit part")
    cinv = MODES[a.mode].inverse(c)
    # c alone: the series below is 1, so its value is 1 * cinv, which can differ
    # from cinv itself in a signed zero or a nan part
    if len(a.terms) == 1:
        return Element(a.algebra, a.mode, {(): MODES[a.mode].make(1) * cinv})
    n = (a - a.algebra.scalar(c, a.mode)) * cinv
    if not n.is_zero() and n.min_form_degree() < 1:
        raise ZeroDivisionError("non-nilpotent remainder: cannot invert")
    alg = a.algebra
    neg_n = -n
    powers = accumulate(range(alg.trunc), lambda p, _: p * neg_n, initial=alg.one(a.mode))
    return alg.sum(takewhile(_nonzero, powers), a.mode) * cinv


# ---------------------------------------------------------------------------
# Division, relations, substitution


def _neg_lex_key(alg: Algebra, mono):
    """The negated exponent vector: the lex-largest monomial has the least key,
    so heapq pops it first."""
    vec = [0] * len(alg.gens)
    for i, e in mono:
        vec[i] = -e
    return tuple(vec)


def _lex_max(alg, terms):
    return min(terms, key=lambda m: _neg_lex_key(alg, m))


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


def _divide(a: Element, g: Element) -> tuple[Element, Element]:
    """Division in lex order: (quotient, remainder) with a = quotient*g + remainder
    and no remainder monomial divisible by g's lead monomial."""
    g = a._check(g)
    if g.is_zero():
        raise ZeroDivisionError("division by zero element")
    if not g.is_even():
        raise NotDivisible("divisor must be even")
    alg, mode = a.algebra, a.mode
    lead = _lex_max(alg, g.terms)
    lc_inv = MODES[mode].inverse(g.terms[lead])
    zero = _ZERO[mode]
    rest, quotient, remainder = dict(a.terms), {}, {}
    # A max-heap of the monomials of rest, each pushed once when it first
    # appears.  Reducing m adds only monomials lex-smaller than m, so the top
    # that is still in rest is rest's lex-largest monomial; the others on the
    # way there have cancelled.
    heap = [(_neg_lex_key(alg, m), m) for m in rest]
    heapq.heapify(heap)
    seen = set(rest)
    while heap:
        m = heap[0][1]
        if m not in rest:
            heapq.heappop(heap)
            continue
        quot_mono = _mono_divides(lead, m)
        if quot_mono is None:
            remainder[m] = rest.pop(m)
        else:
            t = alg.element({quot_mono: rest[m] * lc_inv}, mode)
            _add_terms(quotient, t.terms, zero)
            reduction = (-(t * g)).terms
            _add_terms(rest, reduction, zero)
            for n in reduction:
                if n not in seen:
                    seen.add(n)
                    heapq.heappush(heap, (_neg_lex_key(alg, n), n))
    return Element(alg, mode, quotient), Element(alg, mode, remainder)


def divide_exact(a: Element, g: Element) -> Element:
    """Exact quotient q with q*g = a; raises NotDivisible otherwise.

    The divisor must be even with a unit lex-leading coefficient (a single
    closed even generator times a unit in the intended uses).
    """
    quotient, remainder = _divide(a, g)
    if not remainder.is_zero():
        raise NotDivisible(f"term {next(iter(remainder.terms))} lacks the divisor factor")
    return quotient


def impose_relation(a: Element, rel: Element) -> Element:
    """Normal form of a modulo the ideal (rel): division remainder in lex order."""
    return _divide(a, rel)[1]


def substitute(a: Element, images: dict) -> Element:
    """Replace even generators by elements (names -> images in the same algebra).

    Each term's image is built in one pass over its generators.  The factor
    for a generator g^e (its image to the power e, or g^e itself when g is
    kept) is computed once per call.  A factor that is one monomial without
    odd generators commutes with everything, so those factors merge into one
    monomial: exponents add and coefficients multiply.  That monomial is then
    multiplied by the remaining factors (multi-term powers, odd generators) in
    their order, which gives the terms of the ordered product, in its order.
    """
    alg, mode = a.algebra, a.mode
    img = {}
    for name, el in images.items():
        i = alg.index[name]
        if alg.gens[i].odd:
            raise ValueError("substitution is defined for even generators only")
        el = a._check(el) if isinstance(el, Element) else alg.scalar(el, mode)
        img[i] = el
    factors = {}  # (generator, exponent) -> (element, its (monomial, coefficient) if it merges)

    def factor(i, e):
        f = factors.get((i, e))
        if f is None:
            el = img[i] ** e if i in img else alg.element({((i, e),): 1}, mode)
            single = None
            if len(el.terms) == 1:
                ((mono, c),) = el.terms.items()
                if not alg.mono_info(mono)[1]:
                    single = mono, c
            f = factors[(i, e)] = el, single
        return f

    def ordered_product(exps, coef, rest):
        out = alg.element({tuple(sorted(exps.items())): coef}, mode)
        for el in rest:
            out = out * el
        return out

    out = {}
    for mono, c in a.terms.items():
        exps, coef, rest = {}, c, []
        for i, e in mono:
            try:
                el, single = factor(i, e)
            except ValueError:  # q-series of different weights added
                # the ordered product stops at its first zero partial product,
                # so a power it never reaches raises nothing
                if ordered_product(exps, coef, rest).is_zero():
                    break
                raise
            if single is None:
                if not el.terms:
                    break
                rest.append(el)
            else:
                m, mc = single
                coef = coef * mc
                for k, x in m:
                    exps[k] = exps.get(k, 0) + x
        else:
            _add_terms(out, ordered_product(exps, coef, rest).terms, _ZERO[mode])
    return Element(alg, mode, out)
