"""Exact q-expansions and numeric lattice sums for Eisenstein series.

Two independent evaluation pipelines live here.  ``eisenstein_q`` produces the
normalized series Ẽ_{2k} (constant term 1, rational coefficients) from divisor
sums; ``eisenstein_lattice`` computes literal partial sums of
sum 1/(m*tau + n)^{2k} over Z^2 \\ {0} in a caller-chosen order.  They are tied
together by E^lat_{2k} = 2 zeta(2k) Ẽ_{2k}, which the tests and the CLI check
numerically.  For k = 1 the lattice sum is only conditionally convergent; the
row-major order (for each m, sum the full n-range, then sum over m) realizes
the holomorphic quasi-modular E2, which is validated against its SL2(Z)
transformation law rather than assumed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .scalars import QI, bernoulli


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


class QSeries:
    """Truncated Laurent series in q with exact rational coefficients and a weight.

    ``order`` is the exponent bound: coefficients are valid for exponents < order.
    ``order=None`` marks an exact polynomial (infinite order), used for constants.
    """

    __slots__ = ("weight", "coeffs", "order")

    def __init__(self, weight, coeffs, order):
        clean = {}
        for e, c in coeffs.items():
            c = _as_fraction(c)
            if c != 0 and (order is None or e < order):
                clean[int(e)] = c
        object.__setattr__(self, "weight", int(weight))
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "order", None if order is None else int(order))

    def __setattr__(self, *a):
        raise AttributeError("QSeries is immutable")

    @staticmethod
    def constant(value, weight=0) -> "QSeries":
        return QSeries(weight, {0: _as_fraction(value)}, None)

    @staticmethod
    def zero(weight=0) -> "QSeries":
        return QSeries(weight, {}, None)

    @property
    def min_exp(self) -> int:
        return min(self.coeffs) if self.coeffs else 0

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __getitem__(self, e: int) -> Fraction:
        if self.order is not None and e >= self.order:
            raise IndexError(f"coefficient q^{e} beyond truncation order {self.order}")
        return self.coeffs.get(e, Fraction(0))

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
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, Fraction(0)) + c
        return QSeries(w, out, order)

    __radd__ = __add__

    def __neg__(self):
        return QSeries(self.weight, {e: -c for e, c in self.coeffs.items()}, self.order)

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
            return QSeries(self.weight, {e: c * v for e, v in self.coeffs.items()}, self.order)
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
        return QSeries(self.weight + other.weight, out, order)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        out = QSeries.constant(1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def inverse(self) -> "QSeries":
        """Multiplicative inverse up to this truncation order."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero series")
        m = self.min_exp
        lead = self.coeffs[m]
        if self.order is None:
            target = max(self.coeffs) - m + 1
        else:
            target = self.order - m
        # invert sum c_j q^j with c_0 = lead, j = shifted exponent
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
        return QSeries(-self.weight, {e - m: c for e, c in inv.items()}, order)

    def truncate(self, order: int) -> "QSeries":
        return QSeries(self.weight, self.coeffs, _min_order(self.order, order))

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        if self.is_zero() and other.is_zero():
            return True
        return (
            self.weight == other.weight
            and self.coeffs == other.coeffs
            and self.order == other.order
        )

    def __hash__(self):
        if self.is_zero():
            return hash(())
        return hash((self.weight, frozenset(self.coeffs.items()), self.order))

    def evaluate(self, q: complex) -> complex:
        return sum(complex(c) * q**e for e, c in sorted(self.coeffs.items()))

    def render(self, var: str = "q") -> str:
        """Human form, e.g. ``1 + 240 q + 2160 q^2``."""
        if self.is_zero():
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

    def compact(self) -> str:
        """Space-free token for embedding in algebra renderings."""
        cs = ";".join(f"{e}:{c}" for e, c in sorted(self.coeffs.items()))
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

    @staticmethod
    def from_record(rec: dict) -> "QSeries":
        lo = int(rec["min_exp"])
        coeffs = {lo + i: Fraction(c) for i, c in enumerate(rec["coeffs"])}
        return QSeries(int(rec["weight"]), coeffs, rec.get("order"))

    def dumps(self) -> str:
        return json.dumps(self.to_record())

    @staticmethod
    def loads(text: str) -> "QSeries":
        return QSeries.from_record(json.loads(text))

    def __repr__(self):
        return f"QSeries(w={self.weight}, {self.render()}, order={self.order})"


def _min_order(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


# ---------------------------------------------------------------------------
# Eisenstein q-expansions


def sigma(power: int, n: int) -> int:
    """Divisor sum sigma_power(n)."""
    return sum(d**power for d in range(1, n + 1) if n % d == 0)


def eisenstein_q(k: int, order: int) -> QSeries:
    """Normalized Eisenstein series Ẽ_{2k} = 1 - (4k/B_{2k}) sum sigma_{2k-1}(n) q^n."""
    if k < 1 or order < 1:
        raise ValueError("need k >= 1 and order >= 1")
    pref = Fraction(-4 * k) / bernoulli(2 * k)
    coeffs = {0: Fraction(1)}
    for n in range(1, order):
        coeffs[n] = pref * sigma(2 * k - 1, n)
    return QSeries(2 * k, coeffs, order)


def lattice_normalization(k: int) -> Fraction:
    """Rational c with E^lat_{2k} = c * (2 pi i)^{2k} * Ẽ_{2k}; c = -B_{2k}/(2k)!."""
    return -bernoulli(2 * k) / math.factorial(2 * k)


def half_lattice_normalization(k: int) -> Fraction:
    """Rational c with zeta(2k)/(2 pi i)^{2k} = c; c = -B_{2k}/(2 (2k)!)."""
    return lattice_normalization(k) / 2


# ---------------------------------------------------------------------------
# Lattice orderings and partial sums


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


@dataclass(frozen=True)
class LatticeOrdering:
    """Enumeration strategy for sums over Z^2 \\ {0}.

    variant:
      "shells"    symmetric square shells max(|m|,|n|) = s, s = 1..max_norm,
                  summed as the Z^2_+ shell doubled (even powers; odd ones cancel)
      "z2plus"    the half lattice Z^2_+ = {(n, m): m < 0, or m = 0 and n > 0}
                  intersected with max(|m|,|n|) <= shell bound
      "rowmajor"  for each m in [-M, M], the full n-range [-N, N]; realizes the
                  holomorphic E2 when N >> M
    Unset parameters are derived from the call-site bound.
    """

    variant: str
    m_range: int | None = None
    n_range: int | None = None

    def __post_init__(self):
        if self.variant not in ("shells", "z2plus", "rowmajor"):
            raise ValueError(f"unknown ordering {self.variant!r}")

    def effective_ranges(self, bound: int) -> tuple[int, int]:
        if self.variant == "rowmajor":
            m = self.m_range if self.m_range is not None else max(8, round(bound**0.25))
            n = self.n_range if self.n_range is not None else 800 * bound
            return m, n
        b = self.m_range if self.m_range is not None else bound
        return b, b


SHELLS = LatticeOrdering("shells")
Z2PLUS = LatticeOrdering("z2plus")
ROWMAJOR = LatticeOrdering("rowmajor")


def z2plus_shell(s: int):
    """Shell s of Z^2_+ (max(|n|, |m|) = s) as (n, m) integer arrays of 4s points.

    The one definition of the half lattice and its order: the m = -s edge with
    n = -s..s, the n = -s then n = s sides with m = -s+1..-1, then (s, 0).
    """
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
    sums = [0j] * k_max
    for s in range(1, bound + 1):
        n, m = z2plus_shell(s)
        inv2 = 1.0 / (n * complex(tau) - m) ** 2
        term = inv2
        for k in range(k_max):
            sums[k] += complex(np.sum(term))
            term = term * inv2
    return sums


def lattice_partial_sum(power: int, tau: complex, ordering: LatticeOrdering, bound: int) -> complex:
    """Partial sum of 1/(m*tau + n)^power in the given order.

    Symmetric variants pair (n, m) with (-n, -m), which makes odd powers cancel
    exactly and tames floating-point cancellation for the conditional k = 1 case.
    """
    if tau.imag <= 0:
        raise ValueError("tau must lie in the upper half plane")
    if bound < 1:
        raise ValueError("bound must be >= 1")
    pair = 1 + (-1) ** power
    if ordering.variant != "rowmajor":
        # a square shell is its Z^2_+ part and that part's mirror image
        if ordering.variant == "z2plus":
            pair = 1
        elif pair == 0:
            return 0j  # (n, m) <-> (-n, -m) antisymmetry, exactly
        total = 0.0 + 0.0j
        for s in range(1, ordering.effective_ranges(bound)[0] + 1):
            n, m = z2plus_shell(s)
            total += pair * np.sum((m * tau + n) ** (-power))
        return complex(total)
    # row-major: m = 0 row, then paired rows +-m
    m_range, n_range = ordering.effective_ranges(bound)
    total = 0.0 + 0.0j
    chunk = 1 << 20
    for lo in range(1, n_range + 1, chunk):
        n = np.arange(lo, min(lo + chunk, n_range + 1), dtype=np.float64)
        total += pair * np.sum(n ** (-float(power)))
    for m in range(1, m_range + 1):
        row = 0.0 + 0.0j
        for lo in range(-n_range, n_range + 1, chunk):
            n = np.arange(lo, min(lo + chunk, n_range + 1), dtype=np.float64)
            row += np.sum((m * tau + n) ** (-power))
        total += pair * row
    return complex(total)


def default_ordering(k: int) -> LatticeOrdering:
    return ROWMAJOR if k == 1 else SHELLS


def eisenstein_lattice(k: int, tau: complex, ordering: LatticeOrdering, bound: int) -> complex:
    """Partial lattice sum of E_{2k}(tau) = sum 1/(m tau + n)^{2k} in the given order."""
    if k < 1:
        raise ValueError("need k >= 1")
    return lattice_partial_sum(2 * k, tau, ordering, bound)


def transform_residual(
    k: int,
    gamma: GammaElement,
    tau: complex,
    bound: int,
    ordering: LatticeOrdering | None = None,
) -> complex:
    """E(gamma tau) - [(c tau + d)^{2k} E(tau) + anomaly], anomaly = -2 pi i c (c tau + d) for k=1."""
    if tau.imag <= 0:
        raise ValueError("tau must lie in the upper half plane")
    if ordering is None:
        ordering = default_ordering(k)
    j = gamma.automorphy(tau)
    left = eisenstein_lattice(k, gamma.apply(tau), ordering, bound)
    right = j ** (2 * k) * eisenstein_lattice(k, tau, ordering, bound)
    if k == 1:
        right += -2j * math.pi * gamma.c * j
    return left - right


# ---------------------------------------------------------------------------
# Quasi-modular decomposition


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
        names = ("E2", "E4", "E6")
        parts = []
        for mono in sorted(self.coeffs):
            c = self.coeffs[mono]
            factors = [
                f"{names[i]}^{e}" if e > 1 else names[i]
                for i, e in enumerate(mono)
                if e
            ]
            body = "*".join(factors) if factors else "1"
            parts.append(f"({c})*{body}" if factors else f"({c})")
        return " + ".join(parts)


def quasi_modular_decompose(f: QSeries) -> QuasiModularDecomposition:
    """Solve for f as an exact polynomial in Ẽ2, Ẽ4, Ẽ6 of f's weight.

    Matches every available q-coefficient; raises NoDecomposition when the
    linear system is inconsistent (the series is not quasi-modular of that
    weight at this truncation) or underdetermined.
    """
    w = f.weight
    if f.is_zero():
        return QuasiModularDecomposition(w, {})
    if w < 0 or w % 2:
        raise NoDecomposition(f"no quasi-modular forms of weight {w}")
    monos = weight_monomials(w)
    if f.order is None:
        raise NoDecomposition("need a truncated series with a definite order")
    if f.order < len(monos) + 2:
        raise ValueError(f"order {f.order} too small: need >= {len(monos) + 2}")
    if f.min_exp < 0:
        raise NoDecomposition("polynomials in Ẽ2, Ẽ4, Ẽ6 have no pole at q = 0")
    order = f.order
    series = {1: eisenstein_q(1, order), 2: eisenstein_q(2, order), 3: eisenstein_q(3, order)}
    cols = []
    for (a, b, c) in monos:
        s = QSeries.constant(1)
        s = s * series[1] ** a * series[2] ** b * series[3] ** c
        cols.append(s)
    rows = range(0, order)
    matrix = [[col[e] for col in cols] for e in rows]
    rhs = [f[e] for e in rows]
    sol = _solve_exact(matrix, rhs)
    if sol is None:
        raise NoDecomposition(f"weight-{w} system inconsistent at order {order}")
    return QuasiModularDecomposition(w, {m: c for m, c in zip(monos, sol) if c != 0})


def _solve_exact(matrix, rhs):
    """Solve an overdetermined rational system exactly; None if inconsistent."""
    rows = [list(r) + [b] for r, b in zip(matrix, rhs)]
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
            return None  # 0 = nonzero: inconsistent
    if len(pivots) < ncols:
        raise NoDecomposition("underdetermined system: increase the order")
    sol = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        sol[c] = rows[i][ncols]
    return sol
