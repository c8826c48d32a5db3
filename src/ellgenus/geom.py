"""Curvature models under the splitting principle and Pontryagin-number integration.

A ChernRootModel replaces the tangent bundle's curvature by block-diagonal
2x2 skew blocks in formal degree-2 variables x_1..x_r, with block entries
2*pi*x_j.  That constant is pinned (not assumed) by the requirement

    p1 = -Tr(R^2) / (8 pi^2) = sum_j x_j^2   exactly,

which an invariant test enforces.  Pontryagin-character components come out of
the trace formula Tr(R^{2k}) / (2k (2 pi i)^{2k}) and land back in exact
rational coefficients; Newton's identities on the x_j^2 translate the power
sums into Pontryagin generators so that genus output can be integrated against
the Pontryagin numbers of a ManifoldDescriptor.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import dga
from .dga import Algebra, Element, Generator
from .qmod import QSeries
from .scalars import QI, PiScalar


class MissingNumber(KeyError):
    """A top-degree Pontryagin monomial has no stored number."""


def eisenstein_symbols(dim: int) -> list[Generator]:
    """Formal normalized Eisenstein symbols E2, E4, .. up to weight dim/2."""
    return [
        Generator(f"E{2 * k}", 0, weight=2 * k) for k in range(1, dim // 4 + 1)
    ]


class ChernRootModel:
    """Formal curvature model: r even degree-2 roots inside a full working algebra.

    The algebra also carries the string form H (dH = p1 = sum x_j^2), the Bott
    symbol b (invertible, nominal degree -2 on its own axis), the anomaly
    symbols u and j, and the Eisenstein symbols E{2k} needed up to this
    dimension.  Truncation degree is the manifold dimension.
    """

    def __init__(self, r: int, dim: int):
        if r < 0 or dim < 0 or dim % 2:
            raise ValueError("need r >= 0 and even dim >= 0")
        self.r = r
        self.dim = dim
        gens = [Generator(f"x{j}", 2) for j in range(1, r + 1)]
        gens.append(Generator("H", 3))
        gens.append(Generator("b", 0, invertible=True))
        gens.append(Generator("u", 0, weight=2))
        gens.append(Generator("j", 0, invertible=True, weight=-1))
        gens.extend(eisenstein_symbols(dim))
        self.algebra = Algebra(gens, trunc=dim)
        if r:
            self.algebra.set_differential("H", self.p1())

    def roots(self, mode=dga.RATIONAL) -> list[Element]:
        return [self.algebra.gen(f"x{j}", mode) for j in range(1, self.r + 1)]

    def p1(self, mode=dga.RATIONAL) -> Element:
        return self.power_sum(1, mode)

    def power_sum(self, k: int, mode=dga.RATIONAL) -> Element:
        """s_k = sum_j x_j^{2k}."""
        out = self.algebra.zero(mode)
        for x in self.roots(mode):
            out = out + x ** (2 * k)
        return out

    def curvature(self, mode=dga.PI):
        """The 2r x 2r skew matrix with blocks [[0, 2 pi x_j], [-2 pi x_j, 0]]."""
        n = 2 * self.r
        zero = self.algebra.zero(mode)
        mat = [[zero for _ in range(n)] for _ in range(n)]
        for jdx, x in enumerate(self.roots(mode)):
            entry = x * _two_pi(mode)
            mat[2 * jdx][2 * jdx + 1] = entry
            mat[2 * jdx + 1][2 * jdx] = -entry
        return mat

    def beta(self, mode=dga.RATIONAL) -> Element:
        return self.algebra.gen("b", mode)


def _two_pi(mode):
    return dga.coerce(mode, PiScalar.pi_power(1, QI(2)))


def _mat_mul(a, b):
    n = len(a)
    zero = a[0][0].algebra.zero(a[0][0].mode)
    out = [[zero for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for k in range(n):
            if a[i][k].is_zero():
                continue
            for j in range(n):
                if not b[k][j].is_zero():
                    out[i][j] = out[i][j] + a[i][k] * b[k][j]
    return out


def _mat_trace(a):
    out = a[0][0].algebra.zero(a[0][0].mode)
    for i in range(len(a)):
        out = out + a[i][i]
    return out


def pontryagin_character_component(model: ChernRootModel, k: int, mode=dga.RATIONAL) -> Element:
    """Degree-4k Pontryagin character: Tr(R^{2k}) / (2k (2 pi i)^{2k}).

    Computed through the curvature trace in the pi scalar mode; the pi powers
    cancel exactly and the result is returned in the requested mode.  With the
    pinned block constant this equals s_k / k, which the tests cross-check.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    if model.r == 0 or 4 * k > model.dim:
        return model.algebra.zero(mode)
    mat = model.curvature(dga.PI)
    r2 = _mat_mul(mat, mat)
    power = r2
    for _ in range(k - 1):
        power = _mat_mul(power, r2)
    tr = _mat_trace(power)
    # 1/(2k (2 pi i)^{2k}) = (-1)^k / (2k 4^k) * pi^{-2k}
    scale = PiScalar.pi_power(-2 * k, QI(Fraction((-1) ** k, 2 * k * 4**k)))
    rational = (tr * dga.coerce(dga.PI, scale)).convert(dga.RATIONAL)
    return rational if mode == dga.RATIONAL else rational.convert(mode)


# ---------------------------------------------------------------------------
# Newton identities: power sums in the x_j^2 against elementary symmetric p_i


def power_sums_to_pontryagin(k_max: int) -> dict:
    """Rewrite table {k: {partition: coeff}} with s_k expressed in the p_i.

    Partitions are decreasing tuples of the indices i of p_i, e.g.
    s_2 = p1^2 - 2 p2 is {(1, 1): 1, (2,): -2}.
    """
    if k_max < 1:
        raise ValueError("need k_max >= 1")
    table = {}
    for k in range(1, k_max + 1):
        acc = _ppoly_scale(_ppoly_single(k), Fraction((-1) ** (k - 1) * k))
        for i in range(1, k):
            prod = _ppoly_mul(_ppoly_single(i), table[k - i])
            acc = _ppoly_add(acc, _ppoly_scale(prod, Fraction((-1) ** (i - 1))))
        table[k] = acc
    return table


def _ppoly_single(i):
    return {(i,): Fraction(1)}


def _ppoly_scale(p, c):
    return {m: c * v for m, v in p.items() if c * v != 0}


def _ppoly_add(a, b):
    out = dict(a)
    for m, v in b.items():
        s = out.get(m, Fraction(0)) + v
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def _ppoly_mul(a, b):
    out = {}
    for ma, va in a.items():
        for mb, vb in b.items():
            m = tuple(sorted(ma + mb, reverse=True))
            out[m] = out.get(m, Fraction(0)) + va * vb
    return {m: v for m, v in out.items() if v != 0}


def pontryagin_algebra(dim: int) -> Algebra:
    """Algebra on Pontryagin generators p1..p_{dim/4} plus b and the E-symbols."""
    kmax = dim // 4
    gens = [Generator(f"p{i}", 4 * i) for i in range(1, kmax + 1)]
    gens.append(Generator("b", 0, invertible=True))
    gens.append(Generator("u", 0, weight=2))
    gens.append(Generator("j", 0, invertible=True, weight=-1))
    gens.extend(eisenstein_symbols(dim))
    return Algebra(gens, trunc=dim)


def power_sum_element(alg: Algebra, k: int, table=None, mode=dga.RATIONAL) -> Element:
    """s_k as an element of a Pontryagin algebra."""
    table = table or power_sums_to_pontryagin(k)
    out = alg.zero(mode)
    for partition, coeff in table[k].items():
        mono = {}
        for i in partition:
            idx = alg.index[f"p{i}"]
            mono[idx] = mono.get(idx, 0) + 1
        out = out + alg.element({tuple(sorted(mono.items())): coeff}, mode)
    return out


# ---------------------------------------------------------------------------
# Manifold descriptors and integration


class ManifoldDescriptor:
    """Dimension 4k plus exact Pontryagin numbers indexed by partitions of k."""

    def __init__(self, dim: int, pontryagin_numbers: dict):
        if dim < 0 or dim % 4:
            raise ValueError("dimension must be a nonnegative multiple of 4")
        self.dim = dim
        clean = {}
        for part, value in pontryagin_numbers.items():
            part = _canonical_partition(part)
            if sum(part) != dim // 4:
                raise ValueError(f"partition {part} does not sum to {dim // 4}")
            clean[part] = Fraction(value) if not isinstance(value, Fraction) else value
        self.pontryagin_numbers = clean

    def number(self, partition) -> Fraction:
        part = _canonical_partition(partition)
        if part not in self.pontryagin_numbers:
            raise MissingNumber(f"no Pontryagin number for partition {part}")
        return self.pontryagin_numbers[part]

    def to_record(self) -> dict:
        return {
            "dim": self.dim,
            "pontryagin_numbers": {
                ",".join(str(i) for i in part): str(v)
                for part, v in sorted(self.pontryagin_numbers.items())
            },
        }

    @staticmethod
    def from_record(rec: dict) -> "ManifoldDescriptor":
        nums = {
            tuple(int(s) for s in key.split(",")): Fraction(val)
            for key, val in rec.get("pontryagin_numbers", {}).items()
        }
        return ManifoldDescriptor(int(rec["dim"]), nums)

    def dumps(self) -> str:
        return json.dumps(self.to_record())

    @staticmethod
    def loads(text: str) -> "ManifoldDescriptor":
        return ManifoldDescriptor.from_record(json.loads(text))

    def __repr__(self):
        return f"ManifoldDescriptor(dim={self.dim}, numbers={self.to_record()['pontryagin_numbers']})"


def _canonical_partition(part) -> tuple:
    if isinstance(part, str):
        part = tuple(int(s) for s in part.split(","))
    return tuple(sorted((int(i) for i in part), reverse=True))


def _monomial_partition(alg: Algebra, mono):
    """Partition and bookkeeping exponents of a Pontryagin-algebra monomial."""
    partition = []
    beta_exp = 0
    eweight = 0
    for i, e in mono:
        name = alg.gens[i].name
        if name.startswith("p"):
            partition.extend([int(name[1:])] * e)
        elif name == "b":
            beta_exp = e
        elif name.startswith("E"):
            eweight += alg.gens[i].weight * e
        else:
            raise ValueError(f"cannot integrate monomial containing {name}")
    return tuple(sorted(partition, reverse=True)), beta_exp, eweight


def integrate(descriptor: ManifoldDescriptor, cls: Element):
    """Pick the form-degree-dim component and pair p_lambda against the numbers.

    Returns a QSeries in qseries mode, a Fraction in rational mode.  The class
    must already be expressed in Pontryagin generators.
    """
    alg = cls.algebra
    dim = descriptor.dim
    if cls.mode == dga.QSERIES:
        total = QSeries.zero()
    elif cls.mode == dga.RATIONAL:
        total = Fraction(0)
    else:
        raise ValueError("integration needs exact (rational or qseries) classes")
    for mono, coeff in cls.terms.items():
        if alg.form_degree(mono) != dim:
            continue
        partition, beta_exp, eweight = _monomial_partition(alg, mono)
        if beta_exp and beta_exp != dim // 2:
            raise ValueError(f"top term carries b^{beta_exp}, expected b^{dim // 2}")
        total = total + coeff * descriptor.number(partition)
    return total


def integrate_symbolic(descriptor: ManifoldDescriptor, cls: Element) -> dict:
    """Integrate a rational-mode class keeping the Eisenstein symbols.

    Returns {E-monomial exponents tuple: Fraction} where the key lists the
    exponent of E{2k} for k = 1..dim/4; asserts the genus weight dim/2 on
    every contributing monomial.
    """
    alg = cls.algebra
    dim = descriptor.dim
    kmax = dim // 4
    out = {}
    for mono, coeff in cls.terms.items():
        if alg.form_degree(mono) != dim:
            continue
        partition, beta_exp, eweight = _monomial_partition(alg, mono)
        if beta_exp != dim // 2 or eweight != dim // 2:
            raise AssertionError(
                f"weight bookkeeping broke: b^{beta_exp}, E-weight {eweight}, dim {dim}"
            )
        ekey = [0] * kmax
        for i, e in mono:
            name = alg.gens[i].name
            if name.startswith("E"):
                ekey[int(name[1:]) // 2 - 1] = e
        ekey = tuple(ekey)
        value = coeff * descriptor.number(partition)
        s = out.get(ekey, Fraction(0)) + value
        if s:
            out[ekey] = s
        else:
            out.pop(ekey, None)
    return out
