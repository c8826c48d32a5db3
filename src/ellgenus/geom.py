"""Curvature models under the splitting principle and Pontryagin-number integration.

A ChernRootModel replaces the tangent bundle's curvature by block-diagonal
2x2 skew blocks in formal degree-2 variables x_1..x_r, with block entries
2*pi*x_j.  That constant is pinned (not assumed) by the requirement

    p1 = -Tr(R^2) / (8 pi^2) = sum_j x_j^2   exactly,

which an invariant test enforces.  root_blocks is the one layout of such
blocks, shared with the torus- and circle-mode blocks of ``pfaff``.  The
Pontryagin character comes from its splitting-principle closed form
ph_k = s_k / k, s_k = sum_j x_j^{2k}; the tests keep the Chern-Weil trace
Tr(R^{2k}) / (2k (2 pi i)^{2k}) as its oracle.

The symmetric-function side of the genus lives here too, with ``dga`` as its
only polynomial ring.  ``power_sums_to_pontryagin`` writes the power sums of
the x_j^2 in the Pontryagin algebra's generators p_i (the elementary symmetric
functions of the x_j^2) by Newton's identities, and ``integrate_symbolic`` is
the one loop that pairs an element's top-degree monomials p_lambda with the
Pontryagin numbers of a ManifoldDescriptor.  ``symbol_k`` reads back the k of
the E{2k} names that ``eisenstein_symbols`` makes.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import dga
from .dga import Algebra, Element, Generator
from .scalars import QI, PiScalar, exact_number


class MissingNumber(KeyError):
    """A top-degree Pontryagin monomial has no stored number."""

    def __str__(self):  # the message itself, not KeyError's repr of it
        return Exception.__str__(self)


def eisenstein_symbols(dim: int) -> list[Generator]:
    """Formal normalized Eisenstein symbols E2, E4, .. up to weight dim/2."""
    return [Generator(f"E{2 * k}", 0) for k in range(1, dim // 4 + 1)]


def symbol_k(name: str) -> int:
    """k for the symbol E{2k}, 0 for any other generator."""
    return int(name[1:]) // 2 if name.startswith("E") and name[1:].isdigit() else 0


class ChernRootModel:
    """Formal curvature model: r even degree-2 roots inside a full working algebra.

    The algebra also carries the string form H (dH = p1 = sum x_j^2), the Bott
    symbol b (nominal degree -2 on its own axis), the anomaly symbol u, and the
    Eisenstein symbols E{2k} needed up to this dimension.  Truncation degree is
    the manifold dimension.
    """

    def __init__(self, r: int, dim: int):
        if r < 0 or dim < 0 or dim % 2:
            raise ValueError("need r >= 0 and even dim >= 0")
        self.r = r
        self.dim = dim
        gens = [Generator(f"x{j}", 2) for j in range(1, r + 1)]
        gens.append(Generator("H", 3))
        gens.append(Generator("b", 0))
        gens.append(Generator("u", 0))
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
        return self.algebra.sum((x ** (2 * k) for x in self.roots(mode)), mode)

    def curvature(self, mode=dga.PI):
        """The 2r x 2r skew matrix with blocks [[0, 2 pi x_j], [-2 pi x_j, 0]]."""
        return root_blocks(self.algebra.zero(mode), [x * _two_pi(mode) for x in self.roots(mode)])

    def beta(self, mode=dga.RATIONAL) -> Element:
        return self.algebra.gen("b", mode)


def _two_pi(mode):
    return dga.coerce(mode, PiScalar.pi_power(1, QI(2)))


def root_blocks(diag: Element, entries) -> list:
    """The 2r x 2r matrix, r = len(entries), with diag on the diagonal and each
    entry e_j in the block [[diag, e_j], [-e_j, diag]] of roots 2j, 2j + 1."""
    zero = diag.algebra.zero(diag.mode)
    size = 2 * len(entries)
    mat = [[diag if i == j else zero for j in range(size)] for i in range(size)]
    for jdx, e in enumerate(entries):
        mat[2 * jdx][2 * jdx + 1] = zero + e
        mat[2 * jdx + 1][2 * jdx] = zero - e
    return mat


def pontryagin_character_component(model: ChernRootModel, k: int, mode=dga.RATIONAL) -> Element:
    """Degree-4k Pontryagin character ph_k = s_k / k (splitting principle).

    Equal to the Chern-Weil trace Tr(R^{2k}) / (2k (2 pi i)^{2k}) of the pinned
    curvature, which the tests keep as the oracle.  Zero when 4k > dim.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    return model.power_sum(k, mode) * Fraction(1, k)


# ---------------------------------------------------------------------------
# Newton identities: power sums in the x_j^2 against elementary symmetric p_i


def pontryagin_algebra(dim: int) -> Algebra:
    """Algebra on the Pontryagin generators p1..p_{dim/4}, truncated at degree dim."""
    return Algebra([Generator(f"p{i}", 4 * i) for i in range(1, dim // 4 + 1)], trunc=dim)


def power_sums_to_pontryagin(alg: Algebra) -> list[Element]:
    """[s_1, .., s_kmax] in a Pontryagin algebra, kmax = dim/4, by Newton's identities

        s_k = sum_{i<k} (-1)^{i-1} p_i s_{k-i} + (-1)^{k-1} k p_k,

    e.g. s_2 = p1^2 - 2 p2."""
    p = [alg.gen(f"p{i}") for i in range(1, alg.trunc // 4 + 1)]
    s = []
    for k in range(1, len(p) + 1):
        s.append(alg.sum(
            [p[i - 1] * s[k - i - 1] * (-1) ** (i - 1) for i in range(1, k)]
            + [p[k - 1] * ((-1) ** (k - 1) * k)]
        ))
    return s


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
            if part and part[-1] < 1:
                raise ValueError(f"partition {part} has a part below 1")
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
        dim = rec["dim"]
        if type(dim) is not int:  # not a float, whose fraction int() would drop, nor a bool
            raise TypeError(f"dim must be a JSON integer, got {dim!r}")
        nums = {
            tuple(int(s) for s in key.split(",")): exact_number(val, f"pontryagin_numbers[{json.dumps(key)}]")
            for key, val in rec.get("pontryagin_numbers", {}).items()
        }
        return ManifoldDescriptor(dim, nums)

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


def integrate_symbolic(descriptor: ManifoldDescriptor, el: Element) -> Fraction:
    """Pair the form-degree-dim part of a rational-mode element in the Pontryagin
    generators with the descriptor's numbers: the sum over its top-degree
    monomials p_lambda of coefficient * <p_lambda, [M]>.  Lower degrees pair to 0.
    """
    alg = el.algebra
    total = Fraction(0)
    for mono, coeff in el.terms.items():
        if alg.form_degree(mono) != descriptor.dim:
            continue
        partition = []
        for i, e in mono:
            name = alg.gens[i].name
            if not name.startswith("p"):
                raise ValueError(f"cannot integrate monomial containing {name}")
            partition.extend([int(name[1:])] * e)
        total += coeff * descriptor.number(partition)
    return total
