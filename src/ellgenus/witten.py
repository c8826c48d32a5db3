"""Witten class and genus, the E2 anomaly cocycle, and modularity detection.

The class is carried symbolically first: exp(sum_k ph_k beta^{2k} E{2k}) with
formal Eisenstein symbols E{2k}, rational coefficients, and q-evaluation last,
so weight bookkeeping and modularity detection stay exact.  The symbols are
normalized as the half-lattice sums

    E{2k}  <->  zeta(2k)/(2 pi i)^{2k} * Ẽ_{2k}  (constant term -B_{2k}/(2(2k)!)),

which is what the reciprocal regularized Pfaffian product actually produces;
with it the q^0 specialization of the class is exactly the A-hat class and the
genus's q^0 term is the A-hat genus.

On a descriptor the class is exp(sum_k s_k b^{2k} E{2k} / k), s_k the power
sums of the squared roots, and by the exponential formula its top-degree part
is the finite sum over partitions lambda of dim/4,

    sum_lambda s_lambda b^{dim/2} prod_k E{2k}^{m_k} / (k^{m_k} m_k!),

m_k the multiplicity of k in lambda and s_lambda = prod_k s_k^{m_k} (Milnor-
Stasheff section 16; Hirzebruch-Berger-Jung ch. 1).  So the coefficient of each
E-monomial is one characteristic number: pairing s_lambda with the Pontryagin
numbers on its own gives the symbolic genus without expanding the exponential.

Under gamma in SL2(Z), with j = c tau + d, the laws are beta -> beta/j,
E{2k} -> j^{2k} E{2k} for k >= 2 and E2 -> j^2 (E2 - u/2), where u stands for
c/(2 pi i (c tau + d)).  A monomial b^e prod_k E{2k}^{m_k} picks up j^w with
automorphy weight w = sum_k 2k m_k - e.  Each factor beta^{2k} E{2k} of the
class's exponent has w = 0, so every term of the class does, and on elements
of weight 0 the powers of j cancel: gamma is the one substitution
E2 -> E2 - u/2.  u absorbs all the analytic factors, so the whole
delta Wit = dA verification runs in exact arithmetic.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import count

from . import dga
from .dga import Element, divide_exact, exp_nilpotent, substitute, unit_inverse
from .geom import (
    ChernRootModel,
    ManifoldDescriptor,
    MissingNumber,
    integrate_symbolic,
    pontryagin_algebra,
    pontryagin_character_component,
    power_sums_to_pontryagin,
    symbol_k,
)
from .qmod import (
    EMonomials,
    QSeries,
    half_lattice_normalization,
    quasi_modular_decompose,
    weight_monomial_count,
    z2plus_power_sums,
)
from .scalars import QI, PiScalar


def q_evaluate(el: Element, q_order: int) -> Element:
    """Replace the Eisenstein symbols by their q-series; result in qseries mode."""
    alg = el.algebra
    ks_of = {i: k for i, g in enumerate(alg.gens) if (k := symbol_k(g.name))}
    table = EMonomials(q_order)
    scales = {}  # ks -> _symbol_scale(ks)
    zero = QSeries.zero()
    out = {}
    for mono, coeff in el.convert(dga.RATIONAL).terms.items():
        rest = tuple((i, e) for i, e in mono if i not in ks_of)
        ks = tuple(sorted(ks_of[i] for i, e in mono if i in ks_of for _ in range(e)))
        if ks not in scales:
            scales[ks] = _symbol_scale(ks)
        s = out.get(rest, zero) + table[ks] * (coeff * scales[ks])
        if s.is_zero():
            out.pop(rest, None)
        else:
            out[rest] = s
    return alg.element(out, dga.QSERIES)


def _symbol_scale(ks: tuple) -> Fraction:
    """The product of E{2k}'s normalizations over ks: the symbol monomial is this times
    the Ẽ-monomial of the same ks."""
    return math.prod(map(half_lattice_normalization, ks), start=Fraction(1))


# ---------------------------------------------------------------------------
# The class on a curvature model


def witten_class_symbolic(model: ChernRootModel) -> Element:
    """exp(sum_k ph_k beta^{2k} E{2k}) in the model's algebra, exact rationals."""
    alg = model.algebra
    beta = model.beta()
    phs = ((k, pontryagin_character_component(model, k)) for k in range(1, model.dim // 4 + 1))
    return exp_nilpotent(
        alg.sum(ph * beta ** (2 * k) * alg.gen(f"E{2 * k}") for k, ph in phs if not ph.is_zero())
    )


def witten_class(model: ChernRootModel, q_order: int) -> Element:
    """The Witten class with rational q-series coefficients."""
    if q_order < 1:
        raise ValueError("q_order must be >= 1")
    return q_evaluate(witten_class_symbolic(model), q_order)


def witten_class_at_partial_sums(model: ChernRootModel, shell_bound: int, tau) -> Element:
    """The class with each E{2k} replaced by its Z^2_+ partial sum / (2 pi i)^{2k}.

    This is the finite-truncation value the reciprocal regularized product
    computes; comparing the two is the route-equality statement.
    """
    alg = model.algebra
    beta = model.beta(dga.PI)
    tau = tau if isinstance(tau, QI) else QI(Fraction(tau.real), Fraction(tau.imag))

    def terms():
        for k, part in enumerate(z2plus_power_sums(model.dim // 4, shell_bound, tau), 1):
            ph = pontryagin_character_component(model, k, dga.PI)
            if ph.is_zero():
                continue
            # (2 pi i)^{-2k} = (-1)^k / (4^k pi^{2k})
            scal = PiScalar.pi_power(-2 * k, part * QI(Fraction((-1) ** k, 4**k)))
            yield ph * beta ** (2 * k) * dga.coerce(dga.PI, scal)

    return exp_nilpotent(alg.sum(terms(), dga.PI))


def rescale_beta(el: Element, factor) -> Element:
    """Multiply each monomial's coefficient by factor^ (its b-exponent)."""
    alg = el.algebra
    ib = alg.index["b"]
    out = {}
    for mono, c in el.terms.items():
        be = next((e for i, e in mono if i == ib), 0)
        if be:
            c = c * factor**be
        out[mono] = c
    return alg.element(out, el.mode)


def reciprocal_product_as_class(product: Element) -> Element:
    """Bridge from the raw-beta product reciprocal to the class normalization.

    The blocks carry beta R/(2 pi i (n tau - m)); the class absorbs (2 pi i)
    into each beta power, so the bridge divides the b^k coefficient by
    (2 pi i)^k.
    """
    inv = unit_inverse(product)
    if product.mode == dga.PI:
        factor = PiScalar.pi_power(-1, QI(0, Fraction(-1, 2)))  # 1/(2 pi i)
        return rescale_beta(inv, dga.coerce(dga.PI, factor))
    if product.mode == dga.COMPLEX:
        return rescale_beta(inv, 1.0 / (2j * math.pi))
    raise ValueError("bridge defined for pi and complex modes")


# ---------------------------------------------------------------------------
# Genus on a descriptor


def witten_genus_symbolic(descriptor: ManifoldDescriptor) -> dict:
    """Genus as {E-monomial exponents: Fraction}, zero entries dropped; weight dim/2
    per monomial.

    The sum over partitions of dim/4 from the module docstring: the coefficient
    of E^lambda is <s_lambda, [M]> / prod_k k^{m_k} m_k!, each s_lambda paired
    with the numbers on its own.  s_lambda is its largest part's s_k times its
    tail's product, built once.
    """
    dim = descriptor.dim
    if dim == 0:
        return {(): Fraction(1)}
    _require_every_number(descriptor)
    alg = pontryagin_algebra(dim)
    s_products = {(): alg.one()}
    for k, s_k in enumerate(power_sums_to_pontryagin(alg), 1):
        s_products[(k,)] = s_k

    def s_product(part):
        if part not in s_products:
            s_products[part] = s_products[part[:1]] * s_product(part[1:])
        return s_products[part]

    out = {}
    for part in _partitions(dim // 4):
        mult = Counter(part)
        denominator = math.prod(k**m * math.factorial(m) for k, m in mult.items())
        if value := integrate_symbolic(descriptor, s_product(part)) / denominator:
            out[tuple(mult[k] for k in range(1, dim // 4 + 1))] = value
    return out


def witten_genus(descriptor: ManifoldDescriptor, q_order: int,
                 table: EMonomials | None = None) -> QSeries:
    """Weight-dim/2 q-expansion of the genus; q^0 term is the A-hat genus.

    The E-monomials come from table, an EMonomials at q_order (a new one when None).

    A rational string structure enters through the descriptor: zero numbers on
    every p1-involving partition.  (The class-level alternative is
    impose_relation(cls, p1); this pipeline uses the numbers.)
    """
    if q_order < 1:
        raise ValueError("q_order must be >= 1")
    sym = witten_genus_symbolic(descriptor)
    dim = descriptor.dim
    if dim == 0:
        return QSeries.constant(sym.get((), Fraction(0))).truncate(q_order)
    if table is None:
        table = EMonomials(q_order)
    elif table.order != q_order:
        raise ValueError(f"monomial table at order {table.order}, genus at order {q_order}")
    total = QSeries(dim // 2, {}, q_order)
    for ekey, coeff in sym.items():
        ks = tuple(k for k, e in enumerate(ekey, 1) for _ in range(e))
        total = total + table[ks] * (coeff * _symbol_scale(ks))
    return total.truncate(q_order)


# ---------------------------------------------------------------------------
# Anomaly cocycle delta Wit = dA


def gamma_transform(el: Element) -> Element:
    """The SL2(Z) action on an element of automorphy weight 0: E2 -> E2 - u/2.

    ValueError names the first monomial whose weight is not 0, the weight of
    b^e prod_k E{2k}^{m_k} being w = sum_k 2k m_k - e (see the module docstring).
    """
    alg = el.algebra
    ib = alg.index.get("b")
    ks = {i: k for i, g in enumerate(alg.gens) if (k := symbol_k(g.name))}
    for mono in el.terms:
        if w := sum(2 * ks[i] * e if i in ks else -e if i == ib else 0 for i, e in mono):
            raise ValueError(f"gamma_transform needs automorphy weight 0; "
                             f"{alg.monomial_name(mono)} has weight {w}")
    images = {}
    if "E2" in alg.index:  # below dim 4 there are no symbols, and nothing moves
        images["E2"] = alg.gen("E2", el.mode) - alg.gen("u", el.mode) * Fraction(1, 2)
    return substitute(el, images)


def anomaly_delta(model: ChernRootModel, q_order: int | None = None) -> Element:
    """delta Wit = Wit - gamma*Wit over the anomaly symbol u; q-evaluated when
    q_order is given.

    Equals Wit * (1 - exp(-p1 b^2 u / 2)) exactly, so it vanishes identically
    when p1 is imposed to zero and under the u -> 0 specialization.
    """
    w = witten_class_symbolic(model)
    delta = w - gamma_transform(w)
    return q_evaluate(delta, q_order) if q_order else delta


def anomaly_primitive(model: ChernRootModel, q_order: int | None = None) -> Element:
    """A with dA = delta Wit: A = H Wit (1 - exp(-p1 b^2 u / 2)) / p1."""
    alg = model.algebra
    w = witten_class_symbolic(model)
    p1 = model.p1()
    exponent = -p1 * model.beta() ** 2 * alg.gen("u") * Fraction(1, 2)
    frac = divide_exact(alg.one() - exp_nilpotent(exponent), p1)
    a = alg.gen("H") * w * frac
    return q_evaluate(a, q_order) if q_order else a


# ---------------------------------------------------------------------------
# Modularity report


def string_modularity_check(descriptor: ManifoldDescriptor, q_order: int = 10) -> dict:
    """Genus, exact quasi-modular decomposition, and the modular/quasi-modular verdict.

    The decomposition is computed in the constant-term-1 basis Ẽ2, Ẽ4, Ẽ6 by an
    independent linear solve against the q-expansion; the verdict is modular
    exactly when no Ẽ2-monomial appears.
    """
    weight = descriptor.dim // 2
    needed = weight_monomial_count(weight) + 2 if weight else 3
    order = max(q_order, needed)
    table = EMonomials(order)
    genus = witten_genus(descriptor, order, table)
    decomposition = quasi_modular_decompose(genus, table)
    return {
        "weight": weight,
        "genus": genus.truncate(q_order),
        "decomposition": decomposition,
        "e2_coefficient": decomposition.e2_part,
        "verdict": "modular" if decomposition.is_modular else "quasi-modular",
    }


def product_descriptor(d1: ManifoldDescriptor, d2: ManifoldDescriptor) -> ManifoldDescriptor:
    """Pontryagin numbers of a product manifold via the Whitney sum formula.

    p(X x Y) = p(X) p(Y), so p_i(X x Y) = sum_{a+b=i} p_a(X) p_b(Y); a product
    partition number expands over all ways of splitting each part between the
    factors, pairing the two top-degree pieces against the factors' numbers.
    """
    from itertools import product as iproduct

    dim = d1.dim + d2.dim
    numbers = {}
    for part in _partitions(dim // 4):
        total = Fraction(0)
        for split in iproduct(*(range(p + 1) for p in part)):
            left = tuple(sorted((a for a in split if a), reverse=True))
            right = tuple(sorted((p - a for p, a in zip(part, split) if p - a), reverse=True))
            if sum(left) != d1.dim // 4 or sum(right) != d2.dim // 4:
                continue
            total += d1.pontryagin_numbers.get(left, Fraction(0)) * d2.pontryagin_numbers.get(
                right, Fraction(0)
            )
        numbers[part] = total
    return ManifoldDescriptor(dim, numbers)


def _partitions(k: int, largest: int | None = None):
    """Partitions of k into parts at most ``largest`` (default k), as decreasing
    tuples, largest first part first."""
    if k == 0:
        yield ()
        return
    largest = k if largest is None else min(k, largest)
    for first in range(largest, 0, -1):
        for tail in _partitions(k - first, first):
            yield (first,) + tail


def partition_numbers():
    """p(0), p(1), p(2), .. by Euler's pentagonal recurrence

        p(j) = sum_{i >= 1} (-1)^(i+1) (p(j - i(3i-1)/2) + p(j - i(3i+1)/2))."""
    counts = [1]
    yield 1
    for j in count(1):
        total, i = 0, 1
        while (pent := i * (3 * i - 1) // 2) <= j:
            sign = 1 if i % 2 else -1
            total += sign * counts[j - pent]
            if pent + i <= j:
                total += sign * counts[j - pent - i]
            i += 1
        counts.append(total)
        yield total


def _partition_count_exceeds(k: int, n: int) -> bool:
    """Whether p(k) > n, stopping at the first p(j) > n: p is nondecreasing, so
    the work is bounded by n however large k is."""
    for j, p in enumerate(partition_numbers()):
        if p > n:
            return True
        if j == k:
            return False


def _require_every_number(descriptor: ManifoldDescriptor) -> None:
    """MissingNumber unless every partition of dim/4 has a number, checked before
    any algebra is built.  The keys are distinct partitions of dim/4, so they are
    all there exactly when there are p(dim/4) of them; a missing one then turns
    up among the first len(keys) + 1 partitions."""
    k, numbers = descriptor.dim // 4, descriptor.pontryagin_numbers
    if _partition_count_exceeds(k, len(numbers)):
        missing = next(part for part in _partitions(k) if part not in numbers)
        raise MissingNumber(f"no Pontryagin number for partition {missing}")
