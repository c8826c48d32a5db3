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
Stasheff section 16; Hirzebruch-Berger-Jung ch. 1); pairing s_lambda with the
Pontryagin numbers gives the symbolic genus without expanding the exponential.

Under gamma in SL2(Z) the transformation laws are beta -> beta/j,
E2 -> j^2 (E2 - u/2), E{2k >= 4} -> j^{2k} E{2k}, where u stands for
c/(2 pi i (c tau + d)) and j for (c tau + d); u absorbs all the analytic
factors so the whole delta Wit = dA verification runs in exact arithmetic.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

from . import dga
from .dga import Element, divide_exact, exp_nilpotent, substitute, unit_inverse
from .geom import (
    ChernRootModel,
    ManifoldDescriptor,
    integrate_symbolic,
    pontryagin_algebra,
    pontryagin_character_component,
    power_sum_element,
    power_sums_to_pontryagin,
)
from .qmod import (
    QSeries,
    eisenstein_q,
    half_lattice_normalization,
    quasi_modular_decompose,
    weight_monomials,
    z2plus_power_sums,
)
from .scalars import QI, PiScalar


def eisenstein_symbol_series(k: int, q_order: int) -> QSeries:
    """The q-series the symbol E{2k} stands for: -B_{2k}/(2(2k)!) * Ẽ_{2k}."""
    return eisenstein_q(k, q_order) * half_lattice_normalization(k)


def q_evaluate(el: Element, q_order: int) -> Element:
    """Replace the Eisenstein symbols by their q-series; result in qseries mode."""
    alg = el.algebra
    symbol_k = {i: k for i, g in enumerate(alg.gens) if (k := _symbol_k(g.name))}
    series = _symbol_monomials(q_order)
    zero = QSeries.zero()
    out = {}
    for mono, coeff in el.convert(dga.RATIONAL).terms.items():
        rest = tuple((i, e) for i, e in mono if i not in symbol_k)
        ks = tuple(sorted(symbol_k[i] for i, e in mono if i in symbol_k for _ in range(e)))
        s = out.get(rest, zero) + series(ks) * coeff
        if s.is_zero():
            out.pop(rest, None)
        else:
            out[rest] = s
    return alg.element(out, dga.QSERIES)


def _symbol_k(name: str) -> int:
    """k for the symbol E{2k}, 0 for any other generator."""
    return int(name[1:]) // 2 if name.startswith("E") and name[1:].isdigit() else 0


def _symbol_monomials(q_order: int):
    """The q-series of E-monomials for one evaluation, each expanded once.

    A monomial is a nondecreasing tuple of k, one entry per factor E{2k}; its
    series is its parent's (the tuple without the last entry) times one E{2k}
    series.
    """
    cache = {(): QSeries.constant(1)}

    def series(ks: tuple) -> QSeries:
        if ks not in cache:
            if len(ks) == 1:
                cache[ks] = eisenstein_symbol_series(ks[0], q_order)
            else:
                cache[ks] = series(ks[:-1]) * series(ks[-1:])
        return cache[ks]

    return series


# ---------------------------------------------------------------------------
# The class on a curvature model


def witten_class_symbolic(model: ChernRootModel) -> Element:
    """exp(sum_k ph_k beta^{2k} E{2k}) in the model's algebra, exact rationals."""
    alg = model.algebra
    beta = model.beta()
    arg = alg.zero()
    for k in range(1, model.dim // 4 + 1):
        ph = pontryagin_character_component(model, k)
        if ph.is_zero():
            continue
        arg = arg + ph * beta ** (2 * k) * alg.gen(f"E{2 * k}")
    return exp_nilpotent(arg)


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
    arg = alg.zero(dga.PI)
    for k, part in enumerate(z2plus_power_sums(model.dim // 4, shell_bound, tau), 1):
        ph = pontryagin_character_component(model, k, dga.PI)
        if ph.is_zero():
            continue
        # (2 pi i)^{-2k} = (-1)^k / (4^k pi^{2k})
        scal = PiScalar.pi_power(-2 * k, part * QI(Fraction((-1) ** k, 4**k)))
        arg = arg + ph * beta ** (2 * k) * dga.coerce(dga.PI, scal)
    return exp_nilpotent(arg)


def rescale_beta(el: Element, factor_num, factor_den=None) -> Element:
    """Multiply each monomial's coefficient by factor^ (its b-exponent)."""
    alg = el.algebra
    ib = alg.index["b"]
    out = {}
    for mono, c in el.terms.items():
        be = next((e for i, e in mono if i == ib), 0)
        if be:
            c = c * factor_num**be
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
    """Genus as {E-monomial exponents: Fraction}; weight dim/2 per monomial.

    The sum over partitions of dim/4 from the module docstring: each s_lambda
    is its largest part's s_k times its tail's product, built once.
    """
    dim = descriptor.dim
    if dim == 0:
        return {(): Fraction(1)}
    kmax = dim // 4
    alg = pontryagin_algebra(dim)
    table = power_sums_to_pontryagin(kmax)
    s_products = {(): alg.one()}
    for k in range(1, kmax + 1):
        s_products[(k,)] = power_sum_element(alg, k, table)

    def s_product(part):
        if part not in s_products:
            s_products[part] = s_products[part[:1]] * s_product(part[1:])
        return s_products[part]

    top = alg.zero()
    for part in _partitions(kmax):
        mult = Counter(part)
        e_part = tuple((alg.index[f"E{2 * k}"], m) for k, m in mult.items())
        denominator = math.prod(k**m * math.factorial(m) for k, m in mult.items())
        top = top + s_product(part) * alg.element({e_part: Fraction(1, denominator)})
    return integrate_symbolic(descriptor, top * alg.gen("b", power=dim // 2))


def witten_genus(descriptor: ManifoldDescriptor, q_order: int) -> QSeries:
    """Weight-dim/2 q-expansion of the genus; q^0 term is the A-hat genus.

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
    series = _symbol_monomials(q_order)
    total = QSeries(dim // 2, {}, q_order)
    for ekey, coeff in sym.items():
        ks = tuple(k for k, e in enumerate(ekey, 1) for _ in range(e))
        total = total + series(ks) * coeff
    return total.truncate(q_order)


# ---------------------------------------------------------------------------
# Anomaly cocycle delta Wit = dA


def gamma_transform(el: Element) -> Element:
    """The SL2(Z) substitution: beta -> beta/j, E2 -> j^2 (E2 - u/2), E{2k} -> j^{2k} E{2k}."""
    alg = el.algebra
    images = {}
    if "b" in alg.index:
        images["b"] = alg.gen("b", el.mode) * alg.gen("j", el.mode, -1)
    for g in alg.gens:
        name = g.name
        k = _symbol_k(name)
        if k:
            jpow = alg.gen("j", el.mode, 2 * k)
            image = jpow * alg.gen(name, el.mode)
            if k == 1:
                image = image - jpow * alg.gen("u", el.mode) * Fraction(1, 2)
            images[name] = image
    return substitute(el, images)


def anomaly_delta_symbolic(model: ChernRootModel) -> Element:
    """delta Wit = Wit - gamma*Wit; all automorphy powers cancel."""
    w = witten_class_symbolic(model)
    delta = w - gamma_transform(w)
    ij = model.algebra.index["j"]
    for mono in delta.terms:
        if any(i == ij for i, _ in mono):
            raise AssertionError("automorphy factors failed to cancel in delta Wit")
    return delta


def anomaly_delta(model: ChernRootModel, q_order: int | None = None) -> Element:
    """delta Wit over the anomaly symbols; q-evaluated when q_order is given.

    Equals Wit * (1 - exp(-p1 b^2 u / 2)) exactly, so it vanishes identically
    when p1 is imposed to zero and under the u -> 0 specialization.
    """
    delta = anomaly_delta_symbolic(model)
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
    needed = len(weight_monomials(weight)) + 2 if weight else 3
    order = max(q_order, needed)
    genus = witten_genus(descriptor, order)
    decomposition = quasi_modular_decompose(genus)
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
        if total:
            numbers[part] = total
    return ManifoldDescriptor(dim, numbers)


def _partitions(k: int):
    if k == 0:
        yield ()
        return
    def rec(rest, maxpart):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, maxpart), 0, -1):
            for tail in rec(rest - first, first):
                yield (first,) + tail
    yield from rec(k, k)
