import math
import random
from fractions import Fraction

import pytest

from ellgenus import dga
from ellgenus.dga import differential, impose_relation, substitute
from ellgenus.geom import (
    ChernRootModel,
    ManifoldDescriptor,
    integrate_symbolic,
    pontryagin_algebra,
    power_sum_element,
    power_sums_to_pontryagin,
)
from ellgenus.pfaff import a_hat_class, a_hat_product, regularized_product
from ellgenus.qmod import (
    QSeries,
    eisenstein_lattice,
    eisenstein_q,
    half_lattice_normalization,
)
from ellgenus.scalars import QI
from ellgenus.witten import (
    _partitions,
    anomaly_delta,
    anomaly_delta_symbolic,
    anomaly_primitive,
    eisenstein_symbol_series,
    gamma_transform,
    product_descriptor,
    q_evaluate,
    reciprocal_product_as_class,
    string_modularity_check,
    witten_class,
    witten_class_at_partial_sums,
    witten_class_symbolic,
    witten_genus,
    witten_genus_symbolic,
)


def test_symbol_series_normalization():
    # E{2k} stands for -B_{2k}/(2 (2k)!) * Ẽ_{2k}; constant terms -1/24, 1/1440
    assert half_lattice_normalization(1) == Fraction(-1, 24)
    assert half_lattice_normalization(2) == Fraction(1, 1440)
    s = eisenstein_symbol_series(1, 3)
    assert s.weight == 2 and s[0] == Fraction(-1, 24) and s[1] == 1


def test_class_dim0_is_one():
    m = ChernRootModel(0, 0)
    assert witten_class_symbolic(m) == m.algebra.one()
    assert witten_class(m, 5) == m.algebra.one(dga.QSERIES)


def test_class_dim4_shape():
    m = ChernRootModel(1, 4)
    alg = m.algebra
    sym = witten_class_symbolic(m)
    x, b = m.roots()[0], m.beta()
    assert sym == alg.one() + x * x * b * b * alg.gen("E2")
    cls = witten_class(m, 4)
    coeff = cls.coefficient(((alg.index["b"], 2), (alg.index["x1"], 2)))
    assert coeff == eisenstein_symbol_series(1, 4)
    assert coeff[0] == Fraction(-1, 24)


def test_class_q0_is_a_hat_class():
    for r, dim in ((1, 4), (1, 8), (2, 8), (2, 12)):
        m = ChernRootModel(r, dim)
        cls = witten_class(m, 3)
        ah = a_hat_class(m)
        for mono, series in cls.terms.items():
            stripped = tuple((i, e) for i, e in mono if m.algebra.gens[i].name != "b")
            assert series[0] == ah.coefficient(stripped), (r, dim, mono)


def test_class_q0_matches_a_hat_product_numerically():
    m = ChernRootModel(1, 4)
    cls = witten_class(m, 3)
    ah = a_hat_product(m, 100000)
    ib, ix = m.algebra.index["b"], m.algebra.index["x1"]
    q0 = float(cls.coefficient(((ib, 2), (ix, 2)))[0])
    assert abs(ah.terms[((ix, 2),)] - q0) < 1e-3


def test_genus_examples():
    assert witten_genus(ManifoldDescriptor(0, {}), 5) == QSeries.constant(1).truncate(5)
    # dim 4, p1-number n: genus = (n/24) * (-Ẽ2) with q^0 the A-hat genus -n/24
    for n in (24, -48, 5):
        g = witten_genus(ManifoldDescriptor(4, {(1,): n}), 5)
        assert g.weight == 2
        assert g == eisenstein_q(1, 5) * Fraction(-n, 24)
    # dim 8, p1^2-number 0, p2-number m: genus = -(m/1440) Ẽ4
    g = witten_genus(ManifoldDescriptor(8, {(1, 1): 0, (2,): 7}), 4)
    assert g.weight == 4
    assert g == eisenstein_q(2, 4) * Fraction(-7, 1440)


def test_genus_propagates_missing_numbers():
    from ellgenus.geom import MissingNumber

    with pytest.raises(MissingNumber):
        witten_genus(ManifoldDescriptor(8, {(2,): 7}), 4)


def test_genus_q0_is_a_hat_genus():
    # A-hat genus of a dim-8 descriptor: (7 p1^2 - 4 p2)/5760
    d = ManifoldDescriptor(8, {(1, 1): 13, (2,): 6})
    g = witten_genus(d, 3)
    assert g[0] == Fraction(7 * 13 - 4 * 6, 5760)
    # the classical dim-8 example with p1^2 = 4, p2 = 7 has vanishing
    # index-genus constant term but a nonzero quasi-modular tail
    g = witten_genus(ManifoldDescriptor(8, {(1, 1): 4, (2,): 7}), 6)
    assert g[0] == 0 and not g.is_zero()
    rep = string_modularity_check(ManifoldDescriptor(8, {(1, 1): 4, (2,): 7}))
    assert rep["verdict"] == "quasi-modular"


def test_genus_weight_bookkeeping():
    for d in (
        ManifoldDescriptor(4, {(1,): 3}),
        ManifoldDescriptor(8, {(1, 1): 1, (2,): 2}),
        ManifoldDescriptor(12, {(1, 1, 1): 1, (2, 1): 1, (3,): 1}),
    ):
        sym = witten_genus_symbolic(d)
        for ekey in sym:
            assert sum(2 * (i + 1) * e for i, e in enumerate(ekey)) == d.dim // 2
        assert witten_genus(d, 4).weight == d.dim // 2


def test_gamma_transform_shape():
    m = ChernRootModel(1, 8)
    alg = m.algebra
    j, u = alg.gen("j"), alg.gen("u")
    assert gamma_transform(alg.gen("E2")) == j * j * (alg.gen("E2") - u * Fraction(1, 2))
    assert gamma_transform(alg.gen("E4")) == j**4 * alg.gen("E4")
    assert gamma_transform(m.beta()) == m.beta() * alg.gen("j", power=-1)


@pytest.mark.parametrize("r,dim", [(1, 4), (2, 8), (3, 12)])
def test_delta_closed_form(r, dim):
    m = ChernRootModel(r, dim)
    alg = m.algebra
    delta = anomaly_delta_symbolic(m)
    w = witten_class_symbolic(m)
    exponent = -m.p1() * m.beta() ** 2 * alg.gen("u") * Fraction(1, 2)
    assert delta == w * (alg.one() - dga.exp_nilpotent(exponent))


def test_delta_dim4_first_order():
    m = ChernRootModel(1, 4)
    delta = anomaly_delta_symbolic(m)
    expect = m.roots()[0] ** 2 * m.beta() ** 2 * m.algebra.gen("u") * Fraction(1, 2)
    assert delta == expect


def test_delta_vanishes_under_relation_and_u0():
    m = ChernRootModel(2, 8)
    delta = anomaly_delta_symbolic(m)
    assert impose_relation(delta, m.p1()).is_zero()
    assert substitute(delta, {"u": m.algebra.zero()}).is_zero()
    a = anomaly_primitive(m)
    assert substitute(a, {"u": m.algebra.zero()}).is_zero()


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("dim", [4, 8, 12])
def test_anomaly_cocycle_exact(r, dim):
    m = ChernRootModel(r, dim)
    assert differential(anomaly_primitive(m)) == anomaly_delta_symbolic(m)
    assert differential(anomaly_primitive(m, 6)) == anomaly_delta(m, 6)


def test_anomaly_u_numeric_tie_back():
    """u stands for c/(2 pi i (c tau + d)): at gamma = S, tau = 2i the dim-4
    transformation defect of the evaluated E2 series matches u/2 numerically."""
    tau = 2j
    c, d = -1, 0
    j = c * tau + d
    u = c / (2j * math.pi * j)
    # E2-symbol series transforms as j^2 (E2 - u/2): estimate E2(gamma tau)
    # through the lattice route: E2_hat = lattice/(2 (2 pi i)^2)
    def e2_hat(t):
        from ellgenus.qmod import ROWMAJOR

        return eisenstein_lattice(1, t, ROWMAJOR, 3000) / (2 * (2j * math.pi) ** 2)

    lhs = e2_hat(-1 / tau)
    rhs = j**2 * (e2_hat(tau) - u / 2)
    assert abs(lhs - rhs) < 1e-4


def test_route_equality_with_product():
    for r, dim in ((1, 4), (1, 8), (2, 8)):
        m = ChernRootModel(r, dim)
        for bound in (1, 2):
            prod = regularized_product(m, bound, QI(0, 2), dga.PI)
            assert reciprocal_product_as_class(prod) == witten_class_at_partial_sums(
                m, bound, QI(0, 2)
            )


def test_modularity_reports():
    rep = string_modularity_check(ManifoldDescriptor(4, {(1,): 0}))
    assert rep["verdict"] == "modular" and rep["genus"].is_zero()
    rep = string_modularity_check(ManifoldDescriptor(4, {(1,): 24}))
    assert rep["verdict"] == "quasi-modular"
    assert rep["decomposition"].coeffs == {(1, 0, 0): Fraction(-1)}
    assert rep["e2_coefficient"] == {(1, 0, 0): Fraction(-1)}
    rep = string_modularity_check(ManifoldDescriptor(8, {(1, 1): 0, (2,): 1440}))
    assert rep["verdict"] == "modular"
    assert rep["decomposition"].coeffs == {(0, 1, 0): Fraction(-1)}


def test_modularity_detects_e2_square():
    # nonzero p1 numbers at dim 8 put Ẽ2^2 into the decomposition
    rep = string_modularity_check(ManifoldDescriptor(8, {(1, 1): 1152, (2,): 0}))
    assert rep["verdict"] == "quasi-modular"
    assert (2, 0, 0) in rep["decomposition"].coeffs


def test_genus_multiplicativity():
    d1 = ManifoldDescriptor(4, {(1,): 5})
    d2 = ManifoldDescriptor(4, {(1,): -7})
    dp = product_descriptor(d1, d2)
    assert dp.pontryagin_numbers == {(1, 1): Fraction(-70), (2,): Fraction(-35)}
    g1, g2, gp = witten_genus(d1, 6), witten_genus(d2, 6), witten_genus(dp, 6)
    assert gp == (g1 * g2).truncate(6)


# ---------------------------------------------------------------------------
# The sum over partitions and the memoised E-monomial evaluator against the
# routes they replace


def random_descriptor(rng, dim, string=False):
    """Random p/q numbers on every partition; a string one zeroes those with p1."""
    numbers = {}
    for part in _partitions(dim // 4):
        value = Fraction(rng.choice((-1, 1)) * rng.randint(1, 99), rng.randint(1, 9))
        numbers[part] = 0 if string and 1 in part else value
    return ManifoldDescriptor(dim, numbers)


def genus_by_expansion(descriptor):
    """The graded-algebra route: exp(sum_k s_k b^{2k} E{2k} / k), then integrate."""
    kmax = descriptor.dim // 4
    alg = pontryagin_algebra(descriptor.dim)
    table = power_sums_to_pontryagin(kmax)
    arg = alg.zero()
    for k in range(1, kmax + 1):
        s_k = power_sum_element(alg, k, table) * Fraction(1, k)
        arg = arg + s_k * alg.gen("b") ** (2 * k) * alg.gen(f"E{2 * k}")
    return integrate_symbolic(descriptor, dga.exp_nilpotent(arg))


@pytest.mark.parametrize("string", [False, True])
@pytest.mark.parametrize("dim", [4, 8, 12, 16, 20, 24])
def test_genus_sum_over_partitions_matches_the_expansion(dim, string):
    rng = random.Random(f"genus-oracle:{dim}:{string}")
    for _ in range(2):
        d = random_descriptor(rng, dim, string)
        assert witten_genus_symbolic(d) == genus_by_expansion(d)


def q_evaluate_term_by_term(el, q_order):
    """Each term's coefficient times its own product of E{2k} series, summed."""
    alg = el.algebra
    out = alg.zero(dga.QSERIES)
    for mono, coeff in el.terms.items():
        factor = QSeries.constant(coeff)
        rest = []
        for i, e in mono:
            name = alg.gens[i].name
            if name.startswith("E"):
                factor = factor * eisenstein_symbol_series(int(name[1:]) // 2, q_order) ** e
            else:
                rest.append((i, e))
        out = out + alg.element({tuple(rest): factor}, dga.QSERIES)
    return out


@pytest.mark.parametrize("r,dim", [(2, 8), (3, 12)])
def test_q_evaluate_matches_term_by_term(r, dim):
    m = ChernRootModel(r, dim)
    for el in (witten_class_symbolic(m), anomaly_delta_symbolic(m)):
        assert q_evaluate(el, 6) == q_evaluate_term_by_term(el, 6)


def test_genus_multiplicativity_dim24():
    rng = random.Random("genus-product")
    d1, d2 = random_descriptor(rng, 12), random_descriptor(rng, 12)
    dp = product_descriptor(d1, d2)
    assert dp.dim == 24
    g1, g2, gp = witten_genus(d1, 8), witten_genus(d2, 8), witten_genus(dp, 8)
    assert gp == (g1 * g2).truncate(8)


@pytest.mark.parametrize("string,verdict", [(True, "modular"), (False, "quasi-modular")])
def test_modularity_verdict_dim48(string, verdict):
    d = random_descriptor(random.Random(f"dim48:{string}"), 48, string)
    rep = string_modularity_check(d, 4)
    assert rep["verdict"] == verdict
    assert rep["weight"] == 24 and rep["genus"].weight == 24
    assert (rep["e2_coefficient"] == {}) == string
