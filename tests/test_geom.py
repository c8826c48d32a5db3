from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from ellgenus import dga
from ellgenus.dga import substitute
from ellgenus.geom import (
    ChernRootModel,
    ManifoldDescriptor,
    MissingNumber,
    eisenstein_symbols,
    integrate_symbolic,
    pontryagin_algebra,
    pontryagin_character_component,
    power_sums_to_pontryagin,
    root_blocks,
    symbol_k,
)
from ellgenus.scalars import QI, PiScalar


def test_curvature_is_skew_with_pinned_entries():
    m = ChernRootModel(2, 8)
    R = m.curvature()
    for i in range(4):
        for j in range(4):
            assert (R[i][j] + R[j][i]).is_zero()
    two_pi_x1 = m.roots(dga.PI)[0] * dga.coerce(dga.PI, PiScalar.pi_power(1, QI(2)))
    assert R[0][1] == two_pi_x1


def test_root_blocks_layout():
    m = ChernRootModel(2, 8)
    d = m.algebra.scalar(3)
    x1, x2 = m.roots()
    zero = m.algebra.zero()
    assert root_blocks(d, [x1, x2]) == [
        [d, x1, zero, zero],
        [-x1, d, zero, zero],
        [zero, zero, d, x2],
        [zero, zero, -x2, d],
    ]
    assert root_blocks(d, []) == []


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
def test_p1_consistency_pins_block_constant(r, trace_of_power):
    # -Tr(R^2)/(8 pi^2) == sum x_j^2, exactly
    m = ChernRootModel(r, 4)
    tr2 = trace_of_power(m.curvature(), 2)
    p1 = tr2 * dga.coerce(dga.PI, PiScalar.pi_power(-2, QI(Fraction(-1, 8))))
    assert p1.convert(dga.RATIONAL) == m.p1()


def test_ph_examples():
    m1 = ChernRootModel(1, 4)
    x1 = m1.roots()[0]
    assert pontryagin_character_component(m1, 1) == x1 * x1
    m2 = ChernRootModel(2, 4)
    x1, x2 = m2.roots()
    assert pontryagin_character_component(m2, 1) == x1 * x1 + x2 * x2
    # 4k > dim truncates to zero
    assert pontryagin_character_component(m1, 2).is_zero()


@pytest.mark.parametrize("mode", [dga.RATIONAL, dga.PI])
@pytest.mark.parametrize("r", [0, 1, 2, 3, 4])
def test_ph_equals_power_sum_over_k(r, mode, chern_weil_ph):
    # the closed form s_k / k against the Chern-Weil trace Tr(R^{2k}) / (2k (2 pi i)^{2k})
    m = ChernRootModel(r, 12)
    for k in range(1, m.dim // 4 + 1):
        assert pontryagin_character_component(m, k, mode) == chern_weil_ph(m, k, mode)


def test_whitney_additivity():
    # ph(k) of a block direct sum = sum of each factor's ph(k)
    m = ChernRootModel(3, 8)
    ph = pontryagin_character_component(m, 2)
    zero = m.algebra.zero()
    left = substitute(ph, {"x3": zero})
    right = substitute(ph, {"x1": zero, "x2": zero})
    assert left + right == ph


def test_newton_table_frozen():
    alg = pontryagin_algebra(12)
    p1, p2, p3 = (alg.gen(f"p{i}") for i in (1, 2, 3))
    assert power_sums_to_pontryagin(alg) == [p1, p1**2 - p2 * 2, p1**3 - p2 * p1 * 3 + p3 * 3]
    assert power_sums_to_pontryagin(pontryagin_algebra(0)) == []


def test_pontryagin_algebra_holds_only_p():
    alg = pontryagin_algebra(12)
    assert [g.name for g in alg.gens] == ["p1", "p2", "p3"]
    assert [g.degree for g in alg.gens] == [4, 8, 12] and alg.trunc == 12
    assert len(pontryagin_algebra(0).gens) == 0


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_newton_rewrite_against_explicit_roots(k):
    # brute-force oracle: expand s_k and the elementary symmetric e_i in y_j = x_j^2
    nroots = k + 1
    m = ChernRootModel(nroots, 4 * k)
    ys = [x * x for x in m.roots()]

    def elementary(i):
        out = m.algebra.zero()
        for combo in combinations_with_replacement(range(nroots), i):
            if len(set(combo)) == i:  # distinct indices
                term = m.algebra.one()
                for idx in combo:
                    term = term * ys[idx]
                out = out + term
        return out

    palg = pontryagin_algebra(4 * k)
    rebuilt = m.algebra.zero()
    for mono, coeff in power_sums_to_pontryagin(palg)[k - 1].terms.items():
        term = m.algebra.one() * coeff
        for i, e in mono:
            term = term * elementary(int(palg.gens[i].name[1:])) ** e
        rebuilt = rebuilt + term
    assert rebuilt == m.power_sum(k)


def test_symbol_k_reads_back_the_eisenstein_symbol_names():
    assert [symbol_k(g.name) for g in eisenstein_symbols(24)] == [1, 2, 3, 4, 5, 6]
    assert [symbol_k(name) for name in ("b", "p2", "E", "Ex", "x1")] == [0] * 5


def test_descriptor_validation():
    with pytest.raises(ValueError):
        ManifoldDescriptor(6, {})
    with pytest.raises(ValueError):
        ManifoldDescriptor(8, {(1,): 3})  # partition of 1 on a dim-8 descriptor
    d = ManifoldDescriptor(8, {"1,1": "4", "2": "7"})
    assert d.pontryagin_numbers == {(1, 1): Fraction(4), (2,): Fraction(7)}


def test_integrate_examples():
    alg = pontryagin_algebra(8)
    s2 = power_sums_to_pontryagin(alg)[1]  # p1^2 - 2 p2
    d = ManifoldDescriptor(8, {(1, 1): 4, (2,): 7})
    assert integrate_symbolic(d, s2) == -10
    p1 = pontryagin_algebra(4).gen("p1")
    assert integrate_symbolic(ManifoldDescriptor(4, {(1,): 0}), p1) == 0
    assert integrate_symbolic(ManifoldDescriptor(4, {(1,): 48}), p1) == 48
    assert type(integrate_symbolic(ManifoldDescriptor(4, {(1,): 48}), p1)) is Fraction
    with pytest.raises(MissingNumber):
        integrate_symbolic(ManifoldDescriptor(8, {(2,): 7}), s2)


def test_integrate_ignores_lower_degrees_and_is_linear():
    alg = pontryagin_algebra(8)
    d = ManifoldDescriptor(8, {(1, 1): 3, (2,): 5})
    p2, p11 = alg.gen("p2"), alg.gen("p1") ** 2
    low = alg.gen("p1") + alg.one()  # degrees 4 and 0 != 8: pair to zero
    assert integrate_symbolic(d, low) == 0
    assert integrate_symbolic(d, p2 + p11 + low) == 8
    assert integrate_symbolic(d, p2 * Fraction(2, 3)) == Fraction(10, 3)
    a, b = Fraction(-7, 2), Fraction(5, 3)
    assert integrate_symbolic(d, p2 * a + p11 * b) == a * 5 + b * 3


def test_integrate_checks_the_generators_and_pairs_every_s_lambda_whole():
    # the weight holds by construction: for each partition lambda of dim/4,
    # every monomial of s_lambda has form degree dim, so none is skipped
    alg = pontryagin_algebra(12)
    s = power_sums_to_pontryagin(alg)
    for s_lambda in (s[2], s[1] * s[0], s[0] ** 3):
        assert {alg.form_degree(mono) for mono in s_lambda.terms} == {12}
    m = ChernRootModel(1, 8)
    with pytest.raises(ValueError, match="containing x1"):
        integrate_symbolic(ManifoldDescriptor(8, {(2,): 1}), m.roots()[0] ** 4)


def test_descriptor_file_round_trip():
    d = ManifoldDescriptor(8, {(1, 1): Fraction(4), (2,): Fraction(7, 3)})
    back = ManifoldDescriptor.loads(d.dumps())
    assert back.dim == 8 and back.pontryagin_numbers == d.pontryagin_numbers


def test_missing_number_message_is_not_quoted():
    with pytest.raises(MissingNumber) as info:
        ManifoldDescriptor(8, {(2,): 7}).number((1, 1))
    assert str(info.value) == "no Pontryagin number for partition (1, 1)"


@pytest.mark.parametrize("part", [(3, -1), (2, 0)])
def test_descriptor_rejects_a_part_below_one(part):
    with pytest.raises(ValueError, match="part below 1"):
        ManifoldDescriptor(8, {part: 1})
