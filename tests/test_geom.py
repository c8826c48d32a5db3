from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from ellgenus import dga
from ellgenus.dga import substitute
from ellgenus.geom import (
    ChernRootModel,
    ManifoldDescriptor,
    MissingNumber,
    integrate,
    pontryagin_algebra,
    pontryagin_character_component,
    power_sum_element,
    power_sums_to_pontryagin,
    root_blocks,
)
from ellgenus.qmod import eisenstein_q
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
    t = power_sums_to_pontryagin(3)
    assert t[1] == {(1,): 1}
    assert t[2] == {(1, 1): 1, (2,): -2}
    assert t[3] == {(1, 1, 1): 1, (2, 1): -3, (3,): 3}


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

    sk = m.power_sum(k)
    rebuilt = m.algebra.zero()
    for partition, coeff in power_sums_to_pontryagin(k)[k].items():
        term = m.algebra.one() * coeff
        for i in partition:
            term = term * elementary(i)
        rebuilt = rebuilt + term
    assert rebuilt == sk


def test_descriptor_validation():
    with pytest.raises(ValueError):
        ManifoldDescriptor(6, {})
    with pytest.raises(ValueError):
        ManifoldDescriptor(8, {(1,): 3})  # partition of 1 on a dim-8 descriptor
    d = ManifoldDescriptor(8, {"1,1": "4", "2": "7"})
    assert d.pontryagin_numbers == {(1, 1): Fraction(4), (2,): Fraction(7)}


def test_integrate_examples():
    alg = pontryagin_algebra(8)
    b4 = alg.gen("b") ** 4
    s2 = power_sum_element(alg, 2)
    d = ManifoldDescriptor(8, {(1, 1): 4, (2,): 7})
    assert integrate(d, s2 * b4) == -10
    d4 = ManifoldDescriptor(4, {(1,): 0})
    alg4 = pontryagin_algebra(4)
    assert integrate(d4, alg4.gen("p1") * alg4.gen("b") ** 2) == 0
    d4b = ManifoldDescriptor(4, {(1,): 48})
    assert integrate(d4b, alg4.gen("p1") * alg4.gen("b") ** 2) == 48
    with pytest.raises(MissingNumber):
        integrate(ManifoldDescriptor(8, {(2,): 7}), s2 * b4)


def test_integrate_ignores_lower_degrees_and_is_linear():
    alg = pontryagin_algebra(8)
    d = ManifoldDescriptor(8, {(1, 1): 3, (2,): 5})
    b4 = alg.gen("b") ** 4
    p2, p11 = alg.gen("p2"), alg.gen("p1") ** 2
    low = alg.gen("p1")  # degree 4 != 8: integrates to zero
    assert integrate(d, (p2 + p11) * b4 + low) == 8
    a = integrate(d, p2 * b4 * Fraction(2, 3))
    assert a == Fraction(10, 3)
    # qseries-valued classes integrate to series
    cls = (p2 * b4).convert(dga.QSERIES) * eisenstein_q(2, 4)
    out = integrate(d, cls)
    assert out == eisenstein_q(2, 4) * 5


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
