import cmath
import math
from fractions import Fraction
from random import Random

import pytest

from ellgenus.qmod import (
    GAMMA_S,
    GAMMA_T,
    ROWMAJOR,
    SHELLS,
    Z2PLUS,
    GammaElement,
    LatticeOrdering,
    NoDecomposition,
    QSeries,
    WeightMismatch,
    eisenstein_lattice,
    eisenstein_q,
    lattice_partial_sum,
    quasi_modular_decompose,
    transform_residual,
    weight_monomials,
    z2plus_points,
    z2plus_shell,
)
from ellgenus.scalars import zeta_even_over_pi_power


def divisor_sum(power, n):
    return sum(d**power for d in range(1, n + 1) if n % d == 0)


def two_zeta(k):
    return 2 * float(zeta_even_over_pi_power(k)) * math.pi ** (2 * k)


# ---------------------------------------------------------------------------
# q-expansions


def test_eisenstein_q_frozen_examples():
    assert eisenstein_q(1, 3).coeffs == {0: 1, 1: -24, 2: -72}
    assert eisenstein_q(2, 4).coeffs == {0: 1, 1: 240, 2: 2160, 3: 6720}
    assert eisenstein_q(3, 2).coeffs == {0: 1, 1: -504}


def test_eisenstein_q_against_divisor_sum_oracle():
    prefactors = {1: -24, 2: 240, 3: -504, 4: 480}
    for k, pref in prefactors.items():
        series = eisenstein_q(k, 12)
        assert series.weight == 2 * k
        assert series[0] == 1
        for n in range(1, 12):
            assert series[n] == pref * divisor_sum(2 * k - 1, n)


def test_eisenstein_q_rejects_bad_args():
    with pytest.raises(ValueError):
        eisenstein_q(0, 5)
    with pytest.raises(ValueError):
        eisenstein_q(2, 0)


def test_qseries_weight_rules():
    a = eisenstein_q(1, 5)
    b = eisenstein_q(2, 5)
    assert (a * b).weight == 6
    assert ((a * b) * a).weight == 8
    with pytest.raises(WeightMismatch):
        a + b
    # zero carries no weight
    assert (a + QSeries.zero()).weight == 2
    # constant-term multiplicativity
    assert (a * b)[0] == a[0] * b[0] == 1


def test_qseries_truncation_semantics():
    a = eisenstein_q(1, 4)
    b = eisenstein_q(1, 6)
    assert (a + b).order == 4
    assert (a * b).order == 4
    assert (a * QSeries.constant(5)).order == 4


def test_qseries_inverse():
    a = eisenstein_q(2, 8)
    prod = a * a.inverse()
    assert prod[0] == 1 and all(prod[e] == 0 for e in range(1, 8))


def test_qseries_serialization_round_trip():
    a = eisenstein_q(2, 5) * Fraction(3, 7)
    back = QSeries.loads(a.dumps())
    assert back == a
    c = QSeries.parse_compact(a.compact())
    assert c == a
    # negative min_exp (weakly holomorphic shape)
    w = QSeries(-2, {-1: Fraction(1), 0: Fraction(2, 3)}, 4)
    assert QSeries.loads(w.dumps()) == w
    assert w.min_exp == -1


def test_qseries_render():
    assert eisenstein_q(2, 3).render() == "1 + 240 q + 2160 q^2"
    assert eisenstein_q(1, 3).render() == "1 - 24 q - 72 q^2"
    assert QSeries.zero().render() == "0"


# ---------------------------------------------------------------------------
# Lattice sums


def test_odd_power_symmetric_shells_vanishes_exactly():
    assert lattice_partial_sum(3, 1j, SHELLS, 200) == 0


def test_lattice_requires_upper_half_plane():
    with pytest.raises(ValueError):
        eisenstein_lattice(2, 1 - 1j, SHELLS, 10)
    with pytest.raises(ValueError):
        eisenstein_lattice(2, 1j, SHELLS, 0)


def test_lattice_matches_q_expansion_k2_tau_i():
    lat = eisenstein_lattice(2, 1j, SHELLS, 2000)
    ref = two_zeta(2) * eisenstein_q(2, 30).evaluate(math.exp(-2 * math.pi))
    assert abs(lat - ref) < 1e-6


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("tau", [1j, 2j, (1 + 5j) / 3])
def test_lattice_matches_q_expansion_grid(k, tau):
    lat = eisenstein_lattice(k, tau, SHELLS, 2000)
    ref = two_zeta(k) * eisenstein_q(k, 30).evaluate(cmath.exp(2j * math.pi * tau))
    assert abs(lat / two_zeta(k) - ref / two_zeta(k)) < 1e-6


def test_ordering_independence_for_k_ge_2():
    # conditional only at k=1: different orderings agree at bound 2000
    a = eisenstein_lattice(2, 1j, SHELLS, 2000)
    b = eisenstein_lattice(2, 1j, LatticeOrdering("rowmajor", m_range=30, n_range=4000), 2000)
    assert abs(a - b) < 1e-4


def test_rowmajor_e2_at_i_is_pi():
    # fixed point of S: E2(i) = -E2(i) + 2 pi
    v = eisenstein_lattice(1, 1j, ROWMAJOR, 2000)
    assert abs(v - math.pi) < 1e-4


def test_z2plus_enumeration_is_the_half_lattice():
    pts = list(z2plus_points(3))
    brute = sorted(
        (n, m)
        for n in range(-3, 4)
        for m in range(-3, 4)
        if (n, m) != (0, 0) and max(abs(n), abs(m)) <= 3 and (m < 0 or (m == 0 and n > 0))
    )
    assert sorted(pts) == brute
    assert len(pts) == 24
    shells = [z2plus_shell(s) for s in range(1, 4)]
    assert [len(n) for n, _ in shells] == [len(m) for _, m in shells] == [4, 8, 12]
    assert pts == [p for n, m in shells for p in zip(n.tolist(), m.tolist())]
    assert all(type(v) is int for p in pts for v in p)


@pytest.mark.parametrize("power", [2, 4, 6])
def test_shells_sum_is_the_doubled_z2plus_sum(power):
    tau = 0.25 + 1.5j
    assert lattice_partial_sum(power, tau, SHELLS, 40) == 2 * lattice_partial_sum(power, tau, Z2PLUS, 40)
    assert lattice_partial_sum(power + 1, tau, SHELLS, 40) == 0


# ---------------------------------------------------------------------------
# Transformation law


def test_gamma_element_validates_determinant():
    with pytest.raises(ValueError):
        GammaElement(1, 1, 1, 1)


def test_transform_residual_identity_gamma():
    assert transform_residual(2, GammaElement(1, 0, 0, 1), 1j, 50) == 0


def test_transform_residual_T_invariance_k2():
    assert abs(transform_residual(2, GAMMA_T, 1j, 2000)) < 1e-6


def test_transform_residual_k1_S_tau_2i():
    assert abs(transform_residual(1, GAMMA_S, 2j, 4000)) < 1e-4


def test_transform_residual_generators_and_product():
    ts = GammaElement(1, 1, -1, 0)  # T*S
    for gamma in (GAMMA_T, GAMMA_S, ts):
        assert abs(transform_residual(2, gamma, 2j, 1500)) < 1e-4


# ---------------------------------------------------------------------------
# Quasi-modular decomposition


def test_decompose_basis_element():
    dec = quasi_modular_decompose(eisenstein_q(2, 6))
    assert dec.coeffs == {(0, 1, 0): Fraction(1)}
    assert dec.is_modular


def test_decompose_discriminant():
    e4 = eisenstein_q(2, 12)
    e6 = eisenstein_q(3, 12)
    delta = (e4**3 - e6**2) * Fraction(1, 1728)
    assert delta[0] == 0 and delta[1] == 1 and delta[2] == -24
    dec = quasi_modular_decompose(delta)
    assert dec.coeffs == {(0, 3, 0): Fraction(1, 1728), (0, 0, 2): Fraction(-1, 1728)}
    assert dec.is_modular


def test_decompose_no_solution():
    f = QSeries(4, {0: 1, 1: 1}, 4)
    with pytest.raises(NoDecomposition):
        quasi_modular_decompose(f)


def test_decompose_rejects_short_series():
    with pytest.raises(ValueError):
        quasi_modular_decompose(QSeries(4, {0: 1}, 3))


def test_decompose_rejects_pole_at_infinity():
    f = QSeries(4, {-1: Fraction(1), 0: Fraction(1)}, 6)
    with pytest.raises(NoDecomposition):
        quasi_modular_decompose(f)


def test_decompose_round_trip_random_polynomials():
    rng = Random(11)
    for _ in range(6):
        weight = rng.choice([4, 6, 8, 10, 12])
        monos = weight_monomials(weight)
        order = len(monos) + 3
        e = {1: eisenstein_q(1, order), 2: eisenstein_q(2, order), 3: eisenstein_q(3, order)}
        coeffs = {m: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for m in monos}
        series = QSeries(weight, {}, order)
        for (a, b, c), v in coeffs.items():
            if v:
                series = series + e[1] ** a * e[2] ** b * e[3] ** c * v
        dec = quasi_modular_decompose(series)
        assert dec.coeffs == {m: v for m, v in coeffs.items() if v}
        assert dec.is_modular == all(a == 0 or v == 0 for (a, _, _), v in coeffs.items())


def test_e2_detection():
    dec = quasi_modular_decompose(eisenstein_q(1, 4) * eisenstein_q(1, 4))
    assert dec.coeffs.get((2, 0, 0)) == 1
    assert not dec.is_modular
    assert dec.e2_part == {(2, 0, 0): Fraction(1)}
