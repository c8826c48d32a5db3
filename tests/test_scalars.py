import math
from fractions import Fraction

import pytest

from ellgenus.scalars import (
    QI,
    PiScalar,
    bernoulli,
    zeta_even_over_pi_power,
)


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(6) == Fraction(1, 42)
    assert bernoulli(8) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)
    assert bernoulli(3) == 0 and bernoulli(7) == 0


def bernoulli_by_recursion(limit: int) -> list:
    """B_0..B_limit from B_n = -1/(n+1) sum_{j<n} C(n+1, j) B_j, the direct route."""
    out = []
    for n in range(limit + 1):
        acc = sum((math.comb(n + 1, j) * b for j, b in enumerate(out)), Fraction(0))
        out.append(Fraction(1) if n == 0 else -acc / (n + 1))
    return out


def test_bernoulli_matches_the_recursion_up_to_200():
    for n, expected in enumerate(bernoulli_by_recursion(200)):
        got = bernoulli(n)
        assert got == expected and type(got) is Fraction, n


def test_bernoulli_rejects_a_negative_index():
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_zeta_even_rational_part():
    # zeta(2) = pi^2/6, zeta(4) = pi^4/90, zeta(6) = pi^6/945
    assert zeta_even_over_pi_power(1) == Fraction(1, 6)
    assert zeta_even_over_pi_power(2) == Fraction(1, 90)
    assert zeta_even_over_pi_power(3) == Fraction(1, 945)


def test_qi_field_ops():
    a = QI(Fraction(1, 2), Fraction(-3, 4))
    b = QI(2, 5)
    assert a + b == QI(Fraction(5, 2), Fraction(17, 4))
    assert a * b == QI(Fraction(1, 2) * 2 + Fraction(3, 4) * 5, Fraction(1, 2) * 5 - Fraction(3, 4) * 2)
    assert (a * a.inverse()) == QI(1)
    assert a**3 * a**-3 == QI(1)
    assert QI(0, 1) ** 2 == QI(-1)
    with pytest.raises(ZeroDivisionError):
        QI(0).inverse()


def test_qi_parse_round_trip():
    for v in (QI(1), QI(-3, 2), QI(Fraction(3, 4), Fraction(-1, 2)), QI(0, 1), QI(0, -5)):
        assert QI.parse(v.compact()) == v


def test_pi_scalar_laurent_ops():
    two_pi = PiScalar.pi_power(1, 2)
    inv = two_pi.inverse()
    assert two_pi * inv == PiScalar.of(1)
    x = PiScalar({2: QI(1), 0: QI(-3)})
    assert not x.is_unit()
    with pytest.raises(ZeroDivisionError):
        x.inverse()
    assert (x + 3).coeffs == {2: QI(1)}
    assert x.to_complex() == pytest.approx(9.8696044 - 3, rel=1e-6)


def test_pi_scalar_as_fraction():
    assert PiScalar.of(Fraction(2, 7)).as_fraction() == Fraction(2, 7)
    with pytest.raises(ValueError):
        PiScalar.pi_power(2).as_fraction()
    with pytest.raises(ValueError):
        PiScalar.of(QI(0, 1)).as_fraction()


def test_pi_scalar_parse_round_trip():
    for v in (
        PiScalar.of(1),
        PiScalar({-2: QI(Fraction(1, 4)), 0: QI(-1, 2)}),
        PiScalar.pi_power(3, QI(0, Fraction(-5, 3))),
    ):
        assert PiScalar.parse(v.compact()) == v
