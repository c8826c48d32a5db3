import math
from fractions import Fraction
from random import Random

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


def random_part(rng):
    """A Fraction that is zero, a small signed int or fraction, or huge in either part."""
    kind = rng.randrange(5)
    if kind == 0:
        return Fraction(0)
    if kind == 1:
        return Fraction(rng.randint(-9, 9))
    if kind == 2:
        return Fraction(rng.randint(-50, 50), rng.randint(1, 60))
    if kind == 3:
        return Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**30))
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**6), rng.randint(10**20, 10**40))


def assert_same(got, want):
    """got (a QI) and want (a FractionQI) are the same number, and got is in normal form."""
    assert type(got) is QI and type(got.re) is Fraction and type(got.im) is Fraction
    assert (got.re, got.im) == (want.re, want.im)
    assert got.d > 0 and math.gcd(got.a, got.b, got.d) == 1


def triple(q):
    return q.a, q.b, q.d


def test_qi_matches_the_fraction_pair_oracle_on_random_pairs(fraction_qi):
    rng = Random("qi-oracle")
    for _ in range(2000):
        parts = [random_part(rng) for _ in range(4)]
        x, y = QI(*parts[:2]), QI(*parts[2:])
        ox, oy = fraction_qi(*parts[:2]), fraction_qi(*parts[2:])
        assert_same(x, ox)
        n = rng.choice((0, 3, -7, Fraction(-5, 6)))
        for got, want in ((x + y, ox + oy), (x - y, ox - oy), (x * y, ox * oy), (-x, -ox),
                          (x + n, ox + n), (n - x, n - ox), (n * x, n * ox)):
            assert_same(got, want)
        assert_same(x**3, ox**3)
        if oy:
            for got, want in ((y.inverse(), oy.inverse()), (x / y, ox / oy), (y**-2, oy**-2)):
                assert_same(got, want)
            assert triple(x * y / y) == triple(x)
        else:
            for fail in (y.inverse, lambda: x / y, lambda: y**-1):
                with pytest.raises(ZeroDivisionError):
                    fail()
        assert (x == y) == (ox == oy) and (x == n) == (ox == n)
        assert bool(x) == bool(ox) and x.is_zero() == ox.is_zero()
        assert hash(x) == hash(ox)
        assert x.compact() == ox.compact() and repr(x) == repr(ox).replace("FractionQI", "QI")
        assert repr(x.to_complex()) == repr(ox.to_complex())  # signed zeros too
        # equal values built by different routes share one (a, b, d)
        assert triple(QI.parse(x.compact())) == triple(x)
        assert triple(x + y - y) == triple(x) == triple(QI(x.re, x.im))
        assert triple(QI(x.re) + QI(0, x.im)) == triple(x)


def test_qi_to_complex_keeps_the_signed_zeros_of_underflowing_parts(fraction_qi):
    tiny = Fraction(1, 10**400)
    for re, im in ((-tiny, 1), (-tiny, -1), (1, -tiny), (-tiny, -tiny), (0, 0)):
        assert repr(QI(re, im).to_complex()) == repr(fraction_qi(re, im).to_complex())


def test_qi_from_ints_builds_no_fraction(monkeypatch):
    import ellgenus.scalars as scalars

    def no_fraction(*args):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(scalars, "Fraction", no_fraction)
    x = QI(3, -2) + QI.of(4) * QI(0, 1)
    assert triple(x.inverse() * x) == (1, 0, 1) and triple(-x) == (-3, -2, 1)


def test_qi_is_immutable():
    x = QI(Fraction(1, 2), 3)
    for name in ("a", "b", "d", "re", "im"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)


def test_pi_scalar_cancellation_leaves_no_key():
    x = PiScalar({2: QI(1, 2), 0: QI(3)})
    assert (x + PiScalar({2: QI(-1, -2)})).coeffs == {0: QI(3)}
    assert (x - x).coeffs == {} and not (x - x)
    one, pi = PiScalar.of(1), PiScalar.pi_power(1)
    assert list(((pi + one) * (pi - one)).coeffs) == [2, 0]  # the pi^1 terms cancel
