from fractions import Fraction
from random import Random

import pytest

from ellgenus import dga
from ellgenus.dga import (
    Algebra,
    Generator,
    NotDivisible,
    ScalarModeMismatch,
    coerce,
    differential,
    divide_exact,
    exp_nilpotent,
    impose_relation,
    log_unital,
    parse_element,
    substitute,
    unit_inverse,
)
from ellgenus.qmod import QSeries, eisenstein_q
from ellgenus.scalars import QI, PiScalar


def make_algebra(trunc=8):
    """x1, x2 even degree 2; H odd degree 3 with dH = x1^2 + x2^2; K odd degree 1."""
    alg = Algebra(
        [
            Generator("x1", 2),
            Generator("x2", 2),
            Generator("H", 3),
            Generator("K", 1),
            Generator("b", 0, invertible=True),
            Generator("u", 0),
        ],
        trunc=trunc,
    )
    alg.set_differential("H", alg.gen("x1") ** 2 + alg.gen("x2") ** 2)
    return alg


def p_algebra(trunc=8):
    alg = Algebra(
        [Generator("p1", 4), Generator("p2", 8), Generator("H", 3), Generator("u", 0)],
        trunc=trunc,
    )
    alg.set_differential("H", alg.gen("p1"))
    return alg


def random_element(alg, rng, mode=dga.RATIONAL, even_only=False, max_terms=4,
                   positive_degree=False):
    out = alg.zero(mode)
    names = [
        g.name
        for g in alg.gens
        if not (even_only and g.odd)
        and not g.invertible
        and not (positive_degree and g.degree == 0)
    ]
    for _ in range(rng.randint(1, max_terms)):
        term = alg.scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), mode)
        k = rng.randint(1, min(3, len(names))) if positive_degree else rng.randint(0, min(3, len(names)))
        for name in rng.sample(names, k):
            term = term * alg.gen(name, mode)
        out = out + term
    return out


def test_odd_square_is_zero():
    alg = make_algebra()
    h = alg.gen("H")
    assert (h * h).is_zero()


def test_koszul_anticommutation():
    alg = make_algebra()
    h, k = alg.gen("H"), alg.gen("K")
    assert (h * k + k * h).is_zero()
    assert h * k == -(k * h)
    # even generators commute with everything
    x = alg.gen("x1")
    assert x * h == h * x


def test_truncation_semantics():
    alg = p_algebra(trunc=4)
    p1 = alg.gen("p1")
    one = alg.one()
    # (1 + p1)(1 - p1) = 1 - p1^2, and p1^2 has degree 8 > 4
    assert (one + p1) * (one - p1) == one


def test_scalar_mode_mismatch():
    alg = make_algebra()
    with pytest.raises(ScalarModeMismatch):
        alg.gen("x1", dga.RATIONAL) + alg.gen("x1", dga.PI)
    with pytest.raises(ScalarModeMismatch):
        alg.gen("x1", dga.QSERIES) * alg.gen("x1", dga.COMPLEX)


def test_differential_examples():
    alg = make_algebra()
    h, x1, x2 = alg.gen("H"), alg.gen("x1"), alg.gen("x2")
    p1 = x1 * x1 + x2 * x2
    assert differential(h) == p1
    assert differential(x1).is_zero()
    # Leibniz with a closed second factor: d(H x1^2) = p1 x1^2 (degree 8 <= trunc)
    assert differential(h * x1**2) == p1 * x1**2
    alg.check_differential()


def test_differential_squares_to_zero_random():
    rng = Random(3)
    # several generator rosters with different differentials
    algebras = [make_algebra()]
    alg2 = Algebra(
        [Generator("w", 2), Generator("a", 3), Generator("v", 1), Generator("c", 5)],
        trunc=10,
    )
    alg2.set_differential("a", alg2.gen("w") ** 2)
    alg2.set_differential("v", alg2.gen("w") * Fraction(3))
    algebras.append(alg2)
    alg3 = Algebra([Generator("e", 2), Generator("f", 1), Generator("h", 3)], trunc=12)
    alg3.set_differential("f", alg3.gen("e"))
    alg3.set_differential("h", alg3.gen("e") ** 2 * Fraction(-2))
    algebras.append(alg3)
    for alg in algebras:
        alg.check_differential()
        for _ in range(34):
            a = random_element(alg, rng)
            assert differential(differential(a)).is_zero()


def test_leibniz_random_homogeneous():
    rng = Random(5)
    alg = make_algebra()
    gens = ["x1", "x2", "H", "K"]
    for _ in range(60):
        na, nb = rng.choice(gens), rng.choice(gens)
        a = alg.gen(na) * Fraction(rng.randint(1, 5))
        b = alg.gen(nb) * Fraction(rng.randint(1, 5))
        sign = -1 if alg.gens[alg.index[na]].odd else 1
        lhs = differential(a * b)
        rhs = differential(a) * b + sign * (a * differential(b))
        assert lhs == rhs, (na, nb)


def test_exp_examples_and_round_trip():
    alg = p_algebra(trunc=8)
    p1, u = alg.gen("p1"), alg.gen("u")
    assert exp_nilpotent(alg.zero()) == alg.one()
    e = exp_nilpotent(p1 * u)
    assert e == alg.one() + p1 * u + p1 * p1 * u * u * Fraction(1, 2)
    rng = Random(9)
    alg2 = make_algebra(trunc=12)
    for _ in range(20):
        a = random_element(alg2, rng, even_only=True, positive_degree=True)
        assert log_unital(exp_nilpotent(a)) == a
        assert exp_nilpotent(log_unital(alg2.one() + a)) == alg2.one() + a


def test_exp_rejects_bad_input():
    alg = make_algebra()
    with pytest.raises(ValueError):
        exp_nilpotent(alg.one())  # nonzero degree-0 part
    with pytest.raises(ValueError):
        exp_nilpotent(alg.gen("H"))  # odd
    with pytest.raises(ValueError):
        log_unital(alg.gen("x1"))  # not unital


def test_exp_additivity_for_even_nilpotents():
    rng = Random(13)
    alg = make_algebra(trunc=10)
    for _ in range(10):
        a = random_element(alg, rng, even_only=True, positive_degree=True)
        b = random_element(alg, rng, even_only=True, positive_degree=True)
        assert exp_nilpotent(a + b) == exp_nilpotent(a) * exp_nilpotent(b)


def test_ring_axioms_random():
    rng = Random(17)
    alg = make_algebra()
    for _ in range(40):
        a, b, c = (random_element(alg, rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_divide_exact_examples():
    alg = p_algebra(trunc=8)
    p1, u = alg.gen("p1"), alg.gen("u")
    # (1 - exp(-p1 u)) / p1 = u - p1 u^2 / 2 at trunc 8
    q = divide_exact(alg.one() - exp_nilpotent(-p1 * u), p1)
    assert q == u - p1 * u * u * Fraction(1, 2)
    assert q * p1 == alg.one() - exp_nilpotent(-p1 * u)
    assert divide_exact(p1, p1) == alg.one()
    with pytest.raises(NotDivisible):
        divide_exact(alg.gen("H"), p1)


def test_divide_exact_polynomial_divisor():
    alg = make_algebra(trunc=8)
    p1 = alg.gen("x1") ** 2 + alg.gen("x2") ** 2
    a = p1 * (alg.one() + alg.gen("u") * p1)
    q = divide_exact(a, p1)
    assert q * p1 == a


def test_impose_relation_examples():
    alg = p_algebra(trunc=8)
    p1, p2, u = alg.gen("p1"), alg.gen("p2"), alg.gen("u")
    assert impose_relation(exp_nilpotent(p1 * u), p1) == alg.one()
    assert impose_relation(alg.one() + p2, p1) == alg.one() + p2
    assert impose_relation(p1 * p2 + p2 * p2, p1) == p2 * p2


def test_impose_relation_rewrites_polynomial_ideal():
    alg = make_algebra(trunc=8)
    x1, x2 = alg.gen("x1"), alg.gen("x2")
    p1 = x1 * x1 + x2 * x2
    # x1^2 == -x2^2 mod (p1)
    assert impose_relation(x1**2 * x2**2, p1) == -(x2**4)
    assert impose_relation(p1 * (alg.one() + x1 * x2), p1).is_zero()


def test_substitute_and_inverse_powers():
    alg = make_algebra()
    b, u, x1 = alg.gen("b"), alg.gen("u"), alg.gen("x1")
    el = x1 * b**2 + alg.one()
    out = substitute(el, {"b": b * u})
    assert out == x1 * b**2 * u**2 + alg.one()
    assert (b**-2) * b**2 == alg.one()
    assert substitute(x1 * u, {"u": alg.zero()}).is_zero()


def test_unit_inverse():
    rng = Random(21)
    alg = make_algebra(trunc=8)
    for _ in range(10):
        n = random_element(alg, rng, even_only=True)
        n = n - alg.scalar(n.unit_part())
        a = alg.one() * Fraction(rng.randint(1, 5), rng.randint(1, 3)) + n
        assert a * unit_inverse(a) == alg.one()


def test_scalar_tower_injections():
    alg = make_algebra()
    el = alg.gen("x1") * Fraction(3, 4) + alg.one()
    as_pi = el.convert(dga.PI)
    assert as_pi.coefficient(()) == PiScalar.of(1)
    assert as_pi.convert(dga.RATIONAL) == el
    as_q = el.convert(dga.QSERIES)
    assert as_q.coefficient(()) == QSeries.constant(1)
    as_c = el.convert(dga.COMPLEX)
    assert as_c.coefficient(()) == 1.0
    with pytest.raises(ScalarModeMismatch):
        as_q.convert(dga.COMPLEX)
    with pytest.raises(TypeError):
        coerce(dga.RATIONAL, 0.5)  # no implicit float -> exact


def test_render_parse_round_trip_modes():
    alg = make_algebra()
    rng = Random(33)
    # rational
    el = random_element(alg, rng)
    assert parse_element(alg, dga.RATIONAL, el.render()) == el
    # pi mode
    el = alg.gen("x1", dga.PI) * coerce(dga.PI, PiScalar.pi_power(-2, QI(0, Fraction(1, 3)))) + alg.one(dga.PI)
    assert parse_element(alg, dga.PI, el.render()) == el
    # qseries mode
    el = alg.gen("x1", dga.QSERIES) * QSeries.constant(2) * eisenstein_q(1, 4) + alg.one(dga.QSERIES)
    assert parse_element(alg, dga.QSERIES, el.render()) == el
    # canonical example shape
    alg2 = p_algebra()
    rendered = (alg2.one() + alg2.gen("p1") * alg2.gen("u") * Fraction(1, 2)).render()
    assert rendered == "(1) + (1/2)·p1·u"


ALL_MODES = list(dga.MODES)


def sample_element(alg, mode):
    """1 + c·x1 + H·b^-2 with a coefficient c that only this mode can hold."""
    c = {
        dga.RATIONAL: Fraction(-3, 7),
        dga.PI: PiScalar.pi_power(-2, QI(Fraction(1, 3), -2)),
        dga.QSERIES: eisenstein_q(1, 4) * Fraction(2, 5),
        dga.COMPLEX: complex(0.1, -2.5e-17),
    }[mode]
    return alg.one(mode) + alg.gen("x1", mode) * c + alg.gen("H", mode) * alg.gen("b", mode, -2)


@pytest.mark.parametrize("mode", ALL_MODES)
def test_render_parse_round_trip_every_mode(mode):
    alg = make_algebra()
    el = sample_element(alg, mode)
    assert parse_element(alg, mode, el.render()) == el


QI_VALUE = QI(Fraction(1, 2), -3)
PI_VALUE = PiScalar.pi_power(1, QI(2))
SERIES_VALUE = eisenstein_q(2, 3)

# (mode, value, the injected value or the exception coerce raises)
COERCE_TABLE = [
    (dga.RATIONAL, 3, Fraction(3)),
    (dga.RATIONAL, Fraction(1, 3), Fraction(1, 3)),
    (dga.RATIONAL, 0.5, TypeError),
    (dga.RATIONAL, QI_VALUE, TypeError),
    (dga.RATIONAL, SERIES_VALUE, TypeError),
    (dga.PI, Fraction(1, 3), PiScalar.of(Fraction(1, 3))),
    (dga.PI, QI_VALUE, PiScalar.of(QI_VALUE)),
    (dga.PI, PI_VALUE, PI_VALUE),
    (dga.PI, 0.5, TypeError),
    (dga.PI, 1j, TypeError),
    (dga.QSERIES, 2, QSeries.constant(2)),
    (dga.QSERIES, SERIES_VALUE, SERIES_VALUE),
    (dga.QSERIES, 0.5, TypeError),
    (dga.QSERIES, QI_VALUE, TypeError),
    (dga.COMPLEX, 0.5, 0.5 + 0j),
    (dga.COMPLEX, Fraction(1, 4), 0.25 + 0j),
    (dga.COMPLEX, QI_VALUE, QI_VALUE.to_complex()),
    (dga.COMPLEX, PI_VALUE, PI_VALUE.to_complex()),
    (dga.COMPLEX, SERIES_VALUE, TypeError),
] + [(mode, "1", TypeError) for mode in ALL_MODES]


@pytest.mark.parametrize("mode,value,expected", COERCE_TABLE)
def test_coerce_table(mode, value, expected):
    if expected is TypeError:
        with pytest.raises(TypeError):
            coerce(mode, value)
        return
    got = coerce(mode, value)
    assert got == expected and type(got) is type(expected)


def test_unknown_mode_is_a_value_error():
    with pytest.raises(ValueError):
        coerce("float", 1)
    with pytest.raises(ValueError):
        make_algebra().zero("float")


@pytest.mark.parametrize("zero,nonzero", [
    (QI(0), QI(0, 1)),
    (PiScalar(), PiScalar.pi_power(-1, QI(Fraction(1, 2)))),
    (QSeries(4, {}, 5), QSeries(4, {3: 1}, 5)),
])
def test_exact_scalars_are_falsy_exactly_at_zero(zero, nonzero):
    assert not zero and zero.is_zero()
    assert nonzero and not nonzero.is_zero()


def test_pi_to_complex_convert_is_per_coefficient_to_complex():
    alg = make_algebra()
    el = sample_element(alg, dga.PI) + alg.gen("x2", dga.PI) * QI(Fraction(-1, 3), Fraction(5, 7))
    assert el.convert(dga.COMPLEX).terms == {m: c.to_complex() for m, c in el.terms.items()}
