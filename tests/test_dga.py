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
    parse_element,
    substitute,
    unit_inverse,
)
from ellgenus.geom import ChernRootModel
from ellgenus.qmod import QSeries, WeightMismatch, eisenstein_q
from ellgenus.scalars import QI, PiScalar


def make_algebra(trunc=8):
    """x1, x2 even degree 2; H odd degree 3 with dH = x1^2 + x2^2; K odd degree 1."""
    alg = Algebra(
        [
            Generator("x1", 2),
            Generator("x2", 2),
            Generator("H", 3),
            Generator("K", 1),
            Generator("b", 0),
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


def alg2():
    """Odd a, v, c after the even w: da = w^2, dv = 3w."""
    alg = Algebra(
        [Generator("w", 2), Generator("a", 3), Generator("v", 1), Generator("c", 5)],
        trunc=10,
    )
    alg.set_differential("a", alg.gen("w") ** 2)
    alg.set_differential("v", alg.gen("w") * Fraction(3))
    return alg


def alg3():
    """Odd f and h after the even e: df = e, dh = -2e^2."""
    alg = Algebra([Generator("e", 2), Generator("f", 1), Generator("h", 3)], trunc=12)
    alg.set_differential("f", alg.gen("e"))
    alg.set_differential("h", alg.gen("e") ** 2 * Fraction(-2))
    return alg


def odd_image_algebra():
    """An even generator with an odd differential after a closed odd one:
    ds = t and dy = z, with odd r before s and odd t, y between s and z."""
    alg = Algebra([Generator("r", 1), Generator("s", 2), Generator("t", 3), Generator("y", 1),
                   Generator("z", 2)], trunc=10)
    alg.set_differential("s", alg.gen("t"))
    alg.set_differential("y", alg.gen("z"))
    return alg


def test_differential_squares_to_zero_random():
    rng = Random(3)
    # several generator rosters with different differentials
    algebras = [make_algebra(), alg2(), alg3()]
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


def test_exp_examples_and_round_trip(log_unital):
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


def test_exp_rejects_bad_input(log_unital):
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


def test_element_keeps_monomials_canonical():
    """An exponent below 1 or a generator repeated in one monomial is a ValueError;
    only a form degree past the truncation drops a monomial silently."""
    alg = ChernRootModel(1, 8).algebra
    with pytest.raises(ValueError, match="invalid monomial"):
        alg.gen("x1", power=-1)
    for text in ("(3)·x1^0", "(1)·x1·x1", "(1)·H·H"):
        with pytest.raises(ValueError, match="invalid monomial"):
            parse_element(alg, dga.RATIONAL, text)
    assert parse_element(alg, dga.RATIONAL, "(1)·x1^2") == alg.gen("x1") ** 2
    assert alg.gen("x1", power=5).is_zero()  # form degree 10 > 8


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
    assert (alg.one() + x1) ** -2 * (alg.one() + x1) ** 2 == alg.one()
    with pytest.raises(ZeroDivisionError):
        b**-2  # a negative power needs a unit
    assert substitute(x1 * u, {"u": alg.zero()}).is_zero()


def test_unit_inverse():
    rng = Random(21)
    alg = make_algebra(trunc=8)
    for _ in range(10):
        n = random_element(alg, rng, even_only=True)
        # drop every form-degree-0 monomial (scalars, u, b, u*b), keeping u*x1 and b*x1
        n = alg.element({m: c for m, c in n.terms.items() if alg.form_degree(m)})
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
    """1 + c·x1 + H·b^2 with a coefficient c that only this mode can hold."""
    c = {
        dga.RATIONAL: Fraction(-3, 7),
        dga.PI: PiScalar.pi_power(-2, QI(Fraction(1, 3), -2)),
        dga.QSERIES: eisenstein_q(1, 4) * Fraction(2, 5),
        dga.COMPLEX: complex(0.1, -2.5e-17),
    }[mode]
    return alg.one(mode) + alg.gen("x1", mode) * c + alg.gen("H", mode) * alg.gen("b", mode, 2)


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


# ---------------------------------------------------------------------------
# The product kernel against the monomial-by-monomial oracle


def _mono_mul(alg, ma, mb):
    """(sign, merged monomial) or None when zero / truncated away: the direct route."""
    odd_a = [i for i, e in ma if alg.gens[i].odd]
    odd_b = [i for i, e in mb if alg.gens[i].odd]
    if set(odd_a) & set(odd_b):
        return None  # odd generator squared
    sign = 1
    for y in odd_b:
        sign *= (-1) ** sum(1 for x in odd_a if x > y)
    merged = dict(ma)
    for i, e in mb:
        merged[i] = merged.get(i, 0) + e
    mono = tuple(sorted(merged.items()))
    if alg.form_degree(mono) > alg.trunc:
        return None
    return sign, mono


def _oracle_product(a, b):
    """a * b summed pair by pair from the oracle, in the order of the two factors' terms."""
    out = {}
    zero = dga._ZERO[a.mode]
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            hit = _mono_mul(a.algebra, ma, mb)
            if hit is None:
                continue
            sign, mono = hit
            v = ca * cb
            if sign < 0:
                v = -v
            s = out.get(mono, zero) + v
            if not s:
                out.pop(mono, None)
            else:
                out[mono] = s
    return out


def kernel_algebra(trunc=9):
    """Odd generators of degrees 1 and 3 interleaved with even ones, two of degree 0."""
    return Algebra(
        [
            Generator("a", 1), Generator("b", 0), Generator("c", 3),
            Generator("d", 2), Generator("e", 1), Generator("f", 0),
            Generator("g", 3), Generator("h", 4), Generator("k", 1),
        ],
        trunc=trunc,
    )


def random_monomial(alg, rng):
    """A canonical monomial of form degree <= trunc."""
    while True:
        mono = []
        for i in sorted(rng.sample(range(len(alg.gens)), rng.randint(0, min(4, len(alg.gens))))):
            g = alg.gens[i]
            e = 1 if g.odd else rng.randint(1, 2)
            mono.append((i, e))
        mono = tuple(mono)
        if alg.form_degree(mono) <= alg.trunc:
            return mono


def test_product_matches_the_oracle_on_random_monomials():
    alg = kernel_algebra()
    rng = Random(20240611)
    seen = {"kept": 0, "dropped": 0, "negative": 0}
    for _ in range(3000):
        ma, mb = random_monomial(alg, rng), random_monomial(alg, rng)
        got = alg.element({ma: 1}) * alg.element({mb: 1})
        hit = _mono_mul(alg, ma, mb)
        if hit is None:
            seen["dropped"] += 1
            assert got.is_zero()
            continue
        sign, mono = hit
        assert got.terms == {mono: Fraction(sign)}
        seen["kept"] += 1
        seen["negative"] += sign < 0
    assert min(seen.values()) > 20, seen  # every branch of the kernel was exercised


def test_koszul_sign_at_every_pair_of_odd_positions():
    alg = kernel_algebra(trunc=12)
    odd = [g.name for g in alg.gens if g.odd]
    for x in odd:
        for y in odd:
            gx, gy = alg.gen(x), alg.gen(y)
            if x == y:
                assert (gx * gy).is_zero()
                continue
            ((mono, c),) = (gx * gy).terms.items()
            assert (c, mono) == _mono_mul(alg, ((alg.index[x], 1),), ((alg.index[y], 1),))
            assert c == (1 if x < y else -1)
            assert gx * gy == -(gy * gx)
    # several odd generators on each side: (sorted factor) * (sorted factor) -> sign
    acg = alg.gen("a") * alg.gen("c") * alg.gen("g")  # indices 0, 2, 6
    for right, sign in (("e", -1), ("k", 1), ("ek", -1)):
        factor = alg.one()
        for name in right:
            factor = factor * alg.gen(name)
        (c,) = (acg * factor).terms.values()
        assert c == sign
    (c,) = (alg.gen("e") * acg).terms.values()
    assert c == 1  # e passes a and c


def test_degree_exactly_trunc_is_kept_and_trunc_plus_one_dropped():
    alg = kernel_algebra(trunc=9)
    h, d, c, k = (alg.gen(n) for n in "hdck")
    assert alg.form_degree(next(iter((h * d * c).terms))) == 9
    assert not ((h * d) * c).is_zero()  # 6 + 3 = 9
    assert ((h * d) * (c * k)).is_zero()  # 6 + 4 = 10
    assert not ((h * h) * (k * alg.gen("b"))).is_zero()  # 8 + 1, a degree-0 factor
    assert ((h * h) * (d * alg.gen("f"))).is_zero()  # 8 + 2


def random_scalar(rng, mode):
    def q():
        return Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 5))

    return {
        dga.RATIONAL: q,
        dga.PI: lambda: PiScalar.pi_power(rng.randint(-2, 2), QI(q(), q())),
        dga.QSERIES: lambda: QSeries(2, {0: q(), 1: q(), 3: q()}, 4),
        dga.COMPLEX: lambda: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
    }[mode]()


@pytest.mark.parametrize("mode", ALL_MODES)
def test_element_product_equals_the_oracle_sum_in_every_mode(mode):
    """Same terms, same coefficients, same insertion order: complex floats compare with ==."""
    alg = make_algebra(trunc=8)
    rng = Random(f"kernel:{mode}")
    for _ in range(40):
        a, b = (
            dga.Element(alg, mode, {random_monomial(alg, rng): random_scalar(rng, mode)
                                    for _ in range(rng.randint(1, 12))})
            for _ in range(2)
        )
        assert list((a * b).terms.items()) == list(_oracle_product(a, b).items())


def test_monomial_table_belongs_to_its_algebra():
    low, high = kernel_algebra(trunc=4), kernel_algebra(trunc=9)
    assert low._mono_table is not high._mono_table
    hd = ((high.index["d"], 1), (high.index["h"], 1))
    assert (low.gen("d") * low.gen("h")).is_zero()  # 6 > 4
    assert (high.gen("d") * high.gen("h")).terms == {hd: 1}
    assert high.mono_info(hd) == (6, 0)
    assert hd in high._mono_table and hd not in low._mono_table
    ac = ((high.index["a"], 1), (high.index["c"], 1))
    assert high.mono_info(ac) == (4, 0b101)  # a and c are odd generators 0 and 2
    assert ac not in low._mono_table


# Complex scalars whose inverse carries a signed zero, an infinity or an
# underflow: there 1 * cinv differs from cinv in its bits, so the scalar-only
# path of unit_inverse must still return 1 * cinv, as the series does.
EDGE_COMPLEX_UNITS = [1e300 + 1j, -1 + 1e300j, 5e-324 + 0j, 5e-324 + 5e-324j, 2 + 0j, -0.5j]


@pytest.mark.parametrize("mode", ALL_MODES)
def test_unit_inverse_of_a_scalar_matches_the_series(series_unit_inverse, mode):
    """Same terms and digits as the geometric series, scalar or not."""
    alg = make_algebra(trunc=8)
    rng = Random(f"unit-inverse:{mode}")
    compact = dga.MODES[mode].compact
    values = [random_scalar(rng, mode) for _ in range(20)]
    if mode == dga.QSERIES:  # weight 0, as the nilpotents' coefficients are
        values = [QSeries(0, c.coeffs, c.order) for c in values]
    if mode == dga.COMPLEX:
        values += EDGE_COMPLEX_UNITS
    for c in values:
        nilpotent = random_element(alg, rng, mode, even_only=True, positive_degree=True)
        for a in (alg.scalar(c, mode), alg.scalar(c, mode) + nilpotent):
            got, expect = unit_inverse(a), series_unit_inverse(a)
            assert [(m, compact(v)) for m, v in got.terms.items()] == [
                (m, compact(v)) for m, v in expect.terms.items()]


# ---------------------------------------------------------------------------
# Algebra.sum against the left fold of +, and the shared division loop


def _fold(alg, pieces, mode):
    out = alg.zero(mode)
    for piece in pieces:
        out = out + piece
    return out


def _random_pieces(alg, rng, mode, count):
    return [
        dga.Element(alg, mode, {random_monomial(alg, rng): random_scalar(rng, mode)
                                for _ in range(rng.randint(0, 6))})
        for _ in range(count)
    ]


@pytest.mark.parametrize("mode", ALL_MODES)
def test_sum_equals_the_left_fold_of_add_in_every_mode(mode):
    """Same terms, same coefficients, same insertion order: complex floats compare with ==."""
    alg = make_algebra(trunc=8)
    rng = Random(f"sum:{mode}")
    for _ in range(30):
        pieces = _random_pieces(alg, rng, mode, rng.randint(1, 8))
        pieces += [-p for p in rng.sample(pieces, len(pieces) // 2)]  # some cancel
        got = alg.sum(pieces, mode)
        assert (got.algebra, got.mode) == (alg, mode)
        assert list(got.terms.items()) == list(_fold(alg, pieces, mode).terms.items())


def test_sum_moves_a_cancelled_monomial_that_returns_to_the_end():
    alg = make_algebra()
    x1, x2, u = alg.gen("x1"), alg.gen("x2"), alg.gen("u")
    pieces = [x1 * 2, x2, -x1 * 2, u, x1 * 3]
    got = alg.sum(pieces)
    assert list(got.terms) == [((alg.index["x2"], 1),), ((alg.index["u"], 1),),
                               ((alg.index["x1"], 1),)]
    assert list(got.terms.items()) == list(_fold(alg, pieces, dga.RATIONAL).terms.items())


@pytest.mark.parametrize("mode", ALL_MODES)
def test_sum_of_nothing_is_the_zero_of_the_mode(mode):
    alg = make_algebra()
    got = alg.sum(iter(()), mode)
    assert got.terms == {} and got.mode == mode and got == alg.zero(mode)


def test_sum_rejects_the_pieces_that_add_rejects():
    alg, other = make_algebra(), make_algebra()
    foreign = other.gen("x1")
    with pytest.raises(ValueError, match="different algebras"):
        alg.gen("x2") + foreign
    with pytest.raises(ValueError, match="different algebras"):
        alg.sum([alg.gen("x2"), foreign])
    wrong_mode = alg.gen("x1", dga.PI)
    with pytest.raises(ScalarModeMismatch):
        alg.gen("x2") + wrong_mode
    with pytest.raises(ScalarModeMismatch):
        alg.sum([alg.gen("x2"), wrong_mode])


@pytest.mark.parametrize("mode", [dga.RATIONAL, dga.PI])
def test_divide_returns_quotient_and_reduced_remainder(mode, lex_max_divide):
    """a == q*g + r, the lead monomial of g divides no monomial of r, and q and r
    match the lex-max scan oracle term for term, in insertion order."""
    alg = make_algebra(trunc=8)
    rng = Random(f"divide:{mode}")
    x1, x2, u = (alg.gen(n, mode) for n in ("x1", "x2", "u"))
    for _ in range(30):
        c1, c2, c3 = (random_scalar(rng, mode) for _ in range(3))
        g = x1 * x1 * c1 + x2 * x2 * c2 + x1 * x2 * u * c3
        lead = dga._lex_max(alg, g.terms)  # u·x1·x2: the exponent of u decides first
        a = dga.Element(alg, mode, {random_monomial(alg, rng): random_scalar(rng, mode)
                                    for _ in range(rng.randint(0, 10))})
        for a in (a, a * g, a * g + x2 * u):
            q, r = dga._divide(a, g)
            oq, orem = lex_max_divide(a, g)
            assert list(q.terms.items()) == list(oq.terms.items())
            assert list(r.terms.items()) == list(orem.terms.items())
            assert q * g + r == a
            assert all(dga._mono_divides(lead, m) is None for m in r.terms)
            assert impose_relation(a, g) == r


def test_divide_matches_the_lex_max_scan_on_the_anomaly_division(lex_max_divide):
    """The anomaly primitive's division at (r, dim) = (5, 20), and the same
    dividend times the odd generator H plus an H-free rest, against the oracle."""
    model = ChernRootModel(5, 20)
    alg, p1 = model.algebra, model.p1()
    exponent = -p1 * model.beta() ** 2 * alg.gen("u") * Fraction(1, 2)
    a = alg.one() - exp_nilpotent(exponent)
    for a in (a, alg.gen("H") * a + model.roots()[0] ** 3):
        (q, r), want = dga._divide(a, p1), lex_max_divide(a, p1)
        for x, y in zip((q, r), want):
            assert list(x.terms.items()) == list(y.terms.items())
        assert q * p1 + r == a


def test_divide_exact_names_the_first_remainder_monomial():
    alg = p_algebra(trunc=8)
    with pytest.raises(NotDivisible) as info:
        divide_exact(alg.gen("H"), alg.gen("p1"))
    assert str(info.value) == f"term {((alg.index['H'], 1),)} lacks the divisor factor"
    # u·x1^2 is divisible; subtracting u·p1 leaves u·x2^2 and x1·x2, neither
    # divisible by x1^2; u·x2^2 is the lex-larger one, so it is met first
    alg = make_algebra(trunc=8)
    x1, x2, u = alg.gen("x1"), alg.gen("x2"), alg.gen("u")
    with pytest.raises(NotDivisible) as info:
        divide_exact(u * x1**2 + x1 * x2, x1**2 + x2**2)
    mono = ((alg.index["u"], 1), (alg.index["x2"], 2))
    assert str(info.value) == f"term {mono} lacks the divisor factor"


# ---------------------------------------------------------------------------
# substitute and differential against their term-by-term oracles


ORACLE_MODES = [dga.RATIONAL, dga.PI, dga.QSERIES]


def weight_zero_scalar(rng, mode):
    """A random scalar; in qseries mode of weight 0, so products of any degree add."""
    c = random_scalar(rng, mode)
    return QSeries(0, c.coeffs, c.order) if mode == dga.QSERIES else c


def random_sparse_element(alg, rng, mode, most=6):
    return dga.Element(alg, mode, {random_monomial(alg, rng): weight_zero_scalar(rng, mode)
                                   for _ in range(rng.randint(0, most))})


def random_image(alg, rng, mode, name):
    """Zero, a scalar, one monomial (odd generators allowed), or several terms."""
    kind = rng.choice(["zero", "scalar", "monomial", "terms"])
    if kind == "zero":
        return alg.zero(mode)
    if kind == "scalar":
        return weight_zero_scalar(rng, mode)
    return random_sparse_element(alg, rng, mode, most=1 if kind == "monomial" else 3)


def outcome(fn, *args):
    """The terms in insertion order, or the type of the exception raised."""
    try:
        return list(fn(*args).terms.items())
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)


@pytest.mark.parametrize("mode", ORACLE_MODES)
@pytest.mark.parametrize("make", [make_algebra, alg2, alg3, kernel_algebra])
def test_substitute_matches_the_term_by_term_oracle(term_by_term_substitute, make, mode):
    """Same terms in the same insertion order, or the same exception type."""
    alg = make()
    rng = Random(f"substitute:{make.__name__}:{mode}")
    even = [g.name for g in alg.gens if not g.odd]
    raised = 0
    for _ in range(40):
        a = random_sparse_element(alg, rng, mode, most=8)
        images = {name: random_image(alg, rng, mode, name)
                  for name in rng.sample(even, rng.randint(1, len(even)))}
        got = outcome(substitute, a, images)
        assert got == outcome(term_by_term_substitute, a, images), (a, images)
        raised += isinstance(got, type)
    assert raised < 40


@pytest.mark.parametrize("mode", ORACLE_MODES)
@pytest.mark.parametrize("make", [make_algebra, alg2, alg3, odd_image_algebra])
def test_differential_matches_the_term_by_term_oracle(term_by_term_differential, make, mode):
    alg = make()
    alg.check_differential()
    rng = Random(f"differential:{make.__name__}:{mode}")
    for _ in range(40):
        a = random_sparse_element(alg, rng, mode, most=8)
        assert differential(a).terms == term_by_term_differential(a).terms, a


def test_substitute_raises_what_the_oracle_raises(term_by_term_substitute):
    """A power of an image whose q-series weights clash is a WeightMismatch, unless an
    earlier factor of the term already vanished; an odd generator takes no image."""
    alg = kernel_algebra()
    mode = dga.QSERIES
    b, d, f = (alg.gen(name, mode) for name in "bdf")
    i = alg.index["d"]
    # weights 0, 2, 2: the d^2 term of its square adds weight 2 to weight 4
    clash = dga.Element(alg, mode, {(): QSeries.constant(1), ((i, 1),): eisenstein_q(1, 3),
                                    ((i, 2),): eisenstein_q(1, 3)})
    term = b * d * f**2
    for images, want in [({"f": clash}, WeightMismatch), ({"d": 0, "f": clash}, []),
                         ({"b": d**2, "d": d**3, "f": clash}, []),  # d^5 is truncated away
                         ({"b": d, "d": d**3, "f": clash}, WeightMismatch)]:
        got = outcome(substitute, term, images)
        assert got == outcome(term_by_term_substitute, term, images) == want
    for sub in (substitute, term_by_term_substitute):
        with pytest.raises(ValueError, match="even generators only"):
            sub(d, {"a": d})


def test_d_image_is_converted_once_per_mode():
    alg = make_algebra()
    h = alg.index["H"]
    first = alg.d_image(h, dga.QSERIES)
    assert alg.d_image(h, dga.QSERIES) is first
    assert first == alg.d_image(h, dga.RATIONAL).convert(dga.QSERIES)
    alg.set_differential("H", alg.gen("x1") ** 2)
    assert alg.d_image(h, dga.QSERIES) == alg.gen("x1", dga.QSERIES) ** 2
