import cmath
import math
from fractions import Fraction
from random import Random

import pytest

from ellgenus import qmod
from ellgenus.qmod import (
    GAMMA_S,
    GAMMA_T,
    MAX_ROWS,
    MIN_COLUMNS,
    MIN_ROWS,
    ROW_DECAY,
    ROWMAJOR,
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
    weight_monomial_count,
    weight_monomials,
    z2plus_points,
    z2plus_shell,
)
from ellgenus.scalars import zeta_even_over_pi_power


def divisor_sum(power, n):
    """sigma_power(n) straight from its definition: the oracle for eisenstein_q's sieve."""
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
        series = eisenstein_q(k, 200)
        assert series.weight == 2 * k and series.order == 200
        assert series[0] == 1
        for n in range(1, 200):
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
    # an untruncated series: a null order, or none at all
    u = QSeries(4, {0: Fraction(1), 3: Fraction(2)}, None)
    assert QSeries.loads(u.dumps()) == u
    assert QSeries.from_record({"weight": 4, "min_exp": 0, "coeffs": ["1", "0", "0", "2"]}) == u


def test_qseries_render():
    assert eisenstein_q(2, 3).render() == "1 + 240 q + 2160 q^2"
    assert eisenstein_q(1, 3).render() == "1 - 24 q - 72 q^2"
    assert QSeries.zero().render() == "0"


# Integer-vector QSeries against the dict-of-Fraction oracle (tests/conftest.py).

DENOMINATORS = (1, 1, 2, 3, 4, 5, 7, 12, 691, 3617)


def _random_coeffs(rng, lo, length):
    """Mixed denominators, a share of zeros, and an occasional huge numerator."""
    coeffs = {}
    for e in range(lo, lo + length):
        if rng.random() < 0.2:
            continue
        num = rng.randint(-60, 60) * (10**30 if rng.random() < 0.1 else 1)
        coeffs[e] = Fraction(num, rng.choice(DENOMINATORS))
    return coeffs


def _random_pair(rng, fraction_qseries, weight=2):
    """The same seeded series as a QSeries and as its oracle: negative min_exp,
    order None, orders cutting into the coefficients and zero series included."""
    lo = rng.randint(-3, 3)
    length = rng.choice([0, 1, 2, 5, 9])
    coeffs = _random_coeffs(rng, lo, length)
    order = rng.choice([None, lo + length + rng.randint(-2, 3)])
    return QSeries(weight, coeffs, order), fraction_qseries(weight, coeffs, order)


def _assert_matches(series, ref):
    assert dict(series.coeffs) == ref.coeffs
    assert all(type(c) is Fraction for c in series.coeffs.values())
    assert (series.weight, series.order, series.min_exp) == (ref.weight, ref.order, ref.min_exp)
    assert series.compact() == ref.compact()
    assert series.to_record() == ref.to_record()
    assert series.render() == ref.render()
    assert hash(series) == ref.hash()
    assert bool(series) == bool(ref.coeffs)
    for q in (0.3 - 0.2j, -0.7):  # bit for bit: one rounded n/d per coefficient
        assert series.evaluate(q) == ref.evaluate(q)
    for e in range(series.min_exp - 2, series.min_exp + 12):
        if series.order is None or e < series.order:
            assert series[e] == ref.coeffs.get(e, 0)
    assert QSeries(ref.weight, ref.coeffs, ref.order) == series
    assert QSeries.parse_compact(series.compact()) == series


def test_qseries_arithmetic_matches_the_fraction_oracle(fraction_qseries):
    rng = Random(20)
    for _ in range(150):
        (a, ra), (b, rb) = _random_pair(rng, fraction_qseries), _random_pair(rng, fraction_qseries)
        _assert_matches(a, ra)
        _assert_matches(a + b, ra + rb)
        _assert_matches(a - b, ra - rb)
        _assert_matches(-a, -ra)
        _assert_matches(a * b, ra * rb)
        for c in (0, 3, -1, Fraction(-5, 12), Fraction(691, 2)):
            _assert_matches(a * c, ra * c)
            _assert_matches(c * a, ra * c)
        cut = rng.randint(-4, 10)
        _assert_matches(a.truncate(cut), ra.truncate(cut))
        if ra.coeffs:
            _assert_matches(a.inverse(), ra.inverse())


def test_qseries_equality_matches_the_fraction_oracle(fraction_qseries):
    rng = Random(21)
    pairs = [_random_pair(rng, fraction_qseries, weight=rng.choice([2, 4])) for _ in range(40)]
    pairs += [(QSeries(w, {}, n), fraction_qseries(w, {}, n)) for w, n in ((2, None), (4, 3), (0, -1))]
    pairs += [(s.truncate(s.order + 1 if s.order is not None else 4), r.truncate(
        r.order + 1 if r.order is not None else 4)) for s, r in pairs[:10]]
    for a, ra in pairs:
        for b, rb in pairs:
            expect = (not ra.coeffs and not rb.coeffs) or (
                (ra.weight, ra.coeffs, ra.order) == (rb.weight, rb.coeffs, rb.order))
            assert (a == b) == expect
            if expect:
                assert hash(a) == hash(b)


def test_qseries_normal_form_is_unique():
    # the same value reached by different routes has the same vector
    a = QSeries(2, {0: Fraction(1, 6), 1: Fraction(1, 3)}, 5) * 6
    b = QSeries(2, {0: 1, 1: 2}, 5)
    assert a == b and a._num == b._num == [1, 2] and a._den == b._den == 1
    c = QSeries(2, {0: Fraction(1, 2), 3: Fraction(1, 4)}, None) - QSeries(2, {0: Fraction(1, 2)}, None)
    assert (c.min_exp, c._num, c._den) == (3, [1], 4)


def test_qseries_is_immutable_and_coeffs_read_only():
    a = eisenstein_q(2, 4)
    with pytest.raises(AttributeError):
        a.order = 7
    with pytest.raises(TypeError):
        a.coeffs[0] = Fraction(5)
    assert a.coeffs == {0: 1, 1: 240, 2: 2160, 3: 6720}


def test_bareiss_solve_matches_fraction_gauss_jordan(fraction_solve_exact):
    rng = Random(22)
    for _ in range(60):
        ncols = rng.randint(1, 6)
        nrows = ncols + rng.randint(0, 4)
        matrix = [[rng.randint(-9, 9) * (rng.random() < 0.7) for _ in range(ncols)]
                  for _ in range(nrows)]
        x = [Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(ncols)]
        scale = math.lcm(*(v.denominator for v in x))
        rhs = [int(sum(a * v for a, v in zip(row, x)) * scale) for row in matrix]
        if rng.random() < 0.3:
            rhs[rng.randrange(nrows)] += rng.choice((-1, 1))  # usually inconsistent
        try:
            expect = fraction_solve_exact(matrix, rhs)
        except ValueError:
            with pytest.raises(NoDecomposition, match="underdetermined"):
                qmod._solve_exact(matrix, rhs)
        else:
            assert qmod._solve_exact(matrix, rhs) == expect


def test_bareiss_solve_inconsistent_and_underdetermined(fraction_solve_exact):
    assert qmod._solve_exact([[1, 1], [1, 1], [2, 2]], [1, 2, 3]) is None
    assert fraction_solve_exact([[1, 1], [1, 1], [2, 2]], [1, 2, 3]) is None
    for matrix, rhs in (([[1, 2], [2, 4], [3, 6]], [1, 2, 3]), ([[1, 2, 3]], [6]),
                        ([[0, 1], [0, 2]], [1, 2])):
        with pytest.raises(ValueError):
            fraction_solve_exact(matrix, rhs)
        with pytest.raises(NoDecomposition, match="underdetermined"):
            qmod._solve_exact(matrix, rhs)
    # a zero leading entry needs a row swap
    assert qmod._solve_exact([[0, 3], [2, 1], [4, 5]], [3, 3, 9]) == [1, 1]


def test_e_monomials_expand_each_entry_once(monkeypatch):
    calls = []
    original = qmod.eisenstein_q
    monkeypatch.setattr(qmod, "eisenstein_q", lambda k, n: calls.append(k) or original(k, n))
    table = qmod.EMonomials(7)
    e = {k: original(k, 7) for k in (1, 2, 3)}
    assert table[(1, 1, 2)] == e[1] * e[1] * e[2]
    assert table[(1, 2, 3)] == e[1] * e[2] * e[3]
    assert table[(1, 1, 2)] is table[(1, 1, 2)]
    assert table[()] == QSeries.constant(1) and table[()].order is None
    assert sorted(calls) == [1, 2, 3]
    assert set(table) == {(), (1,), (1, 1), (1, 1, 2), (1, 2), (1, 2, 3), (2,), (3,)}


def test_decompose_reads_its_columns_from_a_shared_table():
    table = qmod.EMonomials(8)
    f = table[(1, 1, 2)] * 3 + table[(2, 2)] * Fraction(-1, 7)
    dec = quasi_modular_decompose(f, table)
    assert dec.coeffs == {(2, 1, 0): 3, (0, 2, 0): Fraction(-1, 7)}
    assert dec == quasi_modular_decompose(f)
    with pytest.raises(ValueError, match="table at order 9"):
        quasi_modular_decompose(f, qmod.EMonomials(9))


# ---------------------------------------------------------------------------
# Lattice sums


def test_odd_power_lattice_sum_vanishes_exactly():
    assert lattice_partial_sum(3, 1j, ROWMAJOR, 200) == 0


def test_lattice_requires_upper_half_plane():
    with pytest.raises(ValueError):
        eisenstein_lattice(2, 1 - 1j, 10)
    with pytest.raises(ValueError):
        eisenstein_lattice(2, 1j, 0)


def test_lattice_matches_q_expansion_k2_tau_i():
    lat = eisenstein_lattice(2, 1j, 2000)
    ref = two_zeta(2) * eisenstein_q(2, 30).evaluate(math.exp(-2 * math.pi))
    assert abs(lat - ref) < 1e-6


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("tau", [1j, 2j, (1 + 5j) / 3])
def test_lattice_matches_q_expansion_grid(k, tau):
    lat = eisenstein_lattice(k, tau, 2000)
    ref = two_zeta(k) * eisenstein_q(k, 30).evaluate(cmath.exp(2j * math.pi * tau))
    assert abs(lat / two_zeta(k) - ref / two_zeta(k)) < 1e-6


def test_ordering_independence_for_k_ge_2(square_shell_sum):
    # conditional only at k=1: the square order and the row-major order agree at bound 2000
    a = square_shell_sum(4, 1j, 2000)
    b = eisenstein_lattice(2, 1j, 2000)
    assert abs(a - b) < 1e-4


def test_rowmajor_e2_at_i_is_pi():
    # fixed point of S: E2(i) = -E2(i) + 2 pi
    v = eisenstein_lattice(1, 1j, 2000)
    assert abs(v - math.pi) < 1e-4


def test_rowmajor_e2_at_i_is_pi_to_round_off():
    assert abs(eisenstein_lattice(1, 1j, 2000) - math.pi) < 1e-14


def cosecant_row(power, z):
    """sum over n in Z of (z + n)^-power in closed form (DLMF 4.22.5 and its z-derivative)."""
    csc2 = 1 / cmath.sin(math.pi * z) ** 2
    return {2: math.pi**2 * csc2, 4: math.pi**4 * (csc2**2 - 2 * csc2 / 3)}[power]


ZETA = {2: math.pi**2 / 6, 4: math.pi**4 / 90}


# One row m = 1 at tau = z: the sum is 2 (zeta(p) + row(z)).  The z with large
# Re z would put the pole in the tail without the centred window.  A bound below
# MIN_COLUMNS, where the asymptotic tail series would fail, is raised to it.
@pytest.mark.parametrize("power", [2, 4])
@pytest.mark.parametrize("z", [1j, 2.5j, 0.3 + 0.4j, -0.7 + 0.05j, 1 / 3 + 2j, 7.3 + 0.2j, -40.5 + 0.3j])
@pytest.mark.parametrize("bound", [1, 2, 3, 16, 200])
def test_tailed_row_is_the_cosecant_closed_form(power, z, bound):
    row = lattice_partial_sum(power, z, LatticeOrdering(m_range=1), bound) / 2 - ZETA[power]
    expected = cosecant_row(power, z)
    assert abs(row - expected) < 1e-13 * max(1.0, abs(expected))


# The sum is the literal partial sum (brute-force double loop) plus each row's
# two analytic tails, and it is the closed form of every row.  At these tau,
# |Re m tau| <= 1/2 for every row, so no row window is shifted.
@pytest.mark.parametrize("tau", [1j, 0.05 + 0.8j])
def test_literal_sum_and_the_analytic_tail(tau):
    rows, bound = 5, 20
    brute = sum(
        (m * tau + n) ** -2
        for m in range(-rows, rows + 1)
        for n in range(-bound, bound + 1)
        if (m, n) != (0, 0)
    )
    # row m has its tails at N + m tau and N - m tau, so every N + m tau is used twice
    tails = 2 * sum(qmod._row_tail(bound + m * tau, 2) for m in range(-rows, rows + 1))
    tailed = lattice_partial_sum(2, tau, LatticeOrdering(m_range=rows), bound)
    closed = 2 * ZETA[2] + 2 * sum(cosecant_row(2, m * tau) for m in range(1, rows + 1))
    assert abs(tailed - (brute + tails)) < 1e-13
    assert abs(tailed - closed) < 1e-13
    # to leading order each row side adds 1/bound: 2 (2 rows + 1) / bound = 1.1
    assert abs(tails - 2 * (2 * rows + 1) / bound) < 0.1


# Large powers: numpy's x^-p forms x^p first, which overflows to nan from p ~ 80.
def test_large_power_sums_are_finite():
    for k in range(40, 81):
        value = lattice_partial_sum(2 * k, 2j, ROWMAJOR, 2000)
        assert cmath.isfinite(value)
        assert abs(value / two_zeta(k) - 1) < 1e-14


def test_row_count_follows_im_tau():
    assert ROWMAJOR.effective_ranges(300, 1j) == (MIN_ROWS, 300)
    assert ROWMAJOR.effective_ranges(300, 0.5j) == (14, 300)
    assert ROWMAJOR.effective_ranges(300) == (MIN_ROWS, 300)
    assert LatticeOrdering(m_range=3, n_range=70).effective_ranges(300, 0.01j) == (3, 70)
    assert LatticeOrdering(n_range=7).effective_ranges(300) == (MIN_ROWS, MIN_COLUMNS)
    assert ROWMAJOR.effective_ranges(2, 1j) == (MIN_ROWS, MIN_COLUMNS)
    edge = ROW_DECAY / MAX_ROWS
    assert ROWMAJOR.effective_ranges(300, 1j * edge) == (MAX_ROWS, 300)


# The over-cap check comes before any row is summed: a summed row would fail here.
@pytest.mark.parametrize("im", [1e-300, 5e-324, 0.999 * ROW_DECAY / MAX_ROWS])
def test_rowmajor_rejects_an_im_tau_over_the_row_cap(monkeypatch, im):
    def no_rows(*args):
        raise AssertionError("rows were summed")

    monkeypatch.setattr(qmod, "_row_sums", no_rows)
    with pytest.raises(ValueError, match=f"more than {MAX_ROWS} row-major rows"):
        eisenstein_lattice(1, 0.25 + 1j * im, 2000)


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


E2_POINTS = [2j, 1j, 1 / 3 + 2j, -0.3 + 1.2j]


@pytest.mark.parametrize("gamma", [GAMMA_T, GAMMA_S], ids=["T", "S"])
@pytest.mark.parametrize("tau", E2_POINTS)
def test_e2_transform_residuals_to_round_off(gamma, tau):
    assert abs(transform_residual(1, gamma, tau, 2000)) < 1e-13


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("tau", E2_POINTS)
def test_rowmajor_matches_q_expansion(k, tau):
    lat = eisenstein_lattice(k, tau, 2000)
    ref = two_zeta(k) * eisenstein_q(k, 30).evaluate(cmath.exp(2j * math.pi * tau))
    assert abs(lat - ref) < 1e-13 * max(1.0, abs(ref))


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


def test_weight_monomial_count_is_the_closed_form():
    for weight in range(-3, 200):
        assert weight_monomial_count(weight) == len(weight_monomials(weight))


def test_decompose_checks_the_order_before_the_zero_shortcut():
    # a series with no valid coefficient has nothing to decompose
    for f in (QSeries(4, {}, 0), QSeries(4, {5: 1, 6: 2}, 3)):
        with pytest.raises(ValueError, match="too small"):
            quasi_modular_decompose(f)
    with pytest.raises(NoDecomposition, match="definite order"):
        quasi_modular_decompose(QSeries.zero(4))
    # a zero series of sufficient order is the zero polynomial
    assert quasi_modular_decompose(QSeries(4, {}, 5)).coeffs == {}
    assert quasi_modular_decompose(QSeries(4, {9: 1}, 5)).coeffs == {}


def test_decompose_checks_the_order_before_listing_monomials():
    with pytest.raises(ValueError, match="need >= 20833583336"):
        quasi_modular_decompose(QSeries(10**6, {0: 1}, 10))


def test_e2_detection():
    dec = quasi_modular_decompose(eisenstein_q(1, 4) * eisenstein_q(1, 4))
    assert dec.coeffs.get((2, 0, 0)) == 1
    assert not dec.is_modular
    assert dec.e2_part == {(2, 0, 0): Fraction(1)}
