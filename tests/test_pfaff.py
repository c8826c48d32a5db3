import math
import sys
from fractions import Fraction
from random import Random
from types import SimpleNamespace

import numpy as np
import pytest

from ellgenus import dga
from ellgenus.dga import Algebra, Generator, unit_inverse
from ellgenus.geom import ChernRootModel
from ellgenus.pfaff import (
    BlockIndex,
    _paired_skew_block,
    _pf_matchings,
    _zero_block_pfaffian,
    a_hat_class,
    a_hat_mode_matrix,
    a_hat_product,
    block_norm_pfaffian,
    determinant,
    normalized_block_matrix,
    pfaffian,
    product_exponential_form,
    regularized_product,
    root_entries,
    shell_products,
)
from ellgenus.qmod import z2plus_points, z2plus_shell
from ellgenus.scalars import QI, bernoulli


SCALAR_ALG = Algebra([Generator("t", 2)], trunc=2)


def scal(v):
    return SCALAR_ALG.scalar(Fraction(v))


def rand_skew(rng, n):
    m = [[scal(0) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            m[i][j] = scal(v)
            m[j][i] = scal(-v)
    return m


def rand_mat(rng, n):
    return [
        [scal(Fraction(rng.randint(-9, 9), rng.randint(1, 5))) for _ in range(n)]
        for _ in range(n)
    ]


def brute_pfaffian(m):
    """Independent oracle: sum over perfect matchings via permutations."""
    from itertools import permutations

    n = len(m)
    seen = set()
    total = SCALAR_ALG.zero()
    for perm in permutations(range(n)):
        pairs = tuple(sorted(tuple(sorted((perm[2 * i], perm[2 * i + 1]))) for i in range(n // 2)))
        if pairs in seen or any(a == b for a, b in pairs):
            continue
        seen.add(pairs)
        flat = [x for p in pairs for x in p]
        sign = _perm_sign(flat)
        term = SCALAR_ALG.one()
        for a, b in pairs:
            term = term * m[a][b]
        total = total + term * sign
    return total


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def test_pfaffian_2x2():
    a = Fraction(5, 3)
    m = [[scal(0), scal(a)], [scal(-a), scal(0)]]
    assert pfaffian(m) == scal(a)


def test_pfaffian_rejects_bad_matrices():
    with pytest.raises(ValueError):
        pfaffian([[scal(1)]])
    with pytest.raises(ValueError):
        pfaffian([[scal(0), scal(1)], [scal(1), scal(0)]])


def test_pfaffian_against_matching_oracle():
    rng = Random(2)
    for n in (2, 4, 6):
        for _ in range(3):
            m = rand_skew(rng, n)
            assert pfaffian(m) == brute_pfaffian(m)


def test_block_diagonal_multiplicativity():
    a, b = Fraction(3), Fraction(-7, 2)
    z = scal(0)
    m = [
        [z, scal(a), z, z],
        [scal(-a), z, z, z],
        [z, z, z, scal(b)],
        [z, z, scal(-b), z],
    ]
    assert pfaffian(m) == scal(a * b)


def test_pfaffian_squared_is_determinant():
    rng = Random(7)
    for n in (2, 4, 6, 8):
        for _ in range(4):
            m = rand_skew(rng, n)
            pf = pfaffian(m)
            assert pf * pf == determinant(m)


def test_pfaffian_block_antidiagonal_law():
    rng = Random(11)
    for d in (1, 2, 3, 4):
        A = rand_mat(rng, d)
        z = scal(0)
        top = [[z] * d + A[i] for i in range(d)]
        bottom = [[-A[j][i] for j in range(d)] + [z] * d for i in range(d)]
        sign = (-1) ** (d * (d - 1) // 2)
        assert pfaffian(top + bottom) == determinant(A) * sign


def test_pfaffian_congruence():
    rng = Random(13)
    for n in (2, 4):
        M = rand_skew(rng, n)
        G = rand_mat(rng, n)
        gtmg = [
            [
                sum(
                    (G[k][i] * M[k][l] * G[l][j] for k in range(n) for l in range(n)),
                    start=SCALAR_ALG.zero(),
                )
                for j in range(n)
            ]
            for i in range(n)
        ]
        assert pfaffian(gtmg) == determinant(G) * pfaffian(M)


def test_large_skew_pfaffians(unkeyed_pfaffian):
    rng = Random(17)
    m = rand_skew(rng, 10)
    pf = pfaffian(m)
    assert pf == unkeyed_pfaffian(m)  # sign-sensitive
    assert pf * pf == determinant(m)
    m12 = rand_skew(rng, 12)
    assert pfaffian(m12) * pfaffian(m12) == determinant(m12)


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_large_paired_block_is_a_determinant():
    """The 80 x 80 paired block at r = 20: Pf [[0, A], [-A^T, 0]] = det A (40 x 40).

    It has 2^20 perfect matchings with nonzero terms; keyed sub-Pfaffians make it
    O(r) work.  Its 40 levels of pairings take no stack: the CLI admits paired
    blocks past the recursion limit (1008 x 1008 at --roots 252 --dim 4)."""
    model = ChernRootModel(20, 4)
    paired = _paired_skew_block((1, 0), model, QI(Fraction(-3, 10), Fraction(6, 5)), dga.PI)
    a = [row[40:] for row in paired[:40]]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 40)
    try:
        pf = pfaffian(paired)
    finally:
        sys.setrecursionlimit(limit)
    assert pf == determinant(a)  # sign (-1)^(40 * 39 / 2) = 1


def test_determinant_singular_and_nilpotent():
    z = scal(0)
    assert determinant([[scal(1), scal(2)], [scal(2), scal(4)]]).is_zero()
    # no unit pivot anywhere: Laplace fallback
    t = SCALAR_ALG.gen("t")
    m = [[t, z], [z, t]]
    assert determinant(m) == t * t


# ---------------------------------------------------------------------------
# Normalized torus blocks


def test_block_index_invariant():
    BlockIndex(1, 0)
    BlockIndex(-3, -1)
    with pytest.raises(ValueError):
        BlockIndex(-1, 0)
    with pytest.raises(ValueError):
        BlockIndex(1, 1)


def test_block_r0_is_one():
    m = ChernRootModel(0, 0)
    assert block_norm_pfaffian((1, 0), m, QI(0, 2), dga.PI) == m.algebra.one(dga.PI)


def test_block_value_and_dual_route():
    # (n, m) = (1, 0), tau = 2i: det(Id + beta R/(2 pi i tau)) = 1 + b^2 x^2/4
    m = ChernRootModel(1, 4)
    v = block_norm_pfaffian(BlockIndex(1, 0), m, QI(0, 2), dga.PI)
    b, x = m.beta(dga.PI), m.roots(dga.PI)[0]
    assert v == m.algebra.one(dga.PI) + b * b * x * x * dga.coerce(dga.PI, QI(Fraction(1, 4)))


# Oracle: the generic Pfaffian of the paired block built with zero roots.
@pytest.mark.parametrize("mode", [dga.PI, dga.COMPLEX])
@pytest.mark.parametrize("idx", [(1, 0), (0, -1), (2, -1), (-3, -2)])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_zero_block_pfaffian_closed_form(r, idx, mode):
    model = ChernRootModel(r, 4)
    alg = model.algebra
    zero_roots = SimpleNamespace(algebra=alg, r=r, beta=model.beta,
                                 roots=lambda m: [alg.zero(m)] * r)
    tau = QI(Fraction(1, 4), Fraction(3, 2))
    if mode == dga.COMPLEX:
        tau = tau.to_complex()
    generic = pfaffian(_paired_skew_block(idx, zero_roots, tau, mode))
    closed = _zero_block_pfaffian(idx, r, tau, mode)
    if mode == dga.PI:
        assert generic == alg.scalar(closed, mode)
    else:
        assert set(generic.terms) == {()}
        assert generic.terms[()] == pytest.approx(closed, rel=1e-12)


def test_block_trace_log_expansion_oracle():
    # log det(Id + W) = -sum_k (b x)^{2k} / (k (n tau - m)^{2k}) for one root
    m = ChernRootModel(1, 8)
    n_, m_ = 1, -2
    tau = QI(0, 2)
    v = block_norm_pfaffian((n_, m_), m, tau, dga.PI)
    z = QI(n_) * tau - QI(m_)
    b, x = m.beta(dga.PI), m.roots(dga.PI)[0]
    arg = m.algebra.zero(dga.PI)
    for k in (1, 2):
        arg = arg + (b * x) ** (2 * k) * dga.coerce(
            dga.PI, z ** (-2 * k) * QI(Fraction(-1, k))
        )
    assert v == dga.exp_nilpotent(arg)


def test_regularized_product_empty_is_one():
    m = ChernRootModel(1, 4)
    assert regularized_product(m, 0, QI(0, 2), dga.PI) == m.algebra.one(dga.PI)


@pytest.mark.parametrize("r,dim", [(1, 4), (1, 8), (2, 8)])
def test_product_equals_exponential_form_exactly(r, dim):
    m = ChernRootModel(r, dim)
    for bound in (1, 2, 3):
        prod = regularized_product(m, bound, QI(0, 2), dga.PI)
        assert prod == product_exponential_form(m, bound, QI(0, 2), dga.PI)


def _drawn_product_cases():
    """(r, dim, bound, tau) from a fixed seed: r <= 2, bound <= 2, Gaussian-rational tau."""
    rng = Random("sweep:product")
    for _ in range(8):
        re, im = Fraction(rng.randint(-6, 6), rng.randint(1, 4)), Fraction(rng.randint(1, 12), rng.randint(1, 4))
        r, dim, bound = rng.randint(1, 2), rng.choice((4, 8)), rng.randint(1, 2)
        yield pytest.param(r, dim, bound, QI(re, im), id=f"r{r}-dim{dim}-bound{bound}-tau{re}+{im}i")


@pytest.mark.parametrize("r,dim,bound,tau", _drawn_product_cases())
def test_seeded_product_equals_exponential_form(r, dim, bound, tau):
    m = ChernRootModel(r, dim)
    assert regularized_product(m, bound, tau, dga.PI) == product_exponential_form(m, bound, tau, dga.PI)


def test_product_order_independence_same_index_set():
    m = ChernRootModel(1, 8)
    pts = list(z2plus_points(2))
    tau = QI(1, 1)
    forward = m.algebra.one(dga.PI)
    for p in pts:
        forward = forward * block_norm_pfaffian(p, m, tau, dga.PI)
    backward = m.algebra.one(dga.PI)
    for p in reversed(pts):
        backward = backward * block_norm_pfaffian(p, m, tau, dga.PI)
    assert forward == backward


@pytest.mark.parametrize("r", [1, 2])
def test_fast_path_matches_generic_blocks(r):
    m = ChernRootModel(r, 8)
    tau = 0.5 + 1.5j
    fast = regularized_product(m, 4, tau, dga.COMPLEX, verify_routes=False)
    acc = m.algebra.one(dga.COMPLEX)
    for p in z2plus_points(4):
        acc = acc * block_norm_pfaffian(p, m, tau, dga.COMPLEX, verify_routes=True)
    for key in set(fast.terms) | set(acc.terms):
        assert abs(fast.terms[key] - acc.terms[key]) < 1e-12


def test_ordering_sensitivity_of_the_conditional_coefficient():
    """Same symmetrized set -> exact agreement; different sets shift the k=1
    coefficient while k >= 2 coefficients agree (the observed shift at tau=i
    between square-symmetric and row-major families is pi/2)."""
    tau = 1j
    m = ChernRootModel(1, 8)
    alg = m.algebra
    key1 = ((alg.index["b"], 2), (alg.index["x1"], 2))
    key2 = ((alg.index["b"], 4), (alg.index["x1"], 4))

    def log_coeffs(ns, ms):
        """log-product coefficients: -P_{2k}/k for k = 1, 2."""
        z = ns * tau - ms
        return complex(np.sum(-1.0 / z**2)), complex(np.sum(-0.5 / z**4))

    # square family (verified exactly against the block product elsewhere)
    ns, ms = map(np.concatenate, zip(*(z2plus_shell(s) for s in range(1, 61))))
    sq1, sq2 = log_coeffs(ns, ms)
    value = regularized_product(m, 60, tau, dga.COMPLEX, verify_routes=False)
    assert abs(value.terms[key1] - sq1) < 1e-10
    # the product's beta^4 term carries the exp cross term P2^2/2 on top of -P4/2
    assert abs(value.terms[key2] - (sq2 + sq1**2 / 2)) < 1e-10
    # row-major-shaped half set: z = n tau - m with m running deep (m < 0) and
    # n in a narrow band, plus the m = 0 ray; realizes the holomorphic limit
    deep, band = 100000, 8
    rn = np.concatenate([np.tile(np.arange(-band, band + 1), deep), np.arange(1, band + 1)])
    rm = np.concatenate([np.repeat(np.arange(-deep, 0), 2 * band + 1), np.zeros(band)])
    rw1, rw2 = log_coeffs(rn, rm)
    # k = 2 log coefficient agrees between the families
    assert abs(sq2 - rw2) < 1e-3
    # k = 1 coefficient shift: square sum is 0 by i-rotation antisymmetry,
    # row-major tends to -G2(i)/2 = -pi/2
    assert abs(sq1) < 1e-12
    assert abs(rw1 - (-math.pi / 2)) < 1e-3
    assert abs(rw1 - sq1 + math.pi / 2) < 1e-3


# ---------------------------------------------------------------------------
# Circle modes


def test_a_hat_r0_and_mode0():
    m = ChernRootModel(0, 0)
    assert a_hat_product(m, 100, dga.PI) == m.algebra.one(dga.PI)
    m1 = ChernRootModel(1, 4)
    assert a_hat_product(m1, 0, dga.PI) == m1.algebra.one(dga.PI)


def test_a_hat_degree4_coefficient():
    m = ChernRootModel(1, 4)
    ah = a_hat_product(m, 100000)
    ix = m.algebra.index["x1"]
    assert abs(ah.terms[((ix, 2),)] - (-1 / 24)) < 1e-3


@pytest.mark.parametrize("r", [1, 2])
def test_a_hat_fast_path_matches_generic(r):
    m = ChernRootModel(r, 8)
    fast = a_hat_product(m, 200)
    acc = m.algebra.one(dga.COMPLEX)
    for n in range(1, 201):
        acc = acc * determinant(a_hat_mode_matrix(m, n, dga.COMPLEX, +1))
    loop = unit_inverse(acc)
    for key in set(fast.terms) | set(loop.terms):
        assert abs(fast.terms[key] - loop.terms[key]) < 1e-12


def test_a_hat_exact_mode_small_bound():
    m = ChernRootModel(1, 4)
    ah = a_hat_product(m, 3, dga.PI)
    # prod_{n<=3} (1 + x^2/(4 pi^2 n^2))^{-1}: x^2 coefficient -(1 + 1/4 + 1/9)/(4 pi^2)
    ix = m.algebra.index["x1"]
    from ellgenus.scalars import PiScalar

    expect = PiScalar.pi_power(-2, QI(Fraction(-49, 144)))
    assert ah.terms[((ix, 2),)] == expect


def test_a_hat_class_sinh_oracle():
    """(z/2)/sinh(z/2) Taylor oracle, exact, degree <= 8.

    Oracle: invert the series sinh(z/2)/(z/2) = sum z^{2m}/(4^m (2m+1)!) with
    plain rational arithmetic, then compare against the closed exponential
    form used by a_hat_class, per root and on a two-root model.
    """
    # series inversion oracle in z^2 up to z^8
    s = [Fraction(1), Fraction(1, 24), Fraction(1, 1920), Fraction(1, 322560), Fraction(1, 92897280)]
    inv = [Fraction(1)]
    for n in range(1, 5):
        inv.append(-sum(s[j] * inv[n - j] for j in range(1, n + 1)))
    assert inv[1] == Fraction(-1, 24)
    assert inv[2] == Fraction(7, 5760)
    for r, dim in ((1, 8), (2, 8), (1, 12)):
        m = ChernRootModel(r, dim)
        cls = a_hat_class(m)
        expect = m.algebra.one()
        for x in m.roots():
            per_root = m.algebra.zero()
            for n in range(0, dim // 4 + 1):
                per_root = per_root + x ** (2 * n) * inv[n]
            expect = expect * per_root
        assert cls == expect


def test_a_hat_class_is_bernoulli_exponential():
    m = ChernRootModel(1, 8)
    x = m.roots()[0]
    arg = m.algebra.zero()
    for k in (1, 2):
        arg = arg + x ** (2 * k) * (Fraction(-1, 2 * k * math.factorial(2 * k)) * bernoulli(2 * k))
    assert a_hat_class(m) == dga.exp_nilpotent(arg)


# ---------------------------------------------------------------------------
# Sparse elimination kernels against their dense oracles (tests/conftest.py):
# the same terms in the same insertion order, complex digits included.

# t and u odd of degree 1, x and y even of degree 2, z even of degree 0; random
# entries use even monomials of positive degree
ELIM_ALG = Algebra(
    [Generator("t", 1), Generator("u", 1), Generator("x", 2), Generator("y", 2),
     Generator("z", 0)], trunc=4
)
T, U, X, Y, Z = range(5)
EVEN_NILPOTENTS = [
    ((X, 1),), ((Y, 1),), ((X, 2),), ((X, 1), (Y, 1)), ((Y, 2),),
    ((T, 1), (U, 1)), ((T, 1), (U, 1), (X, 1)),
]


def _rand_scalar(rng, mode):
    if mode == dga.COMPLEX:
        return complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    return dga.coerce(mode, QI(Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 3)),
                               Fraction(rng.randint(-2, 2), 2)))


def _rand_entry(rng, mode, kind):
    """An entry that is zero, nilpotent, a unit (scalar plus nilpotent) or a scalar."""
    if kind == "zero":
        return ELIM_ALG.zero(mode)
    terms = {}
    if kind in ("unit", "scalar"):
        terms[()] = _rand_scalar(rng, mode)
    if kind in ("unit", "nil"):
        for mono in rng.sample(EVEN_NILPOTENTS, rng.randint(1, 3)):
            terms[mono] = _rand_scalar(rng, mode)
    return ELIM_ALG.element(terms, mode)


def _rand_kind(rng, weights):
    return rng.choices(("zero", "nil", "unit", "scalar"), weights)[0]


def _dense_matrix(rng, mode, n, weights=(2, 2, 3, 1)):
    return [[_rand_entry(rng, mode, _rand_kind(rng, weights)) for _ in range(n)]
            for _ in range(n)]


def _block_diagonal_matrix(rng, mode, n):
    """[[1 + a, e], [-e, 1 + b]] blocks down the diagonal (and a 1 last for odd n),
    zeros elsewhere."""
    m = [[ELIM_ALG.zero(mode) for _ in range(n)] for _ in range(n)]
    m[-1][-1] = ELIM_ALG.one(mode)
    for k in range(0, n - 1, 2):
        e = _rand_entry(rng, mode, "nil")
        m[k][k] = ELIM_ALG.one(mode) + _rand_entry(rng, mode, rng.choice(("zero", "nil")))
        m[k + 1][k + 1] = ELIM_ALG.one(mode) + _rand_entry(rng, mode, rng.choice(("zero", "nil")))
        m[k][k + 1], m[k + 1][k] = e, -e
    return m


def _skew(mode, n, entry):
    m = [[ELIM_ALG.zero(mode) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = entry(i, j)
            m[j][i] = -m[i][j]
    return m


def _skew_matrix(rng, mode, n, shape):
    if shape == "dense":
        return _skew(mode, n, lambda i, j: _rand_entry(rng, mode, _rand_kind(rng, (2, 2, 3, 1))))
    if shape == "block-diagonal":  # the paired blocks' pattern: units on a band
        return _skew(mode, n, lambda i, j: _rand_entry(
            rng, mode, "unit" if j - i == 1 and i % 2 == 0 else rng.choice(("zero", "zero", "nil"))))
    if shape == "swap":  # no unit at (0, 1): the pivot search swaps rows and columns
        m = _skew(mode, n, lambda i, j: _rand_entry(rng, mode, _rand_kind(rng, (2, 2, 3, 1))))
        m[0][1] = _rand_entry(rng, mode, "nil")
        m[1][0] = -m[0][1]
        return m
    assert shape == "no-unit"  # every entry nilpotent: the matching expansion
    return _skew(mode, n, lambda i, j: _rand_entry(rng, mode, rng.choice(("zero", "nil"))))


def _items(el):
    compact = dga.MODES[el.mode].compact
    return [(mono, compact(c)) for mono, c in el.terms.items()]


MATRIX_SHAPES = ["dense", "block-diagonal", "swap", "no-unit", "late-fallback"]


def _det_matrix(rng, mode, n, shape):
    if shape == "dense":
        return _dense_matrix(rng, mode, n)
    if shape == "block-diagonal":
        return _block_diagonal_matrix(rng, mode, n)
    if shape == "swap":  # a nilpotent at (0, 0) over a unit at (1, 0): a row swap
        m = _dense_matrix(rng, mode, n)
        m[0][0] = _rand_entry(rng, mode, "nil")
        m[1][0] = _rand_entry(rng, mode, "unit")
        return m
    if shape == "no-unit":  # the Laplace fallback from the first column
        return _dense_matrix(rng, mode, n, weights=(1, 3, 0, 0))
    assert shape == "late-fallback"  # one unit pivot, then the Laplace fallback
    m = _dense_matrix(rng, mode, n, weights=(1, 3, 0, 0))
    m[0][0] = _rand_entry(rng, mode, "unit")
    return m


@pytest.mark.parametrize("mode", [dga.PI, dga.COMPLEX])
@pytest.mark.parametrize("shape", MATRIX_SHAPES)
def test_determinant_matches_the_dense_oracle(dense_determinant, mode, shape):
    rng = Random(f"det-{shape}-{mode}")
    for n in (2, 4, 5, 6):
        for _ in range(3):
            m = _det_matrix(rng, mode, n, shape)
            before = [_items(e) for row in m for e in row]
            assert _items(determinant(m)) == _items(dense_determinant(m))
            assert [_items(e) for row in m for e in row] == before  # input untouched


def _check_pfaffian(m, unkeyed_pfaffian, dense_pf_eliminate):
    """The keyed expansion is the unkeyed one term for term (same last digits in
    complex mode), and the dense elimination's value in exact mode."""
    pf = _pf_matchings(m)
    assert _items(pf) == _items(unkeyed_pfaffian(m))
    if m[0][0].mode != dga.COMPLEX:
        assert pf == dense_pf_eliminate(m)
    return pf


@pytest.mark.parametrize("mode", [dga.PI, dga.COMPLEX])
@pytest.mark.parametrize("shape", ["dense", "block-diagonal", "swap", "no-unit"])
def test_pfaffian_matches_the_expansion_and_the_dense_oracle(unkeyed_pfaffian,
                                                             dense_pf_eliminate, mode, shape):
    rng = Random(f"pf-{shape}-{mode}")
    for n in (4, 6, 10, 12):
        m = _skew_matrix(rng, mode, n, shape)
        pf = _check_pfaffian(m, unkeyed_pfaffian, dense_pf_eliminate)
        assert _items(pfaffian(m)) == _items(pf)


@pytest.mark.parametrize("mode", [dga.PI, dga.COMPLEX])
@pytest.mark.parametrize("r", [2, 3])
def test_block_kernels_match_the_dense_oracles(dense_determinant, dense_pf_eliminate,
                                               unkeyed_pfaffian, mode, r):
    model = ChernRootModel(r, 4 * r)
    tau = QI(Fraction(-3, 10), Fraction(6, 5))
    if mode == dga.COMPLEX:
        tau = tau.to_complex()
    for idx in ((1, 0), (0, -1), (2, -3)):
        block = normalized_block_matrix(idx, model, tau, mode)
        assert _items(determinant(block)) == _items(dense_determinant(block))
        paired = _paired_skew_block(idx, model, tau, mode)
        pf = _check_pfaffian(paired, unkeyed_pfaffian, dense_pf_eliminate)
        assert _items(pfaffian(paired)) == _items(pf)


@pytest.mark.parametrize("mode", [dga.PI, dga.COMPLEX])
def test_product_builds_the_root_entries_once(monkeypatch, mode):
    model = ChernRootModel(2, 8)
    tau = QI(Fraction(1, 4), Fraction(3, 2))
    expect = regularized_product(model, 2, tau, mode, verify_routes=True)
    calls = []
    roots = model.roots
    monkeypatch.setattr(model, "roots", lambda m=dga.RATIONAL: calls.append(m) or roots(m))
    got = regularized_product(model, 2, tau, mode, verify_routes=True)
    assert calls == [mode]  # not once per block: 12 blocks at shell bound 2
    assert _items(got) == _items(expect)
    for idx in ((1, 0), (2, -1)):
        assert _items(block_norm_pfaffian(idx, model, tau, mode, True, root_entries(model, mode))) \
            == _items(block_norm_pfaffian(idx, model, tau, mode))


@pytest.mark.parametrize("mode,bounds", [(dga.PI, [0, 1, 2, 3]), (dga.COMPLEX, [1, 2, 4])])
def test_shell_products_are_the_regularized_products(mode, bounds):
    model = ChernRootModel(2, 8)
    tau = QI(Fraction(1, 4), Fraction(3, 2))
    got = list(shell_products(model, bounds, tau, mode, True))
    assert [bound for bound, _ in got] == bounds
    for bound, product in got:  # same monomials in the same insertion order
        assert _items(product) == _items(regularized_product(model, bound, tau, mode, True))


def test_shell_products_reject_decreasing_bounds():
    with pytest.raises(ValueError, match="nondecreasing"):
        list(shell_products(ChernRootModel(1, 4), [2, 1], QI(0, 2)))
    with pytest.raises(ValueError, match="nondecreasing"):
        list(shell_products(ChernRootModel(1, 4), [-1], QI(0, 2)))


# Entries with an invertible-looking scalar part that are no units: a nan or
# infinite scalar part (c - c does not vanish), and a degree-0 generator beside it.
NON_UNITS = [
    ({(): complex("nan"), ((X, 1),): 1.5}, dga.COMPLEX),
    ({(): complex(float("inf"), 1), ((X, 1),): 1.5}, dga.COMPLEX),
    ({(): complex(2, float("-inf"))}, dga.COMPLEX),
    ({(): 2, ((Z, 1),): 1}, dga.COMPLEX),
    ({(): 2, ((Z, 1),): 1}, dga.PI),
]


@pytest.mark.parametrize("terms,mode", NON_UNITS)
def test_non_units_are_no_pivots(dense_determinant, dense_pf_eliminate, unkeyed_pfaffian,
                                 terms, mode):
    """The determinant's pivot search passes over them, as in the dense kernel; the
    Pfaffian expansion multiplies them like any other entry."""
    rng = Random(f"non-unit-{terms}-{mode}")
    bad = ELIM_ALG.element(terms, mode)
    for n in (3, 4, 5):
        m = _dense_matrix(rng, mode, n)
        m[0][0] = bad
        m[1][0] = _rand_entry(rng, mode, "unit")
        assert _items(determinant(m)) == _items(dense_determinant(m))
    for n in (4, 10):
        m = _skew_matrix(rng, mode, n, "dense")
        m[0][1], m[1][0] = bad, -bad  # nan + -nan is nan: skew to no one but the kernels
        _check_pfaffian(m, unkeyed_pfaffian, dense_pf_eliminate)
