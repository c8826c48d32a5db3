"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned here, in the tests, exactly as stated; nothing is
deferred to later calibration.  Run with ``pytest -s tests/test_acceptance.py``
to see the per-criterion lines.
"""

import cmath
import math
import time
from fractions import Fraction
from random import Random

import pytest

from ellgenus import dga
from ellgenus.cli import main as cli_main
from ellgenus.dga import Algebra, Generator, differential, impose_relation
from ellgenus.geom import ChernRootModel, ManifoldDescriptor
from ellgenus.pfaff import (
    a_hat_class,
    a_hat_product,
    determinant,
    pfaffian,
    product_exponential_form,
    regularized_product,
)
from ellgenus.bvloc import bv_localize, calibration_problem
from ellgenus.qmod import (
    GAMMA_S,
    GAMMA_T,
    eisenstein_lattice,
    eisenstein_q,
    quasi_modular_decompose,
)
from ellgenus.scalars import QI, zeta_even_over_pi_power
from ellgenus.witten import (
    anomaly_delta,
    anomaly_primitive,
    witten_class,
    witten_genus,
    witten_genus_symbolic,
)


def report(number, label, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} [{status}] {label} {detail}".rstrip())
    assert passed, f"criterion {number}: {label} {detail}"


def test_criterion_1_eisenstein_consistency():
    """lattice(k, tau, 2000)/(2 zeta(2k)) vs q-series at order 30, < 1e-6, < 10 s/case."""
    worst = 0.0
    slowest = 0.0
    for k in (2, 3, 4):
        for tau in (1j, 2j):
            t0 = time.time()
            lat = eisenstein_lattice(k, tau, 2000)
            two_zeta = 2 * float(zeta_even_over_pi_power(k)) * math.pi ** (2 * k)
            ref = eisenstein_q(k, 30).evaluate(cmath.exp(2j * math.pi * tau))
            worst = max(worst, abs(lat / two_zeta - ref))
            slowest = max(slowest, time.time() - t0)
    report(
        1,
        "Eisenstein lattice/q-series consistency",
        worst < 1e-6 and slowest < 10.0,
        f"(worst drift {worst:.2e}, slowest case {slowest:.2f}s)",
    )


def test_criterion_2_e2_anomaly():
    """transform_residual(1, gamma, tau, 4000) < 1e-4 and E2(i) -> pi within 1e-4."""
    from ellgenus.qmod import transform_residual

    worst = 0.0
    for gamma in (GAMMA_T, GAMMA_S):
        for tau in (1j, 1 / 3 + 2j):
            worst = max(worst, abs(transform_residual(1, gamma, tau, 4000)))
    pi_err = abs(eisenstein_lattice(1, 1j, 4000) - math.pi)
    report(
        2,
        "E2 transformation anomaly",
        worst < 1e-4 and pi_err < 1e-4,
        f"(worst residual {worst:.2e}, E2(i)-pi {pi_err:.2e})",
    )


def test_criterion_3_pfaffian_laws():
    """Pf^2 = det and the block-antidiagonal law, exact, 100 random cases, < 5 s."""
    rng = Random(20260811)
    alg = Algebra([Generator("t", 2)], trunc=2)

    def scal(v):
        return alg.scalar(v)

    t0 = time.time()
    checked = 0
    for trial in range(50):
        n = rng.choice((2, 4, 6, 8))
        m = [[scal(0) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                m[i][j], m[j][i] = scal(v), scal(-v)
        pf = pfaffian(m)
        assert pf * pf == determinant(m)
        checked += 1
    for trial in range(50):
        d = rng.choice((1, 2, 3, 4))
        A = [
            [scal(Fraction(rng.randint(-9, 9), rng.randint(1, 5))) for _ in range(d)]
            for _ in range(d)
        ]
        z = scal(0)
        top = [[z] * d + A[i] for i in range(d)]
        bottom = [[-A[j][i] for j in range(d)] + [z] * d for i in range(d)]
        assert pfaffian(top + bottom) == determinant(A) * ((-1) ** (d * (d - 1) // 2))
        checked += 1
    elapsed = time.time() - t0
    report(3, "Pfaffian laws (exact, 100 cases)", checked == 100 and elapsed < 5.0,
           f"({checked} cases in {elapsed:.2f}s)")


def test_criterion_4_product_truncation_identity(square_shell_sum):
    """Exact exponential identity for r <= 2, shells <= 3; numeric beta^2 tracking at 2000."""
    tau = QI(0, 2)
    exact_ok = True
    for r, dim in ((1, 4), (2, 8)):
        model = ChernRootModel(r, dim)
        for bound in (1, 2, 3):
            prod = regularized_product(model, bound, tau, dga.PI)
            exact_ok = exact_ok and prod == product_exponential_form(model, bound, tau, dga.PI)
    # numeric: the beta^2 x1^2 coefficient tracks the same-index-set E2 partial sums
    model = ChernRootModel(1, 4)
    value = regularized_product(model, 2000, 2j, dga.COMPLEX, verify_routes=False)
    alg = model.algebra
    coeff = value.terms[((alg.index["b"], 2), (alg.index["x1"], 2))]
    # independent route: numpy sum over the symmetrized set = square lattice sum
    lattice = square_shell_sum(2, 2j, 2000)
    drift = abs(coeff - (-lattice / 2))
    report(
        4,
        "Regularized product = exp(partial sums)",
        exact_ok and drift < 1e-4,
        f"(exact identity {exact_ok}, numeric drift {drift:.2e})",
    )


def test_criterion_5_anomaly_cocycle():
    """dA = delta Wit exactly for r <= 3, dim <= 12, q_order 6; vanishing mod p1; < 30 s."""
    t0 = time.time()
    ok = True
    for r in (1, 2, 3):
        for dim in (4, 8, 12):
            model = ChernRootModel(r, dim)
            delta_sym = anomaly_delta(model)
            ok = ok and differential(anomaly_primitive(model)) == delta_sym
            ok = ok and differential(anomaly_primitive(model, 6)) == anomaly_delta(model, 6)
            ok = ok and impose_relation(delta_sym, model.p1()).is_zero()
    elapsed = time.time() - t0
    report(5, "Anomaly cocycle dA = delta Wit (exact)", ok and elapsed < 30.0,
           f"({elapsed:.2f}s)")


def test_criterion_6_genus_weight_and_modularity():
    """Weight = dim/2; zero p1-number -> genus 0; Ẽ2-free decompositions iff
    all p1-involving Pontryagin monomial numbers vanish; >= 5 descriptors."""
    cases = [
        (ManifoldDescriptor(4, {(1,): 0}), True),
        (ManifoldDescriptor(4, {(1,): 24}), False),
        (ManifoldDescriptor(4, {(1,): -48}), False),
        (ManifoldDescriptor(8, {(1, 1): 0, (2,): 1440}), True),
        (ManifoldDescriptor(8, {(1, 1): 0, (2,): -7}), True),
        (ManifoldDescriptor(8, {(1, 1): 1152, (2,): 0}), False),
        (ManifoldDescriptor(8, {(1, 1): 4, (2,): 7}), False),
    ]
    ok = True
    for descriptor, expect_modular in cases:
        genus = witten_genus(descriptor, 12)
        ok = ok and genus.weight == descriptor.dim // 2
        for ekey in witten_genus_symbolic(descriptor):
            ok = ok and sum(2 * (i + 1) * e for i, e in enumerate(ekey)) == descriptor.dim // 2
        dec = quasi_modular_decompose(genus)
        ok = ok and dec.is_modular == expect_modular
    zero_genus = witten_genus(ManifoldDescriptor(4, {(1,): 0}), 8)
    ok = ok and zero_genus.is_zero()
    report(6, "Genus weight and modularity detection", ok, f"({len(cases)} descriptors)")


def test_criterion_7_a_hat_cross_check():
    """q^0 Witten class vs a_hat_product (1e5 modes) within 1e-3 at degree 4;
    exact sinh-oracle limit identity at symbolic level, degree <= 8."""
    model = ChernRootModel(1, 8)
    alg = model.algebra
    ix, ib = alg.index["x1"], alg.index["b"]
    cls = witten_class(model, 3)
    q0_deg4 = float(cls.coefficient(((ib, 2), (ix, 2)))[0])
    ahat = a_hat_product(model, 100000)
    drift = abs(ahat.terms[((ix, 2),)] - q0_deg4)
    # symbolic limit identity: a_hat_class == the (z/2)/sinh(z/2) Taylor product
    inv = [Fraction(1), Fraction(-1, 24), Fraction(7, 5760)]
    sinh_oracle = alg.one()
    per_root = alg.zero()
    for n in range(3):
        per_root = per_root + model.roots()[0] ** (2 * n) * inv[n]
    sinh_oracle = sinh_oracle * per_root
    exact = a_hat_class(model) == sinh_oracle
    # and the q^0 class equals the same limit exactly, stripped of beta powers
    strip = {
        tuple((i, e) for i, e in mono if i != ib): series[0]
        for mono, series in cls.terms.items()
    }
    exact = exact and all(
        a_hat_class(model).coefficient(mono) == v for mono, v in strip.items()
    )
    report(
        7,
        "A-hat cross-check (product, class, sinh oracle)",
        drift < 1e-3 and exact,
        f"(numeric drift {drift:.2e}, symbolic exact {exact})",
    )


def test_criterion_8_localization():
    """Residual < 1e-6 on calibration and exp(t alpha) family, grid 512, < 10 s/case."""
    worst = 0.0
    slowest = 0.0
    for s in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5)):
        problem = calibration_problem(s, 512)
        for t in (None, 0.5, 1.0, 2.0):
            t0 = time.time()
            out = bv_localize(problem, t)
            slowest = max(slowest, time.time() - t0)
            worst = max(worst, out["residual"])
    report(
        8,
        "Fixed-point localization",
        worst < 1e-6 and slowest < 10.0,
        f"(worst residual {worst:.2e}, slowest case {slowest:.2f}s)",
    )


def test_criterion_9_cli_determinism(tmp_path, capsys):
    """Repeated genus and pfaffian-product runs produce byte-identical reports."""
    desc = tmp_path / "d.json"
    desc.write_text('{"dim": 8, "pontryagin_numbers": {"1,1": "4", "2": "7"}}')

    def run(argv):
        status = cli_main(argv)
        out = capsys.readouterr().out
        return status, out

    ok = True
    s1, g1 = run(["--format", "records", "genus", "--descriptor", str(desc)])
    s2, g2 = run(["--format", "records", "genus", "--descriptor", str(desc)])
    ok = ok and s1 == s2 == 0 and g1 == g2
    s3, p1 = run(["pfaffian-product", "--roots", "1", "--dim", "4", "--shells", "10"])
    s4, p2 = run(["pfaffian-product", "--roots", "1", "--dim", "4", "--shells", "10"])
    ok = ok and s3 == s4 == 0 and p1 == p2
    with capsys.disabled():
        report(9, "CLI determinism (byte-identical reruns)", ok)
