import json
import math
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from ellgenus import cli, dga, pfaff, qmod
from ellgenus.bvloc import MAX_GRID
from ellgenus.cli import IDENTITY_FAILURE, INPUT_ERROR, MAX_K, MAX_Q_ORDER, OK, main
from ellgenus.geom import ChernRootModel, ManifoldDescriptor
from ellgenus.pfaff import regularized_product
from ellgenus.qmod import QSeries, eisenstein_q
from ellgenus.witten import _partitions, witten_class_symbolic

qmod_eisenstein_lattice = qmod.eisenstein_lattice


def run_cli(capsys, *argv):
    status = main(list(argv))
    return status, capsys.readouterr().out


def write_descriptor(tmp_path, name, dim, numbers):
    path = tmp_path / name
    path.write_text(json.dumps({"dim": dim, "pontryagin_numbers": numbers}))
    return str(path)


def test_eisenstein_q_table(capsys):
    status, out = run_cli(capsys, "eisenstein", "--k", "2", "--q-order", "3", "--bound", "400")
    assert status == OK
    assert "1 + 240 q + 2160 q^2" in out
    assert "status=OK" in out


def test_eisenstein_k1_rowmajor(capsys):
    # small bound for speed; the residuals scale like 1/bound, hence the tolerance
    status, out = run_cli(capsys, "eisenstein", "--k", "1", "--q-order", "3",
                          "--tau", "0,1", "--bound", "500", "--tolerance", "5e-4")
    assert status == OK
    assert "ordering=rowmajor" in out


def test_eisenstein_k1_default_passes_to_round_off(capsys):
    status, out = run_cli(capsys, "--format", "records", "eisenstein", "--k", "1")
    assert status == OK
    records = [json.loads(line) for line in out.splitlines()]
    config = records[0]
    assert config["tolerance"] == 1e-6 and config["tau"] == ["0.0", "2.0"]
    assert (config["rows"], config["columns"]) == (8, 2000)
    values = [float(r["normalized_drift"]) for r in records if r["record"] == "consistency"]
    values += [float(r["value"]) for r in records if r["record"] == "transform-residual"]
    assert len(values) == 3 and max(values) <= 1e-13
    assert records[-1] == {"record": "verdict", "status": "OK"}


# The consistency check's series order follows Im tau, so at small Im tau its
# truncation does not fail a lattice value that is right to round-off.
@pytest.mark.parametrize("tau,order", [("0,0.1", 76), ("0,0.05", 155)])
def test_eisenstein_k1_small_im_tau_passes(capsys, tau, order):
    status, out = run_cli(capsys, "--format", "records", "eisenstein", "--k", "1", f"--tau={tau}")
    assert status == OK
    (consistency,) = [json.loads(line) for line in out.splitlines() if '"consistency"' in line]
    assert consistency["series_order"] == order
    assert float(consistency["normalized_drift"]) <= 1e-12


# A row-major bound below MIN_COLUMNS is raised to it, where the row tails hold.
@pytest.mark.parametrize("k", [1, 2])
def test_eisenstein_rowmajor_small_bound_passes(capsys, k):
    status, out = run_cli(
        capsys, "--format", "records", "eisenstein", "--k", str(k), "--bound", "2",
    )
    assert status == OK
    records = [json.loads(line) for line in out.splitlines()]
    assert records[0]["columns"] == 16
    values = [float(r["normalized_drift"]) for r in records if r["record"] == "consistency"]
    values += [float(r["value"]) for r in records if r["record"] == "transform-residual"]
    assert max(values) <= 1e-13


def test_eisenstein_default_tau_passes_for_every_k_up_to_80(capsys):
    for k in range(1, 81):
        status, out = run_cli(capsys, "eisenstein", "--k", str(k))
        assert status == OK, f"--k {k}: {out}"


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("tau,rows", [("0,0.01", 700), ("0,0.002", 3500)])
def test_eisenstein_small_im_tau_passes(capsys, k, tau, rows):
    status, out = run_cli(capsys, "--format", "records", "eisenstein", "--k", str(k), f"--tau={tau}")
    assert status == OK
    records = [json.loads(line) for line in out.splitlines()]
    config = records[0]
    assert (config["ordering"], config["rows"], config["columns"]) == ("rowmajor", rows, 2000)
    values = [float(r["normalized_drift"]) for r in records if r["record"] == "consistency"]
    values += [float(r["value"]) for r in records if r["record"] == "transform-residual"]
    assert max(values) <= 1e-13


# Large k reaches no ArithmeticError: exit 0, or exit 1 with one line naming the flags.
# At tau = i and k = 400 the q-series coefficients near its largest term, n ~ 127,
# exceed the double range.
@pytest.mark.parametrize("argv,expected", [
    ("eisenstein --k 100", OK),
    ("eisenstein --k 150", OK),
    ("eisenstein --k 200", OK),
    ("eisenstein --k 400", OK),
    ("eisenstein --k 400 --tau 0,1", INPUT_ERROR),
])
def test_eisenstein_large_k_exits_cleanly(capsys, argv, expected):
    assert main(argv.split()) == expected
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    if expected == INPUT_ERROR:
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: --k 400 at --tau 0,1: ")


# The S residual sums E at -1/tau, so a large Im tau puts the S image over the row
# cap; the error names the point that is over it, before any row is summed.
@pytest.mark.parametrize("tau,where,im", [("0,1e5", "its S image -1/tau", "1e-05"),
                                          ("0,0.001", "tau", "0.001")])
def test_eisenstein_row_cap_names_the_point_over_it(capsys, monkeypatch, tau, where, im):
    monkeypatch.setattr(qmod, "_row_sums", lambda *args: pytest.fail("rows were summed"))
    err = assert_input_error(capsys, "eisenstein", "--k", "2", "--q-order", "3", "--tau", tau)
    assert err.startswith(f"error: --tau {tau}: at {where}, Im = {im} needs more than")


def test_eisenstein_rejects_a_large_k_before_any_bernoulli_number(capsys, monkeypatch):
    def refuse(n):
        raise AssertionError(f"bernoulli({n}) called")

    monkeypatch.setattr(cli, "bernoulli", refuse)
    assert f"--k <= {MAX_K}" in assert_input_error(capsys, "eisenstein", "--k", str(MAX_K + 1))


@pytest.mark.parametrize("k", [1, 2])
def test_eisenstein_sums_e_tau_once(capsys, monkeypatch, k):
    """E(tau), E(tau + 1) and E(-1/tau): three lattice sums, E(tau) shared by
    the lattice record and both transform residuals."""
    calls = []

    def counted(*args):
        calls.append(args)
        return qmod_eisenstein_lattice(*args)

    monkeypatch.setattr(qmod, "eisenstein_lattice", counted)
    monkeypatch.setattr(cli, "eisenstein_lattice", counted)
    status, _ = run_cli(capsys, "eisenstein", "--k", str(k), "--tau=-0.3,1.2", "--bound", "64")
    assert status == OK
    assert len(calls) == 3 and len(set(calls)) == 3


@pytest.mark.parametrize("gamma", [qmod.GAMMA_T, qmod.GAMMA_S])
def test_transform_residual_with_a_given_value_is_the_same(gamma):
    tau = -0.3 + 1.2j
    for k in (1, 2, 3):
        value = qmod_eisenstein_lattice(k, tau, 64)
        assert qmod.transform_residual(k, gamma, tau, 64, value) == qmod.transform_residual(
            k, gamma, tau, 64)


def test_eisenstein_rejects_bad_flags(capsys):
    assert main(["eisenstein", "--k", "0"]) == INPUT_ERROR
    assert main(["eisenstein", "--k", "2", "--tau", "0,-1"]) == INPUT_ERROR


def test_genus_modular_case(capsys, tmp_path):
    path = write_descriptor(tmp_path, "d.json", 4, {"1": "0"})
    status, out = run_cli(capsys, "genus", "--descriptor", path)
    assert status == OK
    assert "verdict=modular" in out
    assert "rendered=0" in out


def test_genus_quasimodular_case(capsys, tmp_path):
    path = write_descriptor(tmp_path, "d.json", 4, {"1": "24"})
    status, out = run_cli(capsys, "--format", "records", "genus", "--descriptor", path)
    assert status == OK
    records = [json.loads(line) for line in out.strip().splitlines()]
    by_kind = {rec["record"]: rec for rec in records}
    assert by_kind["config"]["dim"] == 4
    assert by_kind["decomposition"]["verdict"] == "quasi-modular"
    assert by_kind["decomposition"]["e2_part"] == {"E2": "-1"}
    genus = QSeries.from_record(by_kind["genus"])
    assert genus == eisenstein_q(1, 10) * -1


def test_genus_missing_file(capsys, tmp_path):
    assert main(["genus", "--descriptor", str(tmp_path / "nope.json")]) == INPUT_ERROR


def test_decompose_roundtrip(capsys, tmp_path):
    series = eisenstein_q(2, 8)
    path = tmp_path / "series.json"
    path.write_text(series.dumps())
    status, out = run_cli(capsys, "decompose", "--series", str(path))
    assert status == OK
    assert "verdict=modular" in out and "E4" in out


def test_decompose_reports_no_decomposition(capsys, tmp_path):
    path = tmp_path / "series.json"
    path.write_text(QSeries(4, {0: 1, 1: 1}, 4).dumps())
    status, out = run_cli(capsys, "decompose", "--series", str(path))
    assert status == OK
    assert "no-decomposition" in out


@pytest.mark.parametrize("roots", ["1", "2"])
def test_pfaffian_product_table(capsys, roots):
    status, out = run_cli(
        capsys, "--format", "records", "pfaffian-product",
        "--roots", roots, "--dim", "4", "--shells", "8",
    )
    assert status == OK
    records = [json.loads(line) for line in out.strip().splitlines()]
    identities = [r for r in records if r["record"] == "identity"]
    assert len(identities) == 3 and all(r["status"] == "OK" for r in identities)
    conv = [r for r in records if r["record"] == "convergence"]
    assert conv[-1]["shell"] == 8
    for row in conv:  # float() parses a plain repr, never "np.float64(...)"
        for value in row["beta2_coefficient"] + [row["drift"]]:
            float(value)


def test_pfaffian_product_evaluates_each_block_once(capsys, monkeypatch):
    calls, block = Counter(), pfaff.block_norm_pfaffian

    def counted(idx, model, tau, mode=dga.PI, *args):
        calls[mode] += 1
        return block(idx, model, tau, mode, *args)

    monkeypatch.setattr(pfaff, "block_norm_pfaffian", counted)
    status, _ = run_cli(capsys, "pfaffian-product", "--roots", "2", "--dim", "8",
                        "--shells", "3", "--exact-shells", "3")
    assert status == OK
    # 2 E (E + 1) = 24 blocks within 3 shells, each once: the exact check across
    # bounds 1..3 and the table at bounds 1, 2, 3 (a product per bound made 40)
    assert calls == {dga.PI: 24, dga.COMPLEX: 24}


# The per-block loop for r > 1 against the closed form r = 1 uses: the equality
# a closed-form table for every r would rest on.
@pytest.mark.parametrize("tau", [2j, -0.3 + 1.2j])
@pytest.mark.parametrize("r", [2, 3])
def test_per_block_table_equals_the_closed_form(r, tau):
    model = ChernRootModel(r, 4 * r)
    bounds = cli._table_bounds(16)
    table = list(cli._product_table(model, bounds, tau))
    assert [bound for bound, _ in table] == bounds == [1, 2, 4, 8, 16]
    for bound, value in table:
        closed = regularized_product(model, bound, tau, dga.COMPLEX, verify_routes=False)
        assert set(value.terms) == set(closed.terms)
        for mono, c in closed.terms.items():
            assert abs(value.terms[mono] - c) <= 1e-12 * max(abs(value.terms[mono]), abs(c))


def test_anomaly_verdict(capsys):
    status, out = run_cli(capsys, "anomaly", "--roots", "1", "--dim", "8", "--q-order", "4")
    assert status == OK
    assert "delta(Wit) == d(A)" in out and "status=OK" in out


# A failed exact identity names the first monomial, in witten-class order, where
# its two sides differ, with both coefficients in the mode's compact text form.
def test_a_failed_anomaly_names_the_first_differing_monomial(capsys, monkeypatch):
    primitive = cli.anomaly_primitive

    def perturbed(model, q_order):  # + H b^2 u, whose d is x1^2 b^2 u at one root
        alg = model.algebra
        return primitive(model, q_order) + alg.gen("H", dga.QSERIES) * alg.gen("b", dga.QSERIES) ** 2 * alg.gen("u", dga.QSERIES)

    monkeypatch.setattr(cli, "anomaly_primitive", perturbed)
    status, out = run_cli(capsys, "--format", "records", "anomaly", "--roots", "1", "--dim", "8", "--q-order", "3")
    assert status == IDENTITY_FAILURE
    assert json.loads(out.splitlines()[-1]) == {
        "record": "verdict", "check": "delta(Wit) == d(A)", "status": "FAIL",
        "monomial": "b^2·u·x1^2", "lhs": "q{w=0;N=inf;0:1/2}", "rhs": "q{w=0;N=inf;0:3/2}",
    }


def test_a_failed_product_identity_names_the_first_differing_monomial(capsys, monkeypatch):
    closed_form = cli.product_exponential_form

    def perturbed(model, bound, tau, mode):  # + b^2 x1^2 at shell 2 only
        out = closed_form(model, bound, tau, mode)
        alg = model.algebra
        return out + alg.gen("x1", mode) ** 2 * alg.gen("b", mode) ** 2 if bound == 2 else out

    monkeypatch.setattr(cli, "product_exponential_form", perturbed)
    status, out = run_cli(capsys, "--format", "records", "pfaffian-product", "--shells", "4")
    assert status == IDENTITY_FAILURE
    records = [json.loads(line) for line in out.splitlines()]
    assert records[1] == {"record": "identity", "shell": 1, "status": "OK"}
    assert records[2] == {"record": "identity", "shell": 2, "status": "FAIL", "monomial": "b^2·x1^2",
                          "lhs": "pi{0:-12339/23120}", "rhs": "pi{0:10781/23120}"}
    assert len(records) == 3


def test_a_pfaffian_route_mismatch_names_the_first_differing_monomial(capsys, monkeypatch):
    zero_block = pfaff._zero_block_pfaffian
    monkeypatch.setattr(pfaff, "_zero_block_pfaffian", lambda *args: zero_block(*args) * 2)
    status = main(["pfaffian-product", "--exact-shells", "1"])
    captured = capsys.readouterr()
    assert status == IDENTITY_FAILURE and captured.out == ""
    assert captured.err == (
        "identity violated: block (-1, -1): ratio != det  monomial=1  lhs=pi{0:1/2}  rhs=pi{0:1}\n"
    )


def test_first_difference_reads_a_missing_term_as_zero():
    alg = ChernRootModel(1, 4).algebra
    x2 = alg.gen("x1") ** 2
    assert cli._first_difference(alg.one(), alg.one() + x2) == {"monomial": "x1^2", "lhs": "0", "rhs": "1"}
    assert cli._first_difference(x2 + alg.one() * 2, alg.zero()) == {"monomial": "1", "lhs": "2", "rhs": "0"}
    assert cli._first_difference(x2, x2) == {}


def test_localize_report(capsys, tmp_path):
    path = tmp_path / "prob.json"
    path.write_text(json.dumps({"alpha0": "z", "g": "-1", "s": "1", "grid": 128}))
    status, out = run_cli(capsys, "localize", "--problem", str(path), "--t", "0.5", "--t", "2")
    assert status == OK
    assert out.count("status=OK") == 3


# The failure is 4-point Gauss-Legendre truncation of 8 e^{8z} (residual ~1e3).
# A tiny tolerance on the exactly integrable g = -1 cannot be used: its round-off may be exactly 0.
def test_localize_flags_identity_failure(capsys, tmp_path):
    path = tmp_path / "prob.json"
    path.write_text(json.dumps({"alpha0": "z", "g": "-1", "s": "1", "grid": 4}))
    status, out = run_cli(capsys, "--format", "records", "localize", "--problem", str(path),
                          "--t", "8")
    assert status == IDENTITY_FAILURE
    records = [json.loads(line) for line in out.strip().splitlines()]
    # base passes, t=8 fails, and that single FAIL record is enough for exit 2
    statuses = [(rec["t"], rec["status"]) for rec in records if rec["record"] == "localize"]
    assert statuses == [("base", "OK"), ("8.0", "FAIL")]


# At grid 64 the sides differ by round-off on a value near -3e9; only a residual
# normalized by their magnitude can pass the default tolerance.
def test_localize_residual_is_normalized(capsys, tmp_path):
    path = tmp_path / "prob.json"
    path.write_text(json.dumps({"alpha0": "z", "g": "-1", "s": "1", "grid": 64}))
    status, out = run_cli(capsys, "--format", "records", "localize", "--problem", str(path),
                          "--t", "20")
    assert status == OK
    (rec,) = [json.loads(line) for line in out.splitlines() if '"t": "20.0"' in line]
    lhs, rhs, residual = (float(rec[k]) for k in ("lhs", "rhs", "residual"))
    assert abs(lhs) > 1e9 and rec["status"] == "OK"
    assert residual == abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def test_reports_embed_configuration(capsys, tmp_path):
    path = write_descriptor(tmp_path, "d.json", 4, {"1": "24"})
    _, out = run_cli(capsys, "genus", "--descriptor", path, "--q-order", "7")
    header = out.splitlines()[0]
    assert "q_order=7" in header and "subcommand=genus" in header


def test_byte_identical_reruns(capsys, tmp_path):
    path = write_descriptor(tmp_path, "d.json", 8, {"1,1": "4", "2": "7"})
    _, first = run_cli(capsys, "--format", "records", "genus", "--descriptor", path)
    _, second = run_cli(capsys, "--format", "records", "genus", "--descriptor", path)
    assert first == second
    _, p1 = run_cli(capsys, "pfaffian-product", "--roots", "1", "--dim", "4", "--shells", "6")
    _, p2 = run_cli(capsys, "pfaffian-product", "--roots", "1", "--dim", "4", "--shells", "6")
    assert p1 == p2


def assert_input_error(capsys, *argv):
    assert main(list(argv)) == INPUT_ERROR
    out, err = capsys.readouterr()
    assert out == ""  # records are buffered: a failed command prints no partial report
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    return err


# argparse reports a usage error in several lines (usage text, then the error),
# so these are checked here rather than by the one-line rule of assert_input_error.
@pytest.mark.parametrize("argv,flag", [
    ("eisenstein --k abc", "--k"),
    ("eisenstein --k 2 --tau -0.3,1.2", "--tau"),  # "-0.3,1.2" reads as an option
])
def test_usage_errors_are_input_errors(capsys, argv, flag):
    assert main(argv.split()) == INPUT_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("usage: ellgenus eisenstein")
    assert f"error: argument {flag}" in err.splitlines()[-1]


def test_help_exits_zero(capsys):
    assert main(["--help"]) == OK
    assert capsys.readouterr().out.startswith("usage: ellgenus")


@pytest.mark.parametrize("roots,dim", [(0, 8), (1, 24), (1, 40), (2, 16), (3, 20), (5, 20)])
def test_class_terms_bounds_the_witten_class(roots, dim):
    # exact for one root: each E-monomial of weight 2d pairs with x1^{2d} once
    terms = len(witten_class_symbolic(ChernRootModel(roots, dim)).terms)
    assert terms <= cli._class_terms(roots, dim)
    assert terms == cli._class_terms(roots, dim) or roots > 1


def test_class_terms_is_the_closed_form_count_below_the_cap():
    for roots in range(1, 7):
        for dim in range(49):
            count = sum(math.comb(roots - 1 + d, d) * sum(1 for _ in _partitions(d))
                        for d in range(dim // 4 + 1))
            terms = cli._class_terms(roots, dim)
            if count <= cli.MAX_CLASS_TERMS:
                assert terms == count, (roots, dim)
            else:  # the count stops once it is past the cap
                assert cli.MAX_CLASS_TERMS < terms <= count, (roots, dim)


@pytest.mark.parametrize("roots,dim", [("0", "8"), ("1", "0")])
def test_anomaly_rejects_a_zero_p1(capsys, roots, dim):
    err = assert_input_error(capsys, "anomaly", "--roots", roots, "--dim", dim)
    assert "--roots >= 1" in err and "--dim >= 4" in err


@pytest.mark.parametrize("command,flag", [
    ("genus", "--descriptor"), ("decompose", "--series"), ("localize", "--problem"),
])
def test_input_file_must_hold_a_json_object(capsys, tmp_path, command, flag):
    path = tmp_path / "in.json"
    path.write_text("[]")
    assert str(path) in assert_input_error(capsys, command, flag, str(path))


def test_descriptor_with_null_dim(capsys, tmp_path):
    path = write_descriptor(tmp_path, "d.json", None, {})
    assert path in assert_input_error(capsys, "genus", "--descriptor", path)


@pytest.mark.parametrize("field,value", [
    ("grid", None), ("grid", 1.5), ("grid", 0), ("grid", 4097), ("alpha0", None),
])
def test_localize_rejects_a_bad_problem_field(capsys, tmp_path, field, value):
    path = tmp_path / "prob.json"
    path.write_text(json.dumps({"alpha0": "z", "g": "-1", "s": "1", "grid": 8, field: value}))
    assert field in assert_input_error(capsys, "localize", "--problem", str(path))


# A numpy overflow warning would print extra stderr lines; "error" turns one into a failure.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t", ["1000", "-1000", "nan", "inf"])
def test_localize_rejects_a_t_that_overflows(capsys, tmp_path, t):
    path = tmp_path / "prob.json"
    path.write_text(json.dumps({"alpha0": "z", "g": "-1", "s": "1", "grid": 64}))
    err = assert_input_error(capsys, "localize", "--problem", str(path), "--t", t)
    assert f"t = {float(t)!r}" in err and "not finite" in err


@pytest.mark.parametrize("s", ["1e400", "-1e400", "nan", float("inf")])
def test_localize_rejects_an_s_outside_the_double_range(capsys, tmp_path, s):
    path = tmp_path / "prob.json"
    path.write_text(json.dumps({"alpha0": "z", "g": "-1e-400", "s": s, "grid": 8}))
    err = assert_input_error(capsys, "localize", "--problem", str(path))
    assert "s must be a number finite in double precision" in err


@pytest.mark.parametrize("field", ["alpha0", "g"])
def test_localize_rejects_a_polynomial_that_does_not_parse(capsys, tmp_path, field):
    path = tmp_path / "prob.json"
    path.write_text(json.dumps({"alpha0": "z", "g": "-1", "s": "1", "grid": 8, field: "z +"}))
    err = assert_input_error(capsys, "localize", "--problem", str(path))
    assert err.startswith(f"error: {field}: cannot parse 'z +'")


# Nesting past the parser's stack (MemoryError), past the recursion limit while
# the tree is built, or past it while the tree is walked (both RecursionError).
@pytest.mark.parametrize("text", ["-" * 20000 + "z", "z" + "*z" * 5000, "-" * 1000 + "z"],
                         ids=["20000-signs", "5000-products", "1000-signs"])
@pytest.mark.parametrize("field", ["alpha0", "g"])
def test_localize_rejects_a_polynomial_nested_too_deeply(capsys, tmp_path, field, text):
    path = tmp_path / "prob.json"
    path.write_text(json.dumps({"alpha0": "z", "g": "-1", "s": "1", "grid": 8, field: text}))
    err = assert_input_error(capsys, "localize", "--problem", str(path))
    assert err.startswith(f"error: {field}: ")
    assert "nested too deeply" in err or "cannot parse" in err


# Valid flags at the edges of their ranges: small and odd dimensions, zero roots,
# and a tau that over- or underflows.  Each run must end in a documented exit code.
EDGE_RUNS = [
    f"{command} --roots {roots} --dim {dim}{extra}"
    for command, extra in (
        ("witten-class", ""),
        ("anomaly", " --q-order 2"),
        ("pfaffian-product", " --shells 2 --exact-shells 1"),
    )
    for roots in range(3)
    for dim in (0, 2, 4, 6, 8)
] + [
    f"pfaffian-product --roots {roots} --shells 2 --tau={tau}"
    for roots in range(3)
    for tau in ("0,1e-300", "0,1e300", "1e300,1", "nan,1", "0,inf")
] + [
    # sizes that ran for tens of seconds or more before they were capped
    "witten-class --roots 6 --dim 48",
    "witten-class --roots 100000 --dim 4",
    "witten-class --roots 1 --dim 4000000000",
    "anomaly --roots 6 --dim 32 --q-order 2",
    "anomaly --roots 1 --dim 84 --q-order 512",
    "pfaffian-product --roots 1 --dim 8 --shells 20000",
    "pfaffian-product --roots 2 --dim 8 --shells 4096 --exact-shells 0",
    "pfaffian-product --roots 4 --dim 16 --shells 50 --exact-shells 50",
    "eisenstein --k 2 --bound 1000000000",
]


@pytest.mark.parametrize("argv", EDGE_RUNS)
def test_edge_flags_end_in_a_documented_exit_code(capsys, argv):
    assert main(argv.split()) in (OK, INPUT_ERROR, IDENTITY_FAILURE)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("roots", ["1", "2"])
def test_pfaffian_product_rejects_a_non_finite_table(capsys, roots):
    err = assert_input_error(capsys, "pfaffian-product", "--roots", roots,
                             "--tau", "0,1e-300", "--shells", "2")
    assert "--tau 0,1e-300" in err and "not finite" in err


# Every numpy warning is an error here: a bad flag must fail before any lattice work warns.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv,named", [
    ("genus --descriptor {d} --q-order 0", "--q-order >= 1"),
    ("genus --descriptor {d} --q-order -2", "--q-order >= 1"),
    ("anomaly --roots 1 --dim 8 --q-order 0", "--q-order >= 1"),
    ("anomaly --roots 1 --dim 8 --q-order -3", "--q-order >= 1"),
    ("genus --descriptor {d} --q-order 513", f"--q-order <= {MAX_Q_ORDER}"),
    ("anomaly --roots 1 --dim 8 --q-order 1000000", f"--q-order <= {MAX_Q_ORDER}"),
    ("eisenstein --k 2 --q-order 0", "--q-order >= 1"),
    ("eisenstein --k 2 --q-order 513", f"--q-order <= {MAX_Q_ORDER}"),
    ("witten-class --roots 1 --dim 4 --q-order 0", "--q-order >= 1"),
    ("witten-class --roots 1 --dim 4 --q-order 20000", f"--q-order <= {MAX_Q_ORDER}"),
    ("localize --problem {p} --tolerance nan", "--tolerance"),
    ("localize --problem {p} --tolerance -1", "--tolerance"),
    ("localize --problem {p} --tolerance 0", "--tolerance"),
    ("eisenstein --k 2 --bound 50 --tolerance nan", "--tolerance"),
    ("eisenstein --k 2 --bound 50 --tolerance inf", "--tolerance"),
    ("eisenstein --k 2 --bound 50 --tolerance -1", "--tolerance"),
    ("eisenstein --k 2 --bound 50 --tau nan,1", "--tau nan,1: both parts must be finite"),
    ("eisenstein --k 2 --bound 50 --tau inf,1", "--tau inf,1: both parts must be finite"),
    ("eisenstein --k 2 --bound 50 --tau 0,1e-300", "--tau 0,1e-300"),
    ("eisenstein --k 1 --bound 50 --tau 0,1e-300", "--tau 0,1e-300"),
    ("eisenstein --k 1 --bound 50 --tau 0,1e300", "--tau 0,1e300"),
    ("pfaffian-product --roots 0", "--roots >= 1"),
    ("pfaffian-product --roots 1 --dim 8 --shells 0", "--shells >= 1"),
    ("pfaffian-product --roots 2 --dim 8 --shells 0", "--shells >= 1"),
    ("pfaffian-product --roots 1 --dim 8 --shells -1", "--shells >= 1"),
    ("pfaffian-product --roots 2 --dim 8 --shells -1", "--shells >= 1"),
    ("pfaffian-product --roots 1 --dim 8 --exact-shells -1", "--exact-shells >= 0"),
    ("pfaffian-product --roots 2 --dim 8 --exact-shells -1", "--exact-shells >= 0"),
    ("witten-class --roots 6 --dim 48", "cli.MAX_CLASS_TERMS"),
    ("witten-class --roots 100000 --dim 4", "cli.MAX_CLASS_TERMS"),
    ("witten-class --roots 1 --dim 4000000000", "cli.MAX_CLASS_TERMS"),
    ("anomaly --roots 6 --dim 32 --q-order 2", "cli.MAX_CLASS_TERMS"),
    ("pfaffian-product --roots 6 --dim 48 --shells 1", "cli.MAX_CLASS_TERMS"),
    ("anomaly --roots 1 --dim 84 --q-order 512", "cli.MAX_SERIES_WORK"),
    ("witten-class --roots 1 --dim 84 --q-order 512", "cli.MAX_SERIES_WORK"),
    ("pfaffian-product --roots 1 --dim 8 --shells 20000", f"--shells <= {cli.MAX_SHELLS}"),
    ("pfaffian-product --roots 2 --dim 8 --shells 4096 --exact-shells 0", "cli.MAX_BLOCK_WORK"),
    ("pfaffian-product --roots 4 --dim 16 --shells 50 --exact-shells 50", "cli.MAX_BLOCK_WORK"),
    ("eisenstein --k 2 --bound 1000000000", f"--bound <= {cli.MAX_BOUND}"),
])
def test_bad_numeric_flags_are_input_errors(capsys, tmp_path, argv, named):
    d = write_descriptor(tmp_path, "d.json", 8, {"1,1": "4", "2": "7"})
    p = tmp_path / "prob.json"
    p.write_text(json.dumps({"alpha0": "z", "g": "-1", "s": "1", "grid": 64}))
    assert named in assert_input_error(capsys, *argv.format(d=d, p=p).split())


# Descriptors and series that would build algebra or series for minutes, or
# forever, are rejected first.
@pytest.mark.parametrize("dim,numbers,missing", [
    (96, {}, "(24,)"),
    (4000, {"1000": "1"}, "(999, 1)"),
    (8, {"2": "7"}, "(1, 1)"),
])
def test_genus_rejects_an_incomplete_descriptor_at_once(capsys, tmp_path, dim, numbers, missing):
    path = write_descriptor(tmp_path, "d.json", dim, numbers)
    err = assert_input_error(capsys, "genus", "--descriptor", path)
    assert err == f"error: no Pontryagin number for partition {missing}\n"


@pytest.mark.parametrize("record,named", [
    ({"weight": 4, "min_exp": 0, "coeffs": ["1", "240"], "order": 1000000}, "exceeds"),
    ({"weight": 4, "min_exp": 0, "coeffs": ["1", "240"], "order": MAX_Q_ORDER + 1}, "exceeds"),
    ({"weight": 1000000, "min_exp": 0, "coeffs": ["1"], "order": 10}, "too small"),
    # no valid coefficient at all: the order is checked before the zero shortcut
    ({"weight": 4, "min_exp": 0, "coeffs": [], "order": 0}, "too small"),
    ({"weight": 4, "min_exp": 5, "coeffs": ["1", "2"], "order": 3}, "too small"),
])
def test_decompose_rejects_a_series_too_large_to_solve(capsys, tmp_path, record, named):
    path = tmp_path / "series.json"
    path.write_text(json.dumps(record))
    assert named in assert_input_error(capsys, "decompose", "--series", str(path))


# Odd but valid files: zero or huge numbers, a series truncated below its first
# coefficient, and the smallest and largest grids.  Each ends in a documented
# exit code without a traceback.
ODD_DESCRIPTORS = [
    {"1,1": "0", "2": "0"},
    {"1,1": "1e300", "2": "-123456789012345678901234567890/7"},
]
ODD_SERIES = [
    {"weight": 4, "min_exp": 5, "coeffs": ["1", "2"], "order": 3},
    {"weight": 4, "min_exp": -3, "coeffs": ["1", "2"], "order": 2},
    {"weight": 4, "min_exp": 0, "coeffs": [], "order": 0},
]
# A "p/0" number in each kind of file is bad input, not a traceback.
ZERO_DENOMINATOR_FILES = [
    ("genus", {"1,1": "1/0", "2": "0"}),
    ("decompose", {"weight": 4, "min_exp": 0, "coeffs": ["1", "1/0"], "order": 2}),
    ("localize", {"alpha0": "z", "g": "-1", "s": "1/0", "grid": 8}),
]
# An exact number must be a JSON string or integer: a float would be read as its
# binary double (0.1 as 3602879701896397/2^55), and true as 1.
INEXACT_NUMBER_FILES = [
    ("genus", {"1,1": 0.1, "2": "1"}, 'pontryagin_numbers["1,1"]', "0.1"),
    ("genus", {"1,1": "1", "2": True}, 'pontryagin_numbers["2"]', "True"),
    ("decompose", {"weight": 4, "min_exp": 0, "coeffs": [1, 240.5, 2160, 6720, 17520], "order": 5},
     "coeffs[1]", "240.5"),
    ("decompose", {"weight": 4, "min_exp": 0, "coeffs": [True, 240], "order": 2}, "coeffs[0]", "True"),
]


@pytest.mark.parametrize("kind,record", [
    *(("genus", numbers) for numbers in ODD_DESCRIPTORS),
    *(("decompose", series) for series in ODD_SERIES),
    *(("localize", {"alpha0": "z", "g": "-1", "s": "1", "grid": grid}) for grid in (1, MAX_GRID)),
    *ZERO_DENOMINATOR_FILES,
    *((kind, record) for kind, record, _, _ in INEXACT_NUMBER_FILES),
])
def test_odd_files_end_in_a_documented_exit_code(capsys, tmp_path, kind, record):
    assert main(file_argv(tmp_path, kind, record)) in (OK, INPUT_ERROR, IDENTITY_FAILURE)
    assert "Traceback" not in capsys.readouterr().err


def file_argv(tmp_path, kind, record):
    """argv that runs a subcommand on the record, written to tmp_path/in.json
    (for genus, the record is the Pontryagin numbers of a dim-8 descriptor)."""
    path = tmp_path / "in.json"
    if kind == "genus":
        record = {"dim": 8, "pontryagin_numbers": record}
    path.write_text(json.dumps(record))
    extra = ["--t", "0.5", "--t", "2"] if kind == "localize" else []
    return [kind, FILE_FLAGS[kind], str(path), *extra]


FILE_FLAGS = {"genus": "--descriptor", "decompose": "--series", "localize": "--problem"}


@pytest.mark.parametrize("kind,record", ZERO_DENOMINATOR_FILES)
def test_a_zero_denominator_is_an_input_error_naming_the_file(capsys, tmp_path, kind, record):
    err = assert_input_error(capsys, *file_argv(tmp_path, kind, record))
    assert err == f"error: {tmp_path / 'in.json'}: zero denominator: Fraction(1, 0)\n"


@pytest.mark.parametrize("kind,record,field,value", INEXACT_NUMBER_FILES)
def test_an_inexact_number_is_an_input_error_naming_its_field(capsys, tmp_path, kind, record, field, value):
    err = assert_input_error(capsys, *file_argv(tmp_path, kind, record))
    path = tmp_path / "in.json"
    assert err == f"error: {path}: malformed record: {field} must be a JSON string or integer, got {value}\n"


@pytest.mark.parametrize("key", ["a", "", "1,x"])
def test_a_partition_key_that_is_no_integers_is_an_input_error_naming_it(capsys, tmp_path, key):
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"dim": 4, "pontryagin_numbers": {"1": "3", key: "1"}}))
    err = assert_input_error(capsys, "genus", "--descriptor", str(path))
    assert err == (f"error: {path}: malformed record: pontryagin_numbers key {json.dumps(key)} "
                   "is not comma-separated integers\n")


def test_exact_numbers_read_from_strings_and_integers_alike():
    descriptor = ManifoldDescriptor.from_record({"dim": 8, "pontryagin_numbers": {"1,1": 3, "2": "-7/2"}})
    assert descriptor.number((1, 1)) == 3 and descriptor.number((2,)) == Fraction(-7, 2)
    strings = ManifoldDescriptor.from_record({"dim": 8, "pontryagin_numbers": {"1,1": "3", "2": "-7/2"}})
    assert descriptor.to_record() == strings.to_record()
    series = QSeries.from_record({"weight": 4, "min_exp": 0, "coeffs": [1, "240", "1/3"], "order": 3})
    assert series == QSeries(4, {0: 1, 1: 240, 2: Fraction(1, 3)}, 3)


# Integer fields were read through int(), which truncated a float (dim 4.9 as 4)
# and took a bool as 0 or 1, and a string of coefficients was read digit by digit
# ("12" as 1 + 2q); a bool s was read as 1.  Each differs from a valid file only
# in the one field, which the one error line names.
SERIES = {"weight": 4, "min_exp": 0, "coeffs": ["1", "240"], "order": 2}


@pytest.mark.parametrize("kind,record,message", [
    ("genus", {"dim": 4.9, "pontryagin_numbers": {"1": "1"}}, "dim must be a JSON integer, got 4.9"),
    ("genus", {"dim": True, "pontryagin_numbers": {}}, "dim must be a JSON integer, got True"),
    ("decompose", {**SERIES, "weight": 4.5}, "weight must be a JSON integer, got 4.5"),
    ("decompose", {**SERIES, "weight": True}, "weight must be a JSON integer, got True"),
    ("decompose", {**SERIES, "order": 5.7}, "order must be a JSON integer, got 5.7"),
    ("decompose", {**SERIES, "min_exp": 0.5}, "min_exp must be a JSON integer, got 0.5"),
    ("decompose", {**SERIES, "coeffs": "12"}, "coeffs must be a JSON list, got '12'"),
    ("localize", {"alpha0": "z", "g": "-1", "s": True, "grid": 8}, "s must be a number"),
])
def test_a_misread_field_is_an_input_error_naming_it(capsys, tmp_path, kind, record, message):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(record))
    assert message in assert_input_error(capsys, kind, FILE_FLAGS[kind], str(path))


# The exact subcommands never load numpy: it is imported only by the float
# handlers, and bvloc only by localize.  One fresh interpreter (-I: no
# PYTHONPATH, no user site) runs the exact ones first, then the float ones.
NUMPY_FREE_RUNS = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import ellgenus
from ellgenus import cli

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(argv))

tmp = sys.argv[2]
exact = [run("genus", "--descriptor", tmp + "/d.json"), run("witten-class", "--roots", "2", "--dim", "8"),
         run("decompose", "--series", tmp + "/s.json"), run("anomaly", "--roots", "2", "--dim", "8")]
loaded = [name for name in ("numpy", "ellgenus.bvloc") if name in sys.modules]
floats = [run("localize", "--problem", tmp + "/p.json"), run("eisenstein", "--k", "2", "--bound", "50"),
          run("pfaffian-product", "--shells", "4")]
print(json.dumps({"exact": exact, "loaded": loaded, "floats": floats}))
"""


def test_exact_subcommands_do_not_import_numpy(tmp_path):
    write_descriptor(tmp_path, "d.json", 8, {"1,1": "3", "2": "-7/2"})
    e4 = {"weight": 4, "min_exp": 0, "coeffs": ["1", "240", "2160", "6720", "17520"], "order": 5}
    (tmp_path / "s.json").write_text(json.dumps(e4))
    (tmp_path / "p.json").write_text(json.dumps({"alpha0": "z", "g": "-1", "s": "1", "grid": 8}))
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-I", "-c", NUMPY_FREE_RUNS, str(src), str(tmp_path)],
                          capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) == {"exact": [OK] * 4, "loaded": [], "floats": [OK] * 3}


def test_the_localization_names_resolve_from_the_package():
    import ellgenus
    from ellgenus import bv_localize, bvloc

    assert bv_localize is bvloc.bv_localize
    for name in ("EquivariantSurfaceProblem", "FixedPointDegenerate", "bv_localize", "q_closedness_residual"):
        assert getattr(ellgenus, name) is getattr(bvloc, name)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        ellgenus.no_such_name
