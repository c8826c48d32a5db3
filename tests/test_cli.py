import json

import pytest

from ellgenus.cli import IDENTITY_FAILURE, INPUT_ERROR, OK, main
from ellgenus.qmod import QSeries, eisenstein_q


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


def test_anomaly_verdict(capsys):
    status, out = run_cli(capsys, "anomaly", "--roots", "1", "--dim", "8", "--q-order", "4")
    assert status == OK
    assert "delta(Wit) == d(A)" in out and "status=OK" in out


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
])
def test_bad_numeric_flags_are_input_errors(capsys, tmp_path, argv, named):
    d = write_descriptor(tmp_path, "d.json", 8, {"1,1": "4", "2": "7"})
    p = tmp_path / "prob.json"
    p.write_text(json.dumps({"alpha0": "z", "g": "-1", "s": "1", "grid": 64}))
    assert named in assert_input_error(capsys, *argv.format(d=d, p=p).split())
