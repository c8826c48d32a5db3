"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import probes  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from ellgenus import cli, dga, qmod, witten  # noqa: E402


def _fingerprint(work):
    return [op.argv for op in work.ops], work.files, work.warmup


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(name):
    assert _fingerprint(wl.build(name, 7)) == _fingerprint(wl.build(name, 7))
    assert len({repr(_fingerprint(wl.build(name, s))) for s in range(4)}) > 1


def test_workload_sizes_match_the_spec():
    assert [len(wl.build(n, 0).ops) for n in wl.WORKLOADS] == [14, 11, 8]
    for name, op_name in run.LARGEST_OP.items():
        assert op_name in [op.name for op in wl.build(name, 3).ops]


def test_string_descriptor_zeroes_p1_partitions():
    import random

    rec = wl.descriptor_record(random.Random(1), 24, string=True)
    for part, value in rec["pontryagin_numbers"].items():
        assert (value == "0") == ("1" in part.split(","))


def _run(argv, tmp_path, monkeypatch, files=None):
    monkeypatch.chdir(tmp_path)
    for fname, text in (files or {}).items():
        (tmp_path / fname).write_text(text)
    _, code, stdout, _ = run.run_op(cli, argv)
    return code, stdout


def test_checks_pass_real_output_and_flag_corrupted_records(tmp_path, monkeypatch):
    work = wl.build("genus", 0)
    op = work.ops[0]
    code, stdout = _run(op.argv, tmp_path, monkeypatch, work.files)
    assert wl.check("genus", op, code, stdout).status == wl.OK
    lines = stdout.splitlines()
    flipped = stdout.replace('"verdict": "quasi-modular"', '"verdict": "modular"')
    for corrupted in (flipped, "\n".join(lines[:-1]), stdout[:-20], stdout.replace('"weight": 8', '"weight": 6')):
        assert wl.check("genus", op, code, corrupted).status == wl.WRONG
    assert wl.check("genus", op, code, stdout, reference="0" * 64).status == wl.WRONG
    assert wl.check("genus", op, code, stdout, reference=wl.digest(stdout)).status == wl.OK


def test_numeric_failure_reported_by_the_cli_counts_but_is_not_wrong(tmp_path, monkeypatch):
    op = wl.Op(wl._cli("eisenstein", "--k", 2, "--bound", 8, "--tolerance", 1e-30))
    code, stdout = _run(op.argv, tmp_path, monkeypatch)
    outcome = wl.check("numeric", op, code, stdout)
    assert (code, outcome.status) == (2, wl.REPORTED_FAIL)
    lying = stdout.replace('"status": "FAIL"', '"status": "OK"')
    assert wl.check("numeric", op, code, lying).status == wl.WRONG
    assert wl.check("exact", op, code, stdout).status == wl.WRONG


def _recording_cli(output):
    calls = []

    def main(argv):
        calls.append(tuple(argv))
        print(output)
        return 0

    return types.SimpleNamespace(main=main), calls


def test_corrupted_output_counts_as_failed_op_and_the_run_continues():
    work = wl.build("exact", 0)
    fake, calls = _recording_cli('{"record": "config", "subcommand": "anomaly"')
    result = run.measure(work, 0, fake, None)
    assert result["attempted"] == len(work.ops) == len(calls)
    assert result["failed"] == result["wrong"] == len(work.ops)


def test_traced_and_untraced_runs_execute_identical_op_lists():
    work = wl.build("numeric", 5)
    fake, plain_calls = _recording_cli("{}")
    plain = run.measure(work, 0, fake, None)
    fake, traced_calls = _recording_cli("{}")
    with probes.Tracer() as tracer:
        traced = run.measure(work, 0, fake, tracer)
    assert plain_calls == traced_calls == [op.argv for op in work.ops]
    assert plain["op_list"] == traced["op_list"]


def test_probes_rebind_imported_names_and_operator_aliases():
    original_exp = dga.exp_nilpotent
    with probes.Tracer():
        assert witten.exp_nilpotent is dga.exp_nilpotent is not original_exp
        assert cli.regularized_product.__wrapped__ is not None
        assert qmod.QSeries.__rmul__ is qmod.QSeries.__mul__
        assert hasattr(qmod.QSeries.__mul__, "__wrapped__")
    assert witten.exp_nilpotent is dga.exp_nilpotent is original_exp
    assert not hasattr(qmod.QSeries.__rmul__, "__wrapped__")


def test_probe_on_a_missing_function_fails_at_install():
    tracer = probes.Tracer(probes.PROBES + (probes.Probe("dga.no_such_function", "dga.gone"),))
    with pytest.raises(KeyError):
        tracer.install()
    assert not hasattr(dga.exp_nilpotent, "__wrapped__")


def test_coverage_check_trips_when_a_layer_goes_blank(tmp_path, monkeypatch):
    small = wl.build("genus", 0)
    genus_op, class_op = small.ops[0], wl.Op(wl._cli("witten-class", "--roots", 2, "--dim", 8))
    with probes.Tracer() as tracer:
        for op in (genus_op, class_op):
            _run(op.argv, tmp_path, monkeypatch, small.files)
    tracer.check_coverage("genus")
    metrics = tracer.metrics()
    assert metrics["witten.q_evaluate.calls"] == 1
    assert metrics["cli.main.self_s"] > 0

    with probes.Tracer() as tracer:
        _run(genus_op.argv, tmp_path, monkeypatch, small.files)
    with pytest.raises(probes.CoverageError, match="witten.q_evaluate"):
        tracer.check_coverage("genus")


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    with probes.Tracer() as tracer:
        pass
    produced = set(tracer.metrics()) | {"trace.overhead_ratio"}
    assert {m["name"] for m in spec["per_layer"]} <= produced
