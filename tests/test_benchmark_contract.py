"""Every benchmark op, run once under the full probe set, meets the contract
that perfbench/run.py checks.

A session fixture runs each workload's op list at the default seed, in a
directory of its own, under every probe of perfbench/probes.py, as the traced
benchmark run does.  The four hot ``scalars.*`` operator probes share two
statistics in perfbench; here each gets its own, named after its target, so
a faster path that bypassed one wrapped operator leaves it silent.  From that
one pass:

- each probe assigned to a workload fired on it (``check_coverage``);
- each op's output passes ``workloads.check``;
- each genus and exact op prints the bytes recorded in
  perfbench/reference_digests.json, which change when a refactor moves a
  term's insertion order or a coefficient's last digit.

The test reads perfbench/ and writes nothing there.
"""

import contextlib
import io
import os
import sys
import traceback
from dataclasses import replace
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import probes  # noqa: E402
import workloads as wl  # noqa: E402
from ellgenus import cli  # noqa: E402

PROBES = tuple(replace(p, stat=p.target) if p.target.startswith("scalars.") else p
               for p in probes.PROBES)
REFERENCE = wl.load_reference(PERFBENCH / "reference_digests.json")
DIGESTED = ("genus", "exact")
WORKS = {name: wl.build(name, wl.DEFAULT_SEED) for name in wl.WORKLOADS}
CASES = [(name, op) for name, work in WORKS.items() for op in work.ops]
DIGESTED_CASES = [(name, op) for name, op in CASES if name in DIGESTED]


def case_ids(cases):
    return [f"{name}:{op.name}" for name, op in cases]


@pytest.fixture(scope="session")
def traced(tmp_path_factory):
    """traced(name) -> (tracer, {op name: (exit code, stdout, stderr)}), one pass
    per workload and session.  An exception escaping the CLI is exit code None
    with its traceback as stderr, as in perfbench."""
    passes = {}

    def run(name):
        if name not in passes:
            work = WORKS[name]
            directory = tmp_path_factory.mktemp(name)
            wl.write_inputs(work, directory)
            outputs, cwd = {}, os.getcwd()
            os.chdir(directory)
            try:
                with probes.Tracer(PROBES) as tracer:
                    for op in work.ops:
                        out, err = io.StringIO(), io.StringIO()
                        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                            try:
                                code = cli.main(list(op.argv))
                            except Exception:
                                code = None
                                err.write(traceback.format_exc())
                        outputs[op.name] = (code, out.getvalue(), err.getvalue())
            finally:
                os.chdir(cwd)
            passes[name] = tracer, outputs
        return passes[name]

    return run


def test_the_four_scalar_operator_probes_have_their_own_statistics():
    scalar = [p for p in PROBES if p.target.startswith("scalars.")]
    assert sorted(p.stat for p in scalar) == [
        "scalars.PiScalar.__add__", "scalars.PiScalar.__mul__",
        "scalars.QI.__add__", "scalars.QI.__mul__",
    ]
    assert all(p.hot and "exact" in p.fires_on for p in scalar)


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_every_probe_of_the_workload_fires(traced, name):
    tracer, _ = traced(name)
    tracer.check_coverage(name)


@pytest.mark.parametrize("name,op", CASES, ids=case_ids(CASES))
def test_op_output_passes_the_benchmark_check(traced, name, op):
    code, stdout, stderr = traced(name)[1][op.name]
    outcome = wl.check(name, op, code, stdout)
    assert outcome.status == wl.OK, f"{outcome.status}: {outcome.reason} {stderr}"


def test_every_genus_and_exact_op_has_a_reference_digest():
    for name in DIGESTED:
        assert sorted(REFERENCE[name]) == sorted(op.name for op in WORKS[name].ops)


@pytest.mark.parametrize("name,op", DIGESTED_CASES, ids=case_ids(DIGESTED_CASES))
def test_op_output_matches_the_reference_digest(traced, name, op):
    code, stdout, _ = traced(name)[1][op.name]
    assert code == 0
    assert wl.digest(stdout) == REFERENCE[name][op.name]
