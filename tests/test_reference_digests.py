"""Every genus and exact benchmark op at the default seed prints the recorded bytes.

The digests in perfbench/reference_digests.json hash each op's stdout minus
its float convergence rows.  A refactor that moves a term's insertion order
or a coefficient's last digit changes them; this test reads them (and the
workload definitions) without writing anything under perfbench/.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads as wl  # noqa: E402
from ellgenus import cli  # noqa: E402

REFERENCE = wl.load_reference(PERFBENCH / "reference_digests.json")
WORKS = {name: wl.build(name, wl.DEFAULT_SEED) for name in ("genus", "exact")}
CASES = [(name, op) for name, work in WORKS.items() for op in work.ops]


def test_every_op_has_a_reference_digest():
    for name, work in WORKS.items():
        assert sorted(REFERENCE[name]) == sorted(op.name for op in work.ops)


@pytest.mark.parametrize("name,op", CASES, ids=[f"{n}:{op.name}" for n, op in CASES])
def test_op_output_matches_the_reference_digest(name, op, tmp_path, monkeypatch, capsys):
    wl.write_inputs(WORKS[name], tmp_path)
    monkeypatch.chdir(tmp_path)
    code = cli.main(list(op.argv))
    stdout = capsys.readouterr().out
    assert code == 0
    assert wl.digest(stdout) == REFERENCE[name][op.name]
