"""The pfaff probes that perfbench requires on a workload fire on its pfaffian-product ops.

perfbench/probes.py names, per probe, the workloads on which it must fire
(``fires_on``); a traced run that leaves one silent exits with a coverage
error.  This test runs every ``pfaffian-product`` op of ``exact`` and
``numeric`` at the default seed under the pfaff probes (and
``dga.unit_inverse``, which the pfaff kernels reach) and checks that each one
assigned to the workload fired.  It reads perfbench/ and writes nothing there.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import probes  # noqa: E402
import workloads as wl  # noqa: E402
from ellgenus import cli  # noqa: E402

PFAFF_PROBES = tuple(p for p in probes.PROBES
                     if p.target.startswith("pfaff.") or p.target == "dga.unit_inverse")


@pytest.mark.parametrize("workload", ["exact", "numeric"])
def test_pfaffian_product_ops_fire_their_workload_probes(workload, capsys):
    ops = [op for op in wl.build(workload, wl.DEFAULT_SEED).ops
           if op.name.startswith("pfaffian-product")]
    assert ops and any(workload in p.fires_on for p in PFAFF_PROBES)
    with probes.Tracer(PFAFF_PROBES) as tracer:
        for op in ops:
            assert cli.main(list(op.argv)) == 0
    capsys.readouterr()
    tracer.check_coverage(workload)
