"""The probes that perfbench requires on a workload fire on its pfaffian-product
and anomaly ops.

perfbench/probes.py names, per probe, the workloads on which it must fire
(``fires_on``); a traced run that leaves one silent exits with a coverage
error.  This test runs every ``pfaffian-product`` op of ``exact`` and
``numeric`` at the default seed under the pfaff probes (and
``dga.unit_inverse``, which the pfaff kernels reach) and the four hot
``scalars.*`` operator probes, and checks that each one assigned to the
workload fired.  It runs the ``anomaly`` ops of ``exact`` the same way under
the probes on the two dga kernels and the three witten anomaly functions, so
a faster anomaly check that stopped calling one of them fails here.  The scalar probes share two statistics in perfbench, so here
each gets its own, named after its target: a faster path that bypassed one
wrapped operator would leave it silent.  The test reads perfbench/ and writes
nothing there.
"""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import probes  # noqa: E402
import workloads as wl  # noqa: E402
from ellgenus import cli  # noqa: E402

PFAFF_PROBES = tuple(p for p in probes.PROBES
                     if p.target.startswith("pfaff.") or p.target == "dga.unit_inverse")
SCALAR_PROBES = tuple(replace(p, stat=p.target) for p in probes.PROBES
                      if p.target.startswith("scalars."))
ANOMALY_TARGETS = ("dga.substitute", "dga.differential", "witten.gamma_transform",
                   "witten.anomaly_delta", "witten.anomaly_primitive")
ANOMALY_PROBES = tuple(p for p in probes.PROBES if p.target in ANOMALY_TARGETS)


def test_the_four_scalar_operator_probes_are_required_on_exact():
    assert sorted(p.target for p in SCALAR_PROBES) == [
        "scalars.PiScalar.__add__", "scalars.PiScalar.__mul__",
        "scalars.QI.__add__", "scalars.QI.__mul__",
    ]
    assert all(p.hot and "exact" in p.fires_on for p in SCALAR_PROBES)


@pytest.mark.parametrize("workload", ["exact", "numeric"])
def test_pfaffian_product_ops_fire_their_workload_probes(workload, capsys):
    ops = [op for op in wl.build(workload, wl.DEFAULT_SEED).ops
           if op.name.startswith("pfaffian-product")]
    assert ops and any(workload in p.fires_on for p in PFAFF_PROBES)
    with probes.Tracer(PFAFF_PROBES + SCALAR_PROBES) as tracer:
        for op in ops:
            assert cli.main(list(op.argv)) == 0
    capsys.readouterr()
    tracer.check_coverage(workload)


def test_anomaly_ops_fire_the_anomaly_probes(capsys):
    ops = [op for op in wl.build("exact", wl.DEFAULT_SEED).ops if op.name.startswith("anomaly")]
    assert ops and sorted(p.target for p in ANOMALY_PROBES) == sorted(ANOMALY_TARGETS)
    assert all("exact" in p.fires_on for p in ANOMALY_PROBES)
    with probes.Tracer(ANOMALY_PROBES) as tracer:
        for op in ops:
            assert cli.main(list(op.argv)) == 0
    capsys.readouterr()
    tracer.check_coverage("exact")
