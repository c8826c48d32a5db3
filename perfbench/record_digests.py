"""Record the output digests of the genus and exact ops at the default seed.

    python3 perfbench/record_digests.py

Writes perfbench/reference_digests.json, which run.py byte-compares against.
Exact output must stay byte-identical, so rerun this only when an output
format change is intended.
"""

import json
import os
import sys

import run
import workloads as wl


def main():
    sys.path.insert(0, str(run.SRC))
    from ellgenus import cli

    reference = {}
    for name in ("genus", "exact"):
        work = run.build_and_warm(name, wl.DEFAULT_SEED, cli)
        reference[name] = {op.name: wl.digest(run.run_op(cli, op.argv)[2]) for op in work.ops}
    os.chdir(run.HERE)
    with open("reference_digests.json", "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
