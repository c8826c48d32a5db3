"""ellgenus benchmark: the genus, exact and numeric workloads through the CLI.

    python3 perfbench/run.py [--workload genus|exact|numeric|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Run from anywhere; the program is imported from ``src/`` of the checkout
that holds this file.  Each workload runs in fresh child processes: a few
that only set up (for ``setup_s``) and one that measures.  The measuring
child is a closed loop with one client: it calls ``ellgenus.cli.main(argv)``
op after op, each starting when the previous returned, and repeats the op
list while another pass still ends within ``--seconds`` (at least once;
default ``run_seconds`` of BENCHMARK.json).  With ``--trace 1`` it instead
runs the op list once untraced and once with probes on every module
(probes.py) and reports the per-layer metrics.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``failed`` counts every op that exited non-zero,
printed a FAIL verdict or failed its output check; ``correct`` is false when
an op's output is wrong in a way the program did not itself report (see
workloads.check).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_SAMPLES = 9
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

sys.path.insert(0, str(HERE))
import workloads as wl  # noqa: E402

# The op whose latency is largest_op_s: the largest instance of each workload.
LARGEST_OP = {
    "genus": "genus --descriptor genus-d44-generic.json",
    "exact": "anomaly --roots 5 --dim 20 --q-order 10",
    "numeric": "pfaffian-product --exact-shells 0 --roots 3 --dim 12 --shells 50",
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.child:
        return child_main(args)
    if not (SRC / "ellgenus" / "cli.py").is_file():
        print(f"error: no ellgenus sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    print(json.dumps({"header": machine_header(args.seed)}))
    results = {}
    for name in names:
        try:
            results[name], notes = run_workload(name, args.seed, seconds, args.trace, spec)
        except BenchmarkError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 3
        _print_table(name, results[name], notes)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


def _parser():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=wl.WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, help="measuring time per workload (default: run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p


class BenchmarkError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Parent side


def run_workload(name, seed, seconds, trace, spec):
    """(result line, notes) for one workload."""
    if trace:
        plain = _spawn(name, seed, ["--seconds", "0"])
        traced = _spawn(name, seed, ["--seconds", "0", "--trace", "1"])
        if plain["op_list"] != traced["op_list"]:
            raise BenchmarkError("traced and untraced runs executed different op lists")
        layers = traced["layers"]
        layers["trace.overhead_ratio"] = sum(traced["passes"][0]) / sum(plain["passes"][0])
        metrics = _select(spec["per_layer"], layers)
        runs = (plain, traced)
    else:
        setups = [_spawn(name, seed, ["--setup-only"])["setup_s"] for _ in range(SETUP_SAMPLES)]
        run = _spawn(name, seed, ["--seconds", str(seconds)])
        metrics = _select(spec["end_to_end"], end_to_end(name, run, setups))
        runs = (run,)
    result = {
        "correct": all(r["wrong"] == 0 for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }
    return result, list(dict.fromkeys(n for r in runs for n in r["notes"]))


def end_to_end(name, run, setups) -> dict:
    passes = run["passes"]
    largest = run["op_list"].index(LARGEST_OP[name])
    worst = max(run["worst_residual"], wl.RESIDUAL_FLOOR)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(sum(p) for p in passes),
        "op_p50_s": statistics.median(statistics.median(op) for op in zip(*passes)),
        "largest_op_s": statistics.median(p[largest] for p in passes),
        "peak_rss_mb": run["peak_rss_kb"] / 1024,
        "ok_ops_ratio": 1 - run["failed"] / run["attempted"],
        "accuracy_digits": -math.log10(worst),
    }


def _select(declared, values) -> dict:
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchmarkError(f"metrics not produced: {', '.join(missing)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def _spawn(name, seed, extra) -> dict:
    """Run one child to completion; returns its result plus set-up time and peak RSS."""
    env = dict(os.environ, **{k: BLAS_THREADS for k in BLAS_ENV})
    cmd = [sys.executable, "-I", str(HERE / "run.py"), "--child",
           "--workload", name, "--seed", str(seed), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    with proc.stdout:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or ready.strip() != "ready":
        raise BenchmarkError(f"child {' '.join(extra)} exited {proc.returncode}")
    out = json.loads(rest.splitlines()[-1]) if rest.strip() else {}
    out["setup_s"] = setup_s
    out["peak_rss_kb"] = usage.ru_maxrss
    return out


def machine_header(seed) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    cpu = platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": _git_commit(),
        "seed": seed,
    }


def _git_commit() -> str:
    if not (ROOT / ".git").exists():  # an exported checkout: do not let git search above it
        return "unknown"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _print_table(name, result, notes):
    print(f"# {name}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    for note in notes:
        print(f"#   {note}")
    for key, m in result["metrics"].items():
        print(f"{name:8s} {key:48s} {m['value']:>16.6g} {m['unit']}")


# ---------------------------------------------------------------------------
# Child side


def child_main(args) -> int:
    sys.path.insert(0, str(SRC))
    from ellgenus import cli

    if Path(cli.__file__).resolve().parent != SRC / "ellgenus":
        print(f"error: imported ellgenus from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    work = build_and_warm(args.workload, args.seed, cli)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    tracer = None
    if args.trace:
        import probes

        tracer = probes.Tracer().install()
    try:
        result = measure(work, args.seconds, cli, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        tracer.dump_spans(WORK / f"trace-{args.workload}-seed{args.seed}.jsonl")
        try:
            tracer.check_coverage(args.workload)
        except probes.CoverageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        result["layers"] = tracer.metrics()
    print(json.dumps(result))
    return 0


def build_and_warm(name, seed, cli):
    """Set-up: generate the inputs, write them, and run one tiny op."""
    work = wl.build(name, seed)
    directory = WORK / f"{name}-seed{seed}"
    wl.write_inputs(work, directory)
    os.chdir(directory)
    run_op(cli, work.warmup)
    return work


def run_op(cli, argv):
    """One closed-loop op: (seconds, exit code, stdout, stderr).

    An exception escaping the CLI is itself a wrong output: it is kept as exit
    code None with its traceback, and the run goes on."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except (Exception, SystemExit):
            code = None
            err.write(traceback.format_exc())
    return time.perf_counter() - t0, code, out.getvalue(), err.getvalue()


def measure(work, seconds, cli, tracer) -> dict:
    reference = {}
    if work.seed == wl.DEFAULT_SEED:
        reference = wl.load_reference(HERE / "reference_digests.json").get(work.name, {})
    passes, notes = [], []
    failed = wrong = 0
    worst = 0.0
    start = time.perf_counter()
    while True:
        times = []
        for index, op in enumerate(work.ops):
            gc.collect()
            if tracer is not None:
                tracer.op_index = index
            dt, code, stdout, stderr = run_op(cli, op.argv)
            times.append(dt)
            outcome = wl.check(work.name, op, code, stdout, reference.get(op.name))
            worst = max([worst] + outcome.residuals)
            if outcome.status != wl.OK:
                failed += 1
                wrong += outcome.status == wl.WRONG
                detail = stderr.strip().splitlines()[-1:] if code != 2 else []
                note = " ".join([f"{outcome.status}: {op.name}: {outcome.reason}"] + detail)
                if note not in notes:
                    notes.append(note)
        passes.append(times)
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break  # the next pass would not end in time
    return {
        "op_list": [op.name for op in work.ops],
        "passes": passes,
        "attempted": len(passes) * len(work.ops),
        "failed": failed,
        "wrong": wrong,
        "worst_residual": worst,
        "notes": notes,
    }


if __name__ == "__main__":
    sys.exit(main())
