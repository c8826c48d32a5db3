"""Op lists for the three benchmark workloads, and the checks on each op's output.

An op is one call of ``ellgenus.cli.main(argv)`` in ``--format records``.  Its
inputs come from the workload seed only; descriptor and problem files are
written into the working directory under fixed names, so an op's output (which
echoes the file name) is the same wherever the checkout lives.

Workloads (why each exists is recorded in BENCHMARK.json and README.md):

genus    Witten genus of seeded descriptors at growing dimension, plus two
         Witten classes.  Cost is the rational-mode graded algebra.
exact    anomaly cocycle checks and exact dual-route Pfaffian products at a
         seeded decimal tau.  No floats.
numeric  lattice sums, complex-mode products and sphere quadrature.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("genus", "exact", "numeric")
DEFAULT_SEED = 0

# Decimal tau values: re,im as the CLI parses them.  Measured: the choice moves
# the exact r=3 product's time by about 6%.
TAU_CHOICES = ("0,2", "0.25,1.5", "-0.3,1.2")
S_CHOICES = ("0.5", "1.5", "2", "3")

GENUS_DIMS = (16, 24, 32, 36, 40, 44)
ANOMALY_CASES = ((2, 8, 6), (3, 12, 6), (4, 16, 6), (5, 20, 6), (3, 24, 6), (5, 20, 10))
EXACT_PRODUCT_CASES = ((1, 4, 3), (2, 8, 3), (3, 12, 3), (4, 16, 1), (2, 16, 3))

# Residuals below double-precision epsilon carry no information; exact
# workloads, which print no residual, report this floor.
RESIDUAL_FLOOR = 2.0**-52


@dataclass(frozen=True)
class Op:
    """One CLI call.  ``expect`` holds what the output check needs to know."""

    argv: tuple
    expect: dict = field(default_factory=dict)

    @property
    def name(self) -> str:
        return " ".join(self.argv[2:])


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    ops: tuple
    files: dict  # file name -> text, written before the first op
    warmup: tuple  # argv of a tiny op that runs once during set-up


def build(name: str, seed: int) -> Workload:
    """The op list and input files of a workload; a pure function of (name, seed)."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    rng = random.Random(f"perfbench:{name}:{seed}")
    return {"genus": _genus, "exact": _exact, "numeric": _numeric}[name](rng, seed)


def _cli(*args) -> tuple:
    return ("--format", "records") + tuple(str(a) for a in args)


def _partitions(k: int, largest=None):
    largest = k if largest is None else largest
    if k == 0:
        yield ()
        return
    for first in range(min(k, largest), 0, -1):
        for tail in _partitions(k - first, first):
            yield (first,) + tail


def descriptor_record(rng: random.Random, dim: int, string: bool) -> dict:
    """Random rational Pontryagin numbers p/q, |p| <= 99, 1 <= q <= 9.

    A string descriptor zeroes every partition that involves p1, which makes
    the genus modular; a generic one is quasi-modular.
    """
    numbers = {}
    for part in _partitions(dim // 4):
        p = rng.randint(1, 99) * rng.choice((1, -1))
        q = rng.randint(1, 9)
        value = "0" if string and 1 in part else f"{p}/{q}"
        numbers[",".join(map(str, part))] = value
    return {"dim": dim, "pontryagin_numbers": numbers}


def _genus(rng, seed) -> Workload:
    ops, files = [], {}
    for dim in GENUS_DIMS:
        for kind in ("generic", "string"):
            fname = f"genus-d{dim}-{kind}.json"
            files[fname] = json.dumps(descriptor_record(rng, dim, kind == "string"))
            verdict = "modular" if kind == "string" else "quasi-modular"
            ops.append(Op(_cli("genus", "--descriptor", fname), {"dim": dim, "verdict": verdict}))
    for roots, dim in ((2, 16), (3, 20)):
        ops.append(Op(_cli("witten-class", "--roots", roots, "--dim", dim)))
    files["warmup-d8.json"] = json.dumps(descriptor_record(rng, 8, False))
    warmup = _cli("genus", "--descriptor", "warmup-d8.json")
    return Workload("genus", seed, tuple(ops), files, warmup)


def _exact(rng, seed) -> Workload:
    ops = [
        Op(_cli("anomaly", "--roots", r, "--dim", d, "--q-order", q))
        for r, d, q in ANOMALY_CASES
    ]
    for r, d, shells in EXACT_PRODUCT_CASES:
        tau = rng.choice(TAU_CHOICES)
        ops.append(Op(
            _cli("pfaffian-product", "--roots", r, "--dim", d, f"--tau={tau}",
                 "--shells", shells, "--exact-shells", shells),
            {"exact_shells": shells, "shells": shells},
        ))
    warmup = _cli("anomaly", "--roots", 1, "--dim", 4, "--q-order", 2)
    return Workload("exact", seed, tuple(ops), {}, warmup)


def _numeric(rng, seed) -> Workload:
    ops = [
        # the default E2 run: exits 2 at S-residual 1.06e-4 > 1e-4 (a known defect)
        Op(_cli("eisenstein", "--k", 1)),
        Op(_cli("eisenstein", "--k", 1, "--tau=0,1", "--bound", 4000)),
        Op(_cli("eisenstein", "--k", 2)),
        Op(_cli("eisenstein", "--k", 3, f"--tau={rng.choice(TAU_CHOICES)}")),
        Op(_cli("pfaffian-product", "--exact-shells", 0, "--roots", 1, "--dim", 8, "--shells", 2000),
           {"shells": 2000, "exact_shells": 0}),
        Op(_cli("pfaffian-product", "--exact-shells", 0, "--roots", 3, "--dim", 12, "--shells", 50),
           {"shells": 50, "exact_shells": 0}),
    ]
    files = {}
    for grid in (1024, 2048):
        s = rng.choice(S_CHOICES)
        fname = f"sphere-grid{grid}.json"
        files[fname] = json.dumps({"alpha0": "z", "g": f"-1/{s}", "s": s, "grid": grid})
        ops.append(Op(_cli("localize", "--problem", fname, "--t", 0.5, "--t", 1, "--t", 2)))
    files["warmup-sphere.json"] = json.dumps({"alpha0": "z", "g": "-1", "s": "1", "grid": 8})
    warmup = _cli("localize", "--problem", "warmup-sphere.json")
    return Workload("numeric", seed, tuple(ops), files, warmup)


def write_inputs(workload: Workload, directory: Path) -> None:
    """Write the input files, leaving identical ones untouched: on ext4,
    truncating and rewriting a file forces a flush that costs tens of ms."""
    directory.mkdir(parents=True, exist_ok=True)
    for fname, text in workload.files.items():
        path = directory / fname
        if not path.exists() or path.read_text() != text:
            path.write_text(text)


# ---------------------------------------------------------------------------
# Output checks.  A check never raises: it returns an Outcome.

OK, REPORTED_FAIL, WRONG = "ok", "reported-fail", "wrong"


@dataclass
class Outcome:
    """``status`` is ok, reported-fail (a numeric check the CLI itself failed,
    consistently with the residuals it printed) or wrong (anything else)."""

    status: str
    reason: str = ""
    residuals: list = field(default_factory=list)


def digest(stdout: str) -> str:
    """sha256 of the exact part of an output: every line but the float
    convergence rows, whose last digits may differ with the CPU's SIMD paths."""
    exact = [ln for ln in stdout.splitlines() if '"record": "convergence"' not in ln]
    return hashlib.sha256("\n".join(exact).encode()).hexdigest()


def load_reference(path: Path) -> dict:
    return json.loads(path.read_text()) if path.exists() else {}


def check(workload: str, op: Op, exit_code, stdout: str, reference=None) -> Outcome:
    """Check one op's output.  ``reference`` is the recorded ``digest`` of the
    output, given for the genus and exact workloads at the default seed."""
    try:
        records = [json.loads(line) for line in stdout.splitlines()]
        outcome = _check_records(op, exit_code, records)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return Outcome(WRONG, f"unreadable output: {exc!r}")
    if outcome.status == REPORTED_FAIL and workload != "numeric":
        outcome.status = WRONG  # exact identities admit no tolerance
    if outcome.status == OK and reference is not None and digest(stdout) != reference:
        return Outcome(WRONG, "output differs from the recorded reference bytes")
    return outcome


def _check_records(op: Op, exit_code, records: list) -> Outcome:
    config = records[0]
    command = config["subcommand"]
    if config["record"] != "config" or command not in op.argv:
        return Outcome(WRONG, "first record is not this op's config")
    return _CHECKS[command](op, exit_code, config, records[1:])


def _by_kind(records, kind):
    return [r for r in records if r["record"] == kind]


def _exit_ok(exit_code):
    return Outcome(OK) if exit_code == 0 else Outcome(WRONG, f"exit {exit_code}")


def _check_genus(op, exit_code, config, records):
    dim, weight = op.expect["dim"], op.expect["dim"] // 2
    (genus,) = _by_kind(records, "genus")
    (dec,) = _by_kind(records, "decomposition")
    if config["dim"] != dim or genus["weight"] != weight or dec["weight"] != weight:
        return Outcome(WRONG, f"genus weight is not dim/2 = {weight}")
    if dec["verdict"] != op.expect["verdict"]:
        return Outcome(WRONG, f"verdict {dec['verdict']}, expected {op.expect['verdict']}")
    return _exit_ok(exit_code)


def _check_witten_class(op, exit_code, config, records):
    (_,) = _by_kind(records, "witten-class")
    terms = {t["monomial"]: t for t in _by_kind(records, "term")}
    if terms.get("1", {}).get("coeffs") != ["1"] or len(terms) < 2:
        return Outcome(WRONG, "class does not start 1 + ...")
    return _exit_ok(exit_code)


def _check_anomaly(op, exit_code, config, records):
    (verdict,) = _by_kind(records, "verdict")
    if verdict["status"] != "OK":
        return Outcome(REPORTED_FAIL if exit_code == 2 else WRONG, "delta(Wit) != d(A)")
    return _exit_ok(exit_code)


def _table_bounds(shells: int) -> list:
    out, b = [], 1
    while b < shells:
        out.append(b)
        b *= 2
    return out + [shells]


def _check_pfaffian_product(op, exit_code, config, records):
    identities = _by_kind(records, "identity")
    want = list(range(1, op.expect["exact_shells"] + 1))
    if [r["shell"] for r in identities] != want:
        return Outcome(WRONG, "identity records do not cover the exact shells")
    if any(r["status"] != "OK" for r in identities):
        return Outcome(REPORTED_FAIL if exit_code == 2 else WRONG, "product identity failed")
    rows = _by_kind(records, "convergence")
    if [r["shell"] for r in rows] != _table_bounds(op.expect["shells"]):
        return Outcome(WRONG, "convergence table rows are missing")
    for r in rows:
        if not all(math.isfinite(float(v)) for v in r["beta2_coefficient"]):
            return Outcome(WRONG, f"non-finite coefficient at shell {r['shell']}")
    drifts = [float(r["drift"]) for r in rows[1:]]
    if len(drifts) > 1 and not drifts[-1] < drifts[0]:
        return Outcome(WRONG, "the product does not converge as shells are added")
    return _exit_ok(exit_code)


def _numeric_verdict(exit_code, ok: bool, residuals, tolerance) -> Outcome:
    """The CLI's verdict must agree with the residuals it printed."""
    if any(not math.isfinite(r) for r in residuals):
        return Outcome(WRONG, "non-finite residual", residuals)
    if ok != (max(residuals) < tolerance):
        return Outcome(WRONG, "verdict contradicts the printed residuals", residuals)
    if ok:
        out = _exit_ok(exit_code)
    elif exit_code == 2:
        out = Outcome(REPORTED_FAIL, f"residual {max(residuals):.3g} >= tolerance {tolerance:g}")
    else:
        out = Outcome(WRONG, f"failed check exited {exit_code}, not 2")
    out.residuals = residuals
    return out


def _check_eisenstein(op, exit_code, config, records):
    (consistency,) = _by_kind(records, "consistency")
    residuals = [float(consistency["normalized_drift"])]
    residuals += [float(r["value"]) for r in _by_kind(records, "transform-residual")]
    (verdict,) = _by_kind(records, "verdict")
    if len(residuals) != 3:
        return Outcome(WRONG, "missing transform residuals")
    return _numeric_verdict(exit_code, verdict["status"] == "OK", residuals, config["tolerance"])


def _check_localize(op, exit_code, config, records):
    rows = _by_kind(records, "localize")
    if len(rows) != 1 + op.argv.count("--t"):
        return Outcome(WRONG, "missing localize rows")
    residuals = [float(r["residual"]) for r in rows]
    tol = config["tolerance"]
    if any((r["status"] == "OK") != (res < tol) for r, res in zip(rows, residuals)):
        return Outcome(WRONG, "row status contradicts its residual", residuals)
    ok = all(r["status"] == "OK" for r in rows)
    return _numeric_verdict(exit_code, ok, residuals, tol)


_CHECKS = {
    "genus": _check_genus,
    "witten-class": _check_witten_class,
    "anomaly": _check_anomaly,
    "pfaffian-product": _check_pfaffian_product,
    "eisenstein": _check_eisenstein,
    "localize": _check_localize,
}
