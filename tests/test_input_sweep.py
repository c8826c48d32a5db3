"""A seeded sweep of odd command lines and input files through in-process ``cli.main``.

Every case must end in a documented exit code (0, 1 or 2) without an escaping
exception, print nothing on stdout when it exits 1, and print one JSON object
per stdout line under ``--format records``.  The cases are drawn from a fixed
seed, so the list is the same on every run.  Flag values mix cheap valid ones
with zero, negative, non-numeric and non-finite ones, and Im tau <= 0; files
mix valid records with odd numbers (``1/0``, ``1e300``, ``nan``), wrong types,
missing keys and text that is not JSON.  Every size stays well under the CLI
caps, so no case runs for long; the cap tests in test_cli.py cover the
rejected sizes.
"""

import contextlib
import io
import json
from random import Random

from ellgenus.cli import main

SEED = "cli-input-sweep"
CASES = 500

ODD = ["0", "-1", "-7", "x", "", "nan", "inf", "-inf", "1e400", "1.5", "0x10"]
NUMBERS = ["1", "0", "-3", "7/2", "1/0", "0/0", "-1/0", "1e300", "nan", "x", "", " 2 ",
           "1/-2", "3.5", 0, 2, -1, 1.5, None, [], {}]
TAUS = ["0,1", "0,2", "0.5,0.8", "-0.3,1.2", "0,0", "0,-1", "1,-0.5", "0,-0", "nan,1",
        "inf,1", "1,nan", "0,inf", "x", "1", "0,1,2", ",", "0,1e-300"]

# Per subcommand: flag -> cheap valid values (drawn three times in four) and odd ones.
FLAGS = {
    "eisenstein": {"--k": ["1", "2", "4"], "--q-order": ["1", "3"], "--tau": TAUS[:4],
                   "--bound": ["1", "5", "40"], "--tolerance": ["1e-6", "1e-3", "1"]},
    "witten-class": {"--roots": ["0", "1", "2"], "--dim": ["0", "4", "8"],
                     "--q-order": ["1", "3"]},
    "anomaly": {"--roots": ["0", "1", "2"], "--dim": ["0", "4", "8"], "--q-order": ["1", "3"]},
    "pfaffian-product": {"--roots": ["1", "2"], "--dim": ["4", "8"], "--tau": TAUS[:4],
                         "--shells": ["1", "2"], "--exact-shells": ["0", "1"]},
    "genus": {"--q-order": ["1", "3"]},
    "decompose": {},
    "localize": {"--t": ["0.5", "2", "-1"], "--tolerance": ["1e-6", "1e-2", "1e-300"]},
}
# Flags always given: the required ones, and those whose defaults cost the most.
ALWAYS = {"eisenstein": ["--k", "--bound"], "witten-class": ["--roots", "--dim"],
          "anomaly": ["--roots", "--dim"], "pfaffian-product": ["--shells"]}
FILE_FLAG = {"genus": "--descriptor", "decompose": "--series", "localize": "--problem"}


def odd_value(rng, flag):
    if flag == "--tau":
        return rng.choice(TAUS)
    return rng.choice(ODD)


def pick(rng, good, odd):
    return rng.choice(good) if rng.random() < 0.75 else rng.choice(odd)


def number(rng):
    return pick(rng, ["1", "-3", "7/2", "0"], NUMBERS)


def descriptor(rng):
    dim = pick(rng, [4, 8], [0, -4, 3, "8", None, 2.0])
    parts = {4: ["1"], 8: ["1,1", "2"]}.get(dim, [])
    if rng.random() < 0.3:
        parts = rng.sample(["1", "1,1", "2", "1,1,1", "3", "0", "x", "1,-1", ""], rng.randint(0, 4))
    return {"dim": dim, "pontryagin_numbers": {p: number(rng) for p in parts}}


def series(rng):
    coeffs = [number(rng) for _ in range(rng.randint(0, 4))]
    if rng.random() < 0.1:
        coeffs = rng.choice(NUMBERS)
    return {"weight": pick(rng, [0, 4, 6, 8], [2, -2, 3, "4", None]),
            "min_exp": pick(rng, [0, 1], [5, -3, "0", None]),
            "coeffs": coeffs, "order": pick(rng, [2, 4, 6], [0, -1, "3", None])}


# Q-closed fields: alpha0' + s g = 0.
CLOSED = [("z", "-1", "1"), ("2*z", "-1", "2"), ("z**2", "-2*z", "1"), ("z", "-1/2", "2")]


def problem(rng):
    alpha0, g, s = rng.choice(CLOSED)
    record = {"alpha0": pick(rng, [alpha0], ["", "x", "1", 3, None]),
              "g": pick(rng, [g], ["1/0", "nan", "z", None]),
              "s": pick(rng, [s], NUMBERS),
              "grid": pick(rng, [1, 8, 64], [0, -1, "8", 2.5, True, None])}
    if rng.random() < 0.1:
        del record[rng.choice(sorted(record))]
    return record


RECORDS = {"genus": descriptor, "decompose": series, "localize": problem}


def file_text(rng, kind):
    roll = rng.random()
    if roll < 0.06:
        return rng.choice(["", "{", "not json", "[]", "null", '"x"', "1"])
    record = RECORDS[kind](rng)
    if roll < 0.1:
        record = [record]
    return json.dumps(record)


def draw_case(rng, tmp_path, n):
    """(argv, the text of the file it reads, or None)."""
    command = rng.choice(sorted(FLAGS))
    text = None
    argv = ["--format", "records"] if rng.random() < 0.5 else []
    argv.append(command)
    if command in FILE_FLAG:
        if rng.random() < 0.05:
            path = tmp_path / "missing.json"
        else:
            path = tmp_path / f"in{n}.json"
            text = file_text(rng, command)
            path.write_text(text)
        argv += [FILE_FLAG[command], str(path)]
    for flag, good in FLAGS[command].items():
        if flag in ALWAYS.get(command, ()) or rng.random() < 0.5:
            value = rng.choice(good) if rng.random() < 0.75 else odd_value(rng, flag)
            argv.append(f"{flag}={value}")
            if flag == "--t" and rng.random() < 0.3:
                argv.append(f"--t={rng.choice(good)}")
    return argv, text


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(list(argv))
    return status, out.getvalue()


def test_seeded_inputs_end_in_a_documented_exit_code(tmp_path):
    rng = Random(SEED)
    failures, seen = [], set()
    for n in range(CASES):
        argv, text = draw_case(rng, tmp_path, n)
        case = f"argv {argv}" + ("" if text is None else f" reading {text!r}")
        try:
            status, out = run(argv)
        except (Exception, SystemExit) as exc:  # noqa: BLE001 - an escape is the failure reported
            failures.append(f"{case}: raised {type(exc).__name__}: {exc}")
            continue
        seen.add(status)
        if status not in (0, 1, 2):
            failures.append(f"{case}: exit code {status!r}")
        elif status == 1 and out:
            failures.append(f"{case}: stdout on exit 1: {out[:200]!r}")
        elif "records" in argv:
            for line in out.splitlines():
                try:
                    json.loads(line)
                except ValueError:
                    failures.append(f"{case}: stdout line is not JSON: {line[:200]!r}")
                    break
    assert not failures, "\n".join(failures)
    assert seen == {0, 1, 2}  # the sweep reaches success, bad input and a failed identity
