"""Command-line front door: drives every module from descriptor files and flags.

Reports are deterministic: repeated runs with the same configuration produce
byte-identical output.  Two formats are supported: ``text`` (human tables) and
``records`` (line-delimited JSON with stable field names).  Every report
starts with the full effective configuration.  Exit codes: 0 success, 1 input
error, 2 mathematical identity violated.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import dga
from .bvloc import EquivariantSurfaceProblem, bv_localize
from .dga import differential
from .geom import ChernRootModel, ManifoldDescriptor
from .pfaff import (
    PfaffianRouteMismatch,
    block_norm_pfaffian,
    product_exponential_form,
    regularized_product,
)
from .qmod import (
    GAMMA_S,
    GAMMA_T,
    NoDecomposition,
    QSeries,
    LatticeOrdering,
    default_ordering,
    eisenstein_lattice,
    eisenstein_q,
    quasi_modular_decompose,
    transform_residual,
    z2plus_shell,
)
from .scalars import QI, zeta_even_over_pi_power
from .witten import (
    anomaly_delta,
    anomaly_primitive,
    string_modularity_check,
    witten_class,
)

OK, INPUT_ERROR, IDENTITY_FAILURE = 0, 1, 2


class Report:
    def __init__(self, fmt: str):
        self.fmt = fmt
        self.lines = []

    def record(self, **fields):
        if self.fmt == "records":
            self.lines.append(json.dumps(fields))
        else:
            kind = fields.pop("record", "info")
            body = "  ".join(f"{k}={_plain(v)}" for k, v in fields.items())
            self.lines.append(f"[{kind}] {body}")

    def emit(self):
        sys.stdout.write("\n".join(self.lines) + "\n")


def _plain(v):
    return v if isinstance(v, str) else json.dumps(v)


def _cpx(value: complex) -> list:
    """Complex numbers serialize as pairs of decimal strings."""
    return [repr(float(value.real)), repr(float(value.imag))]


def _parse_tau(text: str) -> complex:
    re, _, im = text.partition(",")
    tau = complex(float(re), float(im))
    if not cmath.isfinite(tau):
        raise ValueError(f"--tau {text}: both parts must be finite")
    if tau.imag <= 0:
        raise ValueError("tau must have positive imaginary part")
    return tau


def _check_tolerance(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"--tolerance must be finite and > 0, got {tol!r}")


def _check_q_order(q_order: int) -> None:
    if q_order < 1:
        raise ValueError("need --q-order >= 1")


def _tau_exact(text: str) -> QI:
    re, _, im = text.partition(",")
    return QI(Fraction(re), Fraction(im))


def _read_record(path: str, parse):
    """parse(record) for the JSON object in a file; a malformed one is a ValueError."""
    with open(path) as fh:
        record = json.load(fh)
    if not isinstance(record, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(record).__name__}")
    try:
        return parse(record)
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"{path}: malformed record: {exc}") from exc


def _config_record(report: Report, args, **extra):
    fields = {"record": "config", "subcommand": args.command, "format": args.format}
    fields.update(extra)
    report.record(**fields)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    report = Report(args.format)
    try:
        status = args.handler(args, report)
    except (OSError, ValueError, KeyError, NoDecomposition, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except PfaffianRouteMismatch as exc:
        print(f"identity violated: {exc}", file=sys.stderr)
        return IDENTITY_FAILURE
    report.emit()
    return status


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ellgenus",
        description="Eisenstein series, regularized Pfaffians, the Witten genus, "
        "and localization checks",
    )
    parser.add_argument("--format", choices=("text", "records"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eisenstein", help="q-table, lattice value, transform residuals")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q-order", type=int, default=10)
    p.add_argument("--tau", default="0,2", help="complex as re,im decimals")
    p.add_argument("--bound", type=int, default=2000)
    p.add_argument("--ordering", choices=("shells", "rowmajor", "z2plus"), default=None)
    p.add_argument("--tolerance", type=float, default=None)
    p.set_defaults(handler=_cmd_eisenstein)

    p = sub.add_parser("witten-class", help="Witten class of a Chern-root model")
    p.add_argument("--roots", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--q-order", type=int, default=10)
    p.set_defaults(handler=_cmd_witten_class)

    p = sub.add_parser("genus", help="Witten genus and modularity report")
    p.add_argument("--descriptor", required=True, help="manifold descriptor JSON file")
    p.add_argument("--q-order", type=int, default=10)
    p.set_defaults(handler=_cmd_genus)

    p = sub.add_parser("decompose", help="quasi-modular decomposition of a series file")
    p.add_argument("--series", required=True, help="q-series JSON file")
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("pfaffian-product", help="shell-bound convergence table")
    p.add_argument("--roots", type=int, default=1)
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--tau", default="0,2")
    p.add_argument("--shells", type=int, default=50)
    p.add_argument("--exact-shells", type=int, default=3,
                   help="verify the exponential identity exactly up to this bound")
    p.set_defaults(handler=_cmd_pfaffian_product)

    p = sub.add_parser("anomaly", help="verify delta(Wit) == d(A)")
    p.add_argument("--roots", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--q-order", type=int, default=6)
    p.set_defaults(handler=_cmd_anomaly)

    p = sub.add_parser("localize", help="fixed-point localization report")
    p.add_argument("--problem", required=True, help="surface problem JSON file")
    p.add_argument("--t", type=float, action="append", default=None,
                   help="exp(t alpha) family parameter (repeatable)")
    p.add_argument("--tolerance", type=float, default=1e-6)
    p.set_defaults(handler=_cmd_localize)
    return parser


# ---------------------------------------------------------------------------


def _cmd_eisenstein(args, report: Report) -> int:
    if args.k < 1 or args.q_order < 1:
        raise ValueError("need --k >= 1 and --q-order >= 1")
    tau = _parse_tau(args.tau)
    ordering = LatticeOrdering(args.ordering) if args.ordering else default_ordering(args.k)
    tol = args.tolerance if args.tolerance is not None else (1e-4 if args.k == 1 else 1e-6)
    _check_tolerance(tol)
    _config_record(
        report, args, k=args.k, q_order=args.q_order, tau=_cpx(tau), bound=args.bound,
        ordering=ordering.variant, tolerance=tol,
    )
    series = eisenstein_q(args.k, args.q_order)
    rec = series.to_record()
    report.record(record="qseries", rendered=series.render(), **rec)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # checked below
        try:
            lattice = eisenstein_lattice(args.k, tau, ordering, args.bound)
            residuals = [
                (name, abs(transform_residual(args.k, gamma, tau, args.bound, ordering)))
                for name, gamma in (("T", GAMMA_T), ("S", GAMMA_S))
            ]
            finite = cmath.isfinite(lattice) and all(math.isfinite(res) for _, res in residuals)
        except OverflowError:
            finite = False
    if not finite:
        raise ValueError(
            f"--tau {args.tau}: the lattice value or a transform residual is not finite "
            "in double precision"
        )
    report.record(record="lattice", value=_cpx(lattice))
    # consistency: lattice / (2 zeta(2k)) vs the series at q = e^{2 pi i tau};
    # evaluated at a fixed deep order so series truncation cannot mask drift
    two_zeta = 2 * float(zeta_even_over_pi_power(args.k)) * math.pi ** (2 * args.k)
    qval = cmath.exp(2j * math.pi * tau)
    drift = abs(lattice / two_zeta - eisenstein_q(args.k, 30).evaluate(qval))
    report.record(record="consistency", normalized_drift=repr(drift), tolerance=tol)
    worst = drift
    for name, res in residuals:
        worst = max(worst, res)
        report.record(record="transform-residual", gamma=name, value=repr(res))
    verdict = "OK" if worst < tol else "FAIL"
    report.record(record="verdict", status=verdict)
    return OK if verdict == "OK" else IDENTITY_FAILURE


def _cmd_witten_class(args, report: Report) -> int:
    model = ChernRootModel(args.roots, args.dim)
    cls = witten_class(model, args.q_order)
    _config_record(report, args, roots=args.roots, dim=args.dim, q_order=args.q_order)
    report.record(record="witten-class", rendered=cls.render())
    alg = model.algebra
    for mono in sorted(cls.terms, key=lambda m: (alg.form_degree(m), m)):
        series = cls.terms[mono]
        name = "·".join(f"{alg.gens[i].name}^{e}" if e != 1 else alg.gens[i].name for i, e in mono) or "1"
        report.record(record="term", monomial=name, **series.to_record())
    return OK


def _cmd_genus(args, report: Report) -> int:
    _check_q_order(args.q_order)
    descriptor = _read_record(args.descriptor, ManifoldDescriptor.from_record)
    _config_record(
        report, args, descriptor=args.descriptor, dim=descriptor.dim,
        pontryagin_numbers=descriptor.to_record()["pontryagin_numbers"],
        q_order=args.q_order, decomposition_basis="constant-term-1 series E2,E4,E6",
    )
    try:
        out = string_modularity_check(descriptor, args.q_order)
    except NoDecomposition as exc:
        # every genus is quasi-modular; reaching this is an identity failure
        report.record(record="verdict", status="FAIL", reason=str(exc))
        return IDENTITY_FAILURE
    genus = out["genus"]
    report.record(record="genus", rendered=genus.render(), **genus.to_record())
    report.record(
        record="decomposition",
        weight=out["weight"],
        polynomial=out["decomposition"].render(),
        e2_part=_mono_dict(out["e2_coefficient"]),
        verdict=out["verdict"],
    )
    return OK


def _mono_dict(coeffs: dict) -> dict:
    names = ("E2", "E4", "E6")
    out = {}
    for mono in sorted(coeffs):
        key = "*".join(f"{names[i]}^{e}" if e > 1 else names[i] for i, e in enumerate(mono) if e) or "1"
        out[key] = str(coeffs[mono])
    return out


def _cmd_decompose(args, report: Report) -> int:
    series = _read_record(args.series, QSeries.from_record)
    _config_record(report, args, series=args.series, weight=series.weight, order=series.order)
    try:
        dec = quasi_modular_decompose(series)
    except NoDecomposition as exc:
        report.record(record="decomposition", status="no-decomposition", reason=str(exc))
        return OK
    report.record(
        record="decomposition",
        status="ok",
        polynomial=dec.render(),
        verdict="modular" if dec.is_modular else "quasi-modular",
    )
    return OK


def _cmd_pfaffian_product(args, report: Report) -> int:
    if args.dim % 4 or args.dim < 4:
        raise ValueError("--dim must be a positive multiple of 4")
    if args.roots < 1:
        raise ValueError("need --roots >= 1")
    tau = _parse_tau(args.tau)
    _config_record(
        report, args, roots=args.roots, dim=args.dim, tau=_cpx(tau),
        shells=args.shells, exact_shells=args.exact_shells,
    )
    model = ChernRootModel(args.roots, args.dim)
    # exact identity at small shell bounds (pi mode, dual-route Pfaffians inside)
    tau_exact = _tau_exact(args.tau)
    for bound in range(1, min(args.exact_shells, args.shells) + 1):
        prod = regularized_product(model, bound, tau_exact, dga.PI)
        expform = product_exponential_form(model, bound, tau_exact, dga.PI)
        if prod != expform:
            report.record(record="identity", shell=bound, status="FAIL")
            return IDENTITY_FAILURE
        report.record(record="identity", shell=bound, status="OK")
    # numeric convergence table for the beta^2 x1^2 coefficient
    alg = model.algebra
    key = ((alg.index["b"], 2), (alg.index["x1"], 2))
    bounds = _table_bounds(args.shells)
    prev = None
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # checked below
        table = list(_product_table(model, bounds, tau))
    for bound, value in table:
        coeff = value.terms.get(key, 0j)
        if not cmath.isfinite(coeff):
            raise ValueError(
                f"--tau {args.tau}: the shell-{bound} coefficient {coeff!r} is not finite "
                "in double precision"
            )
        drift = abs(coeff - prev) if prev is not None else float("nan")
        report.record(
            record="convergence", shell=bound, beta2_coefficient=_cpx(coeff),
            drift=repr(drift),
        )
        prev = coeff
    return OK


def _product_table(model, bounds, tau):
    """Products at several shell bounds: the closed form per bound for one root,
    a single incremental pass over the blocks shell by shell otherwise."""
    if model.r == 1:
        for bound in bounds:
            yield bound, regularized_product(model, bound, tau, dga.COMPLEX, verify_routes=False)
        return
    want = set(bounds)
    acc = model.algebra.one(dga.COMPLEX)
    for s in range(1, max(bounds) + 1):
        n, m = z2plus_shell(s)
        for point in zip(n.tolist(), m.tolist()):
            acc = acc * block_norm_pfaffian(point, model, tau, dga.COMPLEX, False)
        if s in want:
            yield s, acc


def _table_bounds(shells: int):
    out, b = [], 1
    while b < shells:
        out.append(b)
        b *= 2
    out.append(shells)
    return out


def _cmd_anomaly(args, report: Report) -> int:
    _check_q_order(args.q_order)
    model = ChernRootModel(args.roots, args.dim)
    if model.p1().is_zero():
        raise ValueError("the anomaly divides by p1, which is zero here: need --roots >= 1 and --dim >= 4")
    _config_record(report, args, roots=args.roots, dim=args.dim, q_order=args.q_order)
    delta = anomaly_delta(model, args.q_order)
    da = differential(anomaly_primitive(model, args.q_order))
    if da == delta:
        report.record(record="verdict", check="delta(Wit) == d(A)", status="OK")
        return OK
    report.record(record="verdict", check="delta(Wit) == d(A)", status="FAIL")
    return IDENTITY_FAILURE


def _cmd_localize(args, report: Report) -> int:
    _check_tolerance(args.tolerance)
    problem = _read_record(args.problem, EquivariantSurfaceProblem.from_record)
    _config_record(
        report, args, problem=args.problem, s=str(problem.s), grid=problem.grid,
        tolerance=args.tolerance,
    )
    family = [None] + (args.t or [])
    status = OK
    for t in family:
        out = bv_localize(problem, t)
        ok = out["residual"] < args.tolerance
        if not ok:
            status = IDENTITY_FAILURE
        report.record(
            record="localize", t="base" if t is None else repr(t),
            lhs=repr(out["lhs"]), rhs=repr(out["rhs"]), residual=repr(out["residual"]),
            status="OK" if ok else "FAIL",
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
