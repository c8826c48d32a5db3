"""Command-line front door: drives every module from descriptor files and flags.

Reports are deterministic: repeated runs with the same configuration produce
byte-identical output.  Two formats are supported: ``text`` (human tables) and
``records`` (line-delimited JSON with stable field names).  Every report
starts with the full effective configuration.  Exit codes: 0 success, 1 input
error, 2 mathematical identity violated.

Only ``eisenstein``, ``pfaffian-product`` and ``localize`` compute in floats.
Their handlers import numpy (and ``localize`` imports ``bvloc``) when they run,
so the exact subcommands never load it.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from fractions import Fraction

from . import dga
from .dga import differential
from .geom import ChernRootModel, ManifoldDescriptor
from .pfaff import (
    PfaffianRouteMismatch,
    product_exponential_form,
    regularized_product,
    shell_products,
)
from .qmod import (
    GAMMA_S,
    GAMMA_T,
    ROWMAJOR,
    NoDecomposition,
    QSeries,
    e_monomial_name,
    eisenstein_lattice,
    eisenstein_q,
    quasi_modular_decompose,
    transform_residual,
)
from .scalars import QI, bernoulli, zeta_even_over_pi_power
from .witten import (
    anomaly_delta,
    anomaly_primitive,
    partition_numbers,
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


# largest eisenstein --k: B_2k takes a quadratic number of exact Fraction steps,
# and B_800 alone takes about 5 s
MAX_K = 400
# largest q-series order read from a flag or a file: decompose's exact solve and
# the genus's series products are quadratic in it, about 2-3 s at 512
MAX_Q_ORDER = 512
MIN_SERIES_ORDER = 30  # least q-series order of the eisenstein consistency check
MAX_SERIES_ORDER = 8192  # its cap; k = 1 and k = 2 stay under it at every row-major tau
MAX_BOUND = 4096  # largest eisenstein --bound: about 2 s at the least Im tau
# largest _class_terms for witten-class, anomaly and pfaffian-product: anomaly takes
# 1.6 s at --roots 5 --dim 24 (3683 terms) and 26 s at --roots 6 --dim 32 (47887)
MAX_CLASS_TERMS = 4096
# largest E-monomials x --q-order^2 of the q-evaluation: 2 minutes at 9.2e8 (anomaly
# --roots 1 --dim 84 --q-order 512)
MAX_SERIES_WORK = 2**24
MAX_SHELLS = 4096  # largest pfaffian-product --shells: about 3 s at --roots 1 --dim 80
# largest pfaffian-product block work, (loop blocks + EXACT_BLOCK_COST x exact-check
# blocks) x roots x dim/4: up to about 0.1 ms a unit
MAX_BLOCK_WORK, EXACT_BLOCK_COST = 2**16, 64


def _series_order(k: int, im: float) -> int:
    """Least order >= MIN_SERIES_ORDER (at most MAX_SERIES_ORDER) at which the
    dropped terms of the normalized E_2k series, about
    |4k / B_2k| n^{2k-1} |q|^n / (1 - |q|) with |q| = e^{-2 pi im}, are below 1e-17.
    The terms grow up to n = (2k - 1) / (2 pi im), so the order is at least that."""
    log_q = -2 * math.pi * im
    pref = 4 * k / bernoulli(2 * k)  # exact: its float under- or overflows at large k
    log_pref = (
        math.log(abs(pref.numerator)) - math.log(pref.denominator) - math.log(-math.expm1(log_q))
    )
    order = min(MAX_SERIES_ORDER, max(MIN_SERIES_ORDER, math.ceil((2 * k - 1) / -log_q)))
    while order < MAX_SERIES_ORDER and (
        log_pref + (2 * k - 1) * math.log(order) + order * log_q > math.log(1e-17)
    ):
        order += 1
    return order


def _two_zeta(k: int) -> float:
    """2 zeta(2k) = 2 r pi^(2k), r rational, rounded once from the exact product
    with float pi: pi^(2k) and r alone over- and underflow from k ~ 310 on."""
    return float(2 * zeta_even_over_pi_power(k) * Fraction(math.pi) ** (2 * k))


def _check_tolerance(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"--tolerance must be finite and > 0, got {tol!r}")


def _check_q_order(q_order: int) -> None:
    if not 1 <= q_order <= MAX_Q_ORDER:
        raise ValueError(f"need --q-order >= 1 and --q-order <= {MAX_Q_ORDER}, got {q_order}")


def _class_terms(roots: int, dim: int) -> int:
    """Witten-class terms, counted up to just past MAX_CLASS_TERMS without building the
    class: sum over d <= dim/4 of C(roots - 1 + d, d) monomials in the x_j^2 times the
    p(d) E-monomials of weight 2d; one root: E-monomials."""
    if roots < 1:
        return 1
    total = 0
    for d, p in zip(range(dim // 4 + 1), partition_numbers()):
        total += math.comb(roots - 1 + d, d) * p
        if total > MAX_CLASS_TERMS:
            break
    return total


def _check_model_size(roots: int, dim: int, q_order: int = 0) -> None:
    """Reject a class, or with q_order > 0 its q-evaluation, over its cap before building it."""
    if _class_terms(roots, dim) > MAX_CLASS_TERMS:
        raise ValueError(f"--roots {roots} --dim {dim}: over cli.MAX_CLASS_TERMS = {MAX_CLASS_TERMS} terms")
    if _class_terms(min(roots, 1), dim) * q_order**2 > MAX_SERIES_WORK:
        raise ValueError(f"--dim {dim} --q-order {q_order}: over cli.MAX_SERIES_WORK = {MAX_SERIES_WORK}")


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
    except ZeroDivisionError as exc:  # a "p/0" number
        raise ValueError(f"{path}: zero denominator: {exc}") from exc


def _config_record(report: Report, args, **extra):
    fields = {"record": "config", "subcommand": args.command, "format": args.format}
    fields.update(extra)
    report.record(**fields)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed --help, or its usage and the error
        return OK if exc.code == 0 else INPUT_ERROR
    report = Report(args.format)
    try:
        status = args.handler(args, report)
    except (OSError, ValueError, KeyError, NoDecomposition, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except PfaffianRouteMismatch as exc:
        detail = "".join(f"  {k}={v}" for k, v in _first_difference(exc.lhs, exc.rhs).items())
        print(f"identity violated: {exc}{detail}", file=sys.stderr)
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
    import numpy as np

    if not 1 <= args.k <= MAX_K or not 1 <= args.bound <= MAX_BOUND:
        raise ValueError(f"need 1 <= --k <= {MAX_K}, --bound >= 1 and --bound <= {MAX_BOUND}")
    _check_q_order(args.q_order)
    tau = _parse_tau(args.tau)
    tol = args.tolerance if args.tolerance is not None else 1e-6
    _check_tolerance(tol)
    ranges = {}
    for where, point in (("tau", tau), ("its S image -1/tau", GAMMA_S.apply(tau))):
        try:  # both are summed below
            ranges[where] = ROWMAJOR.effective_ranges(args.bound, point)
        except ValueError as exc:
            raise ValueError(f"--tau {args.tau}: at {where}, {exc}") from exc
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # checked below
        try:
            lattice = eisenstein_lattice(args.k, tau, args.bound)
            residuals = [
                (name, abs(transform_residual(args.k, gamma, tau, args.bound, lattice)))
                for name, gamma in (("T", GAMMA_T), ("S", GAMMA_S))
            ]
            # consistency: lattice / (2 zeta(2k)) vs the series at q = e^{2 pi i tau},
            # at an order whose dropped terms are below round-off there, so series
            # truncation can neither mask drift nor fake it
            order = _series_order(args.k, tau.imag)
            value = eisenstein_q(args.k, order).evaluate(cmath.exp(2j * math.pi * tau))
            drift = abs(lattice / _two_zeta(args.k) - value) / max(1.0, abs(value))
            finite = math.isfinite(drift) and all(math.isfinite(res) for _, res in residuals)
        except OverflowError:
            finite = False
    if not finite:
        raise ValueError(
            f"--k {args.k} at --tau {args.tau}: the lattice sums or the q-series are not "
            "finite in double precision"
        )
    m_range, n_range = ranges["tau"]
    _config_record(
        report, args, k=args.k, q_order=args.q_order, tau=_cpx(tau), bound=args.bound,
        ordering=ROWMAJOR.variant, rows=m_range, columns=n_range, tolerance=tol,
    )
    series = eisenstein_q(args.k, args.q_order)
    rec = series.to_record()
    report.record(record="qseries", rendered=series.render(), **rec)
    report.record(record="lattice", value=_cpx(lattice))
    report.record(
        record="consistency", normalized_drift=repr(drift), series_order=order, tolerance=tol,
    )
    worst = drift
    for name, res in residuals:
        worst = max(worst, res)
        report.record(record="transform-residual", gamma=name, value=repr(res))
    verdict = "OK" if worst < tol else "FAIL"
    report.record(record="verdict", status=verdict)
    return OK if verdict == "OK" else IDENTITY_FAILURE


def _cmd_witten_class(args, report: Report) -> int:
    _check_q_order(args.q_order)
    _check_model_size(args.roots, args.dim, args.q_order)
    model = ChernRootModel(args.roots, args.dim)
    cls = witten_class(model, args.q_order)
    _config_record(report, args, roots=args.roots, dim=args.dim, q_order=args.q_order)
    report.record(record="witten-class", rendered=cls.render())
    for mono in sorted(cls.terms, key=_term_order(model.algebra)):
        report.record(record="term", monomial=model.algebra.monomial_name(mono), **cls.terms[mono].to_record())
    return OK


def _term_order(alg):
    """Sort key of the printed terms: form degree, then monomial."""
    return lambda mono: (alg.form_degree(mono), mono)


def _first_difference(lhs, rhs) -> dict:
    """The first monomial, in printed-term order, where two elements differ, with
    both coefficients in their mode's compact text form (its zero where a side has none)."""
    alg = lhs.algebra
    for mono in sorted(lhs.terms.keys() | rhs.terms.keys(), key=_term_order(alg)):
        a, b = lhs.terms.get(mono), rhs.terms.get(mono)
        if a != b:
            return {"monomial": alg.monomial_name(mono), "lhs": _coefficient(lhs, a), "rhs": _coefficient(rhs, b)}
    return {}


def _coefficient(el, c) -> str:
    mode = dga.MODES[el.mode]
    return mode.compact(mode.make(0) if c is None else c)


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
    genus, e2 = out["genus"], out["e2_coefficient"]
    report.record(record="genus", rendered=genus.render(), **genus.to_record())
    report.record(
        record="decomposition",
        weight=out["weight"],
        polynomial=out["decomposition"].render(),
        e2_part={e_monomial_name(mono): str(c) for mono, c in sorted(e2.items())},
        verdict=out["verdict"],
    )
    return OK


def _cmd_decompose(args, report: Report) -> int:
    series = _read_record(args.series, QSeries.from_record)
    if series.order is not None and series.order > MAX_Q_ORDER:
        raise ValueError(f"{args.series}: order {series.order} exceeds {MAX_Q_ORDER}")
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
    import numpy as np

    if args.dim % 4 or args.dim < 4:
        raise ValueError("--dim must be a positive multiple of 4")
    if args.roots < 1 or not 1 <= args.shells <= MAX_SHELLS or args.exact_shells < 0:
        raise ValueError(f"need --roots >= 1, --shells >= 1, --shells <= {MAX_SHELLS} and --exact-shells >= 0")
    _check_model_size(args.roots, args.dim)
    # 2 S (S + 1) blocks in S shells.  The exact check evaluates 2 E (E + 1) blocks once,
    # counted as the 2 E (E + 1) (E + 2) / 3 power-sum points of its closed forms at 1..E
    s, e = args.shells, min(args.exact_shells, args.shells)
    blocks = 2 * s * (s + 1) * (args.roots > 1) + EXACT_BLOCK_COST * 2 * e * (e + 1) * (e + 2) // 3
    if blocks * args.roots * (args.dim // 4) > MAX_BLOCK_WORK:
        raise ValueError(f"--shells {s} --exact-shells {e}: block work over cli.MAX_BLOCK_WORK = {MAX_BLOCK_WORK}")
    tau = _parse_tau(args.tau)
    _config_record(
        report, args, roots=args.roots, dim=args.dim, tau=_cpx(tau),
        shells=args.shells, exact_shells=args.exact_shells,
    )
    model = ChernRootModel(args.roots, args.dim)
    # exact identity at small shell bounds (pi mode, dual-route Pfaffians inside)
    tau_exact = _tau_exact(args.tau)
    for bound, prod in shell_products(model, range(1, e + 1), tau_exact, dga.PI):
        closed = product_exponential_form(model, bound, tau_exact, dga.PI)
        if prod != closed:
            report.record(record="identity", shell=bound, status="FAIL", **_first_difference(prod, closed))
            return IDENTITY_FAILURE
        report.record(record="identity", shell=bound, status="OK")
    # numeric convergence table for the beta^2 x1^2 coefficient
    alg = model.algebra
    key = ((alg.index["b"], 2), (alg.index["x1"], 2))
    prev = None
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # checked below
        table = list(_product_table(model, _table_bounds(args.shells), tau))
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
    one shell-by-shell pass over the blocks otherwise."""
    if model.r == 1:
        return ((b, regularized_product(model, b, tau, dga.COMPLEX, verify_routes=False)) for b in bounds)
    return shell_products(model, bounds, tau, dga.COMPLEX, False)


def _table_bounds(shells: int):
    out, b = [], 1
    while b < shells:
        out.append(b)
        b *= 2
    out.append(shells)
    return out


def _cmd_anomaly(args, report: Report) -> int:
    _check_q_order(args.q_order)
    _check_model_size(args.roots, args.dim, args.q_order)
    model = ChernRootModel(args.roots, args.dim)
    if model.p1().is_zero():
        raise ValueError("the anomaly divides by p1, which is zero here: need --roots >= 1 and --dim >= 4")
    _config_record(report, args, roots=args.roots, dim=args.dim, q_order=args.q_order)
    delta = anomaly_delta(model, args.q_order)
    da = differential(anomaly_primitive(model, args.q_order))
    if da == delta:
        report.record(record="verdict", check="delta(Wit) == d(A)", status="OK")
        return OK
    report.record(record="verdict", check="delta(Wit) == d(A)", status="FAIL", **_first_difference(delta, da))
    return IDENTITY_FAILURE


def _cmd_localize(args, report: Report) -> int:
    from .bvloc import EquivariantSurfaceProblem, bv_localize

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
