"""Outside-in tracing of the ellgenus layers for the traced benchmark run.

Probes wrap the public functions and hot operators of each module from the
outside: no program file changes.  A wrapped function is re-bound in every
``ellgenus`` module namespace and class dict that holds the same object, so
names imported with ``from .dga import exp_nilpotent`` and operator aliases
such as ``__rmul__ = __mul__`` are traced too.

Coarse probes record one span per call (name, start, end, parent span, op
index).  Hot probes (the scalar, algebra and q-series operators) only
aggregate a call count and accumulated time, which keeps the trace bounded.
Every probe keeps ``calls``, ``total_s`` (outermost calls only, so recursion
is not counted twice), ``self_s`` (duration minus time covered by child
probes) and ``errors`` (calls that raised).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from dataclasses import dataclass
from time import perf_counter

MODULES = ("scalars", "dga", "geom", "pfaff", "qmod", "witten", "bvloc", "cli")
ALL = ("genus", "exact", "numeric")


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    errors: int = 0
    depth: int = 0


# Work counters the probes' count hooks fill in, by metric name.
COUNTERS = (
    "dga.mul.pairs", "dga.mul.out_terms", "dga.exp_nilpotent.out_terms",
    "qmod.qseries_mul.coeff_products", "qmod.quasi_modular_decompose.system_cells",
    "qmod.lattice_partial_sum.points", "qmod.lattice.worst_residual",
    "pfaff.route_checks", "pfaff.regularized_product.blocks",
    "bvloc.quadrature.nodes", "bvloc.worst_residual",
)


@dataclass(frozen=True)
class Probe:
    """A traced function: ``target`` is "module.function" or "module.Class.method".

    ``stat`` names the statistic it feeds (several targets may share one),
    ``split`` maps the call's arguments to a suffix of that name, ``count``
    adds to COUNTERS from the arguments and result, and ``fires_on`` lists
    the workloads on which a zero call count is an error.
    """

    target: str
    stat: str
    fires_on: tuple = ()
    hot: bool = False
    count: object = None
    split: object = None


def _arg(args, kwargs, pos, name, default):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _count_mul(c, args, kwargs, result):
    a, b = args
    c["dga.mul.pairs"] += len(a.terms) * (len(b.terms) if type(b) is type(a) else 1)
    c["dga.mul.out_terms"] += len(result.terms)


def _count_exp(c, args, kwargs, result):
    c["dga.exp_nilpotent.out_terms"] += len(result.terms)


def _count_qseries_mul(c, args, kwargs, result):
    a, b = args
    if result is not NotImplemented:
        c["qmod.qseries_mul.coeff_products"] += (
            len(a.coeffs) * (len(b.coeffs) if type(b) is type(a) else 1))


def _count_decompose(c, args, kwargs, result):
    from ellgenus.qmod import weight_monomials

    f = args[0]
    if f.order is not None:  # None only for a zero series, which needs no solve
        c["qmod.quasi_modular_decompose.system_cells"] += f.order * len(weight_monomials(f.weight))


def _points(variant, power, ranges):
    """Lattice points (n, m) a partial sum evaluates, one per +-pair when paired."""
    if variant == "rowmajor":
        m_range, n_range = ranges
        return n_range + m_range * (2 * n_range + 1)
    if variant == "shells" and power % 2:
        return 0  # odd powers cancel exactly and are not summed
    bound = ranges[0]
    return 2 * bound * (bound + 1)


def _count_lattice(c, args, kwargs, result):
    power, _, ordering, bound = args[:4]
    c["qmod.lattice_partial_sum.points"] += _points(
        ordering.variant, power, ordering.effective_ranges(bound))


def _count_transform(c, args, kwargs, result):
    c["qmod.lattice.worst_residual"] = max(c["qmod.lattice.worst_residual"], abs(result))


def _split_block(args, kwargs):
    return "complex" if _arg(args, kwargs, 3, "mode", "pi") == "complex" else "exact"


def _count_block(c, args, kwargs, result):
    if _arg(args, kwargs, 4, "verify_routes", True) and _arg(args, kwargs, 1, "model", None).r:
        c["pfaff.route_checks"] += 1


def _count_product(c, args, kwargs, result):
    bound = _arg(args, kwargs, 1, "shell_bound", 0)
    c["pfaff.regularized_product.blocks"] += 2 * bound * (bound + 1)


def _count_localize(c, args, kwargs, result):
    c["bvloc.quadrature.nodes"] += args[0].grid
    c["bvloc.worst_residual"] = max(c["bvloc.worst_residual"], result["residual"])


PROBES = (
    Probe("scalars.QI.__add__", "scalars.qi", ("exact",), hot=True),
    Probe("scalars.QI.__mul__", "scalars.qi", ("exact",), hot=True),
    Probe("scalars.PiScalar.__add__", "scalars.pi", ("exact",), hot=True),
    Probe("scalars.PiScalar.__mul__", "scalars.pi", ("exact",), hot=True),
    Probe("dga.Element.__mul__", "dga.mul", ALL, hot=True, count=_count_mul),
    Probe("dga.exp_nilpotent", "dga.exp_nilpotent", ("genus", "exact"), count=_count_exp),
    Probe("dga.differential", "dga.differential", ("exact",)),
    Probe("dga.substitute", "dga.substitute", ("exact",)),
    Probe("dga.divide_exact", "dga.divide_exact", ("exact",)),
    Probe("dga.unit_inverse", "dga.unit_inverse", ("exact", "numeric")),
    Probe("qmod.QSeries.__mul__", "qmod.qseries_mul", ("genus", "exact"), hot=True,
          count=_count_qseries_mul),
    Probe("qmod.QSeries.inverse", "qmod.qseries_inverse", (), hot=True),
    Probe("qmod.eisenstein_q", "qmod.eisenstein_q", ("genus", "exact", "numeric")),
    Probe("qmod.quasi_modular_decompose", "qmod.quasi_modular_decompose", ("genus",),
          count=_count_decompose),
    Probe("qmod.lattice_partial_sum", "qmod.lattice_partial_sum", ("numeric",),
          count=_count_lattice),
    Probe("qmod.transform_residual", "qmod.transform_residual", ("numeric",),
          count=_count_transform),
    Probe("geom.pontryagin_character_component", "geom.pontryagin_character_component",
          ("genus", "exact")),
    Probe("geom.integrate_symbolic", "geom.integrate_symbolic", ("genus",)),
    Probe("geom.power_sums_to_pontryagin", "geom.power_sums_to_pontryagin", ("genus",)),
    Probe("pfaff.block_norm_pfaffian", "pfaff.block_norm_pfaffian", ("exact", "numeric"),
          count=_count_block, split=_split_block),
    Probe("pfaff.determinant", "pfaff.determinant", ("exact", "numeric")),
    Probe("pfaff.pfaffian", "pfaff.pfaffian", ("exact",)),
    Probe("pfaff.product_exponential_form", "pfaff.product_exponential_form", ("exact",)),
    Probe("pfaff.regularized_product", "pfaff.regularized_product", ("exact", "numeric"),
          count=_count_product),
    Probe("witten.q_evaluate", "witten.q_evaluate", ("genus", "exact")),
    Probe("witten.witten_genus_symbolic", "witten.witten_genus_symbolic", ("genus",)),
    Probe("witten.string_modularity_check", "witten.string_modularity_check", ("genus",)),
    Probe("witten.anomaly_primitive", "witten.anomaly_primitive", ("exact",)),
    Probe("witten.anomaly_delta", "witten.anomaly_delta", ("exact",)),
    Probe("witten.gamma_transform", "witten.gamma_transform", ("exact",)),
    Probe("bvloc.bv_localize", "bvloc.bv_localize", ("numeric",), count=_count_localize),
    Probe("bvloc.q_closedness_residual", "bvloc.q_closedness_residual", ("numeric",)),
    Probe("cli.main", "cli.main", ALL),
)


class CoverageError(RuntimeError):
    """A probe assigned to this workload never fired: a layer went blank."""


class Tracer:
    """Installs the probes, collects statistics and spans, and removes itself."""

    def __init__(self, probes=PROBES):
        self.probes = probes
        self.stats: dict[str, Stat] = {}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.spans: list = []
        self.op_index = -1
        self._frames: list = []  # [child time, span id] per active probe call
        self._undo: list = []

    # -- installation -------------------------------------------------------

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "ellgenus" or name.startswith("ellgenus.")]
        classes = [v for m in modules for v in vars(m).values()
                   if isinstance(v, type) and v.__module__.startswith("ellgenus")]
        holders = list({id(h): h for h in modules + classes}.values())
        try:
            for probe in self.probes:
                owner, attr = _resolve(probe.target)
                original = owner.__dict__[attr]
                wrapper = self._wrap(original, probe)
                for holder in holders:
                    for name, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, name, wrapper)
                            self._undo.append((holder, name, original))
        except (AttributeError, KeyError):
            self.uninstall()  # a probe target no longer exists: fail loudly
            raise
        return self

    def uninstall(self):
        for holder, name, original in reversed(self._undo):
            setattr(holder, name, original)
        self._undo.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _stat(self, name) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def _wrap(self, fn, probe):
        frames, spans, counters = self._frames, self.spans, self.counters
        base = self._stat(probe.stat)
        split, count, hot, tracer = probe.split, probe.count, probe.hot, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = base if split is None else tracer._stat(f"{probe.stat}.{split(args, kwargs)}")
            frame = [0.0, None if hot else len(spans)]
            if not hot:
                parent = next((f[1] for f in reversed(frames) if f[1] is not None), None)
                spans.append([probe.stat, parent, tracer.op_index, 0.0, 0.0])
            frames.append(frame)
            st.depth += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                st.errors += 1
                raise
            finally:
                t1 = perf_counter()
                dt = t1 - t0
                frames.pop()
                st.depth -= 1
                st.calls += 1
                st.self_s += dt - frame[0]
                if st.depth == 0:
                    st.total_s += dt
                if frames:
                    frames[-1][0] += dt
                if not hot:
                    spans[frame[1]][3:] = [t0, t1]
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        return wrapper

    # -- results ------------------------------------------------------------

    def check_coverage(self, workload: str):
        silent = sorted({p.stat for p in self.probes if workload in p.fires_on
                         and sum(st.calls for key, st in self.stats.items()
                                 if key == p.stat or key.startswith(p.stat + ".")) == 0})
        if silent:
            raise CoverageError(f"probes never fired on {workload}: {', '.join(silent)}")

    def metrics(self) -> dict:
        """Flat per-layer metrics; names match BENCHMARK.json's per_layer list."""
        s = self.stats
        out = {}
        for name, st in s.items():
            out[f"{name}.calls"] = st.calls
            out[f"{name}.total_s"] = st.total_s
            out[f"{name}.self_s"] = st.self_s
        for module in MODULES:
            mine = [st for name, st in s.items() if name.split(".")[0] == module]
            out[f"{module}.self_s"] = sum(st.self_s for st in mine)
            out[f"{module}.errors"] = sum(st.errors for st in mine)
        for mode in ("exact", "complex"):  # split stats exist once a block ran in that mode
            out.setdefault(f"pfaff.block_norm_pfaffian.{mode}.calls", 0)
            out.setdefault(f"pfaff.block_norm_pfaffian.{mode}.total_s", 0.0)
        out.update(self.counters)
        out["scalars.qi.ops"] = s["scalars.qi"].calls
        out["scalars.pi.ops"] = s["scalars.pi"].calls
        pairs = out["dga.mul.pairs"]
        out["dga.mul.kept_ratio"] = out["dga.mul.out_terms"] / pairs if pairs else 0.0
        busy = s["qmod.lattice_partial_sum"].self_s
        out["qmod.lattice.points_per_s"] = (
            out["qmod.lattice_partial_sum.points"] / busy if busy else 0.0)
        return out

    def dump_spans(self, path):
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["name", "parent", "op", "start", "end"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _resolve(target: str):
    module, *rest = target.split(".")
    owner = importlib.import_module(f"ellgenus.{module}")
    for name in rest[:-1]:
        owner = getattr(owner, name)
    return owner, rest[-1]
