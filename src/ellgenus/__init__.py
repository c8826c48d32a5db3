"""Exact and numeric toolkit for Eisenstein series, regularized Pfaffian
products, the Witten genus, and finite-dimensional localization checks.

The localization names load ``bvloc``, and with it numpy, on first use
(PEP 562), so the exact layers import without numpy."""

from .dga import (
    Algebra,
    Element,
    Generator,
    NotDivisible,
    ScalarModeMismatch,
    differential,
    divide_exact,
    exp_nilpotent,
    impose_relation,
    substitute,
    unit_inverse,
)
from .geom import (
    ChernRootModel,
    ManifoldDescriptor,
    MissingNumber,
    pontryagin_character_component,
    power_sums_to_pontryagin,
)
from .pfaff import (
    BlockIndex,
    PfaffianRouteMismatch,
    a_hat_class,
    a_hat_product,
    block_norm_pfaffian,
    determinant,
    pfaffian,
    regularized_product,
)
from .qmod import (
    GammaElement,
    LatticeOrdering,
    NoDecomposition,
    QSeries,
    WeightMismatch,
    eisenstein_lattice,
    eisenstein_q,
    quasi_modular_decompose,
    transform_residual,
)
from .witten import (
    anomaly_delta,
    anomaly_primitive,
    string_modularity_check,
    witten_class,
    witten_genus,
)

__version__ = "0.1.0"

_BVLOC = frozenset({"EquivariantSurfaceProblem", "FixedPointDegenerate", "bv_localize", "q_closedness_residual"})


def __getattr__(name):
    if name in _BVLOC:
        from . import bvloc

        return getattr(bvloc, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
