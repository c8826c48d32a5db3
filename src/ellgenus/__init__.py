"""Exact and numeric toolkit for Eisenstein series, regularized Pfaffian
products, the Witten genus, and finite-dimensional localization checks."""

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
    log_unital,
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
from .bvloc import EquivariantSurfaceProblem, FixedPointDegenerate, bv_localize, q_closedness_residual
from .witten import (
    anomaly_delta,
    anomaly_primitive,
    string_modularity_check,
    witten_class,
    witten_genus,
)

__version__ = "0.1.0"
