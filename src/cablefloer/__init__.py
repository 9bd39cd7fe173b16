"""Knot Floer homology of (p, p*n+1)-cables of thin knots.

Exact-arithmetic computation via the bordered pairing of a pattern module
for the (p,1) cable in the solid torus with the framed complement module
that a thin knot's (delta, tau) data determines.
"""

from .gradings import (
    LAMBDA,
    GradingElement,
    GradingError,
    NormalizedGrading,
    normalize_double_coset,
    rho_grading,
)
from .homology import ComplexError, RankTable, reduce_complex
from .invariants import (
    TauResult,
    cable_alexander,
    check_symmetry,
    euler_characteristic,
    mirror_check,
    table_rank,
    tau_cable,
    tau_pq,
    torus_knot_delta,
)
from .laurent import LaurentPolynomial
from .pairing import (
    BigradedComplex,
    TensorGenerator,
    closed_form_gradings,
    pair_modules,
    shift_constant,
    tensor_differential,
    tensor_generators,
    tensor_gradings,
)
from .pipeline import CableHomology, compute_cable_hfk, rank_table
from .thin import (
    ThinInputError,
    ThinModel,
    ThinParams,
    a_prime,
    build_model,
    parse_delta,
    square_counts,
    synthesize_delta,
    validate_thin,
)
from .type_a import AOperation, TypeAModule, build_typea_minus, hat_operations
from .type_d import DEdge, DGenerator, TypeDModule, build_typed, framing_h, unstable_chain

__version__ = "0.1.0"

__all__ = [
    "AOperation",
    "BigradedComplex",
    "CableHomology",
    "ComplexError",
    "DEdge",
    "DGenerator",
    "GradingElement",
    "GradingError",
    "LAMBDA",
    "LaurentPolynomial",
    "NormalizedGrading",
    "RankTable",
    "TauResult",
    "TensorGenerator",
    "ThinInputError",
    "ThinModel",
    "ThinParams",
    "TypeAModule",
    "TypeDModule",
    "a_prime",
    "build_model",
    "build_typea_minus",
    "build_typed",
    "cable_alexander",
    "check_symmetry",
    "closed_form_gradings",
    "compute_cable_hfk",
    "euler_characteristic",
    "framing_h",
    "hat_operations",
    "mirror_check",
    "normalize_double_coset",
    "pair_modules",
    "parse_delta",
    "rank_table",
    "reduce_complex",
    "rho_grading",
    "shift_constant",
    "square_counts",
    "synthesize_delta",
    "table_rank",
    "tau_cable",
    "tau_pq",
    "tensor_differential",
    "tensor_generators",
    "tensor_gradings",
    "torus_knot_delta",
    "unstable_chain",
    "validate_thin",
]
