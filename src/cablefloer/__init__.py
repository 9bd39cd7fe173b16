"""Knot Floer homology of (p, p*n+1)-cables of thin knots.

Exact-arithmetic computation via the bordered pairing of a pattern module
for the (p,1) cable in the solid torus with the framed complement module
that a thin knot's (delta, tau) data determines.
"""

from .gradings import GradingElement, GradingError, normalize_double_coset
from .homology import ComplexError, RankTable, reduce_complex
from .invariants import (
    closed_form_gradings,
    euler_holds,
    mirror_check,
    symmetry_holds,
    table_rank,
    tau_cable,
    tau_pq,
)
from .laurent import LaurentPolynomial
from .pairing import (
    BigradedComplex,
    Progression,
    TensorGenerator,
    pair_modules,
    shift_constant,
    tensor_differential,
    tensor_gradings,
)
from .pipeline import CableHomology, compute_cable_hfk
from .thin import (
    ThinInputError,
    ThinModel,
    ThinParams,
    build_model,
    parse_delta,
    synthesize_delta,
    validate_thin,
)
from .type_a import AOperation, TypeAModule, build_typea_minus, hat_operations
from .type_d import DEdge, DGenerator, TypeDModule, build_typed, framing_h

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
    "LaurentPolynomial",
    "Progression",
    "RankTable",
    "TensorGenerator",
    "ThinInputError",
    "ThinModel",
    "ThinParams",
    "TypeAModule",
    "TypeDModule",
    "build_model",
    "build_typea_minus",
    "build_typed",
    "closed_form_gradings",
    "compute_cable_hfk",
    "euler_holds",
    "framing_h",
    "hat_operations",
    "mirror_check",
    "normalize_double_coset",
    "pair_modules",
    "parse_delta",
    "reduce_complex",
    "shift_constant",
    "symmetry_holds",
    "synthesize_delta",
    "table_rank",
    "tau_cable",
    "tau_pq",
    "tensor_differential",
    "tensor_gradings",
    "validate_thin",
]
