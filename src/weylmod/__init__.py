"""Exact computations with Weyl algebras, divergence-free vector fields,
and their tensor modules."""

from .errors import ArgumentError, DomainError, StructureError
from .indices import TruncationBox, Scalar
from .weyl import WeylElement, fourier
from .vectorfields import (
    L_op,
    VectorField,
    bracket,
    divergence,
    has_constant_divergence,
    is_divergence_free,
    monomial_field,
)
from .ugl import E, UglElement, in_usl
from .tensorop import (
    TensorOperator,
    cubic_identity_residual,
    interpolate_coefficients,
    iota_hom_residual,
    quartic_identity_residual,
    shen_iota,
    special_operator,
    tensor,
)
from .weightmod import (
    Factor,
    FVector,
    SLModule,
    WeightModuleP,
    make_hw_module,
    make_wedge_module,
    parse_module_descriptor,
    sn_act,
    tensor_act,
    weyl_dimension,
)
from .derham import (
    GradedSubspace,
    partial_span,
    pi,
    pi_image,
    pi_kernel,
    verify_g_equals_u,
    verify_h_annihilates,
)
from .structure import (
    GeneratorSet,
    closure,
    evidence_simplicity,
    subquotient_inventory,
)
from .exprparse import parse_expr, parse_vector_field

__version__ = "0.1.0"

__all__ = [
    "ArgumentError",
    "DomainError",
    "StructureError",
    "TruncationBox",
    "Scalar",
    "WeylElement",
    "fourier",
    "L_op",
    "VectorField",
    "bracket",
    "divergence",
    "has_constant_divergence",
    "is_divergence_free",
    "monomial_field",
    "E",
    "UglElement",
    "in_usl",
    "TensorOperator",
    "cubic_identity_residual",
    "interpolate_coefficients",
    "iota_hom_residual",
    "quartic_identity_residual",
    "shen_iota",
    "special_operator",
    "tensor",
    "Factor",
    "FVector",
    "SLModule",
    "WeightModuleP",
    "make_hw_module",
    "make_wedge_module",
    "parse_module_descriptor",
    "sn_act",
    "tensor_act",
    "weyl_dimension",
    "GradedSubspace",
    "partial_span",
    "pi",
    "pi_image",
    "pi_kernel",
    "verify_g_equals_u",
    "verify_h_annihilates",
    "GeneratorSet",
    "closure",
    "evidence_simplicity",
    "subquotient_inventory",
    "parse_expr",
    "parse_vector_field",
]
