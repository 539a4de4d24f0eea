"""Numerical toolkit for entanglement witnesses and positive maps.

A witness on a bipartite m x n system and a linear map from m x m to
n x n Hermitian matrices are two views of the same object, glued
together by the block-index correspondence A_{ij;kl} = M_{jl;ki}. The
package converts between the two views, transforms positive maps to
unital and trace preserving form by a fixed point iteration, locates
and classifies the zeros of witness biquadratic forms, ships reference
witnesses (the extremal 3x3 map with its zero continuum, an extremal
2x4 map with ring-shaped zero sets), and draws two dimensional sections
through the set of density matrices together with their images under a
map.
"""

from .hermitian import (
    as_hermitian,
    hermitian_basis,
    hs_inner,
    hs_norm,
    inv_pd,
    sqrt_psd,
)
from .bipartite import (
    Witness,
    apply_map,
    apply_transposed_map,
    biquadratic_form,
    diagnostics,
    map_matrix,
    partial_trace_1,
    partial_trace_2,
    partial_transpose,
    product_transform,
    tensor,
    witness_from_map,
    witness_from_map_matrix,
)
from .builtin import (
    RingParams,
    bloch_to_state,
    choi_lam_continuum_zero,
    choi_lam_map,
    choi_lam_tangent_section,
    choi_lam_witness,
    horodecki_2x4_map,
    horodecki_2x4_witness,
    identity_witness,
    ring_common_zeros,
    ring_points,
    state_to_bloch,
    transposition_witness,
)
from .normalize import NormalizationResult, contraction_spectrum, normalize
from .zeros import (
    ConstraintSystem,
    ProductZero,
    alternating_minimize,
    classify_zero,
    constraint_rank,
    constraint_rows,
    find_zeros,
    refine_zero,
)
from .sections import (
    BoundaryCurve,
    SectionPlane,
    plane_from_states,
    project_point,
    scan_boundary,
    section_of_type,
)

__version__ = "0.1.0"

__all__ = [
    "as_hermitian", "hermitian_basis", "hs_inner", "hs_norm", "inv_pd",
    "sqrt_psd",
    "Witness", "apply_map", "apply_transposed_map", "biquadratic_form",
    "diagnostics", "map_matrix", "partial_trace_1", "partial_trace_2",
    "partial_transpose", "product_transform", "tensor",
    "witness_from_map", "witness_from_map_matrix",
    "RingParams", "bloch_to_state", "choi_lam_continuum_zero",
    "choi_lam_map", "choi_lam_tangent_section", "choi_lam_witness",
    "horodecki_2x4_map", "horodecki_2x4_witness", "identity_witness",
    "ring_common_zeros", "ring_points", "state_to_bloch",
    "transposition_witness",
    "NormalizationResult", "contraction_spectrum", "normalize",
    "ConstraintSystem", "ProductZero", "alternating_minimize",
    "classify_zero", "constraint_rank", "constraint_rows", "find_zeros",
    "refine_zero",
    "BoundaryCurve", "SectionPlane", "plane_from_states", "project_point",
    "scan_boundary", "section_of_type",
]
