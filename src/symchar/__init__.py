"""Exact symmetric-group character quantities on Young diagrams: normalized
characters, shape functionals S_k, free cumulants R_k, multirectangular
character polynomials, and the character polynomials J_k and K_k.

Everything is computed in exact rational arithmetic, and every central
quantity has at least two independent computation routes that the test and
verification suites compare for exact equality.
"""

from symchar.charoracle import (
    dimension,
    mn_character,
    normalized_character,
    normalized_character_general,
)
from symchar.diagrams import (
    FrobeniusCoords,
    MultiRect,
    dilate,
    frobenius,
    parse_partition,
    partitions,
    partitions_up_to,
)
from symchar.functionals import (
    free_cumulant_by_interpolation,
    free_cumulant_from_s,
    free_cumulant_multirect,
    r_in_terms_of_s,
    r_vector,
    r_vector_from_s,
    s_functional_boxes,
    s_functional_frobenius,
    s_functional_multirect,
    s_vector,
    scale_homogeneity_check,
)
from symchar.kerov import (
    KerovTriple,
    kerov_polynomial_by_conversion,
    kerov_polynomial_by_counting,
    kerov_quadratic_derivative,
    marriage_condition,
    marriage_condition_flow,
    s_in_terms_of_r,
)
from symchar.ratpoly import RatPoly, interpolate_univariate
from symchar.stanley import (
    j_polynomial_by_counting,
    j_polynomial_via_stanley,
    stanley_character_poly,
)

__version__ = "0.1.0"

__all__ = [
    "FrobeniusCoords",
    "KerovTriple",
    "MultiRect",
    "RatPoly",
    "dilate",
    "dimension",
    "free_cumulant_by_interpolation",
    "free_cumulant_from_s",
    "free_cumulant_multirect",
    "frobenius",
    "interpolate_univariate",
    "j_polynomial_by_counting",
    "j_polynomial_via_stanley",
    "kerov_polynomial_by_conversion",
    "kerov_polynomial_by_counting",
    "kerov_quadratic_derivative",
    "marriage_condition",
    "marriage_condition_flow",
    "mn_character",
    "normalized_character",
    "normalized_character_general",
    "parse_partition",
    "partitions",
    "partitions_up_to",
    "r_in_terms_of_s",
    "r_vector",
    "r_vector_from_s",
    "s_functional_boxes",
    "s_functional_frobenius",
    "s_functional_multirect",
    "s_in_terms_of_r",
    "s_vector",
    "scale_homogeneity_check",
    "stanley_character_poly",
]
