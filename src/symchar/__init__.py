"""Exact symmetric-group character quantities on Young diagrams: normalized
characters, shape functionals S_k, free cumulants R_k, multirectangular
character polynomials, and the character polynomials J_k and K_k.

Everything is computed in exact rational arithmetic, and every central
quantity has at least two independent computation routes that the test and
verification suites compare for exact equality.
"""

import importlib

# Each public name and the submodule it lives in.  The package imports
# nothing up front: __getattr__ loads a name's module on first use, so a
# process pays only for the modules it touches.
_HOMES = {
    "charoracle": ("dimension", "mn_character", "normalized_character",
                   "normalized_character_general"),
    "diagrams": ("FrobeniusCoords", "MultiRect", "dilate", "frobenius", "parse_partition",
                 "partitions", "partitions_up_to"),
    "functionals": ("free_cumulant_by_interpolation", "free_cumulant_from_s",
                    "free_cumulant_multirect", "r_in_terms_of_s", "r_vector",
                    "r_vector_from_s", "s_functional_boxes", "s_functional_frobenius",
                    "s_functional_multirect", "s_vector"),
    "kerov": ("kerov_polynomial_by_conversion", "kerov_polynomial_by_counting",
              "kerov_quadratic_derivative", "marriage_condition", "marriage_condition_flow",
              "s_in_terms_of_r"),
    "ratpoly": ("RatPoly",),
    "stanley": ("j_polynomial_by_counting", "j_polynomial_via_stanley",
                "stanley_character_poly"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = {*_HOMES, "cli", "perms", "verify"}

__version__ = "0.1.0"

__all__ = sorted(_HOME_OF)


def __getattr__(name: str):
    """A public name, loaded from its submodule on first use and kept in the
    package namespace from then on.  A submodule, such as `symchar.kerov`,
    is imported on first access too, as the commands and modules import a
    sibling only where they call it."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
