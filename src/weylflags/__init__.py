"""Weyl-group, root-system and flag-variety combinatorics for companion
characters, with exhaustive finite-field verification of the geometric
identities behind them.

The pieces:

- ``weyl``: products of symmetric groups, lengths, reduced words, Bruhat order
- ``roots``: type-A roots and weights, the (dot) action, dominance tests
- ``cosets``: parabolic quotients W/W_P, minimal representatives, lg_P
- ``steinberg``: component-inclusion criteria and certified covering steps
- ``companion``: companion-character enumeration from refinement scenarios
- ``fforacle``: brute-force checks over F_p for the same statements
- ``cli`` / ``jsonio``: the ``weylflags`` command and its JSON formats
"""

import importlib

# each public name and the submodule that defines it; a name is imported
# on first access (PEP 562), so `import weylflags` loads no submodule
_EXPORTS = {
    "companion": (
        "CharacterSymbol",
        "CompanionCertificate",
        "PlaceRefinement",
        "RefinementSpec",
        "certify_walk",
        "companion_set",
        "genericity_check",
        "jordan_holder_cosets",
        "relative_position",
        "weights_from_hodge",
    ),
    "cosets": (
        "CosetRep",
        "decompose",
        "enumerate_quotient",
        "left_min_rep",
        "length_split_stats",
        "lg_P",
        "min_rep",
        "quotient_leq",
        "shortest_double_coset_rep",
    ),
    "fforacle": (
        "covering_degree_check",
        "fiber_dimension_check",
        "good_form_conjugate",
        "shortest_element_fq_check",
        "weight_map_check",
    ),
    "roots": (
        "Root",
        "act",
        "dominance",
        "dot_act",
        "inversion_set",
        "p_regular_antidominant",
        "p_regular_witness",
    ),
    "steinberg": (
        "InductionStep",
        "component_in_ZQP",
        "component_in_ZQP_roots",
        "components_through_point",
        "find_induction_step",
        "levi_cap_u_in_nQ",
        "steinberg_components_full_flag",
        "z_dimension_defect",
    ),
    "weyl": (
        "multi_bruhat_leq",
        "multi_compose",
        "multi_identity",
        "multi_inverse",
        "multi_length",
        "multi_longest",
        "multi_reduced_word",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME) + ["__version__"]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))
