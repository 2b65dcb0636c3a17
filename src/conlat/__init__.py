"""Computational toolkit for finite lattices, their congruence lattices,
join-semilattice refinement properties, and small von Neumann regular rings.

Everything is table-driven and exhaustively checkable: congruences, weakly
distributive maps, uniform refinement witnesses, congruence splitting, and
the ideal correspondences of finite regular rings.

Importing the package loads none of its layers.  ``_EXPORTS`` maps every
public name to the submodule (layer) that defines it, and the module-level
``__getattr__`` (PEP 562) imports that layer the first time one of its names
is read: ``from conlat import FiniteLattice`` imports ``conlat.lattice`` only,
and ``conlat.regring`` is imported only when a ring name is read.  A name
once read is stored in the package namespace, so later reads are plain
attribute lookups.  ``__dir__`` and ``__all__`` list every exported name.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "lattice": (
        "FiniteLattice",
        "LatticeHom",
        "IntervalSublattice",
        "NotALattice",
        "CyclicCovers",
        "IndexOutOfRange",
        "NotComparable",
        "BoundExceeded",
        "boolean",
        "canonical_form",
        "chain",
        "check_hom",
        "enumerate_lattice_homs",
        "enumerate_lattices",
        "has_convex_range",
        "interval",
        "is_atomistic",
        "is_complemented",
        "is_distributive",
        "is_isomorphic",
        "is_modular",
        "is_relatively_complemented",
        "is_sectionally_complemented",
        "are_perspective",
        "m3",
        "n5",
    ),
    "congruence": (
        "Chain",
        "Congruence",
        "CongruenceLattice",
        "ConNidCorrespondence",
        "HostMismatch",
        "HypothesesFail",
        "NotAHom",
        "NotAnIdeal",
        "NotJoined",
        "alternating_chain",
        "certifies_ring_of_sets",
        "con_lattice",
        "con_nid_iso",
        "congruence_from_blocks",
        "congruence_join",
        "congruence_meet",
        "ideals",
        "induced_con_map",
        "is_neutral_ideal",
        "monotonize_chain",
        "neutral_ideals",
        "principal_congruence",
        "refinement_by_certificate",
    ),
    "semilattice": (
        "FiniteJoinSemilattice",
        "InvalidInputWitness",
        "RefinementResult",
        "RefinementSquare",
        "SemilatticeHom",
        "TargetNotDistributive",
        "WdAtResult",
        "WdWitness",
        "check_semilattice_hom",
        "enumerate_semilattice_homs",
        "has_refinement_property",
        "is_weakly_distributive",
        "is_weakly_distributive_at",
        "refinement_square",
        "wd_join_combine",
        "weakly_distributive_points",
    ),
    "urp": (
        "DEFAULT_SEARCH_BUDGET",
        "BadDecomposition",
        "ElementOutOfRange",
        "IndexMismatch",
        "NoSourceWitness",
        "NotDistributive",
        "NotSplitting",
        "NotWeaklyDistributive",
        "SearchBudgetExceeded",
        "UrpInstance",
        "UrpVerification",
        "UrpWitness",
        "canonical_instance",
        "csurp_witness",
        "first_urp_failure",
        "holds_urp_at",
        "refine_instance",
        "satisfies_urp",
        "search_urp_witness",
        "urp_join_combine",
        "urp_transfer",
        "verify_urp_witness",
    ),
    "splitting": (
        "CChain",
        "NoChain",
        "PropertyCResult",
        "SplitInstance",
        "SplittingResult",
        "has_property_C",
        "is_congruence_splitting",
        "property_c_chain",
        "rel_lessdot",
        "splitting_from_property_C",
        "splitting_witness",
    ),
    "regring": (
        "DecompositionFail",
        "FiniteRing",
        "IsoCertificate",
        "NotIdempotent",
        "NotNeutral",
        "NotRegular",
        "NotTwoSided",
        "PiMap",
        "RightIdealLattice",
        "RingTooLarge",
        "SpecParse",
        "SupportQuotient",
        "TwoSidedIdealLattice",
        "VMonoid",
        "algebraic_below",
        "conc_idc_iso",
        "ideals_isomorphic",
        "is_regular",
        "max_semilattice_quotient",
        "neutral_iff_iso_closed",
        "parse_ring_spec",
        "phi",
        "pi_map",
        "principal_right_ideals",
        "psi",
        "refine_nonneg_vectors",
        "two_sided_ideals",
        "v_monoid",
        "verify_nid_id_iso",
        "verify_pi_map",
    ),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}
__all__ = list(_LAYER_OF)


def __getattr__(name: str):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{layer}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAYER_OF})
