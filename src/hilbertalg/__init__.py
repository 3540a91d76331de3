"""Toolkit for finite Hilbert algebras: implicative filter lattices,
meet-irreducible spectra, depth, and the equational depth test d_n = 1,
together with both constructive proof procedures and isomorph-free
exhaustive generation."""

from .core import (
    FiniteHilbertAlgebra,
    Imp,
    Term,
    ValidationReport,
    Var,
    chain_algebra,
    eval_term,
    satisfies_identity,
    subset_of,
    validate,
)
from .depth_terms import (
    ChainWitness,
    DepthReport,
    SubalgebraChainWitness,
    chain_from_counterexample,
    d_term,
    depth_leq_via_identity,
    subalgebra_from_chain,
    verify_main_theorem,
)
from .enumeration import (
    Poset,
    all_posets,
    enumerate_hilbert,
    heyting_from_poset,
)
from .filters import (
    all_filters,
    depth,
    fg_closure,
    is_implicative_filter,
    meet_irreducibles,
    separate,
)
from .quotient import Congruence, QuotientResult, correspondence_check, quotient, theta

__all__ = [
    "FiniteHilbertAlgebra",
    "Imp",
    "Term",
    "ValidationReport",
    "Var",
    "chain_algebra",
    "eval_term",
    "satisfies_identity",
    "subset_of",
    "validate",
    "ChainWitness",
    "DepthReport",
    "SubalgebraChainWitness",
    "chain_from_counterexample",
    "d_term",
    "depth_leq_via_identity",
    "subalgebra_from_chain",
    "verify_main_theorem",
    "Poset",
    "all_posets",
    "enumerate_hilbert",
    "heyting_from_poset",
    "all_filters",
    "depth",
    "fg_closure",
    "is_implicative_filter",
    "meet_irreducibles",
    "separate",
    "Congruence",
    "QuotientResult",
    "correspondence_check",
    "quotient",
    "theta",
]
