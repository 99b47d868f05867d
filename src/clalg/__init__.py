"""clalg: a finite CL-algebra workbench.

Represent finite algebras as explicit operation tables, machine-check
the defining axioms and their derived laws with minimal counterexample
witnesses, compute ideals, congruences and quotient algebras, and
exhaustively enumerate all CL-algebras up to a small size.
"""

from .core import (
    MAX_UNIVERSE,
    AlgebraCandidate,
    AlgebraError,
    FiniteCLAlgebra,
    ImplicationAbsent,
    NoResidual,
    NotALattice,
    OrderRelation,
    derive_implication,
)
from .fileformat import ParseError, export_dot, parse_algebra, serialize_algebra
from .identities import UnknownIdentity, check_identity, run_identity_suite
from .ideals import (
    EmptySubset,
    Ideal,
    IdealClassification,
    NotAnIdeal,
    Subset,
    ZeroMissing,
    all_ideals,
    certify_ideal,
    classify,
    generated_ideal,
    is_affine,
    is_distributive_ideal,
    is_ideal,
    is_implicative,
    is_prime,
    zero_downset,
)
from .quotient import (
    Congruence,
    NotACongruence,
    QuotientAlgebra,
    QuotientInvalid,
    TheoremReport,
    build_quotient,
    check_order_criterion,
    class_of,
    congruence_from_ideal,
    theorem_suite,
)
from .search import (
    CensusRow,
    SearchConfig,
    SearchResult,
    SearchStats,
    SizeOutOfRange,
    canonical_form,
    enumerate_lattices,
    run_search,
)
from .validator import (
    EquivalenceBroken,
    NotACLAlgebra,
    StructuralFlags,
    ValidationReport,
    Verdict,
    is_distributive_lattice,
    is_idempotent,
    is_linear,
    is_residuated_lattice,
    seal,
    validate,
)

__version__ = "0.1.0"
