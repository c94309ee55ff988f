"""Finite-model workbench for binary operations on small carriers."""

from .core import (
    Magma,
    TableError,
    canonical_form,
    format_table,
    is_isomorphic,
    magma_from_rows,
    parse_table,
    relabel,
)
from .dsl import LawSyntaxError, format_law, law_equal, parse_law, parse_spec
from .enumeration import ALL_MAGMAS, LATIN, EnumSpec, InfeasibleError, count, tables
from .laws import (
    ABELIAN,
    AGI,
    AGII,
    ALL_LAWS,
    BY_NAME,
    CA,
    CAI,
    CAII,
    EQUATIONAL_LAWS,
    GROUP,
    H,
    IN,
    LOOP,
    NE,
    A,
    C,
    Equation,
    Law,
    R,
    user_law,
)
from .properties import (
    CheckReport,
    NeutralReport,
    StructureReport,
    check_H,
    check_cancellative,
    check_identity_law,
    check_inverses,
    check_law,
    classify,
    find_neutrals,
    holds,
    local_identities,
)
from .search import SearchResult, SearchSpec, find_model
from .structures import (
    BuiltinStructure,
    WindowedOp,
    builtin,
    example_suite,
    windowed_check,
    windowed_neutrals,
)
from .theorems import CATALOG, TheoremSpec, VerificationReport, theorem_catalog, verify_theorem, verify_theorems

__version__ = "0.1.0"

__all__ = [
    "Magma", "TableError", "canonical_form", "format_table", "is_isomorphic",
    "magma_from_rows", "parse_table", "relabel",
    "LawSyntaxError", "format_law", "law_equal", "parse_law", "parse_spec",
    "ALL_MAGMAS", "LATIN", "EnumSpec", "InfeasibleError", "count", "tables",
    "A", "C", "NE", "IN", "CAI", "CAII", "AGI", "AGII", "R", "H", "CA",
    "LOOP", "GROUP", "ABELIAN", "ALL_LAWS", "EQUATIONAL_LAWS", "BY_NAME",
    "Equation", "Law", "user_law",
    "CheckReport", "NeutralReport", "StructureReport", "check_H",
    "check_cancellative", "check_identity_law", "check_inverses", "check_law",
    "classify", "find_neutrals", "holds", "local_identities",
    "SearchResult", "SearchSpec", "find_model",
    "BuiltinStructure", "WindowedOp", "builtin", "example_suite",
    "windowed_check", "windowed_neutrals",
    "CATALOG", "TheoremSpec", "VerificationReport", "theorem_catalog",
    "verify_theorem", "verify_theorems",
]
