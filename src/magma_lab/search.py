"""Counterexample search: find a magma satisfying some laws and breaking another."""

from __future__ import annotations

from dataclasses import dataclass, replace

from .core import Magma
from .enumeration import LATIN, InfeasibleError, models_spec, tables, validate_spec
from .laws import H, Law, check_assignment_cap
from .properties import holds


@dataclass(frozen=True)
class SearchSpec:
    assume: tuple[Law, ...]
    refute: Law
    orders: tuple[int, int]


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a model search.

    ``examined`` counts the streamed candidates that were tested against
    the refuted law, in stream order up to and including the one found.
    Tables the stream skips are not counted: when the search refutes H it
    streams only non-Latin tables.
    """

    spec: SearchSpec
    found: Magma | None
    examined: int
    order_found: int | None


def find_model(spec: SearchSpec, workers: int = 1) -> SearchResult:
    """First magma, in order-then-table order, meeting every assumption and
    failing the refuted law. Feasibility is checked up front, at the top
    order alone since every cap grows with the order, so a late cap error
    cannot waste the early orders; each order's spec is built as it is
    streamed."""
    lo, hi = spec.orders
    if lo < 1 or hi < lo:
        raise ValueError(f"bad order range {lo}..{hi}")
    if spec.refute.is_equational:
        check_assignment_cap((spec.refute.equation,), hi, InfeasibleError)
    top = models_spec(spec.assume, hi)
    validate_spec(top)
    # refuting H over all magmas streams only the tables that fail H
    non_latin = spec.refute == H and top.mode != LATIN
    if spec.refute == H and top.mode == LATIN:
        return SearchResult(spec, None, 0, None)
    examined = 0
    for order in range(lo, hi + 1):
        es = replace(models_spec(spec.assume, order), non_latin=non_latin)
        for m in tables(es, workers):
            examined += 1
            if not holds(m, spec.refute):
                return SearchResult(spec, m, examined, order)
    return SearchResult(spec, None, examined, None)

