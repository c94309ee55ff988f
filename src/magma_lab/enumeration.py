"""Exhaustive streams of finite tables, in lexicographic order of the flat table.

Two generation modes: every magma, or Latin squares only (rows and columns
are permutations). Equational constraints are pushed into the backtracking:
each ground instance of a constraint is parked on the first table cell its
evaluation needs, re-examined whenever that cell is filled, and the branch
is pruned as soon as an instance evaluates to a mismatch.

The search tree splits at the first row, so work can be farmed out to
worker processes; sub-streams are merged back in first-row order, which
keeps the output identical for any worker count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product
from math import factorial
from multiprocessing import Pool
from typing import Iterator

from .core import CANONICAL_CAP, Magma, canonical_form
from .laws import PARTS, H, Law, check_assignment_cap, is_tautology
from .properties import holds

ALL_MAGMAS = "all-magmas"
LATIN = "latin-squares"

# The largest order each mode enumerates without an equational constraint.
# A constraint that is not a tautology prunes the search, which buys one
# order more.
_PLAIN_CAP = {ALL_MAGMAS: 3, LATIN: 5}

MAX_ORDER_ENV = "MAGMA_LAB_MAX_ORDER"


class InfeasibleError(ValueError):
    """The requested enumeration is over the feasibility cap."""


@dataclass(frozen=True)
class EnumSpec:
    """What to enumerate.

    ``non_latin`` keeps only tables with at least one repeated row or
    column entry; it is how a search refutes H without a post-filter pass.
    """

    order: int
    mode: str = ALL_MAGMAS
    constraints: tuple[Law, ...] = ()
    up_to_iso: bool = False
    non_latin: bool = False


def models_spec(laws, order: int, latin: bool = False) -> EnumSpec:
    """The enumeration that streams exactly the models of laws at one order.

    Composite laws unfold to their PARTS and repeats are dropped. H, or
    latin, selects Latin squares; every other law becomes a constraint.
    """
    parts = dict.fromkeys(q for law in laws for q in PARTS.get(law, (law,)))
    latin = latin or H in parts
    return EnumSpec(
        order, LATIN if latin else ALL_MAGMAS, tuple(q for q in parts if q != H)
    )


def _split_constraints(spec: EnumSpec):
    eqs = tuple(law for law in spec.constraints if law.is_equational)
    post = tuple(law for law in spec.constraints if not law.is_equational)
    return eqs, post


def order_cap(mode: str, constrained: bool = False) -> int:
    """The largest order allowed in a mode: MAGMA_LAB_MAX_ORDER when set,
    else the mode's plain cap, plus one when constrained.

    The one reading of the override, shared by enumeration and the
    theorem sweeps.
    """
    env = os.environ.get(MAX_ORDER_ENV)
    if env:
        try:
            return int(env)
        except ValueError:
            raise InfeasibleError(f"bad {MAX_ORDER_ENV} value {env!r}") from None
    return _PLAIN_CAP[mode] + 1 if constrained else _PLAIN_CAP[mode]


def validate_spec(spec: EnumSpec) -> None:
    if spec.mode not in (ALL_MAGMAS, LATIN):
        raise InfeasibleError(f"unknown mode {spec.mode!r}")
    if spec.order < 1:
        raise InfeasibleError("order must be positive")
    if spec.non_latin and spec.mode == LATIN:
        raise InfeasibleError("non_latin contradicts latin-squares mode")
    eqs, _ = _split_constraints(spec)
    cap = order_cap(spec.mode, any(not is_tautology(law.equation) for law in eqs))
    if spec.order > cap:
        raise InfeasibleError(
            f"order {spec.order} exceeds the {spec.mode} cap {cap}; "
            f"set {MAX_ORDER_ENV} to override"
        )
    if spec.up_to_iso and spec.order > CANONICAL_CAP:
        raise InfeasibleError(f"up_to_iso needs order <= {CANONICAL_CAP}")
    check_assignment_cap([law.equation for law in eqs], spec.order, InfeasibleError)


@lru_cache(maxsize=1)
def _instances(programs, n: int) -> tuple:
    """Ground every program: slots replaced by values, APPLY stays -1.

    Cached, so a process grounds a spec once for all its first-row jobs.
    """
    return tuple(
        tuple(env[c] if c >= 0 else -1 for c in code)
        for k, code in programs
        for env in product(range(n), repeat=k)
    )


def _try_instance(inst, table, n: int) -> int:
    """-1 satisfied, -2 violated, else the first unfilled cell the instance
    needs, the lhs's cells coming first."""
    stack = []
    for c in inst:
        if c >= 0:
            stack.append(c)
        else:
            b = stack.pop()
            a = stack.pop()
            v = table[a * n + b]
            if v is None:
                return a * n + b
            stack.append(v)
    return -1 if stack[0] == stack[1] else -2


def _run(n: int, latin: bool, insts, prefix, non_latin: bool, collect) -> int:
    """Backtrack over cells in row-major order, the first cells fixed to
    prefix. Returns the number of tables accepted; appends flat tuples to
    collect when it is a list."""
    n2 = n * n
    table: list = [None] * n2
    full = (1 << n) - 1
    row_used = [0] * n
    col_used = [0] * n
    parked: dict[int, list] = {}
    fixed = len(prefix)
    values = range(n)
    count = 0

    for inst in insts:
        res = _try_instance(inst, table, n)
        if res == -2:
            return 0
        if res >= 0:
            parked.setdefault(res, []).append(inst)

    def place(pos: int, v: int):
        """Fill pos with v and re-examine the instances parked on it; None
        when one is violated, with the placement undone."""
        r, c = divmod(pos, n)
        ru = row_used[r]
        cu = col_used[c]
        table[pos] = v
        row_used[r] = ru | (1 << v)
        col_used[c] = cu | (1 << v)
        pend = parked.pop(pos, None)
        if pend is None:
            return (r, c, ru, cu, None, None)
        moved: list = []
        tok = (r, c, ru, cu, moved, pend)
        for inst in pend:
            res = _try_instance(inst, table, n)
            if res == -2:
                unplace(pos, tok)
                return None
            if res >= 0:
                parked.setdefault(res, []).append(inst)
                moved.append(res)
        return tok

    def unplace(pos: int, tok) -> None:
        r, c, ru, cu, moved, pend = tok
        if pend is not None:
            for cell in reversed(moved):
                parked[cell].pop()
            parked[pos] = pend
        row_used[r] = ru
        col_used[c] = cu
        table[pos] = None

    def go(pos: int) -> None:
        nonlocal count
        if pos == n2:
            # A full table is Latin exactly when every row and column uses
            # every value.
            if non_latin and row_used.count(full) == n and col_used.count(full) == n:
                return
            count += 1
            if collect is not None:
                collect.append(tuple(table))
            return
        if latin:
            r, c = divmod(pos, n)
            avail = full & ~(row_used[r] | col_used[c])
            if pos < fixed:
                avail &= 1 << prefix[pos]
            while avail:
                bit = avail & -avail
                avail ^= bit
                tok = place(pos, bit.bit_length() - 1)
                if tok is not None:
                    go(pos + 1)
                    unplace(pos, tok)
        else:
            for v in ((prefix[pos],) if pos < fixed else values):
                tok = place(pos, v)
                if tok is not None:
                    go(pos + 1)
                    unplace(pos, tok)

    go(0)
    return count


def latin_square_count(n: int) -> int:
    """Number of Latin squares of order n, from one backtracking job.

    Renaming the values maps each square to exactly one whose first row is
    0..n-1, so the count is n! times the number of those.
    """
    return factorial(n) * _run(n, True, (), tuple(range(n)), False, None)


def _prefixes(spec: EnumSpec):
    n = spec.order
    if spec.mode == LATIN:
        return permutations(range(n))
    return product(range(n), repeat=n)


def _subtree(job):
    """Worker for one first-row prefix: its tables as flat tuples, or only
    their number when the job asks to count."""
    n, latin, non_latin, programs, prefix, counting = job
    out = None if counting else []
    accepted = _run(n, latin, _instances(programs, n), prefix, non_latin, out)
    return accepted if counting else out


def _subtrees(spec: EnumSpec, workers: int, counting: bool):
    """_subtree results for every first-row prefix, in first-row order.

    A job carries the (arity, code) program of each equational constraint,
    never a law or a term tree. The pool never gets more processes than
    there are CPUs or jobs.
    """
    eqs = [law.equation for law in _split_constraints(spec)[0]]
    programs = tuple((len(eq.variables), eq.code) for eq in eqs)
    head = (spec.order, spec.mode == LATIN, spec.non_latin, programs)
    jobs = [head + (p, counting) for p in _prefixes(spec)]
    workers = min(workers, os.cpu_count() or 1, len(jobs))
    if workers <= 1:
        yield from map(_subtree, jobs)
        return
    with Pool(workers) as pool:
        yield from pool.imap(_subtree, jobs, chunksize=1)


def tables(spec: EnumSpec, workers: int = 1) -> Iterator[Magma]:
    """Stream the matching magmas in lexicographic flat-table order."""
    validate_spec(spec)
    _, post = _split_constraints(spec)
    order = spec.order
    for chunk in _subtrees(spec, workers, counting=False):
        for raw in chunk:
            m = Magma(order, raw)
            if spec.up_to_iso and canonical_form(m).table != m.table:
                continue
            if all(holds(m, law) for law in post):
                yield m


def count(spec: EnumSpec, workers: int = 1) -> int:
    """Number of matching tables; avoids materializing them when it can."""
    validate_spec(spec)
    _, post = _split_constraints(spec)
    if spec.up_to_iso or post:
        return sum(1 for _ in tables(spec, workers))
    return sum(_subtrees(spec, workers, counting=True))
