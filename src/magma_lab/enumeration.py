"""Exhaustive streams of finite tables, in lexicographic order of the flat table.

Two generation modes: every magma, or Latin squares only (rows and columns
are permutations). Equational constraints are pushed into the backtracking:
each constraint runs as its generated checker (``laws._checker``, the same
code that decides the equation on a full table), each ground instance of it
is parked on the first table cell its evaluation needs and re-checked
whenever that cell is filled. The checker gives one of four results: the
instance holds (-1), fails (-2), needs an unfilled cell (that cell), or
holds exactly when one unfilled cell takes one value, because one side is
known and the other lacks only its outermost product (-3 - (cell * n +
value)). A failure prunes the branch at once; a forcing restricts the cell
to that value, and prunes the branch when the cell is already restricted to
another value or, in Latin mode, the value is already used in its row or
column.

Plain Latin squares (Latin mode, no equational constraint) come from one
job, the squares whose first row is 0..n-1: relabeling their values by each
permutation p of the carrier gives exactly the squares with first row p.
Equationally constrained streams split the search tree at the first row
instead, so their work can be farmed out to worker processes; sub-streams
are merged back in first-row order, which keeps the output identical for
any worker count. Tables pass between these layers as bytes.

An up_to_iso stream leaves out the first rows that no canonical table has
(_may_lead_canonical), in either kind of job, and keeps a table only when
is_canonical says so.

One stream, three views: _stream validates, sources and filters it.
tables yields a Magma per table; blocks yields flat bytes, one list per
first-row chunk, and builds no Magma for an unfiltered chunk (enumerate's
text output); count adds up chunk sizes, bare counts when unfiltered.

count runs one job per orbit of first rows (_orbits) and multiplies what
it counts by the orbit's size. A relabeling s that fixes 0 maps the tables
with first row r one-to-one onto those whose first row r' has
r'[s[x]] = s[r[x]], and every law, as well as non_latin, holds in a table
exactly when it holds in its relabeling. An up_to_iso count is not
weighted, since only one table of each class is canonical.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product
from math import ceil
from multiprocessing import Pool
from operator import mul
from typing import Iterator

from . import core
from .core import CANONICAL_CAP, Magma, _excerpt, _excerpt_int, is_canonical
from .laws import PARTS, H, Law, _checker, check_assignment_cap, is_tautology
from .properties import check_H, holds

ALL_MAGMAS = "all-magmas"
LATIN = "latin-squares"

# The largest order each mode enumerates unconstrained; see validate_spec.
_PLAIN_CAP = {ALL_MAGMAS: 3, LATIN: 5}

MAX_ORDER_ENV = "MAGMA_LAB_MAX_ORDER"

# perfbench/tracing.py wraps enumeration.canonical_form, so the name stays bound here.
canonical_form = core.canonical_form


class InfeasibleError(ValueError):
    """The requested enumeration is over the feasibility cap."""


@dataclass(frozen=True)
class EnumSpec:
    """What to enumerate.

    ``non_latin`` keeps only tables that fail H, that is, with at least one
    repeated row or column entry; it is how a search refutes H.
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


def validate_spec(spec: EnumSpec) -> None:
    """Raise InfeasibleError unless spec is affordable: the one feasibility
    rule, shared by count, enumerate, search and the theorem sweeps.

    The largest order is the mode's plain cap, 3 for all magmas and 5 for
    Latin squares, plus one when an equational constraint is not a
    tautology. MAGMA_LAB_MAX_ORDER, when set, replaces every cap, but no
    order above 255 passes: tables pass between layers as bytes.
    up_to_iso also needs order <= CANONICAL_CAP, and the equational
    constraints must stay within the assignment cap at the order.
    """
    if spec.mode not in (ALL_MAGMAS, LATIN):
        raise InfeasibleError(f"unknown mode {spec.mode!r}")
    if spec.order < 1:
        raise InfeasibleError("order must be positive")
    if spec.non_latin and spec.mode == LATIN:
        raise InfeasibleError("non_latin contradicts latin-squares mode")
    eqs, _ = _split_constraints(spec)
    env = os.environ.get(MAX_ORDER_ENV)
    if env:
        try:
            cap = int(env)
        except ValueError:
            raise InfeasibleError(f"bad {MAX_ORDER_ENV} value {_excerpt(env)}") from None
    else:
        cap = _PLAIN_CAP[spec.mode] + any(not is_tautology(law.equation) for law in eqs)
    if spec.order > cap:
        raise InfeasibleError(
            f"order {_excerpt_int(spec.order)} exceeds the {spec.mode} cap {_excerpt_int(cap)}; "
            f"set {MAX_ORDER_ENV} to override"
        )
    if spec.order > 255:
        raise InfeasibleError(
            f"order {_excerpt_int(spec.order)} exceeds 255, the largest a table byte holds"
        )
    if spec.up_to_iso and spec.order > CANONICAL_CAP:
        raise InfeasibleError(f"up_to_iso needs order <= {CANONICAL_CAP}")
    check_assignment_cap([law.equation for law in eqs], spec.order, InfeasibleError)


@lru_cache(maxsize=1)
def _parking(programs, n: int):
    """Every ground instance on the empty table: a pair (parked, forced).
    parked holds each instance as (checker, assignment) on the first cell
    it needs, a tuple indexed by cell; forced holds the (cell, value) pairs
    that instances force. None when an instance is violated, or two force
    one cell to different values, before any cell is filled.

    Cached, so a process grounds a spec once for all its first-row jobs.
    """
    parked: list = [[] for _ in range(n * n)]
    forced: dict = {}
    empty = [None] * (n * n)
    for k, code in programs:
        check = _checker(code, n)
        for env in product(range(n), repeat=k):
            res = check(empty, env)
            if res >= 0:
                parked[res].append((check, env))
            elif res == -2:
                return None
            elif res != -1:
                cell, v = divmod(-3 - res, n)
                if forced.setdefault(cell, v) != v:
                    return None
    return tuple(map(tuple, parked)), tuple(forced.items())


def _run(n: int, latin: bool, parking, prefix, collect) -> int:
    """Backtrack over cells in row-major order, the first cells fixed to
    prefix. Returns the number of tables accepted; appends flat tables as
    bytes to collect when it is a list.

    parking is a _parking result. Each instance parked on a cell is
    re-checked when that cell is filled: it passes, moves on to the next
    cell it needs, forces an unfilled cell to one value, or prunes the
    branch. allow[cell] is the bit mask of the values the cell may still
    take; a forcing narrows it to one bit, and the branch is pruned when
    the value is already excluded there, or in Latin mode is already used
    in the cell's row or column. Moves and forcings are undone together.
    """
    if parking is None:
        return 0
    parking, forced = parking
    n2 = n * n
    table: list = [None] * n2
    full = (1 << n) - 1
    row_used = [0] * n
    col_used = [0] * n
    parked = [list(cell) for cell in parking]
    allow = [full] * n2
    for cell, v in forced:
        allow[cell] = 1 << v
    for cell, v in enumerate(prefix):
        allow[cell] &= 1 << v
    value = {1 << v: v for v in range(n)}
    count = 0

    def undo(moves):
        """Take back moves: a cell an instance moved to, or ~cell for a
        cell a forcing narrowed from full."""
        for cell in moves:
            if cell >= 0:
                parked[cell].pop()
            else:
                allow[~cell] = full

    def settle(pend):
        """Re-check the instances parked on a cell just filled. Their moves
        and forcings, or None, with those undone, on a violation."""
        moves = []
        for inst in pend:
            res = inst[0](table, inst[1])
            if res >= 0:
                parked[res].append(inst)
                moves.append(res)
            elif res == -2:
                undo(moves)
                return None
            elif res != -1:
                cell, v = divmod(-3 - res, n)
                bit = 1 << v
                mask = allow[cell]
                if not mask & bit or latin and bit & (
                    row_used[cell // n] | col_used[cell % n]
                ):
                    undo(moves)
                    return None
                if mask != bit:
                    allow[cell] = bit
                    moves.append(~cell)
        return moves

    def go(pos: int) -> None:
        nonlocal count
        if pos == n2:
            count += 1
            if collect is not None:
                collect.append(bytes(table))
            return
        r, c = divmod(pos, n)
        ru = row_used[r]
        cu = col_used[c]
        pend = parked[pos]
        avail = allow[pos] & ~(ru | cu) if latin else allow[pos]
        while avail:
            bit = avail & -avail
            avail ^= bit
            table[pos] = value[bit]
            row_used[r] = ru | bit
            col_used[c] = cu | bit
            if not pend:
                go(pos + 1)
                continue
            moves = settle(pend)
            if moves is not None:
                go(pos + 1)
                undo(moves)
        row_used[r] = ru
        col_used[c] = cu
        table[pos] = None

    go(0)
    return count


def _may_lead_canonical(row) -> bool:
    """Whether row can be the first row of a canonical (lexicographically
    least) table: each entry row[c] is at most 1 + max(c, row[0..c-1]),
    the max of nothing being -1.

    Proof: say v = row[c] is larger, and let u = max(c, row[0..c-1]) + 1,
    so u < v. Swapping the labels u and v fixes 0..c and every value of
    row[0..c-1], all below u, so it leaves cells (0, 0..c-1) alone and puts
    u < v in cell (0, c): the relabeled table is less. This is the
    least-number heuristic of SEM (Zhang & Zhang, 1995) on the first row.
    """
    top = -1
    for c, v in enumerate(row):
        top = max(top, c)
        if v > top + 1:
            return False
        top = max(top, v)
    return True


def _prefixes(spec: EnumSpec):
    """The first rows of spec's tables, in lexicographic order; up_to_iso
    drops those that no canonical table has."""
    n = spec.order
    rows = permutations(range(n)) if spec.mode == LATIN else product(range(n), repeat=n)
    return filter(_may_lead_canonical, rows) if spec.up_to_iso else rows


def _orbits(spec: EnumSpec):
    """The first rows of spec's tables under the relabelings that fix 0, one
    (least row, orbit size) pair per orbit, in lexicographic order.

    Relabeling by s maps first row r to r' with r'[s[x]] = s[r[x]]. The rows
    are walked in order, so a row not yet met as an image is the least of
    its orbit; each row is met once, so it leaves the set of pending images
    when it is reached.
    """
    n = spec.order
    fixing = [(0, *tail) for tail in permutations(range(1, n))]
    pairs = [(s, sorted(range(n), key=s.__getitem__)) for s in fixing]  # s, s^-1
    pending: set = set()
    for row in _prefixes(spec):
        if row in pending:
            pending.remove(row)
            continue
        orbit = {tuple(s[row[x]] for x in inv) for s, inv in pairs}
        yield row, len(orbit)
        orbit.remove(row)
        pending |= orbit


def _relabeled(spec: EnumSpec, rows, counting: bool):
    """The Latin squares of spec's order, one sorted list (or, counting, its
    length) per first row p of rows, in their order: the normal job's
    squares, those with first row 0..n-1, relabeled by p. Bytes compare
    like tuples of small ints, so sorting restores flat-table order."""
    n = spec.order
    normal = None if counting else []
    found = _run(n, True, (((),) * (n * n), ()), tuple(range(n)), normal)
    pad = bytes(256 - n)
    for p in rows:
        relabel = bytes(p) + pad
        yield found if counting else sorted(sq.translate(relabel) for sq in normal)


def _subtree(job):
    """Worker for one first-row prefix: its tables as flat bytes, or only
    their number when the job asks to count."""
    n, latin, programs, prefix, counting = job
    out = None if counting else []
    accepted = _run(n, latin, _parking(programs, n), prefix, out)
    return accepted if counting else out


def _subtrees(spec: EnumSpec, rows, workers: int, counting: bool):
    """_subtree results for each first row of rows, in their order.

    A job carries the (arity, code) program of each equational constraint,
    never a law or a term tree. The pool never gets more processes than
    there are CPUs or jobs, and hands them out in chunks by Pool.map's
    rule, about four chunks per process.
    """
    eqs = [law.equation for law in _split_constraints(spec)[0]]
    programs = tuple((len(eq.variables), eq.code) for eq in eqs)
    head = (spec.order, spec.mode == LATIN, programs)
    jobs = [head + (p, counting) for p in rows]
    workers = min(workers, os.cpu_count() or 1, len(jobs))
    if workers <= 1:
        yield from map(_subtree, jobs)
        return
    with Pool(workers) as pool:
        yield from pool.imap(_subtree, jobs, ceil(len(jobs) / (4 * workers)))


def _stream(spec: EnumSpec, workers: int, counting: bool = False):
    """spec's stream, one chunk per first row in first-row order: the flat
    bytes tables that pass up_to_iso, non_latin and the post laws, tested
    one at a time as the chunk is read, or, counting, only their number.
    Plain Latin streams relabel the normal job; the others backtrack. A
    count without up_to_iso takes one row per orbit and weights its number
    by the orbit's size."""
    validate_spec(spec)
    eqs, post = _split_constraints(spec)
    filtered = spec.up_to_iso or spec.non_latin or post
    bare = counting and not filtered
    weighted = counting and not spec.up_to_iso
    if weighted:
        rows, sizes = zip(*_orbits(spec))
    else:
        rows = _prefixes(spec)
    if spec.mode == LATIN and not eqs:
        chunks = _relabeled(spec, rows, bare)
    else:
        chunks = _subtrees(spec, rows, workers, bare)
    if filtered:
        order = spec.order

        def keep(raw: bytes) -> bool:
            m = Magma(order, raw)
            if spec.up_to_iso and not is_canonical(m):
                return False
            if spec.non_latin and check_H(m).holds:
                return False
            return all(holds(m, law) for law in post)

        chunks = (filter(keep, chunk) for chunk in chunks)
        if counting:
            chunks = (sum(1 for _ in chunk) for chunk in chunks)
    return map(mul, sizes, chunks) if weighted else chunks


def tables(spec: EnumSpec, workers: int = 1) -> Iterator[Magma]:
    """Stream the matching magmas in lexicographic flat-table order. A
    stream without equational constraints in Latin mode relabels the normal
    job in this process and starts no pool, whatever workers says."""
    order = spec.order
    for chunk in _stream(spec, workers):
        for raw in chunk:
            yield Magma(order, raw)


def blocks(spec: EnumSpec, workers: int = 1) -> Iterator[list[bytes]]:
    """The stream of tables, as flat bytes, one list per first-row chunk:
    flattened, it is bytes(m.table) for each m of tables(spec, workers).
    No Magma is built for an unfiltered chunk."""
    yield from map(list, _stream(spec, workers))


def count(spec: EnumSpec, workers: int = 1) -> int:
    """Number of matching tables. An unfiltered stream is counted without
    materializing its tables; plain Latin squares take one job, whose count
    is added up over the first rows. Without up_to_iso, one first row per
    orbit under the relabelings that fix 0 is counted, times its orbit's
    size."""
    return sum(_stream(spec, workers, counting=True))
