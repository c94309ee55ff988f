"""Decision procedures for the built-in laws, with reproducible witnesses.

Each law has one decision procedure. An equation is decided by its
generated checker from ``laws``, the code the backtracker runs too; NE, IN,
H and CA by the scans below. ``check_law`` reports and ``holds`` answers
through the same dispatch, ``_check``.

Failure witnesses are always the lexicographically first failing variable
assignment (last variable varying fastest), so repeated runs and different
implementations of the same scan agree byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .core import Magma
from .laws import CA, H, IN, PARTS, A, C, Law, _checker, check_assignment_cap


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one law check on one magma.

    ``witness`` is present iff ``holds`` is false. For equational laws it
    assigns every variable. For H and CA it names three elements a, b, c
    such that the products collide on the side given in ``detail``:
    row/left means op(a,b) == op(a,c) with b != c, column/right means
    op(b,a) == op(c,a) with b != c.
    """

    order: int
    law: Law
    holds: bool
    witness: dict | None = None
    detail: dict | None = None


@dataclass(frozen=True)
class NeutralReport:
    """Left and right neutral elements, reported separately."""

    left: tuple[int, ...]
    right: tuple[int, ...]
    two_sided: int | None


@dataclass(frozen=True)
class LocalIdentities:
    """Solutions of a + x = a (right) and y + a = a (left) for a fixed a."""

    element: int
    right_solutions: tuple[int, ...]
    left_solutions: tuple[int, ...]

    @property
    def right_unique(self) -> bool:
        return len(self.right_solutions) == 1

    @property
    def left_unique(self) -> bool:
        return len(self.left_solutions) == 1


@dataclass(frozen=True)
class StructureReport:
    """Classification labels plus the neutral/inverse data behind them."""

    order: int
    labels: tuple[str, ...]
    neutrals: NeutralReport
    inverses: tuple | None  # inverses[a] = some two-sided inverse of a, or None


def check_identity_law(m: Magma, law: Law) -> CheckReport:
    """Check a purely equational law over all assignments, by its generated
    checker."""
    eq = law.equation
    if eq is None:
        raise ValueError(f"law {law.tag} is not purely equational")
    check_assignment_cap((eq,), m.order)
    check = _checker(eq.code, m.order)
    t = m.table
    for env in product(range(m.order), repeat=len(eq.variables)):
        if check(t, env) == -2:
            return CheckReport(m.order, law, False, dict(zip(eq.variables, env)))
    return CheckReport(m.order, law, True)


def find_neutrals(m: Magma) -> NeutralReport:
    n = m.order
    t = m.table
    ident = tuple(range(n))
    left = tuple(e for e in range(n) if t[e * n:(e + 1) * n] == ident)
    right = tuple(e for e in range(n) if t[e::n] == ident)
    two = next((e for e in left if e in right), None)
    return NeutralReport(left, right, two)


_LAST_NEUTRALS: list = [None, None]  # the last magma scanned and its report


def _neutrals(m: Magma) -> NeutralReport:
    """find_neutrals(m), kept for the last magma scanned, so the NE and IN
    checks of one table share one scan. Keyed on identity: the slot holds m,
    so no new magma can reuse its id while it is cached."""
    if _LAST_NEUTRALS[0] is not m:
        _LAST_NEUTRALS[:] = m, find_neutrals(m)
    return _LAST_NEUTRALS[1]


def _inverse_scan(m: Magma, e: int):
    """For each a in turn, its first two-sided inverse for e, or None."""
    n = m.order
    t = m.table
    for a in range(n):
        yield next(
            (b for b in range(n) if t[a * n + b] == e and t[b * n + a] == e), None
        )


def _inverse_report(m: Magma, e: int) -> CheckReport:
    """The IN report for e, which the caller knows to be the two-sided neutral."""
    for a, b in enumerate(_inverse_scan(m, e)):
        if b is None:
            return CheckReport(m.order, IN, False, {"a": a}, {"neutral": e})
    return CheckReport(m.order, IN, True, None, {"neutral": e})


def check_inverses(m: Magma, e: int) -> CheckReport:
    """Check that every element has a two-sided inverse for the neutral e."""
    if find_neutrals(m).two_sided != e:
        raise ValueError(f"element {e} is not a two-sided neutral")
    return _inverse_report(m, e)


def _lines(m: Magma):
    """Each row, then each column, as (kind, index, entries)."""
    n = m.order
    t = m.table
    for i in range(n):
        yield "row", i, t[i * n:(i + 1) * n]
    for i in range(n):
        yield "column", i, t[i::n]


def check_H(m: Magma) -> CheckReport:
    """Unique solvability of x + a = b and a + y = b: rows and columns permute.

    The detail names the first duplicated entry, scanning rows first.
    """
    for kind, i, line in _lines(m):
        first: dict = {}
        for c, v in enumerate(line):
            b = first.setdefault(v, c)
            if b != c:
                detail = {"kind": kind, "index": i, "value": v}
                return CheckReport(m.order, H, False, {"a": i, "b": b, "c": c}, detail)
    return CheckReport(m.order, H, True)


def check_cancellative(m: Magma) -> CheckReport:
    """Both cancellation laws: the first line with a repeated entry, rows
    (left cancellation) before columns (right cancellation)."""
    for kind, a, line in _lines(m):
        for b, v in enumerate(line):
            if v in line[b + 1:]:
                side = "left" if kind == "row" else "right"
                c = line.index(v, b + 1)
                return CheckReport(m.order, CA, False, {"a": a, "b": b, "c": c}, {"side": side})
    return CheckReport(m.order, CA, True)


def _check(m: Magma, law: Law) -> CheckReport:
    """CheckReport for an equational law, NE, IN, H or CA."""
    if law.equation is not None:
        return check_identity_law(m, law)
    tag = law.tag
    if tag == "NE":
        rep = _neutrals(m)
        detail = {
            "left": list(rep.left),
            "right": list(rep.right),
            "two_sided": rep.two_sided,
        }
        return CheckReport(m.order, law, rep.two_sided is not None, None, detail)
    if tag == "IN":
        e = _neutrals(m).two_sided
        if e is None:
            return CheckReport(m.order, law, False, None, {"missing": "NE"})
        return _inverse_report(m, e)
    if tag == "H":
        return check_H(m)
    if tag == "CA":
        return check_cancellative(m)
    raise ValueError(f"unknown law {tag!r}")


def check_law(m: Magma, law: Law) -> CheckReport:
    """CheckReport for any law, structural and composite ones included.

    Composite laws report the first missing part in the detail; the
    witness, when one exists, comes from that part's own check.
    """
    parts = PARTS.get(law)
    if parts is None:
        return _check(m, law)
    for part in parts:
        rep = check_law(m, part)
        if not rep.holds:
            return CheckReport(m.order, law, False, rep.witness, {"missing": part.tag})
    return CheckReport(m.order, law, True)


def local_identities(m: Magma, a: int) -> LocalIdentities:
    n = m.order
    t = m.table
    if not 0 <= a < n:
        raise ValueError(f"element {a} out of range")
    right = tuple(x for x in range(n) if t[a * n + x] == a)
    left = tuple(y for y in range(n) if t[y * n + a] == a)
    return LocalIdentities(a, right, left)


def holds(m: Magma, law: Law, memo: dict | None = None) -> bool:
    """Whether law holds, decided by the same checks as check_law.

    memo caches built-in tags per magma. Composite laws go through holds
    again for their parts, so the parts are cached too.
    """
    tag = law.tag
    if memo is not None and tag != "USER":
        cached = memo.get(tag)
        if cached is not None:
            return cached
    parts = PARTS.get(law)
    if parts is None:
        result = _check(m, law).holds
    else:
        result = all(holds(m, part, memo) for part in parts)
    if memo is not None and tag != "USER":
        memo[tag] = result
    return result


def classify(m: Magma) -> StructureReport:
    """Name every class from the standard ladder that the table belongs to.

    Raises ValueError when deciding A and C would take over ASSIGNMENT_CAP
    assignments, as check_law does."""
    check_assignment_cap((A.equation, C.equation), m.order)
    neutrals = find_neutrals(m)
    commutative = holds(m, C)
    semigroup = holds(m, A)
    monoid = semigroup and neutrals.two_sided is not None
    quasigroup = check_H(m).holds
    loop = quasigroup and neutrals.two_sided is not None

    inverses = None
    group = False
    if neutrals.two_sided is not None:
        inverses = tuple(_inverse_scan(m, neutrals.two_sided))
        group = monoid and None not in inverses

    labels = ["magma"]
    if commutative:
        labels.append("commutative")
    if semigroup:
        labels.append("semigroup")
    if monoid:
        labels.append("monoid")
    if group:
        labels.append("group")
    if group and commutative:
        labels.append("abelian-group")
    if quasigroup:
        labels.append("quasigroup")
    if loop:
        labels.append("loop")
    return StructureReport(m.order, tuple(labels), neutrals, inverses)
