"""Built-in structures: finite tables plus windowed views of infinite ones.

A windowed structure pairs the raw operation with exact solvers for the two
unit equations (x * a = b and a * y = b) over the full carrier. Checks on a
window can then tell a genuine failure from a window artifact: any witness
found lives in the real carrier, so failures are always genuine, while a
clean pass over window instances is only a necessary condition for the
full-carrier claim (except neutrality failures, which the solvers settle
exactly).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Any, Callable, Sequence

from .core import Magma, magma_from_rows
from .laws import ASSIGNMENT_CAP, BY_NAME, Law, evaluate
from .properties import find_neutrals, holds

ALL = "all"  # solver sentinel: every carrier element solves the equation


@dataclass(frozen=True)
class WindowedOp:
    """An operation on an infinite carrier, sampled on a finite window.

    solve_left(a, b) returns the carrier solutions x of x * a = b, and
    solve_right(a, b) those y of a * y = b, each as a tuple or ALL.
    """

    carrier: str
    op: Callable[[Any, Any], Any]
    window: Sequence
    solve_left: Callable[[Any, Any], Any]
    solve_right: Callable[[Any, Any], Any]


@dataclass(frozen=True)
class BuiltinStructure:
    name: str
    params: tuple
    kind: str  # "finite" or "windowed"
    example: int = 0  # catalog row it illustrates, 0 when none
    magma: Magma | None = None
    windowed: WindowedOp | None = None
    claims: tuple = ()  # ((law tag, documented verdict), ...)
    notes: tuple = ()

    @property
    def label(self) -> str:
        if not self.params:
            return self.name
        return "%s(%s)" % (self.name, ", ".join(str(p) for p in self.params))


@dataclass(frozen=True)
class WindowedReport:
    law: Law
    holds: bool
    scope: str  # "genuine" or "necessary-condition only"
    witness: tuple = ()  # ((name, value), ...)
    detail: str | None = None


@dataclass(frozen=True)
class WindowedNeutrals:
    """Neutral candidates pinned down by the unit-equation solvers.

    A two_sided of None is genuine: a real neutral would have survived
    every window instance. A found candidate is only window-checked.
    """

    left: tuple
    right: tuple
    two_sided: Any | None
    scope: str


def zn_add(n: int) -> Magma:
    """Addition mod n."""
    return magma_from_rows([[(a + b) % n for b in range(n)] for a in range(n)])


def zn_sub(n: int) -> Magma:
    """Subtraction mod n."""
    return magma_from_rows([[(a - b) % n for b in range(n)] for a in range(n)])


def zn_rsub(n: int) -> Magma:
    """Reversed subtraction mod n: a * b = b - a."""
    return magma_from_rows([[(b - a) % n for b in range(n)] for a in range(n)])


def proj1(n: int) -> Magma:
    return magma_from_rows([[a for _ in range(n)] for a in range(n)])


def proj2(n: int) -> Magma:
    return magma_from_rows([[b for b in range(n)] for _ in range(n)])


def chain_meet(n: int) -> Magma:
    """Minimum on the chain 0 < 1 < ... < n-1."""
    return magma_from_rows([[min(a, b) for b in range(n)] for a in range(n)])


def chain_join(n: int) -> Magma:
    """Maximum on the chain 0 < 1 < ... < n-1."""
    return magma_from_rows([[max(a, b) for b in range(n)] for a in range(n)])


def trivalent_equiv() -> Magma:
    """Equivalence connective on the three-element chain of truth values.

    Entries 0, 1, 2 encode the truth values 0, 1/2, 1; a * b is 2 when
    a equals b and min(a, b) otherwise.
    """
    return magma_from_rows([[2 if a == b else min(a, b) for b in range(3)] for a in range(3)])


def _int_sub_windowed(lo: int, hi: int) -> WindowedOp:
    return WindowedOp(
        carrier="integers",
        op=lambda a, b: a - b,
        window=range(lo, hi + 1),
        solve_left=lambda a, b: (a + b,),
        solve_right=lambda a, b: (a - b,),
    )


def _nat_add_windowed(hi: int) -> WindowedOp:
    def solve(a, b):
        return (b - a,) if b >= a else ()

    return WindowedOp(
        carrier="natural numbers",
        op=lambda a, b: a + b,
        window=range(hi + 1),
        solve_left=solve,
        solve_right=solve,
    )


def _prob_star_windowed() -> WindowedOp:
    def solve(a, b):
        if a == 0:
            return ALL if b == 1 else ()
        x = (1 - b) / Fraction(a)
        return (x,) if 0 <= x <= 1 else ()

    quarter = Fraction(1, 4)
    return WindowedOp(
        carrier="rationals in [0, 1]",
        op=lambda p, q: 1 - p * q,
        window=tuple(k * quarter for k in range(5)),
        solve_left=solve,
        solve_right=solve,
    )


_T = True
_F = False

# The example catalog in display order: (name, params) -> (the example row
# it illustrates, its documented verdicts as (law tag, verdict) pairs)
_CATALOG = {
    ("nat_add_window", (8,)): (1, (("A", _T), ("C", _T), ("NE", _T), ("H", _F))),
    ("zn_add", (5,)): (2, (("A", _T), ("C", _T), ("NE", _T), ("IN", _T), ("H", _T))),
    ("chain_meet", (4,)): (3, (("A", _T), ("C", _T), ("H", _F))),
    ("chain_join", (4,)): (3, (("A", _T), ("C", _T), ("H", _F))),
    ("int_sub_window", (-5, 5)): (4, (
        ("H", _T), ("AGI", _T), ("AGII", _F), ("CAI", _F), ("CAII", _F),
        ("R", _F), ("A", _F), ("C", _F), ("NE", _F),
    )),
    ("zn_sub", (3,)): (4, (
        ("H", _T), ("AGI", _T), ("AGII", _F), ("CAI", _F), ("CAII", _F),
        ("R", _F), ("A", _F), ("C", _F), ("NE", _F),
    )),
    ("zn_rsub", (3,)): (5, (
        ("H", _T), ("AGII", _T), ("AGI", _F), ("CAI", _F), ("CAII", _F),
        ("R", _F), ("A", _F), ("C", _F), ("NE", _F),
    )),
    ("proj2", (2,)): (6, (
        ("A", _T), ("AGII", _T), ("C", _F), ("CAI", _F), ("CAII", _F),
        ("AGI", _F), ("R", _F), ("NE", _T), ("H", _F),
    )),
    ("proj1", (2,)): (7, (
        ("A", _T), ("R", _T), ("CAI", _F), ("CAII", _F), ("AGI", _F),
        ("AGII", _F), ("C", _F), ("NE", _F), ("H", _F),
    )),
    ("prob_star", ()): (8, (
        ("C", _T), ("A", _F), ("AGI", _F), ("AGII", _F), ("CAI", _F),
        ("CAII", _F), ("R", _F), ("NE", _F), ("H", _F),
    )),
    ("trivalent_equiv", ()): (9, (
        ("C", _T), ("A", _F), ("NE", _T), ("AGI", _F), ("AGII", _F),
        ("CAI", _F), ("CAII", _F), ("R", _F), ("H", _F),
    )),
}

_NOTES = {
    "nat_add_window": ("window of the naturals under addition; solvers answer over all naturals",),
    "int_sub_window": ("window of the integers under subtraction; solvers answer over all integers",),
    "prob_star": ("p * q = 1 - p q on [0, 1]; the window is the quarter grid",),
    "zn_rsub": ("reversed subtraction, the finite face of b - a",),
    "trivalent_equiv": ("entries 0, 1, 2 stand for the truth values 0, 1/2, 1",),
}

_FINITE_FAMILIES = {
    "zn_add": zn_add,
    "zn_sub": zn_sub,
    "zn_rsub": zn_rsub,
    "proj1": proj1,
    "proj2": proj2,
    "chain_meet": chain_meet,
    "chain_join": chain_join,
}

def _finish(name, params, kind, magma=None, windowed=None) -> BuiltinStructure:
    example, claims = _CATALOG.get((name, params), (0, ()))
    return BuiltinStructure(
        name, params, kind, example, magma=magma, windowed=windowed,
        claims=claims, notes=_NOTES.get(name, ()),
    )


def _check_window_size(points: int) -> None:
    if points > ASSIGNMENT_CAP:
        raise ValueError(f"window of {points} points exceeds the cap of {ASSIGNMENT_CAP}")


def builtin(name: str, *params) -> BuiltinStructure:
    """Construct a named structure. Finite families take the order; the
    windowed ones take their window bounds (or nothing for prob_star), and
    a window holds at most ASSIGNMENT_CAP points."""
    if name in _FINITE_FAMILIES:
        if len(params) != 1 or not isinstance(params[0], int) or params[0] < 1:
            raise ValueError(f"{name} takes one positive order")
        return _finish(name, params, "finite", magma=_FINITE_FAMILIES[name](params[0]))
    if name == "trivalent_equiv":
        if params:
            raise ValueError("trivalent_equiv takes no parameters")
        return _finish(name, (), "finite", magma=trivalent_equiv())
    if name == "int_sub_window":
        lo, hi = params if params else (-5, 5)
        if lo > hi:
            raise ValueError("window bounds must satisfy lo <= hi")
        _check_window_size(hi - lo + 1)
        return _finish(name, (lo, hi), "windowed", windowed=_int_sub_windowed(lo, hi))
    if name == "nat_add_window":
        (hi,) = params if params else (8,)
        if hi < 0:
            raise ValueError("window bound must be non-negative")
        _check_window_size(hi + 1)
        return _finish(name, (hi,), "windowed", windowed=_nat_add_windowed(hi))
    if name == "prob_star":
        if params:
            raise ValueError("prob_star takes no parameters")
        return _finish(name, (), "windowed", windowed=_prob_star_windowed())
    raise ValueError(f"unknown structure {name!r}")


def _check_equation(w: WindowedOp, law: Law) -> WindowedReport:
    eq = law.equation
    names = eq.variables
    if len(w.window) ** len(names) > ASSIGNMENT_CAP:
        raise ValueError("window too large for this equation")
    for values in product(w.window, repeat=len(names)):
        left, right = evaluate(eq.code, values, w.op)
        if left != right:
            return WindowedReport(law, False, "genuine",
                                  witness=tuple(zip(names, values)))
    return WindowedReport(law, True, "necessary-condition only")


def _check_cancellative(w: WindowedOp, law: Law) -> WindowedReport:
    window = w.window
    if len(window) ** 3 > ASSIGNMENT_CAP:
        raise ValueError("window too large")
    for a in window:
        for b in window:
            for c in window:
                if b == c:
                    continue
                if w.op(a, b) == w.op(a, c):
                    return WindowedReport(law, False, "genuine",
                                          witness=(("a", a), ("b", b), ("c", c)),
                                          detail="left cancellation fails")
                if w.op(b, a) == w.op(c, a):
                    return WindowedReport(law, False, "genuine",
                                          witness=(("a", a), ("b", b), ("c", c)),
                                          detail="right cancellation fails")
    return WindowedReport(law, True, "necessary-condition only")


def _check_latin(w: WindowedOp, law: Law) -> WindowedReport:
    if len(w.window) ** 2 > ASSIGNMENT_CAP:
        raise ValueError("window too large")
    for a in w.window:
        for b in w.window:
            for side, solver, shape in (
                ("left", w.solve_left, "x * %s = %s"),
                ("right", w.solve_right, "%s * y = %s"),
            ):
                sols = solver(a, b)
                n = "infinitely many" if sols == ALL else len(sols)
                if sols == ALL or len(sols) != 1:
                    eqn = shape % (a, b)
                    return WindowedReport(
                        law, False, "genuine",
                        witness=(("a", a), ("b", b)),
                        detail=f"{eqn} has {n} solutions over the {w.carrier}",
                    )
    return WindowedReport(law, True, "necessary-condition only")


def windowed_check(w: WindowedOp, law: Law) -> WindowedReport:
    """Check one law on a windowed operation.

    Equational laws and cancellativity are tested on window assignments:
    failures are genuine, passes are necessary conditions only. The H check
    uses the solvers, so its failures are genuine as well.
    """
    if law.is_equational:
        return _check_equation(w, law)
    if law.tag == "CA":
        return _check_cancellative(w, law)
    if law.tag == "H":
        return _check_latin(w, law)
    raise ValueError(f"law {law.tag} has no windowed check")


def windowed_neutrals(w: WindowedOp) -> WindowedNeutrals:
    """Intersect the solver answers of e * x = x and x * e = x over the window."""

    def candidates(solver):
        cands = None
        for x in w.window:
            sols = solver(x, x)
            if sols == ALL:
                continue
            if cands is None:
                cands = list(sols)
            else:
                cands = [v for v in cands if v in sols]
            if not cands:
                return ()
        return ALL if cands is None else tuple(cands)

    left = candidates(w.solve_left)
    right = candidates(w.solve_right)
    if left == ALL and right == ALL:
        return WindowedNeutrals(left, right, None, "necessary-condition only")
    if left == ALL:
        common = right
    elif right == ALL:
        common = left
    else:
        common = tuple(v for v in left if v in right)
    two_sided = common[0] if common else None
    scope = "necessary-condition only" if two_sided is not None else "genuine"
    return WindowedNeutrals(left, right, two_sided, scope)


@dataclass
class ExampleRecord:
    """One catalog row: documented verdicts next to computed ones."""

    example: int
    structure: BuiltinStructure
    claims: dict
    actual: dict
    scopes: dict
    mismatches: tuple
    notes: tuple


def _neutral_note(left, right) -> str:
    def fmt(vals):
        if vals == ALL:
            return "every element"
        return "{%s}" % ", ".join(str(v) for v in vals) if vals else "none"

    return f"no two-sided neutral; left neutrals {fmt(left)}, right neutrals {fmt(right)}"


def _evaluate(s: BuiltinStructure):
    """Computed verdicts, their scopes and notes for each documented claim."""
    actual: dict = {}
    scopes: dict = {}
    notes: list = []
    for tag, _ in s.claims:
        if tag == "NE":
            if s.kind == "finite":
                nr, scope = find_neutrals(s.magma), "exact"
            else:
                nr = windowed_neutrals(s.windowed)
                scope = nr.scope
            actual[tag] = nr.two_sided is not None
            if nr.two_sided is None and (nr.left or nr.right):
                notes.append(_neutral_note(nr.left, nr.right))
        elif s.kind == "finite":
            actual[tag], scope = holds(s.magma, BY_NAME[tag]), "exact"
        else:
            rep = windowed_check(s.windowed, BY_NAME[tag])
            actual[tag], scope = rep.holds, rep.scope
            if not rep.holds and rep.detail:
                notes.append(f"{tag}: {rep.detail}")
        scopes[tag] = scope
    return actual, scopes, notes


def example_suite() -> list[ExampleRecord]:
    """Evaluate every catalog structure and compare against its documented
    verdicts. A mismatch means the documentation is wrong, not the check:
    finite results are exact and windowed failures carry real witnesses."""
    records = []
    for name, params in _CATALOG:
        s = builtin(name, *params)
        actual, scopes, notes = _evaluate(s)
        claims = dict(s.claims)
        mismatches = tuple(tag for tag, want in s.claims if actual[tag] != want)
        for tag in mismatches:
            notes.append(
                f"documented {tag}={claims[tag]} but computed {tag}={actual[tag]} "
                f"({scopes[tag]})"
            )
        records.append(ExampleRecord(
            example=s.example,
            structure=s,
            claims=claims,
            actual=actual,
            scopes=scopes,
            mismatches=mismatches,
            notes=tuple(s.notes) + tuple(notes),
        ))
    return records
