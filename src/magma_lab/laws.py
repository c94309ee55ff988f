"""The property vocabulary: equational identities and named structural laws.

A term is either a variable name (a single lowercase letter) or a pair
``(left, right)`` meaning ``left + right``. Equations are universally
quantified over their variables.

An equation compiles to a postfix program (``Equation.code``). ``evaluate``
runs a program over any operation; on a finite table, ``_checker`` turns it
into generated straight-line code, the one decision procedure for an
equation that law checks and the backtracker share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

APPLY = -1

# Most assignments (n ** variables, summed over the equations) that one
# check, window or enumeration may evaluate or ground.
ASSIGNMENT_CAP = 10_000_000


def check_assignment_cap(equations, n: int, error=ValueError) -> None:
    """Raise error when the equations take over ASSIGNMENT_CAP assignments at order n."""
    total = sum(n ** len(eq.variables) for eq in equations)
    if total > ASSIGNMENT_CAP:
        raise error(f"{total} assignments at order {n} exceed the cap of {ASSIGNMENT_CAP}")


def _compile(sides) -> tuple[tuple, tuple]:
    """Variables in first-occurrence order, and the postfix program of both
    sides in turn: a variable is its slot number, an operation is APPLY."""
    slot: dict = {}
    code: list = []
    todo = list(reversed(sides))
    while todo:
        t = todo.pop()
        if t == APPLY:
            code.append(APPLY)
        elif isinstance(t, str):
            code.append(slot.setdefault(t, len(slot)))
        else:
            todo += (APPLY, t[1], t[0])
    return tuple(slot), tuple(code)


def evaluate(code, env, op) -> list:
    """Run a program: a slot pushes env[slot], APPLY pops y, x and pushes
    op(x, y). An equation's code leaves [left, right]."""
    stack: list = []
    for c in code:
        if c >= 0:
            stack.append(env[c])
        else:
            b = stack.pop()
            stack.append(op(stack.pop(), b))
    return stack


def _checker_source(code, n: int) -> str:
    """Python source of check(T, env) for a program at order n. The
    instance at env, on a flat table T whose unfilled cells are None, gives
    one of four results:

    - -1: both sides are known and equal;
    - -2: both sides are known and differ;
    - -3 - (i * n + v): one side is known to be v, and the other lacks
      only its outermost product, unfilled cell i; the instance holds
      exactly when cell i holds v;
    - else the first unfilled cell the instance needs, the lhs's first.

    On a full table the result is -1 or -2, from one lookup per APPLY in
    program order: the rhs is evaluated a second time, with j for its
    cells, only inside the branch where the lhs's top cell is unfilled, so
    full-table checks pay nothing for forcing.

    Straight-line code, one table lookup per APPLY. The source is built
    from integers only, so no user text reaches exec.
    """
    n = int(n)
    depth = 0
    for k, c in enumerate(code):
        depth += 1 if c >= 0 else -1
        if depth == 1:
            cut = k + 1  # the lhs is the longest prefix that leaves one term

    def steps(part, stack, cell, last):
        """Lines that evaluate part onto stack. An unfilled cell returns
        i, except at the final lookup of part, which runs the lines last."""
        lines = []
        for k, c in enumerate(part):
            if c >= 0:
                stack.append(f"e{int(c)}")
                continue
            b = stack.pop()
            a = stack.pop()
            t = f"t{len(stack)}"
            lines += [f"{cell} = {a} * {n} + {b}", f"{t} = T[{cell}]"]
            if k == len(part) - 1:
                lines += [f"if {t} is None:"] + ["    " + line for line in last]
            else:
                lines.append(f"if {t} is None: return i")
            stack.append(t)
        return lines

    lhs, rhs = code[:cut], code[cut:]
    lines = [", ".join(f"e{s}" for s in range(max(code) + 1)) + ", = env"]
    # Where the lhs's top cell i is unfilled, its value t0 is unknown: the
    # rhs's value, if known, is the one cell i must hold.
    other = ["t0"]
    force_lhs = steps(rhs, other, "j", ["return i"]) + [f"return -3 - (i * {n} + {other[1]})"]
    stack: list = []
    lines += steps(lhs, stack, "i", force_lhs)
    lines += steps(rhs, stack, "i", [f"return -3 - (i * {n} + {stack[0]})"])
    lines.append(f"return -1 if {stack[0]} == {stack[1]} else -2")
    return "def check(T, env):\n    " + "\n    ".join(lines) + "\n"


@lru_cache(maxsize=256)
def _checker(code, n: int):
    """The compiled check(T, env) of a program at order n, built on first use."""
    scope: dict = {}
    exec(_checker_source(code, n), {"__builtins__": {}}, scope)
    return scope["check"]


@dataclass(frozen=True)
class Equation:
    """An identity lhs = rhs between two terms. Equality and hashing read
    the compiled form (variables, code), which holds the same information."""

    lhs: object = field(compare=False)
    rhs: object = field(compare=False)
    variables: tuple = field(init=False, repr=False)
    code: tuple = field(init=False, repr=False)

    def __post_init__(self):
        variables, code = _compile((self.lhs, self.rhs))
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "code", code)


def is_tautology(eq: Equation) -> bool:
    """True when the two sides are the same term, the only identity that
    holds in every magma. Equal sides compile to equal halves of code, and
    two equal halves can only split the program where the lhs ends."""
    half = len(eq.code) // 2
    return eq.code[:half] == eq.code[half:]


@dataclass(frozen=True)
class Law:
    """A checkable property: a named built-in or a user equation."""

    tag: str
    equation: Equation | None = None

    @property
    def is_equational(self) -> bool:
        return self.equation is not None

    def __str__(self) -> str:
        return self.tag


def user_law(eq: Equation) -> Law:
    return Law("USER", eq)


# The seven identity laws. All other built-ins are structural conditions
# decided by dedicated checks rather than by a single equation.
A = Law("A", Equation(("a", ("b", "c")), (("a", "b"), "c")))
C = Law("C", Equation(("a", "b"), ("b", "a")))
CAI = Law("CAI", Equation(("a", ("b", "c")), ("c", ("a", "b"))))
CAII = Law("CAII", Equation(("a", ("b", "c")), (("c", "a"), "b")))
AGI = Law("AGI", Equation(("a", ("b", "c")), ("c", ("b", "a"))))
AGII = Law("AGII", Equation(("a", ("b", "c")), (("b", "a"), "c")))
R = Law("R", Equation((("a", "b"), "c"), ("a", ("c", "b"))))

NE = Law("NE")          # two-sided neutral element exists
IN = Law("IN")          # two-sided neutral exists and every element has a two-sided inverse
H = Law("H")            # every x + a = b and a + y = b uniquely solvable (Latin table)
CA = Law("CA")          # cancellative on both sides
# The composite laws: each holds when all of its PARTS hold.
LOOP = Law("LOOP")
GROUP = Law("GROUP")
ABELIAN = Law("ABELIAN")

# The parts of each composite law, listed flat in the order check_law
# reports the first missing one. Nothing else says what a composite means.
PARTS: dict[Law, tuple[Law, ...]] = {
    LOOP: (H, NE),
    GROUP: (A, NE, IN),
    ABELIAN: (A, C, NE, IN),
}

EQUATIONAL_LAWS: tuple[Law, ...] = (A, C, CAI, CAII, AGI, AGII, R)
ALL_LAWS: tuple[Law, ...] = (A, C, NE, IN, CAI, CAII, AGI, AGII, R, H, CA, LOOP, GROUP, ABELIAN)

BY_NAME: dict[str, Law] = {law.tag: law for law in ALL_LAWS}
