"""Naive reference implementations of every law, for oracle comparison.

Everything here is written as directly as possible from the definitions:
recursive term evaluation, explicit nested loops, set comparisons. No
sharing with the optimized code paths under test.
"""

from itertools import permutations, product

from magma_lab.core import Magma
from magma_lab.laws import CA, H
from magma_lab.properties import CheckReport, NeutralReport


def eval_term(term, env, m):
    if isinstance(term, str):
        return env[term]
    return m.op(eval_term(term[0], env, m), eval_term(term[1], env, m))


def _partial_eval(term, env, table, n):
    """(value, None), or (None, cell) for the first unfilled cell the term
    needs, the left operand's cells before the right's."""
    if isinstance(term, str):
        return env[term], None
    a, need = _partial_eval(term[0], env, table, n)
    if need is not None:
        return None, need
    b, need = _partial_eval(term[1], env, table, n)
    if need is not None:
        return None, need
    if table[a * n + b] is None:
        return None, a * n + b
    return table[a * n + b], None


def _lacks_only_top(term, env, table, n):
    """The term is a product whose operands are known and whose own cell is
    unfilled: that cell, else None."""
    if isinstance(term, str):
        return None
    a, need_a = _partial_eval(term[0], env, table, n)
    b, need_b = _partial_eval(term[1], env, table, n)
    if need_a is None and need_b is None and table[a * n + b] is None:
        return a * n + b
    return None


def partial_check(eq, values, table, n):
    """An equation at one assignment on a partial flat table (None marks an
    unfilled cell): -1 when both sides are known and equal, -2 when they
    differ. When one side is known to be v and the other lacks only its
    outermost product, cell i, the instance holds exactly when cell i holds
    v: -3 - (i * n + v). Else the first unfilled cell needed, the lhs's
    cells first."""
    env = dict(zip(eq.variables, values))
    (lv, lneed), (rv, rneed) = (_partial_eval(t, env, table, n) for t in (eq.lhs, eq.rhs))
    for term, need, other, other_need in ((eq.lhs, lneed, rv, rneed), (eq.rhs, rneed, lv, lneed)):
        top = _lacks_only_top(term, env, table, n)
        if top is not None and other_need is None:
            return -3 - (top * n + other)
    if lneed is not None:
        return lneed
    if rneed is not None:
        return rneed
    return -1 if lv == rv else -2


def first_failure(m, eq):
    """The first assignment, as a dict, on which the two sides differ, or None."""
    for values in product(range(m.order), repeat=len(eq.variables)):
        env = dict(zip(eq.variables, values))
        if eval_term(eq.lhs, env, m) != eval_term(eq.rhs, env, m):
            return env
    return None


def equation_holds(m, eq):
    names = eq.variables
    for values in product(range(m.order), repeat=len(names)):
        env = dict(zip(names, values))
        if eval_term(eq.lhs, env, m) != eval_term(eq.rhs, env, m):
            return False
    return True


def is_associative(m):
    r = range(m.order)
    return all(m.op(m.op(a, b), c) == m.op(a, m.op(b, c)) for a in r for b in r for c in r)


def is_commutative(m):
    r = range(m.order)
    return all(m.op(a, b) == m.op(b, a) for a in r for b in r)


def neutral_elements(m):
    r = range(m.order)
    return [e for e in r if all(m.op(e, x) == x and m.op(x, e) == x for x in r)]


def has_neutral(m):
    return bool(neutral_elements(m))


def has_inverses(m):
    es = neutral_elements(m)
    if not es:
        return False
    e = es[0]
    r = range(m.order)
    return all(any(m.op(a, b) == e and m.op(b, a) == e for b in r) for a in r)


def is_latin(m):
    r = range(m.order)
    full = set(r)
    for a in r:
        if {m.op(a, y) for y in r} != full:
            return False
        if {m.op(x, a) for x in r} != full:
            return False
    return True


def is_cancellative(m):
    r = range(m.order)
    for a in r:
        for b in r:
            for c in r:
                if b == c:
                    continue
                if m.op(a, b) == m.op(a, c):
                    return False
                if m.op(b, a) == m.op(c, a):
                    return False
    return True


def _relabeled(m, p):
    """The flat table of new(p a, p b) = p(old(a, b))."""
    n = m.order
    new = [None] * (n * n)
    for a in range(n):
        for b in range(n):
            new[p[a] * n + p[b]] = p[m.op(a, b)]
    return tuple(new)


def first_row_orbits(rows, n):
    """The orbits of rows, first rows of order-n tables, under the
    relabelings p with p[0] == 0, as a set of frozensets: each row is put
    in a table of zeros, relabeled by every such p, and read back."""
    fixing = [p for p in permutations(range(n)) if p[0] == 0]
    pad = (0,) * (n * n - n)
    return {
        frozenset(_relabeled(Magma(n, tuple(row) + pad), p)[:n] for p in fixing)
        for row in rows
    }


def canonical_table(m):
    """The lexicographically least relabeling of the flat table, over every
    permutation of the carrier."""
    return min(_relabeled(m, p) for p in permutations(range(m.order)))


def ref_holds(m, law):
    tag = law.tag
    if law.equation is not None and tag in ("USER", "A", "C", "CAI", "CAII", "AGI", "AGII", "R"):
        return equation_holds(m, law.equation)
    if tag == "NE":
        return has_neutral(m)
    if tag == "IN":
        return has_inverses(m)
    if tag == "H":
        return is_latin(m)
    if tag == "CA":
        return is_cancellative(m)
    if tag == "LOOP":
        return is_latin(m) and has_neutral(m)
    if tag == "GROUP":
        return is_associative(m) and has_neutral(m) and has_inverses(m)
    if tag == "ABELIAN":
        return (
            is_associative(m)
            and is_commutative(m)
            and has_neutral(m)
            and has_inverses(m)
        )
    raise ValueError(f"no reference for {tag}")


# Witness scans, read off the CheckReport docstring: a, b, c with b != c
# whose products collide, op(a, b) == op(a, c) along a row (left) or
# op(b, a) == op(c, a) along a column (right); every row before any column.


def _collides(m, along_row, a, b, c):
    if along_row:
        return m.op(a, b) == m.op(a, c)
    return m.op(b, a) == m.op(c, a)


def h_report(m):
    """First line, then first repeated position c in it, then the earliest
    earlier position b holding the same value."""
    r = range(m.order)
    for along_row, kind in ((True, "row"), (False, "column")):
        for a in r:
            for c in r:
                for b in range(c):
                    if _collides(m, along_row, a, b, c):
                        value = m.op(a, c) if along_row else m.op(c, a)
                        detail = {"kind": kind, "index": a, "value": value}
                        return CheckReport(m.order, H, False, {"a": a, "b": b, "c": c}, detail)
    return CheckReport(m.order, H, True)


def ca_report(m):
    """First line, then first position b repeated later, then the earliest
    later position c holding the same value."""
    r = range(m.order)
    for along_row, side in ((True, "left"), (False, "right")):
        for a in r:
            for b in r:
                for c in range(b + 1, m.order):
                    if _collides(m, along_row, a, b, c):
                        return CheckReport(m.order, CA, False, {"a": a, "b": b, "c": c},
                                           {"side": side})
    return CheckReport(m.order, CA, True)


def neutral_report(m):
    r = range(m.order)
    left = tuple(e for e in r if all(m.op(e, x) == x for x in r))
    right = tuple(e for e in r if all(m.op(x, e) == x for x in r))
    two_sided = next((e for e in r if e in left and e in right), None)
    return NeutralReport(left, right, two_sided)
