"""Naive reference answers for the session workload's requests.

Written from the definitions in the README, sharing no code with
magma_lab: laws are parsed and evaluated recursively, every scan is a
plain nested loop. Each ``expect_*`` function returns the exact output
the CLI must print for one request, so a check is a string comparison.
"""

from __future__ import annotations

import json
import re
from itertools import permutations, product

NAMED_EQUATIONS = {
    "A": "a + (b + c) = (a + b) + c",
    "C": "a + b = b + a",
    "CAI": "a + (b + c) = c + (a + b)",
    "CAII": "a + (b + c) = (c + a) + b",
    "AGI": "a + (b + c) = c + (b + a)",
    "AGII": "a + (b + c) = (b + a) + c",
    "R": "(a + b) + c = a + (c + b)",
}
STRUCTURAL = ("NE", "IN", "H", "CA", "LOOP", "GROUP", "ABELIAN")
COMPOSITE_PARTS = {"LOOP": ("H", "NE"), "GROUP": ("A", "NE", "IN"), "ABELIAN": ("A", "C", "NE", "IN")}


class Table:
    def __init__(self, rows):
        self.n = len(rows)
        self.rows = [list(r) for r in rows]

    def op(self, a, b):
        return self.rows[a][b]


def parse_cay(text: str) -> Table:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    n = int(lines[0])
    rows = [[int(tok) for tok in ln.split()] for ln in lines[1:]]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError("malformed table text")
    return Table(rows)


def format_cay(rows) -> str:
    return "\n".join([str(len(rows))] + [" ".join(map(str, r)) for r in rows]) + "\n"


# --- laws -----------------------------------------------------------------

def parse_term(text: str):
    """Terms over single-letter variables with left-associative '+'."""
    toks = [ch for ch in text if not ch.isspace()]
    pos = 0

    def primary():
        nonlocal pos
        ch = toks[pos]
        pos += 1
        if ch == "(":
            t = term()
            pos += 1  # ')'
            return t
        return ch

    def term():
        nonlocal pos
        t = primary()
        while pos < len(toks) and toks[pos] == "+":
            pos += 1
            t = (t, primary())
        return t

    result = term()
    if pos != len(toks):
        raise ValueError(f"trailing input in term {text!r}")
    return result


def render_term(t) -> str:
    """The CLI's rendering: parentheses only around a compound right operand."""
    if isinstance(t, str):
        return t
    left, right = t
    rs = render_term(right)
    return f"{render_term(left)} + {rs if isinstance(right, str) else '(' + rs + ')'}"


def evaluate(t, env, table: Table):
    if isinstance(t, str):
        return env[t]
    return table.op(evaluate(t[0], env, table), evaluate(t[1], env, table))


def equation_failure(text: str, table: Table):
    """First failing assignment, variables in order of first appearance,
    the last one varying fastest; None when the equation holds."""
    lhs_text, rhs_text = text.split("=")
    lhs, rhs = parse_term(lhs_text), parse_term(rhs_text)
    names = []
    for ch in text:
        if ch.isalpha() and ch not in names:
            names.append(ch)
    for values in product(range(table.n), repeat=len(names)):
        env = dict(zip(names, values))
        if evaluate(lhs, env, table) != evaluate(rhs, env, table):
            return env
    return None


def neutrals(table: Table):
    r = range(table.n)
    left = [e for e in r if all(table.op(e, x) == x for x in r)]
    right = [e for e in r if all(table.op(x, e) == x for x in r)]
    two = next((e for e in left if e in right), None)
    return left, right, two


def inverse_of(table: Table, a: int, e: int):
    return next((b for b in range(table.n) if table.op(a, b) == e and table.op(b, a) == e), None)


def latin_failure(table: Table):
    """First repeated entry, rows scanned before columns."""
    n = table.n
    for r in range(n):
        for c in range(n):
            j = next((k for k in range(c) if table.op(r, k) == table.op(r, c)), None)
            if j is not None:
                return {"a": r, "b": j, "c": c}, {"kind": "row", "index": r, "value": table.op(r, c)}
    for c in range(n):
        for r in range(n):
            i = next((k for k in range(r) if table.op(k, c) == table.op(r, c)), None)
            if i is not None:
                return {"a": c, "b": i, "c": r}, {"kind": "column", "index": c, "value": table.op(r, c)}
    return None


def cancel_failure(table: Table):
    n = table.n
    for a, b, c in product(range(n), repeat=3):
        if b < c and table.op(a, b) == table.op(a, c):
            return {"a": a, "b": b, "c": c}, {"side": "left"}
    for a, b, c in product(range(n), repeat=3):
        if b < c and table.op(b, a) == table.op(c, a):
            return {"a": a, "b": b, "c": c}, {"side": "right"}
    return None


def law_report(table: Table, law: str):
    """(holds, witness, detail) with the meaning the CLI documents."""
    if law in NAMED_EQUATIONS or "=" in law:
        env = equation_failure(NAMED_EQUATIONS.get(law, law), table)
        return env is None, env, None
    if law == "NE":
        left, right, two = neutrals(table)
        return two is not None, None, {"left": left, "right": right, "two_sided": two}
    if law == "IN":
        two = neutrals(table)[2]
        if two is None:
            return False, None, {"missing": "NE"}
        bad = next((a for a in range(table.n) if inverse_of(table, a, two) is None), None)
        if bad is None:
            return True, None, {"neutral": two}
        return False, {"a": bad}, {"neutral": two}
    if law in ("H", "CA"):
        fail = latin_failure(table) if law == "H" else cancel_failure(table)
        return (True, None, None) if fail is None else (False, fail[0], fail[1])
    for part in COMPOSITE_PARTS[law]:
        ok, witness, _ = law_report(table, part)
        if not ok:
            return False, witness, {"missing": part}
    return True, None, None


def holds(table: Table, law: str) -> bool:
    return law_report(table, law)[0]


# --- expected CLI output ----------------------------------------------------

def _pairs(d) -> str:
    return " ".join(f"{k}={v}" for k, v in d.items())


def _dump(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def expect_check(table: Table, laws, as_json: bool) -> tuple[str, int]:
    reports = [(law, *law_report(table, law)) for law in laws]
    rc = 0 if all(ok for _, ok, _, _ in reports) else 1
    if as_json:
        return _dump([
            {"law": law, "order": table.n, "holds": ok, "witness": w, "detail": d}
            for law, ok, w, d in reports
        ]), rc
    lines = []
    for law, ok, witness, detail in reports:
        if ok:
            lines.append(f"{law}: holds")
            continue
        line = f"{law}: fails"
        if witness:
            line += f" witness {_pairs(witness)}"
        if detail:
            line += f" [{_pairs(detail)}]"
        lines.append(line)
    return "".join(ln + "\n" for ln in lines), rc


def expect_classify(table: Table, as_json: bool) -> tuple[str, int]:
    left, right, two = neutrals(table)
    commutative = holds(table, "C")
    semigroup = holds(table, "A")
    quasigroup = holds(table, "H")
    inverses = None
    if two is not None:
        inverses = [inverse_of(table, a, two) for a in range(table.n)]
    monoid = semigroup and two is not None
    group = monoid and None not in inverses
    flags = (
        ("magma", True), ("commutative", commutative), ("semigroup", semigroup),
        ("monoid", monoid), ("group", group), ("abelian-group", group and commutative),
        ("quasigroup", quasigroup), ("loop", quasigroup and two is not None),
    )
    labels = [name for name, on in flags if on]
    if as_json:
        return _dump({
            "order": table.n,
            "labels": labels,
            "neutrals": {"left": left, "right": right, "two_sided": two},
            "inverses": inverses,
        }), 0

    def fmt(vals):
        return " ".join(map(str, vals)) if vals else "none"

    out = [
        f"order {table.n}",
        "classes: " + ", ".join(labels),
        f"left neutrals: {fmt(left)}",
        f"right neutrals: {fmt(right)}",
        f"two-sided neutral: {two if two is not None else 'none'}",
    ]
    if inverses is not None:
        out.append("inverses: " + " ".join(
            f"{a}:{b if b is not None else '-'}" for a, b in enumerate(inverses)))
    return "".join(ln + "\n" for ln in out), 0


def least_relabeling(table: Table):
    """Lexicographically least flat table over all carrier permutations:
    new(p a, p b) = p(old(a, b))."""
    n = table.n
    best = None
    for perm in permutations(range(n)):
        inv = [0] * n
        for i, p in enumerate(perm):
            inv[p] = i
        cand = [perm[table.op(inv[i], inv[j])] for i in range(n) for j in range(n)]
        if best is None or cand < best:
            best = cand
    return [best[r * n:(r + 1) * n] for r in range(n)]


def expect_canon(table: Table, as_json: bool) -> tuple[str, int]:
    rows = least_relabeling(table)
    if as_json:
        return _dump({"order": table.n, "rows": rows}), 0
    return format_cay(rows), 0


def check_search_output(text: str, assume, refute: str) -> str | None:
    """A found table must satisfy every assumption and fail the refuted law."""
    if text.startswith("exhausted"):
        return None
    if text.startswith("{"):
        found = json.loads(text)["found"]
        if found is None:
            return None
        table = Table(found)
    else:
        table = parse_cay(text.split("\n", 1)[1])
    for law in assume:
        if not holds(table, law):
            return f"found table fails assumed law {law}"
    if holds(table, refute):
        return f"found table satisfies refuted law {refute}"
    return None


FINITE_EXAMPLES = {
    "zn_add(5)": lambda a, b: (a + b) % 5,
    "chain_meet(4)": min,
    "chain_join(4)": max,
    "zn_sub(3)": lambda a, b: (a - b) % 3,
    "zn_rsub(3)": lambda a, b: (b - a) % 3,
    "proj2(2)": lambda a, b: b,
    "proj1(2)": lambda a, b: a,
    "trivalent_equiv": lambda a, b: 2 if a == b else min(a, b),
}


_VERDICT_LINE = re.compile(r"  (\S+) +documented (\S+) +computed (\S+) +\(.*\)(  MISMATCH)?\Z")


def check_examples_text(text: str) -> str | None:
    """Computed verdicts of the finite catalog tables must match the naive
    evaluation, and MISMATCH must mark exactly the documented/computed
    disagreements."""
    label = None
    for line in text.splitlines():
        if line.startswith("example "):
            label = line.split(": ", 1)[1].rsplit(" [", 1)[0]
            continue
        m = _VERDICT_LINE.match(line)
        if m is None:
            continue
        tag, documented, computed, mismatch = m.groups()
        if bool(mismatch) != (documented != computed):
            return f"{label} {tag}: MISMATCH flag disagrees with the verdicts"
        op = FINITE_EXAMPLES.get(label)
        if op is None:
            continue
        n = int(label[-2]) if label.endswith(")") else 3
        table = Table([[op(a, b) for b in range(n)] for a in range(n)])
        if str(holds(table, tag)) != computed:
            return f"{label} {tag}: computed {computed} but the oracle says {holds(table, tag)}"
    return None
