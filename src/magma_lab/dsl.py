"""Mini-language for laws and search specs.

Law grammar, whitespace insignificant, names case-insensitive::

    law  := NAME | term '=' term
    term := VAR | term '+' term | '(' term ')'

'+' associates to the left and variables are single letters a-z. Search
specs combine laws::

    spec := 'assume' law (',' law)* ';' 'refute' law ';' 'orders' INT '..' INT
"""

from __future__ import annotations

import re

from .laws import BY_NAME, Equation, Law, evaluate, user_law
from .search import SearchSpec


# Deepest parenthesis nesting the parser accepts; a '+' chain has no limit.
MAX_DEPTH = 100


class LawSyntaxError(ValueError):
    """Parse failure; the byte offset of the problem is attached."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


_NAME_RE = re.compile(r"\s*([A-Za-z]+)\s*\Z")


def _skip_ws(s: str, i: int) -> int:
    while i < len(s) and s[i].isspace():
        i += 1
    return i


def _parse_primary(s: str, i: int, depth: int):
    i = _skip_ws(s, i)
    if i >= len(s) or s[i] == "=":
        if depth > 0:
            raise LawSyntaxError("unbalanced parenthesis", i)
        raise LawSyntaxError("empty side", i)
    ch = s[i]
    if ch == "(":
        if depth >= MAX_DEPTH:
            raise LawSyntaxError("parentheses nested too deeply", i)
        term, j = _parse_term(s, i + 1, depth + 1)
        j = _skip_ws(s, j)
        if j >= len(s) or s[j] != ")":
            raise LawSyntaxError("unbalanced parenthesis", j)
        return term, j + 1
    if ch == ")":
        raise LawSyntaxError("unbalanced parenthesis", i)
    if "a" <= ch <= "z":
        if i + 1 < len(s) and ("a" <= s[i + 1] <= "z" or "A" <= s[i + 1] <= "Z"):
            raise LawSyntaxError(f"invalid character {s[i + 1]!r}", i + 1)
        return ch, i + 1
    raise LawSyntaxError(f"invalid character {ch!r}", i)


def _parse_term(s: str, i: int, depth: int):
    term, i = _parse_primary(s, i, depth)
    while True:
        i = _skip_ws(s, i)
        if i < len(s) and s[i] == "+":
            right, i = _parse_primary(s, i + 1, depth)
            term = (term, right)
        else:
            return term, i


def parse_equation(text: str) -> Equation:
    lhs, i = _parse_term(text, 0, 0)
    i = _skip_ws(text, i)
    if i >= len(text):
        raise LawSyntaxError("expected '='", i)
    if text[i] == ")":
        raise LawSyntaxError("unbalanced parenthesis", i)
    if text[i] != "=":
        raise LawSyntaxError(f"invalid character {text[i]!r}", i)
    rhs, j = _parse_term(text, i + 1, 0)
    j = _skip_ws(text, j)
    if j < len(text):
        if text[j] == ")":
            raise LawSyntaxError("unbalanced parenthesis", j)
        raise LawSyntaxError(f"invalid character {text[j]!r}", j)
    return Equation(lhs, rhs)


def parse_law(text: str) -> Law:
    """Parse a law: a built-in name, or an equation as a USER law."""
    if "=" not in text:
        m = _NAME_RE.match(text)
        offset = _skip_ws(text, 0)
        if m is None:
            raise LawSyntaxError("expected a law name or an equation", offset)
        name = m.group(1)
        law = BY_NAME.get(name.upper())
        if law is None:
            raise LawSyntaxError(f"unknown law name {name!r}", offset)
        return law
    return user_law(parse_equation(text))


def _join(left: str, right: str) -> str:
    """left + right, with parentheses only where left association needs them."""
    if " + " in right:
        right = f"({right})"
    return f"{left} + {right}"


def format_law(law: Law) -> str:
    if law.tag != "USER":
        return law.tag
    eq = law.equation
    return " = ".join(evaluate(eq.code, eq.variables, _join))


def law_equal(a: Law, b: Law) -> bool:
    """Equality up to renaming of variables.

    Equational laws compare by their compiled code, whose slots number the
    variables by first occurrence, so a USER law can equal a built-in
    identity. Non-equational built-ins compare by tag.
    """
    if a.equation is not None and b.equation is not None:
        return a.equation.code == b.equation.code
    if a.equation is None and b.equation is None:
        return a.tag == b.tag
    return False


_ORDERS_RE = re.compile(r"\s*orders\s+(\d+)\s*\.\.\s*(\d+)\s*\Z", re.IGNORECASE)


def _clause_offsets(text: str) -> list[tuple[str, int]]:
    parts = []
    start = 0
    for chunk in text.split(";"):
        parts.append((chunk, start))
        start += len(chunk) + 1
    return parts


def _parse_law_at(clause: str, base: int) -> Law:
    try:
        return parse_law(clause)
    except LawSyntaxError as exc:
        raise LawSyntaxError(str(exc).rsplit(" at offset ", 1)[0], base + exc.offset) from None


def parse_spec(text: str) -> SearchSpec:
    """Parse an 'assume ...; refute ...; orders lo..hi' search spec."""
    parts = _clause_offsets(text)
    while len(parts) > 3 and not parts[-1][0].strip():
        parts.pop()
    if len(parts) != 3:
        raise LawSyntaxError("expected 'assume ...; refute ...; orders lo..hi'", 0)

    assume_clause, assume_base = parts[0]
    m = re.match(r"\s*assume\b", assume_clause, re.IGNORECASE)
    if m is None:
        raise LawSyntaxError("expected 'assume'", assume_base + _skip_ws(assume_clause, 0))
    rest = assume_clause[m.end():]
    if not rest.strip():
        raise LawSyntaxError("expected law after 'assume'", assume_base + m.end())
    assume = []
    pos = m.end()
    for piece in rest.split(","):
        if not piece.strip():
            raise LawSyntaxError("expected law after 'assume'", assume_base + pos)
        assume.append(_parse_law_at(piece, assume_base + pos))
        pos += len(piece) + 1

    refute_clause, refute_base = parts[1]
    m = re.match(r"\s*refute\b", refute_clause, re.IGNORECASE)
    if m is None:
        raise LawSyntaxError("expected 'refute'", refute_base + _skip_ws(refute_clause, 0))
    rest = refute_clause[m.end():]
    if not rest.strip():
        raise LawSyntaxError("expected law after 'refute'", refute_base + m.end())
    refute = _parse_law_at(rest, refute_base + m.end())

    orders_clause, orders_base = parts[2]
    m = _ORDERS_RE.match(orders_clause)
    if m is None:
        raise LawSyntaxError("malformed order range", orders_base + _skip_ws(orders_clause, 0))
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo < 1 or hi < lo:
        raise LawSyntaxError("malformed order range", orders_base + _skip_ws(orders_clause, 0))
    return SearchSpec(assume=tuple(assume), refute=refute, orders=(lo, hi))
