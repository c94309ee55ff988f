"""Mini-language for laws and search specs: the one parser of request text.

Law grammar, whitespace insignificant, names case-insensitive::

    law  := NAME | term '=' term
    term := VAR | term '+' term | '(' term ')'

'+' associates to the left and variables are single letters a-z. Search
specs combine laws::

    laws := law (',' law)*
    spec := 'assume' laws ';' 'refute' law ';' 'orders' INT '..' INT
"""

from __future__ import annotations

import re

from .core import content_lines
from .laws import BY_NAME, Equation, Law, evaluate, user_law
from .search import SearchSpec


# Deepest parenthesis nesting the parser accepts; a '+' chain has no limit.
MAX_DEPTH = 100


class LawSyntaxError(ValueError):
    """Parse failure; the byte offset of the problem is attached."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.message = message
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


def _split(text: str, sep: str, base: int = 0) -> list[tuple[str, int]]:
    """The pieces of text between seps, each with its offset counted from base."""
    parts = []
    for piece in text.split(sep):
        parts.append((piece, base))
        base += len(piece) + 1
    return parts


def _parse_law_at(text: str, base: int, missing: str = "expected a law", prefix: str = "") -> Law:
    """parse_law on text found at base in the string as typed: a blank text
    fails with missing, and an error's message gains prefix."""
    if not text.strip():
        raise LawSyntaxError(prefix + missing, base)
    try:
        return parse_law(text)
    except LawSyntaxError as exc:
        raise LawSyntaxError(prefix + exc.message, base + exc.offset) from None


def parse_laws(
    text: str, base: int = 0, missing: str = "expected a law", prefix: str = ""
) -> list[Law]:
    """Parse a comma-separated law list. Error offsets count from base, where
    text starts in the string as typed; an empty item fails with missing,
    and an error's message gains prefix."""
    return [
        _parse_law_at(piece, start, missing, prefix) for piece, start in _split(text, ",", base)
    ]


def parse_orders(text: str, base: int = 0) -> tuple[int, int]:
    """Parse an order range 'lo..hi' with 1 <= lo <= hi. Offsets count from
    base, where text starts in the string as typed: a malformed range is
    reported where the range starts, and an order with more digits than
    int() converts where that order starts."""
    m = re.match(r"\s*(\d+)\s*\.\.\s*(\d+)\s*\Z", text)
    start = base + _skip_ws(text, 0)
    if m is None:
        raise LawSyntaxError("malformed order range", start)
    bounds = []
    for k in (1, 2):
        try:
            bounds.append(int(m[k]))
        except ValueError:
            raise LawSyntaxError("order too large", base + m.start(k)) from None
    lo, hi = bounds
    if not 1 <= lo <= hi:
        raise LawSyntaxError("malformed order range", start)
    return lo, hi


def parse_law_file(text: str) -> list[Law]:
    """The laws of a law file, one per line, skipping blank and '#' lines.
    An error names its line, and its offset counts within the line as written."""
    return [_parse_law_at(line, 0, prefix=f"line {ln}: ") for ln, line in content_lines(text)]


def _after_keyword(word: str, clause: str, base: int) -> tuple[str, int]:
    """The rest of a spec clause after its keyword, and where the rest starts."""
    m = re.match(rf"\s*{word}\b", clause, re.IGNORECASE)
    if m is None:
        raise LawSyntaxError(f"expected '{word}'", base + _skip_ws(clause, 0))
    return clause[m.end():], base + m.end()


def parse_spec(text: str) -> SearchSpec:
    """Parse an 'assume ...; refute ...; orders lo..hi' search spec."""
    parts = _split(text, ";")
    while len(parts) > 3 and not parts[-1][0].strip():
        parts.pop()
    if len(parts) != 3:
        raise LawSyntaxError("expected 'assume ...; refute ...; orders lo..hi'", 0)
    rest, base = _after_keyword("assume", *parts[0])
    assume = parse_laws(rest, base, "expected law after 'assume'")
    rest, base = _after_keyword("refute", *parts[1])
    refute = _parse_law_at(rest, base, "expected law after 'refute'")
    clause, base = parts[2]
    m = re.match(r"\s*orders\s", clause, re.IGNORECASE)
    # a clause without the keyword is a malformed range, reported where it starts
    if m is None:
        orders = parse_orders("", base + _skip_ws(clause, 0))
    else:
        orders = parse_orders(clause[m.end():], base + m.end())
    return SearchSpec(assume=tuple(assume), refute=refute, orders=orders)
