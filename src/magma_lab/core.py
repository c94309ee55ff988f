"""Finite magmas as Cayley tables: construction, text format, canonical forms."""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from typing import Sequence

CANONICAL_CAP = 7


class TableError(ValueError):
    """Raised for malformed Cayley tables or table files."""


class Magma:
    """A total binary operation on the carrier {0, ..., order-1}.

    The table is stored flat in row-major order, so the product of a and b
    is ``table[a * order + b]``. Instances are treated as immutable; the
    table is always a tuple.
    """

    __slots__ = ("order", "table")

    def __init__(self, order: int, table: Sequence[int]):
        if order < 1:
            raise TableError("order must be positive")
        tab = table if isinstance(table, tuple) else tuple(table)
        if len(tab) != order * order:
            raise TableError(f"table has {len(tab)} entries, expected {order * order}")
        self.order = order
        self.table = tab

    def op(self, a: int, b: int) -> int:
        return self.table[a * self.order + b]

    def rows(self) -> list[list[int]]:
        n = self.order
        return [list(self.table[r * n:(r + 1) * n]) for r in range(n)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Magma)
            and self.order == other.order
            and self.table == other.table
        )

    def __hash__(self) -> int:
        return hash((self.order, self.table))

    def __repr__(self) -> str:
        return f"Magma({self.order}, {self.table!r})"


def magma_from_rows(rows: Sequence[Sequence[int]]) -> Magma:
    """Build a validated Magma from a square list of rows."""
    n = len(rows)
    if n == 0:
        raise TableError("expected at least one row")
    flat = []
    for r, row in enumerate(rows):
        if len(row) != n:
            raise TableError(f"row {r} has {len(row)} entries, expected {n}")
        for c, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool) or not (0 <= v < n):
                raise TableError(f"entry {v} out of range at ({r},{c})")
            flat.append(v)
    return Magma(n, tuple(flat))


def _excerpt(token: str, limit: int = 20) -> str:
    """repr of token, cut to its first limit characters when it is longer."""
    if len(token) <= limit:
        return repr(token)
    return f"{token[:limit]!r}... ({len(token)} characters)"


def content_lines(text: str):
    """(line number, line as written) for each line of text that is neither
    blank nor a '#' comment: the lines a Cayley file or a law file holds."""
    for ln, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            yield ln, line


def parse_table(text: str) -> Magma:
    """Parse the Cayley text format: order on the first line, then the rows.

    Lines starting with '#' and blank lines are skipped. Raises TableError
    with a line number for malformed input.
    """
    content = list(content_lines(text))
    if not content:
        raise TableError("empty table text")
    ln, head = content[0]
    try:
        order = int(head)
    except ValueError:
        got = _excerpt(head.strip())
        raise TableError(f"line {ln}: expected integer order, got {got}") from None
    if order < 1:
        raise TableError(f"line {ln}: order must be positive")
    body = content[1:]
    if len(body) != order:
        raise TableError(f"expected {order} rows, found {len(body)}")
    flat = []
    for r, (ln, line) in enumerate(body):
        toks = line.split()
        if len(toks) != order:
            raise TableError(f"line {ln}: expected {order} entries, found {len(toks)}")
        for c, tok in enumerate(toks):
            try:
                v = int(tok)
            except ValueError:
                raise TableError(f"line {ln}: non-integer token {_excerpt(tok)}") from None
            if not 0 <= v < order:
                raise TableError(f"line {ln}: entry {v} out of range at ({r},{c})")
            flat.append(v)
    return Magma(order, flat)


@lru_cache(maxsize=8)
def _table_template(n: int) -> str:
    return f"{n}\n" + ("%d " * (n - 1) + "%d\n") * n


def format_table(m: Magma) -> str:
    """Inverse of parse_table; ends with a newline."""
    return _table_template(m.order) % m.table


# byte value -> its ASCII digit, for the one-digit entries of orders up to 10
_DIGITS = bytes(range(48, 58)) + bytes(246)


def format_tables(n: int, flats: Sequence[bytes]) -> list[str]:
    """The text of many flat order-n tables given as bytes: entry i is
    format_table(Magma(n, flats[i])) followed by a blank line.

    Up to order 10 every entry is one digit, so the list renders in bulk:
    the values map to digits in one translate, each of the n² cells is
    written into k copies of one table's frame by one strided slice, and
    the text is decoded once and cut into entries of one length. Larger
    orders fall back to format_table, the one definition of the format.
    """
    if n > 10:
        return [format_table(Magma(n, f)) + "\n" for f in flats]
    n2 = n * n
    frame = (_table_template(n) % ((0,) * n2) + "\n").encode()
    unit = len(frame)
    first = len(str(n)) + 1  # where cell 0 sits; cell j is 2*j further on
    digits = b"".join(flats).translate(_DIGITS)
    out = bytearray(frame * len(flats))
    for j in range(n2):
        out[first + 2 * j::unit] = digits[j::n2]
    text = out.decode()
    return [text[i:i + unit] for i in range(0, len(text), unit)]


def relabel(m: Magma, perm: Sequence[int]) -> Magma:
    """Apply a carrier permutation: new(p a, p b) = p(old(a, b))."""
    n = m.order
    if sorted(perm) != list(range(n)):
        raise TableError(f"not a permutation of 0..{n - 1}: {list(perm)!r}")
    t = m.table
    out = [0] * (n * n)
    for a in range(n):
        pa = perm[a] * n
        for b in range(n):
            out[pa + perm[b]] = perm[t[a * n + b]]
    return Magma(n, tuple(out))


def _smaller_relabelings(m: Magma):
    """Each relabeling of m's flat table that is less than the table and
    every relabeling yielded before it, in one scan of all order!
    relabelings; the last one yielded is the canonical form.

    Each relabeling is compared with the least table so far, cell by cell
    in row-major order, and dropped at its first cell that differs; a full
    table is built only when that cell is smaller.
    """
    n = m.order
    if n > CANONICAL_CAP:
        raise TableError(f"order {n} exceeds canonicalization cap {CANONICAL_CAP}")
    t = m.table
    best = t
    # inv lists the old elements in their new order, so inv.index(x) is the
    # new label of x and cell (i, j) of the relabeled table is
    # inv.index(t[inv[i] * n + inv[j]])
    for inv in permutations(range(n)):
        new = inv.index
        k = 0
        for a in inv:
            row = a * n
            for b in inv:
                v = new(t[row + b])
                if v != best[k]:
                    break
                k += 1
            else:
                continue
            if v < best[k]:
                best = tuple(new(t[a * n + b]) for a in inv for b in inv)
                yield best
            break


def canonical_form(m: Magma) -> Magma:
    """Lexicographically least relabeling of the flat table.

    Scans all order! relabelings, so the order is capped at CANONICAL_CAP.
    On 2 vCPUs with Python 3.11 one order-7 table takes 1.3-3 ms, where
    building every relabeling in full took 42 ms, and the 360 order-6 Latin
    squares with CAI take 0.13 s (is_canonical: 4 ms). Two magmas are
    isomorphic iff their canonical forms are equal.
    """
    best = m.table
    for best in _smaller_relabelings(m):
        pass
    return m if best is m.table else Magma(m.order, best)


def is_canonical(m: Magma) -> bool:
    """canonical_form(m) == m, decided by the same scan, which stops at the
    first relabeling less than m. Capped at CANONICAL_CAP like it."""
    return next(_smaller_relabelings(m), None) is None


def is_isomorphic(a: Magma, b: Magma) -> bool:
    """Decide isomorphism by comparing canonical forms."""
    if a.order != b.order:
        return False
    return canonical_form(a).table == canonical_form(b).table
