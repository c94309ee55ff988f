from itertools import product

import pytest
from hypothesis import example, given, strategies as st

from magma_lab.core import (
    Magma,
    TableError,
    canonical_form,
    format_table,
    format_tables,
    is_canonical,
    is_isomorphic,
    magma_from_rows,
    parse_table,
    relabel,
)

from reference import canonical_table
from strategies import PROPERTY, magmas

Z2 = magma_from_rows([[0, 1], [1, 0]])
Z3_ADD = magma_from_rows([[0, 1, 2], [1, 2, 0], [2, 0, 1]])


def test_magma_basics():
    m = Magma(2, [0, 1, 1, 0])
    assert m.table == (0, 1, 1, 0)
    assert m.op(1, 0) == 1
    assert m.rows() == [[0, 1], [1, 0]]
    assert m == Z2
    assert hash(m) == hash(Z2)


def test_magma_validation():
    with pytest.raises(TableError, match="order must be positive"):
        Magma(0, ())
    with pytest.raises(TableError, match="expected 4"):
        Magma(2, (0, 1, 1))


def test_from_rows_validation():
    with pytest.raises(TableError, match="at least one row"):
        magma_from_rows([])
    with pytest.raises(TableError, match="row 1 has 1 entries"):
        magma_from_rows([[0, 1], [1]])
    with pytest.raises(TableError, match=r"entry 2 out of range at \(0,1\)"):
        magma_from_rows([[0, 2], [1, 0]])
    with pytest.raises(TableError, match="out of range"):
        magma_from_rows([[True, 0], [0, 0]])


def test_parse_table_round_trip():
    text = "# comment\n3\n\n0 1 2\n1 2 0\n# another\n2 0 1\n"
    m = parse_table(text)
    assert m == Z3_ADD
    assert parse_table(format_table(m)) == m


def test_parse_table_errors():
    with pytest.raises(TableError, match="empty table text"):
        parse_table("# nothing\n\n")
    with pytest.raises(TableError, match="line 1: expected integer order"):
        parse_table("x\n0\n")
    with pytest.raises(TableError, match="expected 2 rows, found 1"):
        parse_table("2\n0 1\n")
    with pytest.raises(TableError, match="line 2: expected 2 entries, found 3"):
        parse_table("2\n0 1 0\n1 0\n")
    with pytest.raises(TableError, match="line 3: non-integer token 'q'"):
        parse_table("2\n0 1\n1 q\n")
    with pytest.raises(TableError, match="order must be positive"):
        parse_table("0\n")


@pytest.mark.parametrize("text, quoted", [
    ("9" * 5000 + "\n0\n", "line 1: expected integer order, got '99999999999999999999'..."),
    ("2\n0 1\n1 " + "q" * 5000 + "\n", "line 3: non-integer token 'qqqqqqqqqqqqqqqqqqqq'..."),
])
def test_parse_table_quotes_a_bounded_prefix_of_a_long_token(text, quoted):
    with pytest.raises(TableError) as info:
        parse_table(text)
    assert str(info.value) == quoted + " (5000 characters)"


def test_parse_table_out_of_range_entry_names_its_line():
    with pytest.raises(TableError, match=r"^line 4: entry 5 out of range at \(1,1\)$"):
        parse_table("2\n0 1\n# second row\n1 5\n")
    with pytest.raises(TableError, match=r"^line 2: entry -1 out of range at \(0,0\)$"):
        parse_table("2\n-1 0\n0 0\n")


def test_format_table_shape():
    assert format_table(Z2) == "2\n0 1\n1 0\n"


def test_relabel():
    swapped = relabel(Z3_ADD, (1, 2, 0))
    assert is_isomorphic(swapped, Z3_ADD)
    with pytest.raises(TableError, match="not a permutation"):
        relabel(Z2, (0, 0))


def test_canonical_form_identity_group():
    # both order-2 latin squares canonicalize to the same table
    other = magma_from_rows([[1, 0], [0, 1]])
    assert canonical_form(Z2) == Z2
    assert canonical_form(other) == Z2


def test_canonical_form_is_invariant_under_relabeling():
    m = magma_from_rows([[0, 2, 1], [1, 0, 2], [2, 1, 0]])
    for perm in ((1, 0, 2), (2, 0, 1), (1, 2, 0)):
        assert canonical_form(relabel(m, perm)) == canonical_form(m)


def test_is_isomorphic():
    assert is_isomorphic(Z3_ADD, relabel(Z3_ADD, (2, 1, 0)))
    proj1 = magma_from_rows([[0, 0], [1, 1]])
    proj2 = magma_from_rows([[0, 1], [0, 1]])
    assert not is_isomorphic(proj1, proj2)
    assert not is_isomorphic(Z2, Z3_ADD)


def _fixed_tables():
    for n in range(1, 8):
        r = range(n)
        yield f"constant {n}", Magma(n, [n - 1] * (n * n))
        yield f"cyclic {n}", Magma(n, [(a + b) % n for a in r for b in r])
        yield f"left projection {n}", Magma(n, [a for a in r for b in r])
        yield f"right projection {n}", Magma(n, [b for a in r for b in r])
        # Latin, and for n > 2 neither commutative nor with a neutral element
        yield f"subtraction {n}", Magma(n, [(a - b) % n for a in r for b in r])


@pytest.mark.parametrize("m", [pytest.param(m, id=name) for name, m in _fixed_tables()])
def test_canonical_form_matches_reference_on_fixed_tables(m):
    assert canonical_form(m).table == canonical_table(m)


def test_canonical_form_matches_reference_on_every_order_3_magma():
    for t in product(range(3), repeat=9):
        m = Magma(3, t)
        assert canonical_form(m).table == canonical_table(m), t


def test_canonical_cap():
    big = Magma(8, tuple(0 for _ in range(64)))
    with pytest.raises(TableError, match="exceeds canonicalization cap"):
        canonical_form(big)
    with pytest.raises(TableError, match="exceeds canonicalization cap 7"):
        is_canonical(big)


@PROPERTY
@given(magmas(1, 5), st.booleans())
def test_is_canonical_is_the_scan_compared_with_the_table(m, as_form):
    # feeding in canonical forms makes the True cases as common as the False ones
    if as_form:
        m = canonical_form(m)
    assert is_canonical(m) == (canonical_form(m) == m)


@PROPERTY
@given(magmas(1, 6))
def test_format_parse_round_trip(m):
    assert parse_table(format_table(m)) == m


@PROPERTY
@given(magmas(1, 5), st.data())
def test_canonical_form_is_idempotent_and_a_class_invariant(m, data):
    form = canonical_form(m)
    assert canonical_form(form) == form
    perm = data.draw(st.permutations(range(m.order)))
    assert canonical_form(relabel(m, perm)) == form


@PROPERTY
@given(magmas(1, 5))
def test_canonical_form_matches_reference(m):
    assert canonical_form(m).table == canonical_table(m)


def _flat_lists(lo: int, hi: int):
    """An order in lo..hi and a list of flat bytes tables of that order,
    all-zero and all-(order-1) tables among them."""
    def lists(n):
        one = st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n).map(bytes)
        edge = st.sampled_from([bytes(n * n), bytes([n - 1]) * (n * n)])
        return st.tuples(st.just(n), st.lists(one | edge, max_size=4))
    return st.integers(lo, hi).flatmap(lists)


@PROPERTY
@given(_flat_lists(1, 12))
@example((3, []))
@example((11, []))
@example((10, [bytes(100), bytes([9]) * 100]))
@example((11, [bytes(121), bytes([10]) * 121]))
def test_format_tables_is_format_table_per_table(case):
    # orders up to 10 render in bulk, larger ones through format_table
    n, flats = case
    assert format_tables(n, flats) == [format_table(Magma(n, f)) + "\n" for f in flats]
