import string

import pytest
from hypothesis import given, strategies as st

from magma_lab.dsl import (
    MAX_DEPTH,
    LawSyntaxError,
    format_law,
    law_equal,
    parse_equation,
    parse_law,
    parse_law_file,
    parse_laws,
    parse_orders,
    parse_spec,
)
from magma_lab.laws import AGI, BY_NAME, CAI, CAII, C, EQUATIONAL_LAWS, H, NE, Equation, user_law
from magma_lab.properties import check_law

from reference import equation_holds, first_failure
from strategies import PROPERTY, random_tables

terms = st.recursive(
    st.sampled_from("abcde"), lambda sub: st.tuples(sub, sub), max_leaves=8
)
user_laws = st.builds(lambda lhs, rhs: user_law(Equation(lhs, rhs)), terms, terms)


def _rename(term, mapping):
    if isinstance(term, str):
        return mapping[term]
    return (_rename(term[0], mapping), _rename(term[1], mapping))


def _leaves(term):
    if isinstance(term, str):
        return [term]
    return _leaves(term[0]) + _leaves(term[1])


def _naive_normal_form(law):
    """Both trees with variables renamed a, b, c, ... by first occurrence."""
    eq = law.equation
    order = list(dict.fromkeys(_leaves(eq.lhs) + _leaves(eq.rhs)))
    mapping = dict(zip(order, string.ascii_lowercase))
    return _rename(eq.lhs, mapping), _rename(eq.rhs, mapping)


def test_builtin_names():
    assert parse_law("CAII") is CAII
    assert parse_law("caii") is CAII
    assert parse_law("  H ") is H
    with pytest.raises(LawSyntaxError, match="unknown law name 'FOO'"):
        parse_law("FOO")


def test_user_equation_equals_builtin():
    law = parse_law("a + (b + c) = c + (a + b)")
    assert law.tag == "USER"
    assert law_equal(law, CAI)
    assert law_equal(parse_law("a + b = b + a"), C)
    assert law_equal(parse_law("x + y = y + x"), C)


def test_law_equal_negative():
    assert not law_equal(CAI, CAII)
    assert not law_equal(parse_law("a + a = a"), C)
    assert not law_equal(C, NE)
    assert not law_equal(parse_law("a + b = b + a"), NE)


def test_left_associativity():
    bare = parse_equation("a + b + c = a")
    explicit = parse_equation("(a + b) + c = a")
    assert bare == explicit


def test_parse_errors_with_offsets():
    with pytest.raises(LawSyntaxError, match="unbalanced parenthesis at offset 9"):
        parse_law("a + (b + = c")
    with pytest.raises(LawSyntaxError, match="empty side"):
        parse_law("a + b =")
    with pytest.raises(LawSyntaxError, match="unbalanced parenthesis"):
        parse_law("a + b) = c")
    with pytest.raises(LawSyntaxError, match="invalid character '3'"):
        parse_law("a + 3 = a")
    with pytest.raises(LawSyntaxError, match="invalid character"):
        parse_law("a + b = b + a junk")
    with pytest.raises(LawSyntaxError, match="expected a law name or an equation"):
        parse_law("two words")
    err = None
    try:
        parse_law("a + (b + = c")
    except LawSyntaxError as exc:
        err = exc
    assert err.offset == 9


@pytest.mark.parametrize("parse, text, message, offset", [
    (parse_law, "(a + b = a", "unbalanced parenthesis", 7),
    (parse_law, "a + ) = a", "unbalanced parenthesis", 4),
    (parse_law, "ab = a", "invalid character 'b'", 1),
    (parse_equation, "a + b", "expected '='", 5),
    (parse_law, "a b = a", "invalid character 'b'", 2),
    (parse_law, "a = b)", "unbalanced parenthesis", 5),
    (parse_spec, "assum A; refute C; orders 1..2", "expected 'assume'", 0),
    (parse_spec, "assume A,,B; refute C; orders 1..2", "expected law after 'assume'", 9),
    (parse_spec, "assume A; refut C; orders 1..2", "expected 'refute'", 10),
])
def test_parse_error_message_and_offset(parse, text, message, offset):
    with pytest.raises(LawSyntaxError) as info:
        parse(text)
    assert str(info.value) == f"{message} at offset {offset}"
    assert info.value.offset == offset
    assert law_equal(NE, NE) and not law_equal(NE, H)


def test_round_trip_builtins():
    for law in EQUATIONAL_LAWS:
        assert format_law(law) == law.tag
    # alpha variant of CAI in other letters still matches after a round trip
    variant = parse_law("q + (w + e) = e + (q + w)")
    assert law_equal(parse_law(format_law(variant)), CAI)


def test_round_trip_user_equations():
    for text in (
        "a + (b + c) = (a + b) + c",
        "a + b = b + a",
        "(a + b) + c = a + (c + b)",
        "x + (y + z) = z + (y + x)",
    ):
        law = parse_law(text)
        again = parse_law(format_law(law))
        assert law_equal(law, again)


def test_format_term_minimal_parens():
    law = parse_law("(a + b) + c = a + (c + b)")
    assert format_law(law) == "a + b + c = a + (c + b)"


def test_parse_spec():
    spec = parse_spec("assume H, AGI; refute NE; orders 1..3")
    assert spec.assume == (H, AGI)
    assert spec.refute is NE
    assert spec.orders == (1, 3)


def test_parse_spec_user_equation():
    spec = parse_spec("assume H, a+(b+c)=(c+a)+b; refute ABELIAN; orders 1..4")
    assert spec.assume[0] is H
    assert law_equal(spec.assume[1], CAII)
    assert spec.refute is BY_NAME["ABELIAN"]
    assert spec.orders == (1, 4)


def test_parse_spec_trailing_semicolon_ok():
    spec = parse_spec("assume C; refute A; orders 2..2;")
    assert spec.orders == (2, 2)


def test_parse_spec_errors():
    with pytest.raises(LawSyntaxError, match="expected law after 'refute'"):
        parse_spec("assume H; refute; orders 1..3")
    with pytest.raises(LawSyntaxError, match="expected law after 'assume'"):
        parse_spec("assume ; refute NE; orders 1..3")
    with pytest.raises(LawSyntaxError, match="expected 'assume"):
        parse_spec("refute NE; orders 1..3")
    with pytest.raises(LawSyntaxError, match="malformed order range"):
        parse_spec("assume H; refute NE; orders 3..1")
    with pytest.raises(LawSyntaxError, match="malformed order range"):
        parse_spec("assume H; refute NE; orders one..3")
    with pytest.raises(LawSyntaxError, match="expected 'assume ...; refute"):
        parse_spec("assume H; refute NE")


def test_parse_laws():
    assert parse_laws("H, AGI") == [H, AGI]
    assert law_equal(parse_laws(" C , a + b = b + a")[1], C)


@pytest.mark.parametrize("text, base, message, offset", [
    ("A, a+", 0, "expected a law name or an equation", 3),
    ("C,A,a+b=(", 0, "unbalanced parenthesis", 9),
    ("A,", 0, "expected a law", 2),
    ("", 0, "expected a law", 0),
    (" , A", 0, "expected a law", 0),
    ("A,,B", 7, "expected a law", 9),
    ("A, a + b) = c", 7, "unbalanced parenthesis", 15),
])
def test_parse_laws_error_offsets(text, base, message, offset):
    with pytest.raises(LawSyntaxError) as info:
        parse_laws(text, base)
    assert str(info.value) == f"{message} at offset {offset}"
    assert info.value.offset == offset


@pytest.mark.parametrize("text, want", [
    ("1..3", (1, 3)), (" 1..3", (1, 3)), ("2 .. 2 ", (2, 2)), ("1..1000000000000", (1, 10**12)),
])
def test_parse_orders(text, want):
    assert parse_orders(text) == want


@pytest.mark.parametrize("text", ["0..2", "3..1", "3-1", "1..", "one..3", "1..3..5", ""])
def test_parse_orders_rejects(text):
    with pytest.raises(LawSyntaxError) as info:
        parse_orders(text, 4)
    assert str(info.value) == "malformed order range at offset 4"


NINES = "9" * 5000  # more digits than int() converts


@pytest.mark.parametrize("text, base, offset", [
    (f"1..{NINES}", 0, 3),
    (f" {NINES} .. 3", 4, 5),
    (f"2 ..  {NINES}", 10, 16),
])
def test_parse_orders_reports_an_order_too_large_where_it_starts(text, base, offset):
    with pytest.raises(LawSyntaxError) as info:
        parse_orders(text, base)
    assert str(info.value) == f"order too large at offset {offset}"


@pytest.mark.parametrize("text, offset", [
    (f"assume A; refute C; orders 1..{NINES}", 30),
    ("assume A; refute C; orders  3..1", 28),
    ("assume A; refute C;  1..3", 21),
])
def test_parse_spec_range_errors_point_into_the_spec(text, offset):
    with pytest.raises(LawSyntaxError) as info:
        parse_spec(text)
    assert info.value.offset == offset


def test_parse_laws_prefixes_its_errors():
    cases = (("A,,C", "expected a law"), ("A, a+", "expected a law name or an equation"))
    for text, message in cases:
        with pytest.raises(LawSyntaxError) as info:
            parse_laws(text, prefix="--law #2: ")
        assert info.value.message == f"--law #2: {message}"


def test_parse_law_file():
    text = "# laws\nH\n\n   # indented comment\n  a + b = b + a\r\nCAI\n"
    laws = parse_law_file(text)
    assert laws[0] is H and laws[2] is CAI
    assert law_equal(laws[1], C)
    assert parse_law_file("# nothing\n\n") == []


@pytest.mark.parametrize("line, message", [
    ("   a + (b = c", "unbalanced parenthesis at offset 10"),
    ("  FOO", "unknown law name 'FOO' at offset 2"),
])
def test_law_file_error_names_the_line(line, message):
    with pytest.raises(LawSyntaxError) as info:
        parse_law_file(f"# laws\nH\n\n{line}\nC\n")
    assert str(info.value) == f"line 4: {message}"


def test_spec_error_offsets_are_absolute():
    text = "assume H, a + (b + = c; refute NE; orders 1..3"
    with pytest.raises(LawSyntaxError) as info:
        parse_spec(text)
    assert text[info.value.offset] == "="


def test_nesting_limit():
    deep = "(" * MAX_DEPTH + "a" + ")" * MAX_DEPTH + " = a"
    assert parse_law(deep).equation == parse_equation("a = a")
    with pytest.raises(LawSyntaxError, match="parentheses nested too deeply") as info:
        parse_law("(" + deep)
    assert info.value.offset == MAX_DEPTH


@PROPERTY
@given(user_laws)
def test_format_parse_round_trip(law):
    assert parse_law(format_law(law)).equation == law.equation


@PROPERTY
@given(
    user_laws,
    user_laws,
    st.lists(st.sampled_from(string.ascii_lowercase), min_size=5, max_size=5, unique=True),
    st.lists(st.sampled_from("abcde"), min_size=5, max_size=5),
)
def test_law_equal_is_equality_up_to_renaming(law, other, injective, any_map):
    def renamed(letters):
        mapping = dict(zip("abcde", letters))
        eq = law.equation
        return user_law(Equation(_rename(eq.lhs, mapping), _rename(eq.rhs, mapping)))

    assert law_equal(law, renamed(injective))
    # a non-injective renaming may merge variables: equal only if the naive forms agree
    for b in (other, renamed(any_map)):
        assert law_equal(law, b) == (_naive_normal_form(law) == _naive_normal_form(b))


tables_1_to_4 = random_tables(1, 4)


@PROPERTY
@given(user_laws, tables_1_to_4)
def test_check_law_matches_naive_scan(law, m):
    eq = law.equation
    first = first_failure(m, eq)
    rep = check_law(m, law)
    assert rep.holds == equation_holds(m, eq) == (first is None)
    assert rep.witness == first
