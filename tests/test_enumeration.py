import ast
import random
import re
from dataclasses import replace
from functools import lru_cache
from itertools import permutations, product
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from magma_lab import cli, enumeration, laws
from magma_lab.core import Magma, canonical_form
from magma_lab.enumeration import (
    ALL_MAGMAS,
    LATIN,
    MAX_ORDER_ENV,
    EnumSpec,
    InfeasibleError,
    blocks,
    count,
    models_spec,
    tables,
    validate_spec,
)
from magma_lab.dsl import MAX_DEPTH, parse_law
from magma_lab.laws import AGII, CAI, H, IN, LOOP, NE, R, A, C, Equation, is_tautology, user_law
from magma_lab.properties import check_identity_law, check_law, holds
from magma_lab.structures import proj1, zn_add

from reference import canonical_table, first_failure, is_latin, partial_check, ref_holds

PROPERTY = settings(derandomize=True, database=None, deadline=None)


def test_all_magmas_counts():
    assert count(EnumSpec(order=1)) == 1
    assert count(EnumSpec(order=2)) == 16
    assert count(EnumSpec(order=3)) == 19683


def test_latin_counts_small():
    assert count(EnumSpec(order=1, mode=LATIN)) == 1
    assert count(EnumSpec(order=2, mode=LATIN)) == 2
    assert count(EnumSpec(order=3, mode=LATIN)) == 12


def test_latin_counts_match_naive_filter():
    # independent generate-and-filter oracle at small orders
    for n in (1, 2, 3):
        naive = sum(
            1
            for t in product(range(n), repeat=n * n)
            if is_latin(Magma(n, t))
        )
        assert count(EnumSpec(order=n, mode=LATIN)) == naive


def test_latin_counts_orders_4_and_5():
    assert count(EnumSpec(order=4, mode=LATIN)) == 576
    assert count(EnumSpec(order=5, mode=LATIN)) == 161280


def test_latin_mode_equals_filtered_stream():
    for n in (2, 3):
        filtered = [
            m.table for m in tables(EnumSpec(order=n)) if ref_holds(m, H)
        ]
        direct = [m.table for m in tables(EnumSpec(order=n, mode=LATIN))]
        assert filtered == direct


def test_constraint_pushdown_soundness():
    for law in (C, A, CAI, R):
        constrained = [m.table for m in tables(EnumSpec(order=3, constraints=(law,)))]
        filtered = [
            m.table for m in tables(EnumSpec(order=3)) if ref_holds(m, law)
        ]
        assert constrained == filtered


def test_structural_constraints_post_filtered():
    spec = EnumSpec(order=3, constraints=(A, C, NE, IN))
    assert count(spec) == 3
    assert count(EnumSpec(order=3, constraints=(A, C, NE, IN), up_to_iso=True)) == 1


def test_order_4_needs_equational_constraint():
    with pytest.raises(InfeasibleError, match="exceeds the all-magmas cap"):
        count(EnumSpec(order=4))
    assert count(EnumSpec(order=4, constraints=(CAI,))) == 5724
    # a tautology prunes nothing, so it does not lift the cap
    for law in ("a = a", "a + b = a + b"):
        with pytest.raises(InfeasibleError, match="exceeds the all-magmas cap 3"):
            count(EnumSpec(order=4, constraints=(parse_law(law),)))


def test_latin_cap():
    with pytest.raises(InfeasibleError, match="exceeds the latin-squares cap"):
        count(EnumSpec(order=7, mode=LATIN))
    with pytest.raises(InfeasibleError, match="exceeds the latin-squares cap 5"):
        count(EnumSpec(order=6, mode=LATIN))
    validate_spec(EnumSpec(order=6, mode=LATIN, constraints=(CAI,)))


def test_env_override_replaces_cap(monkeypatch):
    monkeypatch.setenv(MAX_ORDER_ENV, "2")
    with pytest.raises(InfeasibleError):
        count(EnumSpec(order=3))
    assert count(EnumSpec(order=2)) == 16
    monkeypatch.setenv(MAX_ORDER_ENV, "zap")
    with pytest.raises(InfeasibleError, match="bad MAGMA_LAB_MAX_ORDER"):
        count(EnumSpec(order=2))


def test_invalid_specs():
    with pytest.raises(InfeasibleError, match="unknown mode"):
        count(EnumSpec(order=2, mode="sparse"))
    with pytest.raises(InfeasibleError, match="order must be positive"):
        count(EnumSpec(order=0))
    with pytest.raises(InfeasibleError, match="contradicts"):
        count(EnumSpec(order=2, mode=LATIN, non_latin=True))


def test_non_latin_flag():
    spec = EnumSpec(order=2, non_latin=True)
    got = [m.table for m in tables(spec)]
    expected = [
        m.table for m in tables(EnumSpec(order=2)) if not ref_holds(m, H)
    ]
    assert got == expected
    assert count(spec) == 14


def test_lexicographic_stream_order():
    seen = [m.table for m in tables(EnumSpec(order=2))]
    assert seen == sorted(seen)
    assert seen[0] == (0, 0, 0, 0)
    assert seen[-1] == (1, 1, 1, 1)
    latin = [m.table for m in tables(EnumSpec(order=3, mode=LATIN))]
    assert latin == sorted(latin)


def test_up_to_iso_emits_canonical_representatives():
    reps = list(tables(EnumSpec(order=3, mode=LATIN, up_to_iso=True)))
    assert len(reps) == 5
    for m in reps:
        assert canonical_form(m) == m
    # they cover all 12 squares up to isomorphism
    forms = {canonical_form(m).table for m in tables(EnumSpec(order=3, mode=LATIN))}
    assert forms == {m.table for m in reps}


@pytest.mark.parametrize("workers", [1, 2])
def test_up_to_iso_count_is_the_number_of_reference_classes(workers):
    classes = {canonical_table(Magma(3, t)) for t in product(range(3), repeat=9)}
    assert count(EnumSpec(3, up_to_iso=True), workers) == len(classes)


def test_up_to_iso_latin_stream_is_the_sorted_reference_classes():
    squares = list(tables(EnumSpec(4, LATIN)))
    assert len(squares) == 576 and all(is_latin(m) for m in squares)
    want = sorted({canonical_table(m) for m in squares})
    assert [m.table for m in tables(EnumSpec(4, LATIN, up_to_iso=True))] == want


def test_worker_streams_identical():
    for spec in (EnumSpec(order=3), EnumSpec(order=4, mode=LATIN),
                 EnumSpec(order=3, constraints=(C,))):
        base = [m.table for m in tables(spec, workers=1)]
        for w in (2, 8):
            assert [m.table for m in tables(spec, workers=w)] == base


def test_worker_counts_identical():
    spec = EnumSpec(order=4, mode=LATIN)
    assert count(spec, workers=1) == count(spec, workers=2) == 576


def _fake_pool(sizes, jobs, chunksizes=None):
    class FakePool:
        """Runs the jobs in process and records its size and the jobs."""

        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, todo, chunksize=1):
            todo = list(todo)
            jobs.extend(todo)
            if chunksizes is not None:
                chunksizes.append(chunksize)
            return map(fn, todo)

    return FakePool


def test_pool_size_is_clamped(monkeypatch):
    sizes = []
    monkeypatch.setattr(enumeration, "Pool", _fake_pool(sizes, []))
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 4)
    spec = EnumSpec(order=3, mode=LATIN, constraints=(C,))  # 6 first-row jobs
    serial = [m.table for m in tables(spec)]
    assert [m.table for m in tables(spec, workers=64)] == serial
    assert count(spec, workers=3) == len(serial) == 6
    spec = EnumSpec(order=2)  # 4 first-row jobs
    assert count(spec, workers=64) == 16
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: None)
    assert count(spec, workers=64) == 16
    assert sizes == [4, 3, 4]


def test_pool_hands_out_jobs_in_chunks(monkeypatch):
    # Pool.map's rule: about four chunks per process
    sizes, chunksizes = [], []
    monkeypatch.setattr(enumeration, "Pool", _fake_pool(sizes, [], chunksizes))
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 4)
    assert count(EnumSpec(4, LATIN, (C,)), workers=2) == 96  # 24 jobs
    assert count(EnumSpec(3, constraints=(C,)), workers=4) == 729  # 27 jobs
    assert count(EnumSpec(2), workers=4) == 16  # 4 jobs
    assert sizes == [2, 4, 4] and chunksizes == [3, 2, 1]


def _opened(*args, **kwargs):
    raise AssertionError("count started a pool or a stream")


@pytest.mark.parametrize("workers", [1, 2])
def test_plain_latin_count_is_one_job(monkeypatch, latin_stream_lengths, workers):
    monkeypatch.setattr(enumeration, "Pool", _opened)
    monkeypatch.setattr(enumeration, "tables", _opened)
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 4)
    got = [count(EnumSpec(n, LATIN), workers) for n in range(1, 6)]
    assert got == latin_stream_lengths


def _backtracked(spec):
    """The spec's flat tables from the per-first-row backtracker, the path
    equationally constrained specs take, filtered by the reference checks."""
    for chunk in enumeration._subtrees(spec, 1, counting=False):
        for raw in chunk:
            m = Magma(spec.order, raw)
            if spec.up_to_iso and canonical_table(m) != m.table:
                continue
            if all(ref_holds(m, law) for law in spec.constraints):
                yield m.table


RELABELED = {
    **{f"latin {n}": EnumSpec(n, LATIN) for n in range(1, 6)},
    "latin 4 up_to_iso": EnumSpec(4, LATIN, up_to_iso=True),
    **{f"latin {n} NE": EnumSpec(n, LATIN, constraints=(NE,)) for n in (4, 5)},
}


@pytest.mark.parametrize("spec", RELABELED.values(), ids=RELABELED)
def test_relabeled_stream_equals_backtracker(spec):
    assert [m.table for m in tables(spec)] == list(_backtracked(spec))


@pytest.mark.parametrize("workers", [1, 2, 8])
def test_plain_latin_stream_starts_no_pool(monkeypatch, workers):
    specs = (EnumSpec(4, LATIN), EnumSpec(4, LATIN, constraints=(NE, IN)))
    want = [list(_backtracked(spec)) for spec in specs]
    monkeypatch.setattr(enumeration, "Pool", _opened)
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 4)
    assert [[m.table for m in tables(spec, workers)] for spec in specs] == want


def test_order_limit_of_a_table_byte(monkeypatch):
    monkeypatch.setenv(MAX_ORDER_ENV, "300")
    validate_spec(EnumSpec(255, LATIN))
    with pytest.raises(InfeasibleError, match="order 256 exceeds 255"):
        validate_spec(EnumSpec(256, LATIN))


def test_up_to_iso_reaches_the_canonical_cap(monkeypatch):
    # the cap override lifts every order cap, so only up_to_iso's own bound decides
    monkeypatch.setenv(MAX_ORDER_ENV, "8")
    validate_spec(EnumSpec(7, LATIN, (C,), up_to_iso=True))
    with pytest.raises(InfeasibleError, match=r"up_to_iso needs order <= 7"):
        validate_spec(EnumSpec(8, LATIN, (C,), up_to_iso=True))


def test_equational_count_does_not_stream(monkeypatch):
    specs = (EnumSpec(3, constraints=(C,)), EnumSpec(4, LATIN, constraints=(CAI,)))
    want = [sum(1 for _ in tables(spec)) for spec in specs]
    monkeypatch.setattr(enumeration, "tables", _opened)
    assert [count(spec) for spec in specs] == want


FILTERED = {
    "up_to_iso": EnumSpec(4, LATIN, up_to_iso=True),
    "NE": EnumSpec(3, constraints=(NE,)),
    "non_latin C": EnumSpec(3, constraints=(C,), non_latin=True),
}


@pytest.mark.parametrize("spec", FILTERED.values(), ids=FILTERED)
def test_filtered_counts_are_stream_lengths(spec, monkeypatch):
    want = sum(1 for _ in tables(spec))
    monkeypatch.setattr(enumeration, "tables", _opened)  # counts go through blocks
    assert count(spec) == want


BLOCK_SPECS = {
    **{f"latin {n}": (EnumSpec(n, LATIN), 1) for n in range(1, 5)},
    "AGII workers 1": (models_spec([AGII], 4), 1),
    "AGII workers 2": (models_spec([AGII], 4), 2),
    "LOOP": (models_spec([LOOP], 4), 1),
    "up_to_iso": (EnumSpec(4, LATIN, up_to_iso=True), 1),
    "non_latin": (EnumSpec(3, constraints=(C,), non_latin=True), 1),
}


@pytest.mark.parametrize("spec, workers", BLOCK_SPECS.values(), ids=BLOCK_SPECS)
def test_blocks_flatten_to_the_table_stream(spec, workers):
    got = list(blocks(spec, workers))
    assert all(isinstance(block, list) for block in got)
    flat = [raw for block in got for raw in block]
    assert flat == [bytes(m.table) for m in tables(spec, workers)]


def test_plain_latin_blocks_are_first_rows():
    got = list(blocks(EnumSpec(4, LATIN)))
    assert len(got) == 24 and {len(block) for block in got} == {24}
    assert all(len({raw[:4] for raw in block}) == 1 for block in got)


def test_tables_filters_lazily(monkeypatch):
    # find_model stops at its first hit, so the stream must not test the
    # rest of a chunk before yielding it
    seen = []

    def counted(m, law, memo=None):
        seen.append(m.table)
        return holds(m, law, memo)

    monkeypatch.setattr(enumeration, "holds", counted)
    first = next(tables(EnumSpec(3, constraints=(NE,))))
    rank = list(product(range(3), repeat=9)).index(first.table)
    assert rank > 0 and len(seen) == rank + 1 and seen[-1] == first.table


def test_non_latin_stream_through_the_pool():
    spec = EnumSpec(3, constraints=(C,), non_latin=True)
    serial = [m.table for m in tables(spec)]
    assert [m.table for m in tables(spec, workers=2)] == serial
    want = [m.table for m in _unconstrained(3) if ref_holds(m, C) and not ref_holds(m, H)]
    assert serial == want


def test_equational_constraints_have_an_instance_cap():
    wide = parse_law(" + ".join("abcdefghijklmno") + " = a")  # 3^15 instances
    with pytest.raises(InfeasibleError, match="14348907 assignments at order 3"):
        count(EnumSpec(order=3, constraints=(wide,)))
    # 3^14 instances each, over the cap only when summed
    narrow = parse_law(" + ".join("abcdefghijklmn") + " = a")
    with pytest.raises(InfeasibleError, match="assignments at order 3 exceed the cap of 10000000"):
        count(EnumSpec(order=3, constraints=(narrow, C, narrow, narrow)))


def test_pool_jobs_carry_programs_not_laws(monkeypatch):
    jobs = []
    monkeypatch.setattr(enumeration, "Pool", _fake_pool([], jobs))
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 2)
    spec = EnumSpec(order=3, constraints=(CAI,))
    assert count(spec, workers=2) == count(spec)
    assert len(jobs) == 27
    for order, latin, programs, prefix, counting in jobs:
        assert (order, latin, counting) == (3, False, True)
        assert programs == ((3, CAI.equation.code),)
        assert len(prefix) == 3


_STREAMS: dict = {}


def _unconstrained(n, mode=ALL_MAGMAS):
    """Every table of the mode at order n. The plain Latin stream is itself
    checked against the backtracker and the naive filter above."""
    if (n, mode) not in _STREAMS:
        _STREAMS[n, mode] = list(tables(EnumSpec(order=n, mode=mode)))
    return _STREAMS[n, mode]


small_terms = st.recursive(st.sampled_from("abc"), lambda sub: st.tuples(sub, sub), max_leaves=5)
equations = st.builds(lambda lhs, rhs: user_law(Equation(lhs, rhs)), small_terms, small_terms)


@settings(PROPERTY, max_examples=20)  # an order-3 example filters 19,683 tables
@given(st.lists(equations, min_size=1, max_size=2), st.sampled_from((2, 3)), st.booleans())
def test_constrained_stream_equals_filtered_stream(laws, n, non_latin):
    spec = EnumSpec(order=n, constraints=tuple(laws), non_latin=non_latin)
    got = [m.table for m in tables(spec)]
    want = [
        m.table for m in _unconstrained(n)
        if all(ref_holds(m, law) for law in laws) and not (non_latin and ref_holds(m, H))
    ]
    assert got == want


@settings(PROPERTY, max_examples=30)
@given(st.lists(equations, min_size=1, max_size=2), st.sampled_from((2, 3, 4)))
def test_constrained_latin_stream_equals_filtered_latin_domain(laws, n):
    # Latin mode also prunes a forcing whose value is used in the cell's row or column
    spec = EnumSpec(order=n, mode=LATIN, constraints=tuple(laws))
    got = [m.table for m in tables(spec)]
    want = [m.table for m in _unconstrained(n, LATIN) if all(ref_holds(m, law) for law in laws)]
    assert got == want


@lru_cache(maxsize=None)
def _reference_forms(spec):
    """The sorted reference canonical forms of spec's unpruned stream."""
    return sorted({canonical_table(m) for m in tables(spec)})


ROW_CUT_DOMAINS = {
    "all 3": EnumSpec(3),
    "latin 4": EnumSpec(4, LATIN),
    "A 4": EnumSpec(4, constraints=(A,)),
}


@pytest.mark.parametrize("spec", ROW_CUT_DOMAINS.values(), ids=ROW_CUT_DOMAINS)
def test_every_canonical_table_keeps_the_first_row_rule(spec):
    n = spec.order
    forms = _reference_forms(spec)
    assert forms and all(enumeration._may_lead_canonical(t[:n]) for t in forms)


@pytest.mark.parametrize("spec, kept", [
    (EnumSpec(6, LATIN, up_to_iso=True), 32),
    (EnumSpec(5, LATIN, up_to_iso=True), 16),
    (EnumSpec(3, up_to_iso=True), 18),
    (EnumSpec(4, up_to_iso=True), 96),
])
def test_up_to_iso_drops_first_rows_no_canonical_table_has(spec, kept):
    n = spec.order
    rows = permutations(range(n)) if spec.mode == LATIN else product(range(n), repeat=n)
    want = [row for row in rows if enumeration._may_lead_canonical(row)]
    assert list(enumeration._prefixes(spec)) == want and len(want) == kept
    plain = list(enumeration._prefixes(replace(spec, up_to_iso=False)))
    assert len(plain) == (factorial(n) if spec.mode == LATIN else n**n)


ISO_STREAMS = {**ROW_CUT_DOMAINS, "latin 5 CAI": EnumSpec(5, LATIN, (CAI,))}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("spec", ISO_STREAMS.values(), ids=ISO_STREAMS)
def test_pruned_up_to_iso_stream_is_the_sorted_reference_forms(spec, workers):
    got = [m.table for m in tables(replace(spec, up_to_iso=True), workers)]
    assert got == _reference_forms(spec)


def test_up_to_iso_work_of_an_order_6_enumeration_is_pinned(monkeypatch, capsys):
    # A deterministic work figure: without the first-row cut the stream had
    # 720 first-row jobs and tested all 360 tables for canonicity.
    jobs, tested = [0], [0]
    subtree, canonical = enumeration._subtree, enumeration.is_canonical

    def counted_subtree(job):
        jobs[0] += 1
        return subtree(job)

    def counted_canonical(m):
        tested[0] += 1
        return canonical(m)

    monkeypatch.setattr(enumeration, "_subtree", counted_subtree)
    monkeypatch.setattr(enumeration, "is_canonical", counted_canonical)
    argv = ["enumerate", "--order", "6", "--mode", "latin", "--assume", "CAI", "--up-to-iso"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.endswith("\n1 tables\n")
    assert (jobs[0], tested[0]) == (32, 68)


def test_checker_calls_of_an_order_4_count_are_pinned(monkeypatch):
    # A deterministic work figure: without forcing this count made 565,870 checker calls.
    calls = [0]

    def counting(code, n):
        check = laws._checker(code, n)

        def counted(T, env):
            calls[0] += 1
            return check(T, env)

        return counted

    monkeypatch.setattr(enumeration, "_checker", counting)
    enumeration._parking.cache_clear()
    try:
        assert count(EnumSpec(order=4, constraints=(A,))) == 3492
    finally:
        enumeration._parking.cache_clear()
    assert calls[0] == 226_523 < 565_870


@settings(PROPERTY, max_examples=200)
@given(small_terms, small_terms, st.booleans())
def test_tautology_means_equal_sides(lhs, rhs, same):
    rhs = lhs if same else rhs
    assert is_tautology(Equation(lhs, rhs)) == (lhs == rhs)


checked_terms = st.recursive(st.sampled_from("abcd"), lambda sub: st.tuples(sub, sub), max_leaves=8)


@settings(PROPERTY, max_examples=300)
@given(checked_terms, checked_terms, st.integers(1, 4), st.data())
def test_generated_checker_matches_partial_evaluator(lhs, rhs, n, data):
    eq = Equation(lhs, rhs)
    cells = st.none() | st.integers(0, n - 1)
    table = data.draw(st.lists(cells, min_size=n * n, max_size=n * n))
    env = data.draw(st.tuples(*[st.integers(0, n - 1)] * len(eq.variables)))
    assert laws._checker(eq.code, n)(table, env) == partial_check(eq, env, table, n)


@settings(PROPERTY, max_examples=200)
@given(checked_terms, checked_terms, st.integers(1, 3), st.data())
def test_checker_on_a_full_table_only_passes_or_fails(lhs, rhs, n, data):
    # check_identity_law reads every result but -2 as a pass, so a forcing
    # code on a full table would hide a failure
    eq = Equation(lhs, rhs)
    table = data.draw(st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n))
    check = laws._checker(eq.code, n)
    results = {check(table, env) for env in product(range(n), repeat=len(eq.variables))}
    assert results <= {-1, -2}
    m = Magma(n, table)
    assert check_identity_law(m, user_law(eq)).witness == first_failure(m, eq)


@settings(PROPERTY, max_examples=100)
@given(checked_terms, checked_terms, st.integers(1, 4))
def test_checker_source_names_only_its_locals(lhs, rhs, n):
    tree = ast.parse(laws._checker_source(Equation(lhs, rhs).code, n))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert all(re.fullmatch(r"T|env|i|j|[et]\d+", name) for name in names), names


def _nested(depth):
    term = "a + b"
    for i in range(depth - 1):
        term = f"{'ba'[i % 2]} + ({term})"
    return term


EDGE_LAWS = {
    "100-deep parentheses": (f"{_nested(MAX_DEPTH + 1)} = a", (2, 3)),
    "26 variables": (" + ".join("abcdefghijklmnopqrstuvwxyz") + " = z + a", (1,)),
    "400-term chain": (" + ".join("a" * 400) + " = a", (2, 3)),
    "a = b": ("a = b", (1, 2, 3)),
    "a = a + a": ("a = a + a", (1, 2, 3)),
    # forcing: a + a = a and a + b = c on the empty table, a + b = c with
    # clashing values above order 1; a = a + (b + a) once b + a is filled
    "a + a = a": ("a + a = a", (1, 2, 3)),
    "a = a + (b + a)": ("a = a + (b + a)", (1, 2, 3)),
    "a + b = c": ("a + b = c", (1, 2, 3)),
    "tautology": ("a + (b + a) = a + (b + a)", (1, 2, 3)),
}


@pytest.mark.parametrize("text, orders", EDGE_LAWS.values(), ids=EDGE_LAWS)
def test_edge_laws_match_the_filtered_domain(text, orders):
    law = parse_law(text)
    for n in orders:
        models = [m for m in _unconstrained(n) if ref_holds(m, law)]
        for mode in (ALL_MAGMAS, LATIN):
            spec = EnumSpec(order=n, mode=mode, constraints=(law,))
            want = [m.table for m in models if mode == ALL_MAGMAS or is_latin(m)]
            assert [m.table for m in tables(spec)] == want, (n, mode)
            assert count(spec) == len(want), (n, mode)


@pytest.mark.parametrize("text, orders", EDGE_LAWS.values(), ids=EDGE_LAWS)
def test_edge_laws_check_like_the_naive_scan(text, orders):
    law = parse_law(text)
    for n in orders:
        rng = random.Random(n)
        randoms = [Magma(n, [rng.randrange(n) for _ in range(n * n)]) for _ in range(2)]
        for m in [zn_add(n), proj1(n), *randoms]:
            first = first_failure(m, law.equation)
            rep = check_law(m, law)
            assert (rep.holds, rep.witness) == (first is None, first), (n, m)


def test_non_latin_matches_the_filtered_domain():
    for n in (1, 2, 3):
        spec = EnumSpec(order=n, non_latin=True)
        want = [m.table for m in _unconstrained(n) if not is_latin(m)]
        assert [m.table for m in tables(spec)] == want
        assert count(spec) == len(want)
