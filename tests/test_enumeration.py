import ast
import random
import re
from dataclasses import replace
from functools import lru_cache
from itertools import permutations, product
from math import factorial

import pytest
from hypothesis import example, given, settings, strategies as st

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
from magma_lab.laws import (
    AGII, ALL_LAWS, CA, CAI, EQUATIONAL_LAWS, H, IN, LOOP, NE, R, A, C, Equation, is_tautology,
    user_law,
)
from magma_lab.properties import check_H, check_identity_law, check_law, holds
from magma_lab.structures import proj1, zn_add

from reference import (
    _relabeled, canonical_table, first_failure, first_row_orbits, is_latin, partial_check, ref_holds,
)
from strategies import magmas

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
    # Pool.map's rule: about four chunks per process. A count runs one job
    # per orbit of first rows, a stream one per first row.
    sizes, jobs, chunksizes = [], [], []
    monkeypatch.setattr(enumeration, "Pool", _fake_pool(sizes, jobs, chunksizes))
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 4)
    lengths = []
    for spec, workers, want in (
        (EnumSpec(4, LATIN, (C,)), 2, 96),
        (EnumSpec(3, constraints=(C,)), 4, 729),
        (EnumSpec(2), 4, 16),
    ):
        for view in (count, lambda *args: sum(1 for _ in tables(*args))):
            assert view(spec, workers) == want
            lengths.append(len(jobs))
            jobs.clear()
    assert lengths == [7, 24, 15, 27, 4, 4]
    assert sizes == [2, 2, 4, 4, 4, 4] and chunksizes == [1, 3, 1, 2, 1, 1]


def _opened(*args, **kwargs):
    raise AssertionError("count started a pool or a stream")


@pytest.mark.parametrize("workers", [1, 2])
def test_plain_latin_count_is_one_job(monkeypatch, latin_stream_lengths, workers):
    monkeypatch.setattr(enumeration, "Pool", _opened)
    monkeypatch.setattr(enumeration, "tables", _opened)
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 4)
    got = [count(EnumSpec(n, LATIN), workers) for n in range(1, 6)]
    assert got == latin_stream_lengths


@pytest.mark.parametrize("up_to_iso", [False, True])
def test_a_plain_latin_count_runs_the_backtracker_once(monkeypatch, up_to_iso):
    run, runs = enumeration._run, []

    def counted(*args):
        runs.append(args[:2])  # (order, latin)
        return run(*args)

    monkeypatch.setattr(enumeration, "_run", counted)
    assert count(EnumSpec(5, LATIN, up_to_iso=up_to_iso)) == (1411 if up_to_iso else 161280)
    assert runs == [(5, True)]


@pytest.mark.parametrize("spec", [EnumSpec(4, LATIN), EnumSpec(3, constraints=(NE,))])
@pytest.mark.parametrize("view", [count, tables, blocks])
def test_each_view_validates_its_spec_once(monkeypatch, spec, view):
    seen = []
    monkeypatch.setattr(enumeration, "validate_spec", seen.append)
    result = view(spec)
    if view is not count:
        list(result)
    assert seen == [spec]


def _backtracked(spec):
    """The spec's flat tables from the per-first-row backtracker, the path
    equationally constrained specs take, filtered by the reference checks."""
    for chunk in enumeration._subtrees(spec, enumeration._prefixes(spec), 1, counting=False):
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


@st.composite
def enum_specs(draw, latin_top=4, iso=True, users=False):
    """Specs of every kind: either mode, laws of each kind, up_to_iso unless
    iso is off, and non_latin where the mode allows it; all-magma orders to
    3, Latin to latin_top. users adds user equations to the laws drawn."""
    latin = draw(st.booleans())
    law = st.sampled_from((*EQUATIONAL_LAWS, NE, IN, CA))
    laws = draw(st.lists(law | equations if users else law, max_size=2, unique=True))
    return EnumSpec(
        draw(st.integers(1, latin_top if latin else 3)),
        LATIN if latin else ALL_MAGMAS,
        tuple(laws),
        up_to_iso=iso and draw(st.booleans()),
        non_latin=not latin and draw(st.booleans()),
    )


def _three_views(spec, workers):
    """The stream's flat tables, after checking that tables, blocks and
    count give the same stream."""
    got = [bytes(m.table) for m in tables(spec, workers)]
    assert [raw for block in blocks(spec, workers) for raw in block] == got
    assert count(spec, workers) == len(got)
    return got


@settings(PROPERTY, max_examples=40)
@given(enum_specs())
def test_count_tables_and_blocks_are_one_stream(spec):
    _three_views(spec, 1)


@settings(PROPERTY, max_examples=30)
@given(enum_specs(latin_top=5, iso=False, users=True))
@example(EnumSpec(5, LATIN, (NE,)))  # a filtered relabeled stream at the top Latin order
def test_weighted_count_is_the_stream_length(spec):
    # count runs one first row per orbit and weights it; tables runs every row
    want = len(list(tables(spec)))
    assert count(spec, 1) == count(spec, 2) == want


VIEW_SPECS = {
    "A": EnumSpec(3, constraints=(A,)),
    "latin C up_to_iso": EnumSpec(4, LATIN, (C,), up_to_iso=True),
    "A NE non_latin": EnumSpec(3, constraints=(A, NE), non_latin=True),
    "latin CA": EnumSpec(4, LATIN, (CA,)),
}


@pytest.mark.parametrize("spec", VIEW_SPECS.values(), ids=VIEW_SPECS)
def test_the_three_views_agree_at_two_workers(spec):
    assert _three_views(spec, 2) == _three_views(spec, 1)


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
    assert len(jobs) == 15  # one per orbit of the 27 first rows
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


ORBIT_SPECS = [EnumSpec(n) for n in range(1, 5)] + [EnumSpec(n, LATIN) for n in range(1, 7)]


@pytest.mark.parametrize("spec", ORBIT_SPECS, ids=lambda s: f"{s.mode} {s.order}")
def test_orbits_of_first_rows_match_brute_force_relabeling(spec):
    got = list(enumeration._orbits(spec))
    rows = list(enumeration._prefixes(spec))
    assert sum(size for _, size in got) == len(rows)
    want = {min(orbit): len(orbit) for orbit in first_row_orbits(rows, spec.order)}
    assert got == sorted(want.items())  # each row the least of its orbit, in row order


@settings(PROPERTY, max_examples=150)
@given(magmas(1, 4), st.data(), st.lists(equations, max_size=2))
def test_every_verdict_survives_relabeling(m, data, users):
    # the fact count's orbit weights rest on
    perm = data.draw(st.permutations(range(m.order)))
    image = Magma(m.order, _relabeled(m, perm))
    for law in (*ALL_LAWS, *users):
        want = ref_holds(m, law)
        assert ref_holds(image, law) == want, law.tag
        assert holds(m, law) == holds(image, law) == want, law.tag
    assert check_H(m).holds == check_H(image).holds == ref_holds(m, H)


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
    # 226,523 when every first row ran its own job; 52 jobs of 256 run now
    assert calls[0] == 86_847 < 565_870


@pytest.mark.parametrize("spec, want, jobs, rows", [
    (EnumSpec(4, constraints=(A,)), 3492, 52, 256),
    (EnumSpec(6, LATIN, (CAI,)), 360, 19, 720),
])
def test_a_count_runs_one_job_per_orbit_of_first_rows(monkeypatch, spec, want, jobs, rows):
    run, prefixes = enumeration._run, []

    def counted(n, latin, parking, prefix, collect):
        prefixes.append(prefix)
        return run(n, latin, parking, prefix, collect)

    monkeypatch.setattr(enumeration, "_run", counted)
    assert count(spec) == want and len(prefixes) == jobs
    prefixes.clear()
    assert sum(1 for _ in tables(spec)) == want and len(prefixes) == rows


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
