"""Hypothesis strategies for tables, shared by the property tests."""

from hypothesis import settings, strategies as st

from magma_lab.core import Magma

PROPERTY = settings(derandomize=True, database=None, deadline=None)


def random_tables(lo: int, hi: int):
    """Uniform tables of orders lo..hi: almost never Latin, rarely with a neutral."""
    return st.integers(lo, hi).flatmap(
        lambda n: st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n).map(
            lambda t: Magma(n, t)
        )
    )


def _near_latin(n, rows, cols, symbols, neutral, edits):
    t = [symbols[(rows[a] + cols[b]) % n] for a in range(n) for b in range(n)]
    if neutral is not None:
        for x in range(n):
            t[neutral * n + x] = t[x * n + neutral] = x
    for cell, value in edits:
        t[cell] = value
    return Magma(n, t)


def near_latin_tables(lo: int, hi: int):
    """An isotope of the cyclic group, optionally with a neutral row and
    column written in, then up to two cells overwritten: Latin squares,
    tables with one repeated entry, and one- and two-sided neutrals."""
    return st.integers(lo, hi).flatmap(
        lambda n: st.builds(
            _near_latin, st.just(n), *[st.permutations(range(n))] * 3,
            st.none() | st.integers(0, n - 1),
            st.lists(st.tuples(st.integers(0, n * n - 1), st.integers(0, n - 1)), max_size=2),
        )
    )


def row_permutation_tables(lo: int, hi: int):
    """Every row a permutation, so a failure of H or cancellation shows
    only in a column."""
    return st.integers(lo, hi).flatmap(
        lambda n: st.lists(st.permutations(range(n)), min_size=n, max_size=n).map(
            lambda rows: Magma(n, [v for row in rows for v in row])
        )
    )


def magmas(lo: int, hi: int):
    """Random, near-Latin and row-permutation tables of orders lo..hi."""
    return random_tables(lo, hi) | near_latin_tables(lo, hi) | row_permutation_tables(lo, hi)
