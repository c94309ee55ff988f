from functools import lru_cache
from itertools import product

import pytest

from magma_lab import search
from magma_lab.core import Magma
from magma_lab.dsl import parse_spec
from magma_lab.enumeration import InfeasibleError
from magma_lab.laws import ABELIAN, AGI, AGII, CA, CAI, GROUP, H, LOOP, NE, R, A, C
from magma_lab.search import SearchSpec, find_model

from reference import ref_holds


def test_hagi_model_without_neutral():
    spec = SearchSpec(assume=(H, AGI), refute=NE, orders=(1, 3))
    res = find_model(spec)
    assert res.order_found == 3
    assert res.examined == 5
    assert res.found.rows() == [[0, 2, 1], [1, 0, 2], [2, 1, 0]]


def test_hcai_forces_abelian_up_to_5():
    spec = SearchSpec(assume=(H, CAI), refute=ABELIAN, orders=(1, 5))
    res = find_model(spec)
    assert res.found is None
    assert res.order_found is None
    assert res.examined == 52


def test_commutative_non_quasigroup():
    res = find_model(SearchSpec(assume=(C,), refute=H, orders=(2, 2)))
    assert res.found.rows() == [[0, 0], [0, 0]]
    assert res.examined == 1


def test_refuting_an_assumption_is_vacuous():
    res = find_model(SearchSpec(assume=(H,), refute=H, orders=(1, 4)))
    assert res.found is None
    assert res.examined == 0


def test_assuming_and_refuting_h_streams_nothing(monkeypatch):
    def no_tables(*args, **kwargs):
        raise AssertionError("a search that assumes and refutes H streamed tables")

    monkeypatch.setattr(search, "tables", no_tables)
    res = find_model(SearchSpec(assume=(H, CAI), refute=H, orders=(1, 5)))
    assert (res.found, res.examined, res.order_found) == (None, 0, None)
    # the caps are still checked for the whole range first
    with pytest.raises(InfeasibleError, match="exceeds the latin-squares cap 6"):
        find_model(SearchSpec(assume=(H, CAI), refute=H, orders=(1, 7)))


@pytest.mark.parametrize("assume, orders", [((C,), (1, 3)), ((GROUP,), (1, 4))])
def test_refuting_h_is_the_same_at_any_worker_count(assume, orders):
    # every group is Latin, so the GROUP search streams nothing to its end
    spec = SearchSpec(assume=assume, refute=H, orders=orders)
    one = find_model(spec, workers=1)
    two = find_model(spec, workers=2)
    assert (one.found, one.examined, one.order_found) == (two.found, two.examined, two.order_found)
    assert one.found is None or not ref_holds(one.found, H)


def test_worker_count_does_not_change_the_answer():
    spec = SearchSpec(assume=(H, CAI), refute=ABELIAN, orders=(1, 4))
    one = find_model(spec, workers=1)
    two = find_model(spec, workers=2)
    assert one.examined == two.examined == 22
    assert one.found is None and two.found is None


def test_bad_order_range():
    with pytest.raises(ValueError, match=r"bad order range 3\.\.1"):
        find_model(SearchSpec(assume=(C,), refute=A, orders=(3, 1)))
    with pytest.raises(ValueError, match=r"bad order range 0\.\.2"):
        find_model(SearchSpec(assume=(C,), refute=A, orders=(0, 2)))


def test_cap_checked_before_any_order_runs():
    # NE is structural, so it cannot be pushed into the generator and the
    # plain all-magmas cap applies to the whole range up front
    with pytest.raises(InfeasibleError, match="exceeds the all-magmas cap 3"):
        find_model(SearchSpec(assume=(NE,), refute=C, orders=(1, 4)))


def test_parsed_spec_runs():
    spec = parse_spec(
        "assume H, a + (b + c) = (c + a) + b; refute ABELIAN; orders 1..4"
    )
    res = find_model(spec)
    assert res.found is None
    assert res.examined > 0


def test_independence_of_the_three_grouplike_identities():
    # p => q is refuted by a model of p that fails q, for each ordered pair
    laws = (AGI, AGII, R)
    mat = {
        (p, q): find_model(SearchSpec((p,), q, (1, 3))) for p in laws for q in laws if p != q
    }
    assert len(mat) == 6

    assert mat[(AGI, AGII)].order_found == 3
    assert mat[(AGI, AGII)].examined == 11
    assert mat[(AGI, R)].order_found == 3
    assert mat[(AGI, R)].examined == 11

    assert mat[(AGII, AGI)].order_found == 2
    assert mat[(AGII, AGI)].examined == 4
    assert mat[(AGII, AGI)].found.rows() == [[0, 1], [0, 1]]
    assert mat[(AGII, R)].found.rows() == [[0, 1], [0, 1]]

    assert mat[(R, AGI)].order_found == 2
    assert mat[(R, AGI)].examined == 4
    assert mat[(R, AGI)].found.rows() == [[0, 0], [1, 1]]
    assert mat[(R, AGII)].found.rows() == [[0, 0], [1, 1]]


@lru_cache(maxsize=None)
def _all_magmas(n):
    return tuple(Magma(n, t) for t in product(range(n), repeat=n * n))


def _naive_search(assume, refute, lo, hi):
    """Filter every magma, in order-then-table order, through the reference
    laws. A search that refutes H streams only non-Latin tables, so only
    those count as examined."""
    examined = 0
    for n in range(lo, hi + 1):
        for m in _all_magmas(n):
            if not all(ref_holds(m, law) for law in assume):
                continue
            if refute == H and ref_holds(m, H):
                continue
            examined += 1
            if not ref_holds(m, refute):
                return m.table, examined
    return None, examined


@pytest.mark.parametrize("assume", [(LOOP,), (GROUP,), (ABELIAN,), (H, H), (GROUP, NE, A)])
@pytest.mark.parametrize("refute", [A, C, H, NE, CA, CAI])
def test_composite_assumptions_match_naive_filter(assume, refute):
    res = find_model(SearchSpec(assume=assume, refute=refute, orders=(1, 3)))
    found = res.found.table if res.found is not None else None
    assert (found, res.examined) == _naive_search(assume, refute, 1, 3)


def test_smallest_nonassociative_loop_has_order_5():
    # LOOP unfolds to H and NE, so the search streams Latin squares and
    # reaches the Latin cap, past the all-magmas cap of 3
    res = find_model(SearchSpec(assume=(LOOP,), refute=A, orders=(1, 5)))
    assert res.order_found == 5
    assert ref_holds(res.found, LOOP)
    assert not ref_holds(res.found, A)


def test_group_assumption_reaches_order_4_through_a():
    res = find_model(SearchSpec(assume=(GROUP,), refute=C, orders=(1, 4)))
    assert res.found is None
    # the labelled groups: 1, 2, 3 and 16 of orders 1 to 4, all abelian
    assert res.examined == 22
    with pytest.raises(InfeasibleError, match="exceeds the all-magmas cap 4"):
        find_model(SearchSpec(assume=(GROUP,), refute=C, orders=(1, 5)))
