import pytest

from magma_lab import search
from magma_lab.dsl import parse_spec
from magma_lab.enumeration import InfeasibleError
from magma_lab.laws import ABELIAN, AGI, AGII, CAI, H, NE, R, A, C
from magma_lab.search import SearchSpec, find_model, independence_matrix


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
    mat = independence_matrix((AGI, AGII, R), max_order=3)
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
