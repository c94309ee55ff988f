from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from magma_lab import properties
from magma_lab.core import Magma, magma_from_rows, relabel
from magma_lab.dsl import parse_law
from magma_lab.enumeration import LATIN, EnumSpec, tables
from magma_lab.laws import (
    ABELIAN,
    AGI,
    AGII,
    ALL_LAWS,
    CAI,
    GROUP,
    IN,
    LOOP,
    NE,
    A,
    C,
)
from magma_lab.properties import (
    check_H,
    check_cancellative,
    check_identity_law,
    check_inverses,
    check_law,
    classify,
    find_neutrals,
    holds,
    local_identities,
)
from magma_lab.structures import example_suite, zn_add

from reference import ca_report, h_report, has_inverses, is_latin, neutral_report, ref_holds
from strategies import PROPERTY, magmas

Z3_ADD = magma_from_rows([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
Z3_SUB = magma_from_rows([[0, 2, 1], [1, 0, 2], [2, 1, 0]])
TRIVALENT = magma_from_rows([[2, 0, 0], [0, 2, 1], [0, 1, 2]])
PROJ1 = magma_from_rows([[0, 0], [1, 1]])
PROJ2 = magma_from_rows([[0, 1], [0, 1]])


def test_identity_law_on_group():
    assert check_identity_law(Z3_ADD, A).holds
    assert check_identity_law(Z3_ADD, C).holds


def test_identity_law_witness_is_first():
    rep = check_identity_law(TRIVALENT, A)
    assert not rep.holds
    assert rep.witness == {"a": 0, "b": 0, "c": 1}
    rep = check_identity_law(Z3_SUB, AGII)
    assert not rep.holds
    assert rep.witness == {"a": 0, "b": 0, "c": 1}
    rep = check_identity_law(Z3_SUB, CAI)
    assert rep.witness == {"a": 0, "b": 1, "c": 0}


def test_identity_law_rejects_structural():
    with pytest.raises(ValueError, match="not purely equational"):
        check_identity_law(Z3_ADD, NE)


def test_find_neutrals():
    assert find_neutrals(Z3_ADD).two_sided == 0
    rep = find_neutrals(Z3_SUB)
    assert rep.left == ()
    assert rep.right == (0,)
    assert rep.two_sided is None
    rep = find_neutrals(PROJ2)
    assert rep.left == (0, 1)
    assert rep.right == ()
    assert find_neutrals(TRIVALENT).two_sided == 2


def test_check_inverses():
    assert check_inverses(Z3_ADD, 0).holds
    # every diagonal entry of the trivalent table is the neutral 2
    rep = check_inverses(TRIVALENT, 2)
    assert rep.holds
    with pytest.raises(ValueError, match="not a two-sided neutral"):
        check_inverses(Z3_SUB, 0)


def test_inverses_missing_witness():
    meet4 = magma_from_rows([[min(a, b) for b in range(4)] for a in range(4)])
    assert find_neutrals(meet4).two_sided == 3
    rep = check_inverses(meet4, 3)
    assert not rep.holds
    assert rep.witness == {"a": 0}
    assert rep.detail == {"neutral": 3}


def test_in_scans_for_neutrals_once(monkeypatch):
    calls = []
    real = properties.find_neutrals

    def counted(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(properties, "find_neutrals", counted)
    assert holds(zn_add(5), IN)
    assert len(calls) == 1
    calls.clear()
    assert check_law(zn_add(5), IN).holds
    assert len(calls) == 1
    # a composite's NE and IN parts share one scan, with or without a
    # caller's memo, and in its report
    for law in (GROUP, ABELIAN):
        for memo in (None, {}):
            calls.clear()
            assert holds(zn_add(5), law, memo)
            assert len(calls) == 1
        calls.clear()
        assert check_law(zn_add(5), law).holds
        assert len(calls) == 1


def test_identity_check_has_an_assignment_cap():
    wide = parse_law(" + ".join("abcdefghijklmno") + " = a")  # 15 variables
    with pytest.raises(ValueError, match="14348907 assignments at order 3 exceed the cap"):
        check_identity_law(Z3_ADD, wide)
    assert check_law(PROJ1, wide).holds  # 2^15 assignments are within the cap


def test_check_H():
    assert check_H(Z3_SUB).holds
    rep = check_H(TRIVALENT)
    assert not rep.holds
    assert rep.witness == {"a": 0, "b": 1, "c": 2}
    assert rep.detail == {"kind": "row", "index": 0, "value": 0}
    rep = check_H(PROJ2)
    assert rep.detail == {"kind": "column", "index": 0, "value": 0}
    assert rep.witness == {"a": 0, "b": 0, "c": 1}


def test_check_cancellative():
    assert check_cancellative(Z3_SUB).holds
    rep = check_cancellative(PROJ1)
    assert not rep.holds
    assert rep.witness == {"a": 0, "b": 0, "c": 1}
    assert rep.detail == {"side": "left"}


def test_local_identities():
    ids = local_identities(Z3_SUB, 1)
    assert ids.right_solutions == (0,)
    assert ids.left_solutions == (2,)
    assert ids.right_unique and ids.left_unique
    with pytest.raises(ValueError, match="out of range"):
        local_identities(Z3_SUB, 5)


def test_holds_all_tags():
    truth = {law.tag: holds(Z3_ADD, law) for law in ALL_LAWS}
    assert truth == {
        "A": True, "C": True, "NE": True, "IN": True,
        "CAI": True, "CAII": True, "AGI": True, "AGII": True, "R": True,
        "H": True, "CA": True, "LOOP": True, "GROUP": True, "ABELIAN": True,
    }
    assert not holds(Z3_SUB, NE)
    assert holds(Z3_SUB, AGI)
    assert not holds(Z3_SUB, ABELIAN)


def test_holds_memo():
    memo = {}
    assert holds(Z3_ADD, ABELIAN, memo)
    # composite evaluation populated the parts it used
    assert memo == {"ABELIAN": True, "A": True, "C": True, "NE": True, "IN": True}
    assert holds(Z3_ADD, GROUP, memo)


def test_holds_unknown_law():
    from magma_lab.laws import Law

    with pytest.raises(ValueError, match="unknown law"):
        holds(Z3_ADD, Law("WAT"))


def test_check_law_structural():
    rep = check_law(Z3_SUB, NE)
    assert not rep.holds
    assert rep.detail == {"left": [], "right": [0], "two_sided": None}
    rep = check_law(Z3_SUB, IN)
    assert not rep.holds
    assert rep.detail == {"missing": "NE"}
    rep = check_law(PROJ2, LOOP)
    assert not rep.holds
    assert rep.detail == {"missing": "H"}
    assert check_law(Z3_ADD, ABELIAN).holds
    rep = check_law(PROJ1, GROUP)
    assert not rep.holds
    assert rep.detail == {"missing": "NE"}


def test_classify_ladder():
    assert classify(Z3_ADD).labels == (
        "magma", "commutative", "semigroup", "monoid", "group",
        "abelian-group", "quasigroup", "loop",
    )
    assert classify(Z3_SUB).labels == ("magma", "quasigroup")
    assert classify(PROJ2).labels == ("magma", "semigroup")
    # commutative with a neutral, but not associative, so not a monoid
    rep = classify(TRIVALENT)
    assert rep.labels == ("magma", "commutative")
    assert rep.inverses == (0, 1, 2)


def test_classify_inverses_partial():
    meet4 = magma_from_rows([[min(a, b) for b in range(4)] for a in range(4)])
    rep = classify(meet4)
    assert rep.labels == ("magma", "commutative", "semigroup", "monoid")
    assert rep.inverses == (None, None, None, 3)


def _structured_tables():
    for n in (1, 2):
        for raw in product(range(n), repeat=n * n):
            yield Magma(n, raw)
    # every order-3 table with neutral 0, where one-sided inverses occur
    for a, b, c, d in product(range(3), repeat=4):
        yield Magma(3, (0, 1, 2, 1, a, b, 2, c, d))
    for n in (3, 4):
        yield from tables(EnumSpec(order=n, mode=LATIN))
    for rec in example_suite():
        if rec.structure.kind == "finite":
            yield rec.structure.magma


def test_checkers_agree_on_structured_tables():
    # random tables almost never have a neutral or a Latin square, so this
    # set is where the true branches of NE, IN, H, CA and the composites run
    for m in _structured_tables():
        memo = {}
        for law in ALL_LAWS:
            want = ref_holds(m, law)
            assert check_law(m, law).holds == want, (m.table, law.tag)
            assert holds(m, law) == want, (m.table, law.tag)
            assert holds(m, law, memo) == want, (m.table, law.tag)
        rep = classify(m)
        assert ("quasigroup" in rep.labels) == is_latin(m), m.table
        complete = rep.inverses is not None and None not in rep.inverses
        assert complete == has_inverses(m), m.table


@PROPERTY
@given(magmas(1, 6), st.data())
def test_holds_is_invariant_under_relabeling(m, data):
    perm = data.draw(st.permutations(range(m.order)))
    image = relabel(m, perm)
    for law in ALL_LAWS:
        assert holds(image, law) == holds(m, law), law.tag


@settings(PROPERTY, max_examples=300)
@given(magmas(1, 6))
def test_line_scans_match_the_naive_witness_scans(m):
    assert check_H(m) == h_report(m)
    assert check_cancellative(m) == ca_report(m)
    assert find_neutrals(m) == neutral_report(m)
