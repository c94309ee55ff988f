from dataclasses import replace
from fractions import Fraction

import pytest

from magma_lab.dsl import parse_law
from magma_lab.laws import ABELIAN, AGI, AGII, CA, H, NE, A, C
from magma_lab.properties import find_neutrals, holds
from magma_lab.structures import (
    ExampleRecord,
    builtin,
    example_suite,
    windowed_check,
    windowed_neutrals,
    zn_add,
    zn_rsub,
    zn_sub,
)


def test_finite_tables():
    assert zn_sub(3).rows() == [[0, 2, 1], [1, 0, 2], [2, 1, 0]]
    assert zn_rsub(3).rows() == [[0, 1, 2], [2, 0, 1], [1, 2, 0]]
    assert builtin("proj1", 2).magma.rows() == [[0, 0], [1, 1]]
    assert builtin("trivalent_equiv").magma.rows() == [[2, 0, 0], [0, 2, 1], [0, 1, 2]]


def test_labels():
    assert builtin("zn_sub", 3).label == "zn_sub(3)"
    assert builtin("int_sub_window", -5, 5).label == "int_sub_window(-5, 5)"
    assert builtin("prob_star").label == "prob_star"


def test_default_window_params_keep_catalog_claims():
    s = builtin("int_sub_window")
    assert s.params == (-5, 5)
    assert s.example == 4
    assert dict(s.claims)["AGI"] is True
    # parameters outside the catalog: no example row and no claims, but the
    # notes, which belong to the name, stay
    off = builtin("zn_sub", 4)
    assert (off.example, off.claims) == (0, ())
    assert builtin("int_sub_window", -3, 3).notes == s.notes != ()


def test_builtin_errors():
    with pytest.raises(ValueError, match="takes one positive order"):
        builtin("zn_add")
    with pytest.raises(ValueError, match="takes one positive order"):
        builtin("zn_add", 0)
    with pytest.raises(ValueError, match="takes no parameters"):
        builtin("trivalent_equiv", 3)
    with pytest.raises(ValueError, match="lo <= hi"):
        builtin("int_sub_window", 5, -5)
    with pytest.raises(ValueError, match="unknown structure"):
        builtin("nope")


def test_windows_have_the_assignment_cap():
    too_wide = (("int_sub_window", (-10**9, 10**9)), ("int_sub_window", (0, 10**30)),
                ("nat_add_window", (10**7,)))
    for name, params in too_wide:
        with pytest.raises(ValueError, match="exceeds the cap of 10000000"):
            builtin(name, *params)
    assert builtin("nat_add_window", 10**7 - 1).windowed.window == range(10**7)
    assert list(builtin("int_sub_window", -2, 2).windowed.window) == [-2, -1, 0, 1, 2]


def test_int_sub_window_reports():
    w = builtin("int_sub_window", -5, 5).windowed

    agi = windowed_check(w, AGI)
    assert agi.holds and agi.scope == "necessary-condition only"

    agii = windowed_check(w, AGII)
    assert not agii.holds and agii.scope == "genuine"
    env = dict(agii.witness)
    # the witness must actually violate the identity on the real carrier
    a, b, c = env["a"], env["b"], env["c"]
    assert w.op(a, w.op(b, c)) != w.op(w.op(b, a), c)
    assert (a, b, c) == (-5, -5, -5)  # first assignment in window-scan order

    assert windowed_check(w, H).holds
    assert windowed_check(w, H).scope == "necessary-condition only"
    assert windowed_check(w, CA).holds


def test_int_sub_neutrals_settled_exactly():
    w = builtin("int_sub_window", -5, 5).windowed
    wn = windowed_neutrals(w)
    assert wn.left == ()
    assert wn.right == (0,)
    assert wn.two_sided is None
    assert wn.scope == "genuine"


def test_nat_add_window_latin_failure_is_genuine():
    w = builtin("nat_add_window", 8).windowed
    rep = windowed_check(w, H)
    assert not rep.holds
    assert rep.scope == "genuine"
    assert rep.detail == "x * 1 = 0 has 0 solutions over the natural numbers"


def test_prob_star():
    w = builtin("prob_star").windowed
    assert w.op(Fraction(1, 4), Fraction(1, 4)) == Fraction(15, 16)

    assert windowed_check(w, C).holds

    rep = windowed_check(w, A)
    assert not rep.holds and rep.scope == "genuine"
    assert dict(rep.witness) == {"a": 0, "b": 0, "c": Fraction(1, 4)}

    h = windowed_check(w, H)
    assert not h.holds and h.scope == "genuine"
    assert h.detail == "x * 0 = 0 has 0 solutions over the rationals in [0, 1]"

    wn = windowed_neutrals(w)
    assert (wn.left, wn.right, wn.two_sided) == ((), (), None)
    assert wn.scope == "genuine"


def test_windowed_check_rejects_structural_laws():
    w = builtin("int_sub_window", -5, 5).windowed
    with pytest.raises(ValueError, match="law NE has no windowed check"):
        windowed_check(w, NE)


def test_assignment_cap():
    w = builtin("int_sub_window", -250, 250).windowed
    with pytest.raises(ValueError, match="window too large"):
        windowed_check(w, A)


def test_windowed_h_check_has_the_assignment_cap():
    def solve(a, b):
        raise AssertionError("a solver ran")

    w = replace(builtin("int_sub_window", -1600, 1600).windowed,
                solve_left=solve, solve_right=solve)
    with pytest.raises(ValueError, match="window too large"):
        windowed_check(w, H)


def test_example_suite_shape():
    records = example_suite()
    assert len(records) == 11
    assert [r.example for r in records] == [1, 2, 3, 3, 4, 4, 5, 6, 7, 8, 9]
    assert all(isinstance(r, ExampleRecord) for r in records)


def test_example_suite_mismatches():
    records = example_suite()
    flagged = {r.example: r.mismatches for r in records if r.mismatches}
    assert flagged == {5: ("AGII",), 6: ("NE",)}

    by_example = {r.example: r for r in records}
    note = [n for n in by_example[5].notes if n.startswith("documented")]
    assert note == ["documented AGII=True but computed AGII=False (exact)"]

    # the one-sided neutral rows carry an explanatory note
    assert any(n.startswith("no two-sided neutral; left neutrals {0, 1}")
               for n in by_example[6].notes)
    assert any(n.startswith("no two-sided neutral; left neutrals none")
               for n in by_example[7].notes)


def test_zn_families_behave():
    for n in range(1, 9):
        assert holds(zn_add(n), ABELIAN)
    assert holds(zn_sub(2), ABELIAN)
    for n in range(3, 9):
        m = zn_sub(n)
        assert holds(m, H)
        assert holds(m, AGI)
        assert not holds(m, A)
        assert find_neutrals(m).two_sided is None


def test_reversed_subtraction_breaks_its_mirror_identity():
    m = zn_rsub(3)
    assert holds(m, H)
    # AGII is not the mirror of any law of b - a, and fails here: a * (b * c)
    # vs (b * a) * c at a=0 b=1 c=0, written out: 0*(1*0) is 0*2 which is 2,
    # while (1*0)*0 is 2*0 which is 1
    assert not holds(m, AGII)
    op = m.op
    assert op(0, op(1, 0)) == 2
    assert op(op(1, 0), 0) == 1
    # swapping the operands turns AGI on a - b (example 4) into this law,
    # which b - a does satisfy; probably the source of the catalog's AGII
    # claim, unconfirmed until the paper's text is in the repository
    assert holds(m, parse_law("(a + b) + c = (c + b) + a"))
