import pytest

from magma_lab import theorems
from magma_lab.core import Magma
from magma_lab.dsl import parse_law
from magma_lab.enumeration import (
    LATIN,
    EnumSpec,
    InfeasibleError,
    count,
    models_spec,
    tables,
)
from magma_lab.laws import ABELIAN, AGI, CA, CAI, CAII, GROUP, IN, LOOP, NE, H, A, C
from magma_lab.properties import holds
from magma_lab.theorems import (
    ALL_MAGMAS,
    BY_ID,
    CATALOG,
    QUASIGROUPS,
    Branch,
    TheoremSpec,
    _imp,
    verify_theorem,
    verify_theorems,
)

from reference import ref_holds


def test_catalog_shape():
    assert [t.id for t in CATALOG] == [f"T{i}" for i in range(1, 12)]
    domains = {t.id: t.domain for t in CATALOG}
    for tid in ("T1", "T2", "T3", "T4", "T5", "T6", "T7"):
        assert domains[tid] == ALL_MAGMAS
    for tid in ("T8", "T9", "T10", "T11"):
        assert domains[tid] == QUASIGROUPS
    assert {t.id: len(t.branches) for t in CATALOG} == {
        "T1": 1, "T2": 1, "T3": 1, "T4": 4, "T5": 10, "T6": 1,
        "T7": 1, "T8": 1, "T9": 1, "T10": 1, "T11": 8,
    }
    assert BY_ID["T5"].kind == "equivalence"
    assert BY_ID["T7"].kind == "implication"


def test_t11_omits_agi():
    tags = {p.tag for br in BY_ID["T11"].branches for p in br.premises}
    assert "AGI" not in tags
    assert {"CAI", "CAII", "AGII", "R"} <= tags


def test_all_theorems_verify_order_2():
    reports = verify_theorems(CATALOG, 2)
    assert all(r.verified for r in reports)
    by_domain = {r.theorem.domain: r.structures_examined for r in reports}
    assert by_domain[ALL_MAGMAS] == 17  # 1 + 16
    assert by_domain[QUASIGROUPS] == 3  # 1 + 2


def test_verify_single_theorem():
    rep = verify_theorem("T7", 3)
    assert rep.verified
    assert rep.structures_examined == 19700
    assert rep.counterexample is None
    assert rep.branch is None


def test_t8_over_latin_order_4():
    rep = verify_theorem("T8", 4)
    assert rep.verified
    assert rep.structures_examined == 591  # 1 + 2 + 12 + 576


def test_counterexample_detection_is_deterministic():
    bogus = TheoremSpec(
        "X1", "implication", ALL_MAGMAS,
        "commutativity forces associativity (it does not)",
        (Branch("{C} => {A}", (C,), (A,)),),
    )
    rep = verify_theorems([bogus], 2)[0]
    assert not rep.verified
    assert rep.branch == "{C} => {A}"
    assert rep.counterexample.rows() == [[1, 0], [0, 0]]
    # examined counts the whole domain, not only the models of {C}
    assert rep.structures_examined == 17


def test_no_catalog_branch_passes_vacuously():
    # every law holds in the one-element magma, and a sweep starts at order 1,
    # so each branch has at least one premise model
    trivial = Magma(1, (0,))
    for spec in CATALOG:
        for br in spec.branches:
            for law in br.premises + br.conclusions:
                assert holds(trivial, law) and ref_holds(trivial, law), (br.label, law.tag)
            models = list(tables(models_spec(br.premises, 1, spec.domain == QUASIGROUPS)))
            assert models == [trivial], (spec.id, br.label)
    with pytest.raises(ValueError, match="max order must be positive"):
        verify_theorems(CATALOG, 0)


def test_unknown_id():
    with pytest.raises(ValueError, match="unknown theorem id"):
        verify_theorem("T99", 2)


def test_feasibility_caps():
    with pytest.raises(InfeasibleError, match="T1: order 5 exceeds the all-magmas cap 4"):
        verify_theorem("T1", 5)
    with pytest.raises(InfeasibleError, match="T8: order 6 exceeds the latin-squares cap 5"):
        verify_theorem("T8", 6)


def test_caps_are_checked_before_any_stream_opens(monkeypatch):
    def opened(*args, **kwargs):
        raise AssertionError("a stream was opened")

    monkeypatch.setattr(theorems, "tables", opened)
    monkeypatch.setattr(theorems, "count", opened)
    with pytest.raises(InfeasibleError, match="T1: .*all-magmas cap 4"):
        verify_theorems(CATALOG, 5)
    quasigroups = [t for t in CATALOG if t.domain == QUASIGROUPS]
    assert [t.id for t in quasigroups] == ["T8", "T9", "T10", "T11"]
    for spec in quasigroups:
        with pytest.raises(InfeasibleError, match=f"{spec.id}: .*latin-squares cap 5"):
            verify_theorems([spec], 6)


@pytest.mark.parametrize("theorem_id, max_order", [("T1", 4), ("T6", 6)])
def test_sweeps_reach_the_caps_of_their_premise_streams(theorem_id, max_order):
    # T1's premises A, C prune all magmas, so it reaches order 4; T6's H
    # selects Latin squares and A, C prune them, so it reaches order 6
    rep = verify_theorem(theorem_id, max_order)
    assert rep.verified
    assert rep.structures_examined == sum(n ** (n * n) for n in range(1, max_order + 1))


def test_quasigroup_cai_implies_associativity_consistency():
    # cross-theorem sanity: every Latin square of order <= 4 with CAII
    # also satisfies CAI and A
    for order in (1, 2, 3, 4):
        for m in tables(EnumSpec(order=order, mode=LATIN)):
            if holds(m, CAII):
                assert holds(m, CAI)
                assert holds(m, A)


def test_branch_labels_readable():
    assert BY_ID["T1"].branches[0].label == "{A,C} => {CAI,CAII,AGI,AGII,R}"
    labels = [br.label for br in BY_ID["T11"].branches]
    assert "{H,CAI} => {ABELIAN}" in labels
    assert "{ABELIAN} => {H,CAI}" in labels


def _domain(domain, order):
    """The whole domain at one order, in stream order."""
    return tables(EnumSpec(order, LATIN if domain == QUASIGROUPS else ALL_MAGMAS))


@pytest.mark.parametrize("domain, max_order", [(ALL_MAGMAS, 3), (QUASIGROUPS, 4)])
def test_premise_models_match_filtered_domain(domain, max_order):
    # oracle: the whole domain filtered by the naive laws, never remembered counts
    premise_sets = {br.premises for t in CATALOG if t.domain == domain for br in t.branches}
    for order in range(1, max_order + 1):
        whole = list(_domain(domain, order))
        for premises in premise_sets:
            want = [m for m in whole if all(ref_holds(m, p) for p in premises)]
            got = list(tables(models_spec(premises, order, domain == QUASIGROUPS)))
            assert got == want, (order, [p.tag for p in premises])


IDEMPOTENT = parse_law("a + a = a")
# holds in groups of order 1 and 2, fails in Z3 and in the order-2 monoid
# that is not a group, so a GROUP or ABELIAN premise that lost IN shows
SQUARES_AGREE = parse_law("a + a = b + b")


def _false(tid, domain, *branches):
    return TheoremSpec(tid, "implication", domain, "false on purpose",
                       tuple(_imp(p, c) for p, c in branches))


FALSE_THEOREMS = {
    ALL_MAGMAS: [
        _false("F1", ALL_MAGMAS, ((), (C,))),
        _false("F2", ALL_MAGMAS, ((NE,), (A,))),
        _false("F3", ALL_MAGMAS, ((IN,), (A,))),
        _false("F4", ALL_MAGMAS, ((LOOP,), (IDEMPOTENT,))),
        _false("F5", ALL_MAGMAS, ((GROUP,), (SQUARES_AGREE,))),
        _false("F6", ALL_MAGMAS, ((ABELIAN,), (SQUARES_AGREE,))),
        _false("F7", ALL_MAGMAS, ((H,), (C,))),
        # the second branch fails at order 2, the first only at order 3
        _false("F8", ALL_MAGMAS, ((NE,), (A,)), ((), (C,))),
        # CA and H select the same tables, by different streams; F7 puts the
        # H stream first, so the tie has to be settled by branch order
        _false("F9", ALL_MAGMAS, ((CA,), (C,)), ((H,), (C,))),
    ],
    QUASIGROUPS: [
        _false("Q1", QUASIGROUPS, ((), (C,))),
        _false("Q2", QUASIGROUPS, ((NE,), (A,))),
        _false("Q3", QUASIGROUPS, ((IN,), (A,))),
        _false("Q4", QUASIGROUPS, ((LOOP,), (A,))),
        _false("Q5", QUASIGROUPS, ((GROUP,), (IDEMPOTENT,))),
        _false("Q6", QUASIGROUPS, ((ABELIAN,), (IDEMPOTENT,))),
        _false("Q7", QUASIGROUPS, ((AGI,), (NE,))),
        # every Latin square is cancellative; Q1 puts the plain Latin stream
        # first, so the tie has to be settled by branch order
        _false("Q8", QUASIGROUPS, ((CA,), (C,)), ((), (C,))),
    ],
}


def _naive_first_failure(spec, max_order):
    """First hit in (order, table, branch) order over the whole domain."""
    for order in range(1, max_order + 1):
        for m in _domain(spec.domain, order):
            for br in spec.branches:
                if all(ref_holds(m, p) for p in br.premises) and not all(
                    ref_holds(m, c) for c in br.conclusions
                ):
                    return m, br.label
    return None, None


@pytest.mark.parametrize("domain, max_order", [(ALL_MAGMAS, 3), (QUASIGROUPS, 5)])
def test_first_counterexample_matches_naive_scan(domain, max_order):
    specs = FALSE_THEOREMS[domain]
    for spec in specs:
        assert len({br.label for br in spec.branches}) == len(spec.branches)
    for spec, rep in zip(specs, verify_theorems(specs, max_order)):
        want = _naive_first_failure(spec, max_order)
        assert want[0] is not None, spec.id
        assert (rep.counterexample, rep.branch) == want, spec.id
    # the tie is real: both branches of the last theorem fail first on one table
    last = specs[-1]
    firsts = [_naive_first_failure(TheoremSpec(last.id, last.kind, domain, "", (br,)), max_order)
              for br in last.branches]
    assert firsts[0][0] == firsts[1][0]


def test_latin_square_count_matches_enumeration(latin_stream_lengths):
    got = [count(EnumSpec(n, LATIN)) for n in range(1, 6)]
    assert got == latin_stream_lengths
    assert got == [1, 2, 12, 576, 161280]


def test_quasigroup_theorems_verify_order_5():
    reports = verify_theorems([t for t in CATALOG if t.domain == QUASIGROUPS], 5)
    assert [r.theorem.id for r in reports] == ["T8", "T9", "T10", "T11"]
    assert all(r.verified for r in reports)
    assert {r.structures_examined for r in reports} == {161871}
