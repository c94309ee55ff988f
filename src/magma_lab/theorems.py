"""Catalog of implications between the built-in laws, checked exhaustively.

Each entry states that every structure in its domain satisfying the premise
laws also satisfies the conclusion laws. An equivalence is stored as the two
implication directions, one branch each. Verification enumerates, at each
order up to a given one, only the models of each branch's premises: H or the
quasigroup domain selects Latin squares, equational premises prune the
backtracking, and NE, IN and CA filter the stream. It reports the first
counterexample in the domain, if any.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .core import Magma, _excerpt_int
from .enumeration import (
    ALL_MAGMAS,
    LATIN,
    EnumSpec,
    InfeasibleError,
    count,
    models_spec,
    tables,
    validate_spec,
)
from .laws import A, ABELIAN, AGI, AGII, C, CA, CAI, CAII, H, IN, LOOP, NE, R, Law
from .properties import holds

QUASIGROUPS = "quasigroups"


@dataclass(frozen=True)
class Branch:
    label: str
    premises: tuple[Law, ...]
    conclusions: tuple[Law, ...]


@dataclass(frozen=True)
class TheoremSpec:
    id: str
    kind: str  # "implication" or "equivalence"
    domain: str  # ALL_MAGMAS or QUASIGROUPS
    statement: str
    branches: tuple[Branch, ...]


@dataclass(frozen=True)
class VerificationReport:
    theorem: TheoremSpec
    max_order: int
    structures_examined: int
    counterexample: Magma | None
    branch: str | None
    elapsed: float

    @property
    def verified(self) -> bool:
        return self.counterexample is None


def _imp(premises, conclusions) -> Branch:
    label = "{%s} => {%s}" % (
        ",".join(p.tag for p in premises),
        ",".join(c.tag for c in conclusions),
    )
    return Branch(label, tuple(premises), tuple(conclusions))


def theorem_catalog() -> tuple[TheoremSpec, ...]:
    t5 = []
    for x in (CAI, CAII, AGI, AGII, R):
        t5.append(_imp((NE, IN, x), (ABELIAN,)))
        t5.append(_imp((ABELIAN,), (NE, IN, x)))
    t11 = []
    for x in (CAI, CAII, AGII, R):
        t11.append(_imp((H, x), (ABELIAN,)))
        t11.append(_imp((ABELIAN,), (H, x)))
    return (
        TheoremSpec(
            "T1", "implication", ALL_MAGMAS,
            "a commutative semigroup satisfies CAI, CAII, AGI, AGII and R",
            (_imp((A, C), (CAI, CAII, AGI, AGII, R)),),
        ),
        TheoremSpec(
            "T2", "implication", ALL_MAGMAS,
            "an abelian group has a Latin Cayley table",
            (_imp((ABELIAN,), (H,)),),
        ),
        TheoremSpec(
            "T3", "implication", ALL_MAGMAS,
            "a magma with a neutral element and AGII is a commutative semigroup",
            (_imp((NE, AGII), (A, C)),),
        ),
        TheoremSpec(
            "T4", "implication", ALL_MAGMAS,
            "a magma with a neutral element and any of CAI, CAII, AGI or R "
            "is a commutative semigroup",
            tuple(_imp((NE, x), (A, C)) for x in (CAI, CAII, AGI, R)),
        ),
        TheoremSpec(
            "T5", "equivalence", ALL_MAGMAS,
            "abelian groups are exactly the magmas with a neutral element, "
            "inverses, and any one of CAI, CAII, AGI, AGII or R",
            tuple(t5),
        ),
        TheoremSpec(
            "T6", "implication", ALL_MAGMAS,
            "an associative commutative quasigroup is an abelian group",
            (_imp((H, A, C), (ABELIAN,)),),
        ),
        TheoremSpec(
            "T7", "implication", ALL_MAGMAS,
            "a quasigroup is cancellative",
            (_imp((H,), (CA,)),),
        ),
        TheoremSpec(
            "T8", "implication", QUASIGROUPS,
            "a quasigroup with CAI is a loop",
            (_imp((H, CAI), (LOOP,)),),
        ),
        TheoremSpec(
            "T9", "implication", QUASIGROUPS,
            "a quasigroup with CAII is a loop",
            (_imp((H, CAII), (LOOP,)),),
        ),
        TheoremSpec(
            "T10", "implication", QUASIGROUPS,
            "a quasigroup with R is a loop",
            (_imp((H, R), (LOOP,)),),
        ),
        TheoremSpec(
            "T11", "equivalence", QUASIGROUPS,
            "abelian groups are exactly the quasigroups with any one of "
            "CAI, CAII, AGII or R",
            tuple(t11),
        ),
    )


CATALOG = theorem_catalog()
BY_ID = {t.id: t for t in CATALOG}


def verify_theorems(specs, max_order: int) -> list[VerificationReport]:
    """Check several theorems, streaming the models of each distinct premise
    set once per order for every branch that shares it.

    The counterexample is the earliest failing model in (order, flat table)
    order across a theorem's branches, the first branch in catalog order on
    a tie. Examined counts the whole domain, not only the premise models.

    Before any order runs, the Latin squares a quasigroup domain counts and
    every premise stream must pass validate_spec at max_order; a failure is
    raised as InfeasibleError naming the theorem."""
    if max_order < 1:
        raise ValueError(f"max order must be positive, got {_excerpt_int(max_order)}")
    specs = list(specs)
    for spec in specs:
        quasi = spec.domain == QUASIGROUPS
        streams = [EnumSpec(max_order, LATIN)] if quasi else []
        streams += [models_spec(br.premises, max_order, quasi) for br in spec.branches]
        try:
            for es in streams:
                validate_spec(es)
        except InfeasibleError as exc:
            raise InfeasibleError(f"{spec.id}: {exc}") from None
    reports: dict[str, VerificationReport] = {}
    for domain in (ALL_MAGMAS, QUASIGROUPS):
        batch = [s for s in specs if s.domain == domain]
        if not batch:
            continue
        started = time.monotonic()
        # theorem id -> ((order, table, branch index), model, label) of its
        # first failure
        first: dict[str, tuple] = {}
        examined = 0
        for order in range(1, max_order + 1):
            examined += (
                count(EnumSpec(order, LATIN)) if domain == QUASIGROUPS else order ** (order * order)
            )
            # premise enumeration -> (theorem id, branch index, branch) of its users
            groups: dict[EnumSpec, list] = {}
            for spec in batch:
                if spec.id not in first:
                    for i, br in enumerate(spec.branches):
                        pspec = models_spec(br.premises, order, domain == QUASIGROUPS)
                        groups.setdefault(pspec, []).append((spec.id, i, br))
            for pspec, users in groups.items():
                # The premises hold by construction. CA is never assumed for
                # a Latin stream: that H implies CA is T7, which is under test.
                seed = {q.tag: True for q in pspec.constraints}
                if pspec.mode == LATIN:
                    seed[H.tag] = True
                for m in tables(pspec):
                    # a branch drops out once its theorem fails earlier
                    users = [u for u in users
                             if u[0] not in first or (order, m.table, u[1]) < first[u[0]][0]]
                    if not users:
                        break
                    memo = dict(seed)
                    for tid, i, br in users:
                        if not all(holds(m, c, memo) for c in br.conclusions):
                            hit = ((order, m.table, i), m, br.label)
                            first[tid] = min(first.get(tid, hit), hit)
        elapsed = time.monotonic() - started
        for spec in batch:
            _, cx, label = first.get(spec.id, (None, None, None))
            reports[spec.id] = VerificationReport(
                spec, max_order, examined, cx, label, elapsed
            )
    return [reports[s.id] for s in specs]


def verify_theorem(theorem_id: str, max_order: int) -> VerificationReport:
    """Verify one theorem up to max_order."""
    spec = BY_ID.get(theorem_id)
    if spec is None:
        raise ValueError(f"unknown theorem id {theorem_id!r}")
    return verify_theorems([spec], max_order)[0]
