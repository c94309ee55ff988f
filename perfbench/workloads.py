"""The benchmark's workloads: fixed CLI batches and a seeded request session.

A workload is a list of ``Op``s, one ``magma_lab.cli.main`` call each. Every
op carries its own output check, so a wrong answer is counted as a failure
instead of being timed. Only ``session`` reads the seed; the batch
workloads are the same commands on every run.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracle

EXPECTED = json.loads((Path(__file__).with_name("expected.json")).read_text(encoding="utf-8"))

# The enum workload's enumerations use two pool workers, the core count of
# the machine it was sized on; keep it at nproc so the pool is exercised
# without oversubscribing.
STREAM_WORKERS = "2"


@dataclass
class Op:
    """One CLI call. ``check(rc, text, digest)`` returns an error or None;
    ``keep_text`` is off for outputs checked by digest alone."""

    argv: list
    check: Callable
    keep_text: bool = True


def _exact(expected_text: str, expected_rc: int = 0) -> Callable:
    digest = hashlib.sha256(expected_text.encode()).hexdigest()

    def check(rc, text, got_digest):
        if rc != expected_rc:
            return f"exit code {rc}, expected {expected_rc}"
        if got_digest != digest:
            return "output differs from the expected text"
        return None

    return check


def _lazy_exact(make_expected: Callable) -> Callable:
    """Like _exact, but the expected (text, rc) is computed by the oracle on
    first use and reused for every later run of the same request."""
    cache = []

    def check(rc, text, got_digest):
        if not cache:
            cache.append(_exact(*make_expected()))
        return cache[0](rc, text, got_digest)

    return check


def _theorem_text(rows, max_order, total) -> str:
    lines = [
        f"{tid}: PASS  {domain} up to order {max_order}, {examined} structures"
        for tid, domain, examined in rows
    ]
    return "\n".join(lines + [f"{len(rows)}/{total} verified"]) + "\n"


def theorem_sweep(seed: int, workdir: Path) -> list:
    all3 = [(f"T{i}", "all-magmas", 19700) for i in range(1, 8)]
    quasi3 = [(f"T{i}", "quasigroups", 15) for i in range(8, 12)]
    quasi5 = [(f"T{i}", "quasigroups", 161871) for i in range(8, 12)]
    return [
        Op(["theorems", "--max-order", "3"], _exact(_theorem_text(all3 + quasi3, 3, 11))),
        Op(["theorems", "--max-order", "5", "--quasigroups"], _exact(_theorem_text(quasi5, 5, 4))),
    ]


def _counts() -> list:
    return [
        Op(["count", "--order", "5", "--mode", "latin"], _exact("161280\n")),
        Op(["count", "--order", "4", "--assume", "A"], _exact("3492\n")),
        Op(["count", "--order", "4", "--assume", "AGII"], _exact("2249\n")),
        Op(["count", "--order", "6", "--mode", "latin", "--assume", "CAI"], _exact("360\n")),
    ]


def _digest_check(expected_digest: str, tables: int) -> Callable:
    def check(rc, text, got_digest):
        if rc != 0:
            return f"exit code {rc}, expected 0"
        if not text.endswith(f"\n{tables} tables\n"):
            return f"last line is not '{tables} tables'"
        if got_digest != expected_digest:
            return "output digest differs from the pinned one"
        return None

    return check


def _streams() -> list:
    digests = EXPECTED["enum_stream"]
    w = ["--workers", STREAM_WORKERS]
    return [
        Op(["enumerate", "--order", "5", "--mode", "latin"] + w,
           _digest_check(digests["latin5"], 161280), keep_text=False),
        Op(["enumerate", "--order", "6", "--mode", "latin", "--assume", "CAI", "--up-to-iso"] + w,
           _digest_check(digests["latin6_cai_iso"], 1)),
        Op(["enumerate", "--order", "4", "--mode", "latin", "--up-to-iso"] + w,
           _digest_check(digests["latin4_iso"], 35)),
    ]


def enum(seed: int, workdir: Path) -> list:
    """The count path of the backtracker, then the same backtracker writing
    tables through the worker pool. The order-6 CAI count and its up-to-iso
    enumeration differ only by canonical_form."""
    return _counts() + _streams()


# --- session ----------------------------------------------------------------

SESSION_ORDERS = range(2, 8)
TABLE_KINDS = ("cyclic", "cyclic", "isotope", "subtraction", "random", "random", "random", "random")
LAW_NAMES = tuple(oracle.NAMED_EQUATIONS) + oracle.STRUCTURAL
VARIABLES = "abcdefghuvwxyz"

# How one session pass is made up. No record of real magma-lab use exists,
# so the mix is built, not measured. Each rule makes one predicted
# layer-to-metric link observable:
#   1. check, classify and canon each run the same number of times on every
#      table order 2-7 (20, 4 and 3 per order);
#   2. check plus classify are 144 of the 204 requests (over 2/3), so
#      requests near the median are mostly these, which run parse_table,
#      parse_law, check_law and classify (p50);
#   3. the exhausting H searches are 6 of 204 (about 3%, three times the 1%
#      above the p99 rank) and slower than any other request, so the p99
#      request is a find_model request on every seed (p99);
#   4. canon, quick searches and examples share the remaining 54 equally.
CHECKS_PER_ORDER, CLASSIFY_PER_ORDER, CANON_PER_ORDER = 20, 4, 3
EXAMPLES_PER_PASS = 18

# Fixed search requests, pinned with their outputs in expected.json; each
# runs once per pass. The slow ones assume H plus one identity law each, go
# to order 5 and exhaust every order (about 0.1-0.2 s each); the quick ones
# go to order 3, or assume H and stop at order 4 or at an early model.
SLOW_SEARCHES = [
    (["--assume", "H,CAI", "--refute", "ABELIAN", "--orders", "1..5"], ["H", "CAI"], "ABELIAN"),
    (["--assume", "H,A", "--refute", "C", "--orders", "1..5"], ["H", "A"], "C"),
    (["--assume", "H,AGII", "--refute", "A", "--orders", "1..5"], ["H", "AGII"], "A"),
    (["--assume", "H,R", "--refute", "LOOP", "--orders", "1..5"], ["H", "R"], "LOOP"),
    (["--assume", "H,CAII", "--refute", "CAI", "--orders", "1..5"], ["H", "CAII"], "CAI"),
    (["--assume", "H,AGI", "--refute", "CA", "--orders", "1..5"], ["H", "AGI"], "CA"),
]
QUICK_SEARCHES = [
    (["--assume", "H,AGI", "--refute", "NE", "--orders", "1..5"], ["H", "AGI"], "NE"),
    (["--assume", "H,C", "--refute", "A", "--orders", "1..5"], ["H", "C"], "A"),
    (["--assume", "H,R", "--refute", "C", "--orders", "1..4"], ["H", "R"], "C"),
    (["--assume", "H,CAII", "--refute", "A", "--orders", "1..4", "--json"], ["H", "CAII"], "A"),
    (["--assume", "H,AGII", "--refute", "C", "--orders", "1..4"], ["H", "AGII"], "C"),
    (["--assume", "A", "--refute", "C", "--orders", "1..3"], ["A"], "C"),
    (["--assume", "C", "--refute", "A", "--orders", "1..3", "--json"], ["C"], "A"),
    (["--assume", "AGII", "--refute", "A", "--orders", "1..3"], ["AGII"], "A"),
    (["--assume", "AGI", "--refute", "A", "--orders", "1..3"], ["AGI"], "A"),
    (["--assume", "CAI", "--refute", "C", "--orders", "1..3"], ["CAI"], "C"),
    (["--assume", "CAII", "--refute", "C", "--orders", "1..3", "--json"], ["CAII"], "C"),
    (["--assume", "R", "--refute", "A", "--orders", "1..3", "--json"], ["R"], "A"),
    (["--assume", "A", "--refute", "H", "--orders", "1..3"], ["A"], "H"),
    (["--assume", "AGI", "--refute", "CAI", "--orders", "1..3"], ["AGI"], "CAI"),
    (["--assume", "NE,AGII", "--refute", "A", "--orders", "1..3"], ["NE", "AGII"], "A"),
    (["--spec", "assume A, C; refute CAI; orders 1..3"], ["A", "C"], "CAI"),
    (["--spec", "assume NE, A; refute IN; orders 1..3"], ["NE", "A"], "IN"),
    (["--assume", "C", "--refute", "a + (b + c) = (a + b) + c", "--orders", "1..3"],
     ["C"], "a + (b + c) = (a + b) + c"),
]
SEARCHES = SLOW_SEARCHES + QUICK_SEARCHES


def _perm(rng, n):
    p = list(range(n))
    rng.shuffle(p)
    return p


def make_table(rng, kind: str, n: int) -> list:
    """Rows of one generated table. Relabeled cyclic groups, their isotopes
    (Latin, rarely groups) and subtraction tables satisfy many laws, so
    checks on them scan every assignment; random tables fail early."""
    if kind == "random":
        return [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
    if kind == "isotope":
        alpha, beta, gamma = _perm(rng, n), _perm(rng, n), _perm(rng, n)
        return [[gamma[(alpha[a] + beta[b]) % n] for b in range(n)] for a in range(n)]
    sign = 1 if kind == "cyclic" else -1
    p = _perm(rng, n)
    rows = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            rows[p[a]][p[b]] = p[(a + sign * b) % n]
    return rows


def _random_tree(rng, leaves):
    if len(leaves) == 1:
        return leaves[0]
    cut = rng.randrange(1, len(leaves))
    return (_random_tree(rng, leaves[:cut]), _random_tree(rng, leaves[cut:]))


def make_equation(rng, nvars: int) -> str:
    """A user law with nvars distinct variables, each once on each side in
    a different order and bracketing. It holds in every commutative
    semigroup, so it scans every assignment on a relabeled cyclic group."""
    names = rng.sample(VARIABLES, nvars)
    while True:
        lhs = _random_tree(rng, rng.sample(names, nvars))
        rhs = _random_tree(rng, rng.sample(names, nvars))
        if lhs != rhs:
            return f"{oracle.render_term(lhs)} = {oracle.render_term(rhs)}"


def _check_op(path: Path, laws, style: int, as_json: bool) -> Op:
    if style == 0:
        law_args = ["--law", ",".join(laws)]
    else:
        law_args = [arg for law in laws for arg in ("--law", law)]
    argv = ["check", "--table", str(path)] + law_args + (["--json"] if as_json else [])

    def make_expected():
        table = oracle.parse_cay(path.read_text(encoding="utf-8"))
        return oracle.expect_check(table, laws, as_json)

    return Op(argv, _lazy_exact(make_expected))


def _table_op(command: str, path: Path, as_json: bool) -> Op:
    expect = oracle.expect_classify if command == "classify" else oracle.expect_canon

    def make_expected():
        return expect(oracle.parse_cay(path.read_text(encoding="utf-8")), as_json)

    return Op([command, "--table", str(path)] + (["--json"] if as_json else []),
              _lazy_exact(make_expected))


def _search_op(args) -> Op:
    expected = EXPECTED["search"][" ".join(args)]
    return Op(["search"] + args, _exact(expected["text"], expected["rc"]))


def _examples_op(args) -> Op:
    return Op(["examples"] + args, _exact(EXPECTED["examples"][" ".join(args)]))


def session(seed: int, workdir: Path) -> list:
    """One pass of seeded requests, in a seeded order. How many requests of
    each type and order a pass holds is fixed (see the rules above); the
    seed picks the tables, laws, equations and example ids, so the latency
    mix is the same for every seed."""
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for n in SESSION_ORDERS:
        for k, kind in enumerate(TABLE_KINDS):
            path = workdir / f"t{n}_{k}.cay"
            text = f"# {kind} table of order {n}\n" + oracle.format_cay(make_table(rng, kind, n))
            path.write_text(text, encoding="utf-8")
            paths[n, k] = path
    ops = []
    for n in SESSION_ORDERS:
        for slot in range(CHECKS_PER_ORDER):
            path = paths[n, slot % len(TABLE_KINDS)]
            mix = slot % 3  # 0: a user law, 1: named laws, 2: one of each
            laws = []
            if mix != 0:
                laws += rng.sample(LAW_NAMES, 1 if mix == 2 else rng.randint(1, 3))
            if mix != 1:
                laws.append(make_equation(rng, 3 + (slot // 3) % 3))
            ops.append(_check_op(path, laws, slot % 2, slot % 4 == 0))
        for slot in range(CLASSIFY_PER_ORDER):
            ops.append(_table_op("classify", paths[n, (2 * slot + n) % len(TABLE_KINDS)], slot % 2 == 1))
        for slot in range(CANON_PER_ORDER):
            ops.append(_table_op("canon", paths[n, (2 * slot + n + 1) % len(TABLE_KINDS)], slot == 0))
    ops += [_search_op(args) for args, _, _ in SEARCHES]
    example_ids = sorted(k for k in EXPECTED["examples"] if k.startswith("--id "))
    for slot in range(EXAMPLES_PER_PASS):
        args = ([], ["--json"], rng.choice(example_ids).split())[slot % 3]
        ops.append(_examples_op(args))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "theorem-sweep": theorem_sweep,
    "enum": enum,
    "session": session,
}
