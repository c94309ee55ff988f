"""Pinned work counts per workload, and checks that wrong outputs are caught.

    python3 -m pytest -q perfbench

The counts come from one traced batch and repeat exactly from run to run.
A change that alters the amount of work a layer does (fewer holds calls,
fewer structures examined) must update these pins deliberately, which
shows the change even when wall time is too noisy to.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import child  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SESSION_SEED = 1

# Nonzero counts of one traced batch (session: one pass at SESSION_SEED).
PINNED = {
    "theorem-sweep": {
        "cli.main.calls": 2,
        "properties.holds.calls": 3656360,
        "enumeration.tables.yielded": 181586,
        "theorems.structures_examined": 181586,
    },
    "enum": {
        "cli.main.calls": 7,
        "core.format_table.calls": 161316,
        "core.canonical_form.calls": 936,
        "dsl.parse_law.calls": 4,
        "enumeration.tables.yielded": 161316,
        "enumeration.count.calls": 4,
        "enumeration.count.tables": 167381,
    },
    "session": {
        "cli.main.calls": 204,
        "core.parse_table.calls": 162,
        "core.format_table.calls": 22,
        "core.canonical_form.calls": 18,
        "dsl.parse_law.calls": 256,
        "dsl.parse_spec.calls": 2,
        "properties.holds.calls": 2163,
        "properties.check_law.calls": 230,
        "properties.classify.calls": 24,
        "enumeration.tables.yielded": 801,
        "search.find_model.calls": 24,
        "search.find_model.examined": 801,
        "structures.example_suite.calls": 18,
    },
}


def traced_counts(name: str, tmp_path: Path) -> dict:
    ops = workloads.WORKLOADS[name](SESSION_SEED, tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        batch = child.Batches()
        wall = batch.run(ops)
    finally:
        tracer.uninstall()
    assert batch.failed == 0, batch.errors
    metrics = tracer.metrics(wall, wall)
    return {k: metrics[k] for k in tracing.COUNTS if metrics[k]}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_work_counts_are_pinned(name, tmp_path):
    assert traced_counts(name, tmp_path) == PINNED[name]


def test_tracing_leaves_the_program_unwrapped(tmp_path):
    from magma_lab import cli, properties, theorems

    before = (cli.main, theorems.holds, properties.holds, cli.tables)
    traced_counts("session", tmp_path)
    assert (cli.main, theorems.holds, properties.holds, cli.tables) == before


def test_wrong_count_is_a_failure():
    op = workloads.Op(["count", "--order", "3", "--mode", "latin"], workloads._exact("13\n"))
    assert child.run_op(op)[2] is not None
    op = workloads.Op(["count", "--order", "3", "--mode", "latin"], workloads._exact("12\n"))
    assert child.run_op(op)[2] is None


def test_bad_input_exit_code_is_a_failure(tmp_path):
    op = workloads.Op(["check", "--table", str(tmp_path / "missing.cay"), "--law", "A"],
                      workloads._exact(""))
    assert "exit code 2" in child.run_op(op)[2]


def test_session_requests_pass_the_oracle_and_a_wrong_witness_fails(tmp_path):
    ops = workloads.session(SESSION_SEED, tmp_path)
    assert len(ops) == 204
    for op in ops:
        assert child.run_op(op)[2] is None, op.argv
    sub3 = oracle.Table([[0, 2, 1], [1, 0, 2], [2, 1, 0]])
    text, rc = oracle.expect_check(sub3, ["AGI", "AGII", "H"], False)
    assert text == "AGI: holds\nAGII: fails witness a=0 b=0 c=1\nH: holds\n" and rc == 1
    check = workloads._exact(text, rc)
    assert check(1, text.replace("c=1", "c=2"), "") is not None


def test_oracle_canon_is_the_least_relabeling():
    assert oracle.least_relabeling(oracle.Table([[1, 1], [1, 1]])) == [[0, 0], [0, 0]]
    sub3 = [[0, 2, 1], [1, 0, 2], [2, 1, 0]]
    assert oracle.least_relabeling(oracle.Table(sub3)) == sub3


def test_pinned_search_outputs_pass_the_oracle():
    for args, assume, refute in workloads.SEARCHES:
        text = workloads.EXPECTED["search"][" ".join(args)]["text"]
        assert oracle.check_search_output(text, assume, refute) is None, args


def test_pinned_examples_texts_pass_the_oracle():
    texts = workloads.EXPECTED["examples"]
    for key, text in texts.items():
        if "--json" not in key:
            assert oracle.check_examples_text(text) is None, key
    assert "AGII  documented True  computed False (exact)  MISMATCH" in texts["--id 5"]


def test_examples_check_flags_a_wrong_computed_verdict():
    text = workloads.EXPECTED["examples"]["--id 5"]
    bad = text.replace("AGI   documented False computed False", "AGI   documented False computed True ")
    assert bad != text and oracle.check_examples_text(bad) is not None


def test_session_mix_follows_its_stated_rules(tmp_path):
    kinds = [op.argv[0] for op in workloads.session(SESSION_SEED, tmp_path)]
    assert (kinds.count("check") + kinds.count("classify")) * 3 > 2 * len(kinds)
    assert len(workloads.SLOW_SEARCHES) > 0.02 * len(kinds)


def test_session_inputs_follow_the_seed(tmp_path):
    a = [op.argv[:1] + op.argv[3:] for op in workloads.session(3, tmp_path / "a")]
    b = [op.argv[:1] + op.argv[3:] for op in workloads.session(3, tmp_path / "b")]
    c = [op.argv[:1] + op.argv[3:] for op in workloads.session(4, tmp_path / "c")]
    assert a == b != c
    assert (tmp_path / "a" / "t7_0.cay").read_text() == (tmp_path / "b" / "t7_0.cay").read_text()
