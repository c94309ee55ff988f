"""End-to-end CLI tests, run in process through main(argv), except the one
that needs a real pipe."""

import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from magma_lab import cli, search
from magma_lab.cli import main
from magma_lab.core import Magma, format_table, magma_from_rows
from magma_lab.dsl import parse_spec
from magma_lab.enumeration import ALL_MAGMAS
from magma_lab.laws import LOOP, A, C
from magma_lab.schemas import SCHEMAS
from magma_lab.structures import zn_add
from magma_lab.theorems import TheoremSpec, _imp

from reference import ref_holds

ZN_SUB_3 = "3\n0 2 1\n1 0 2\n2 1 0\n"
ZN_ADD_2 = "2\n0 1\n1 0\n"
MEET_4 = "4\n0 0 0 0\n0 1 1 1\n0 1 2 2\n0 1 2 3\n"


@pytest.fixture
def write_table(tmp_path):
    def write(text, name="m.cay"):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return str(p)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_check_holds(write_table, capsys):
    path = write_table(ZN_SUB_3)
    code, out, _ = run(capsys, "check", "--table", path, "--law", "AGI")
    assert code == 0
    assert out == "AGI: holds\n"


def test_check_fails_with_witness(write_table, capsys):
    path = write_table(ZN_SUB_3)
    code, out, _ = run(capsys, "check", "--table", path, "--law", "CAI")
    assert code == 1
    assert out == "CAI: fails witness a=0 b=1 c=0\n"


def test_check_detail_rendering(write_table, capsys):
    path = write_table(MEET_4)
    code, out, _ = run(capsys, "check", "--table", path, "--law", "IN")
    assert code == 1
    assert out == "IN: fails witness a=0 [neutral=3]\n"


def test_check_comma_separated_laws(write_table, capsys):
    path = write_table(ZN_SUB_3)
    code, out, _ = run(capsys, "check", "--table", path, "--law", "AGI,H")
    assert code == 0
    assert out.splitlines() == ["AGI: holds", "H: holds"]


def test_check_table_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(ZN_SUB_3))
    code, out, _ = run(capsys, "check", "--table", "-", "--law", "H")
    assert code == 0
    assert out == "H: holds\n"


def test_check_law_file(write_table, tmp_path, capsys):
    path = write_table(ZN_ADD_2)
    law_file = tmp_path / "laws.txt"
    law_file.write_text("# both should hold\nH\n\na + b = b + a\n", encoding="utf-8")
    code, out, _ = run(capsys, "check", "--table", path, "--law-file", str(law_file))
    assert code == 0
    assert out.splitlines() == ["H: holds", "a + b = b + a: holds"]


def test_law_file_error_names_the_line(write_table, tmp_path, capsys):
    path = write_table(ZN_ADD_2)
    law_file = tmp_path / "laws.txt"
    law_file.write_text("# laws\nH\n\n   a + (b = c\n", encoding="utf-8")
    code, out, err = run(capsys, "check", "--table", path, "--law-file", str(law_file))
    assert (code, out) == (2, "")
    assert err == "error: line 4: unbalanced parenthesis at offset 10\n"


def test_table_and_law_file_cannot_both_read_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(ZN_SUB_3))
    code, out, err = run(capsys, "check", "--table", "-", "--law-file", "-")
    assert (code, out) == (2, "")
    assert err == "error: --table - and --law-file - cannot both read stdin\n"
    assert sys.stdin.read() == ZN_SUB_3


@pytest.mark.parametrize("argv, offset", [
    (("check", "--table", "ZN_SUB_3", "--law", "A, a+"), 3),
    (("count", "--order", "2", "--assume", "C,A,a+b=("), 9),
    (("search", "--assume", "A,", "--refute", "C", "--orders", "1..2"), 2),
    (("search", "--assume", "", "--refute", "C", "--orders", "1..2"), 0),
    (("enumerate", "--order", "2", "--assume", "C", "--assume", "A,,C"), 2),
])
def test_law_list_flag_offsets_point_into_the_value(write_table, capsys, argv, offset):
    argv = [write_table(ZN_SUB_3) if a == "ZN_SUB_3" else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.endswith(f" at offset {offset}\n")


@pytest.mark.parametrize("argv, message", [
    (("enumerate", "--order", "2", "--assume", "C", "--assume", "A,,C"),
     "--assume #2: expected a law at offset 2"),
    (("check", "--table", "ZN_SUB_3", "--law", "A", "--law", "C", "--law", " a+"),
     "--law #3: expected a law name or an equation at offset 1"),
    (("search", "--assume", "", "--refute", "C", "--orders", "1..2"),
     "--assume #1: expected a law at offset 0"),
])
def test_repeated_law_list_flag_errors_name_the_occurrence(write_table, capsys, argv, message):
    argv = [write_table(ZN_SUB_3) if a == "ZN_SUB_3" else a for a in argv]
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("flags, offset", [
    (("--assume", "A", "--refute", "C", "--orders", "1.." + "9" * 5000), 3),
    (("--spec", "assume A; refute C; orders 1.." + "9" * 5000), 30),
])
def test_an_order_too_large_for_int_is_a_syntax_error(capsys, flags, offset):
    assert run(capsys, "search", *flags) == (2, "", f"error: order too large at offset {offset}\n")


def test_check_without_laws(write_table, capsys):
    path = write_table(ZN_SUB_3)
    code, _, err = run(capsys, "check", "--table", path)
    assert code == 2
    assert err.startswith("error: no laws given")


def test_check_unknown_law_name(write_table, capsys):
    path = write_table(ZN_SUB_3)
    code, _, err = run(capsys, "check", "--table", path, "--law", "BOGUS")
    assert code == 2
    assert "unknown law name" in err


def test_check_json(write_table, capsys):
    path = write_table(ZN_SUB_3)
    code, out, _ = run(capsys, "check", "--table", path,
                       "--law", "AGI", "--law", "CAI", "--json")
    assert code == 1
    data = json.loads(out)
    jsonschema.validate(data, SCHEMAS["check"])
    assert data[0] == {"law": "AGI", "order": 3, "holds": True,
                       "witness": None, "detail": None}
    assert data[1]["holds"] is False
    assert data[1]["witness"] == {"a": 0, "b": 1, "c": 0}


def test_classify_text(write_table, capsys):
    path = write_table(ZN_ADD_2)
    code, out, _ = run(capsys, "classify", "--table", path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "order 2"
    assert lines[1] == ("classes: magma, commutative, semigroup, monoid, "
                        "group, abelian-group, quasigroup, loop")
    assert "two-sided neutral: 0" in lines
    assert "inverses: 0:0 1:1" in lines


def test_classify_json(write_table, capsys):
    path = write_table(MEET_4)
    code, out, _ = run(capsys, "classify", "--table", path, "--json")
    assert code == 0
    data = json.loads(out)
    jsonschema.validate(data, SCHEMAS["classify"])
    assert data["labels"] == ["magma", "commutative", "semigroup", "monoid"]
    assert data["neutrals"]["two_sided"] == 3
    assert data["inverses"] == [None, None, None, 3]


def test_canon_text(write_table, capsys):
    path = write_table("2\n1 0\n0 1\n")
    code, out, _ = run(capsys, "canon", "--table", path)
    assert code == 0
    assert out == "2\n0 1\n1 0\n"


def test_canon_json(write_table, capsys):
    path = write_table("2\n1 0\n0 1\n")
    code, out, _ = run(capsys, "canon", "--table", path, "--json")
    assert code == 0
    data = json.loads(out)
    jsonschema.validate(data, SCHEMAS["canon"])
    assert data == {"order": 2, "rows": [[0, 1], [1, 0]]}


def test_enumerate_latin_2_exact_bytes(capsys):
    code, out, _ = run(capsys, "enumerate", "--order", "2", "--mode", "latin")
    assert code == 0
    assert out == "2\n0 1\n1 0\n\n2\n1 0\n0 1\n\n2 tables\n"


def test_enumerate_text_builds_no_magma_and_writes_once_per_table(monkeypatch):
    built = []
    init = Magma.__init__

    def counted(self, order, table):
        built.append(order)
        init(self, order, table)

    writes = []

    class Out(io.StringIO):
        def write(self, s):
            writes.append(s)
            return super().write(s)

    monkeypatch.setattr(Magma, "__init__", counted)
    monkeypatch.setattr(sys, "stdout", Out())
    assert main(["enumerate", "--order", "4", "--mode", "latin"]) == 0
    assert built == []
    # one write per table, then print's two: the count and its newline
    assert len(writes) == 576 + 2
    assert {(w[:2], len(w)) for w in writes[:576]} == {("4\n", 35)}
    assert "".join(writes[576:]) == "576 tables\n"


def test_enumerate_emit(tmp_path, capsys):
    out_dir = tmp_path / "tables"
    code, out, _ = run(capsys, "enumerate", "--order", "2", "--mode", "latin",
                       "--emit", str(out_dir))
    assert code == 0
    assert out == f"wrote 2 tables to {out_dir}\n"
    assert (out_dir / "000000.cay").read_text() == "2\n0 1\n1 0\n"
    assert (out_dir / "000001.cay").read_text() == "2\n1 0\n0 1\n"


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, "enumerate", "--order", "2", "--json")
    assert code == 0
    data = json.loads(out)
    jsonschema.validate(data, SCHEMAS["enumerate"])
    assert data["count"] == 16
    assert len(data["tables"]) == 16


def test_enumerate_with_constraint(capsys):
    code, out, _ = run(capsys, "enumerate", "--order", "2",
                       "--assume", "C", "--json")
    assert code == 0
    assert json.loads(out)["count"] == 8


def test_enumerate_over_cap(capsys):
    code, _, err = run(capsys, "enumerate", "--order", "4")
    assert code == 2
    assert "exceeds the all-magmas cap 3" in err


@pytest.mark.parametrize("argv, message", [
    (("--order", "6", "--mode", "latin"), "exceeds the latin-squares cap 5"),
    (("--order", "4", "--assume", "a = a"), "exceeds the all-magmas cap 3"),
    (("--order", "4", "--assume", "a + b = a + b"), "exceeds the all-magmas cap 3"),
])
def test_count_over_cap_exits_2(capsys, argv, message):
    # a tautology prunes nothing, so it does not raise the cap
    code, out, err = run(capsys, "count", *argv)
    assert code == 2
    assert out == ""
    assert message in err
    assert "Traceback" not in err


def test_count_latin_4(capsys):
    code, out, _ = run(capsys, "count", "--order", "4", "--mode", "latin")
    assert code == 0
    assert out == "576\n"


def test_count_json(capsys):
    code, out, _ = run(capsys, "count", "--order", "3", "--mode", "latin", "--json")
    assert code == 0
    data = json.loads(out)
    jsonschema.validate(data, SCHEMAS["count"])
    assert data == {"order": 3, "mode": "latin-squares", "count": 12}


def test_count_assume_h_is_the_latin_generator(capsys):
    # H selects Latin squares, so it reaches order 4 where all magmas stop at 3
    assert run(capsys, "count", "--order", "4", "--assume", "H") == (0, "576\n", "")


@pytest.mark.parametrize("command", ["count", "enumerate"])
def test_json_reports_the_requested_mode(capsys, command):
    # LOOP streams Latin squares, but the report names the --mode asked for
    code, out, _ = run(capsys, command, "--order", "3", "--assume", "LOOP", "--json")
    assert code == 0
    data = json.loads(out)
    jsonschema.validate(data, SCHEMAS[command])
    assert (data["order"], data["mode"], data["count"]) == (3, "all-magmas", 3)


@pytest.mark.parametrize("command", [
    ("count", "--order", "3"),
    ("enumerate", "--order", "2"),
    ("search", "--assume", "C", "--refute", "A", "--orders", "1..2"),
])
@pytest.mark.parametrize("workers", ["0", "-1"])
def test_workers_below_one_exit_2(capsys, command, workers):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--workers", workers])
    assert exc.value.code == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert "--workers: must be at least 1" in cap.err


@pytest.mark.parametrize("argv, message", [
    (("theorems", "--id", "T1", "--quasigroups"), "not allowed with argument"),
    (("examples", "--emit", "DIR", "--json"), "not allowed with argument"),
])
def test_contradictory_flags_exit_2(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert message in cap.err


def test_search_found(capsys):
    code, out, _ = run(capsys, "search", "--assume", "H", "--assume", "AGI",
                       "--refute", "NE", "--orders", "1..3")
    assert code == 0
    assert out == ("found at order 3 after examining 5 structures\n"
                   "3\n0 2 1\n1 0 2\n2 1 0\n")


def test_search_exhausted(capsys):
    code, out, _ = run(capsys, "search", "--assume", "H,CAI",
                       "--refute", "ABELIAN", "--orders", "1..4")
    assert code == 1
    assert out == "exhausted orders 1..4; examined 22 structures\n"


def test_search_emit(tmp_path, capsys):
    target = tmp_path / "model.cay"
    code, _, _ = run(capsys, "search", "--assume", "H,AGI", "--refute", "NE",
                     "--orders", "1..3", "--emit", str(target))
    assert code == 0
    assert target.read_text() == "3\n0 2 1\n1 0 2\n2 1 0\n"


def test_search_spec_string(capsys):
    code, out, _ = run(capsys, "search", "--spec",
                       "assume H, AGI; refute NE; orders 1..3")
    assert code == 0
    assert out.startswith("found at order 3")


def test_search_spec_conflicts_with_flags(capsys):
    code, _, err = run(capsys, "search", "--spec",
                       "assume H; refute NE; orders 1..3", "--refute", "NE")
    assert code == 2
    assert "--spec excludes" in err


def test_search_json(capsys):
    code, out, _ = run(capsys, "search", "--assume", "H,AGI", "--refute", "NE",
                       "--orders", "1..3", "--json")
    assert code == 0
    data = json.loads(out)
    jsonschema.validate(data, SCHEMAS["search"])
    assert data["examined"] == 5
    assert data["order"] == 3
    assert data["found"] == [[0, 2, 1], [1, 0, 2], [2, 1, 0]]


def test_search_malformed_orders(capsys):
    code, _, err = run(capsys, "search", "--assume", "C", "--refute", "A",
                       "--orders", "3-1")
    assert code == 2
    assert "malformed order range" in err


@pytest.mark.parametrize("orders", ["0..2", "3..1"])
def test_search_rejects_empty_order_ranges(capsys, orders):
    code, out, err = run(capsys, "search", "--assume", "C", "--refute", "A", "--orders", orders)
    assert (code, out) == (2, "")
    assert err == "error: malformed order range at offset 0\n"


def test_search_orders_flag_allows_spaces(capsys):
    argv = ("search", "--assume", "C", "--refute", "A")
    assert run(capsys, *argv, "--orders", " 1..3") == run(capsys, *argv, "--orders", "1..3")


@pytest.mark.parametrize("flags, spec", [
    (("--assume", "H,CAI", "--refute", "ABELIAN", "--orders", "1..5"),
     "assume H,CAI; refute ABELIAN; orders 1..5"),
    (("--assume", "H", "--assume", " AGI ", "--refute", "NE", "--orders", " 1..3 "),
     "assume H, AGI; refute NE; orders  1..3"),
    (("--assume", "C, a + (b + c) = (a + b) + c", "--refute", "a+b=b+a", "--orders", "2 .. 4"),
     "ASSUME C, a + (b + c) = (a + b) + c; Refute a+b=b+a; orders 2 .. 4;"),
])
def test_flags_and_spec_build_equal_search_specs(flags, spec):
    args = cli.build_parser().parse_args(["search", *flags])
    assert cli._search_spec_from_args(args) == parse_spec(spec)


def test_search_cap_is_checked_without_building_every_order(capsys, monkeypatch):
    calls = []
    real = search.models_spec

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(search, "models_spec", counted)
    code, out, err = run(capsys, "search", "--assume", "A", "--refute", "NE",
                         "--orders", "1..1000000000000")
    assert code == 2
    assert out == ""
    assert "exceeds the all-magmas cap 4" in err
    assert len(calls) <= 2


def test_theorems_text(capsys):
    code, out, _ = run(capsys, "theorems", "--max-order", "2")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 12
    assert lines[0] == "T1: PASS  all-magmas up to order 2, 17 structures"
    assert all(": PASS" in line for line in lines[:11])
    assert lines[-1] == "11/11 verified"


def test_theorems_quasigroups(capsys):
    code, out, _ = run(capsys, "theorems", "--max-order", "4", "--quasigroups")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "T8: PASS  quasigroups up to order 4, 591 structures"
    assert lines[-1] == "4/4 verified"


def test_theorems_by_id(capsys):
    code, out, _ = run(capsys, "theorems", "--max-order", "2",
                       "--id", "T7", "--id", "T8")
    assert code == 0
    assert out.splitlines()[-1] == "2/2 verified"


def test_theorems_unknown_id(capsys):
    code, _, err = run(capsys, "theorems", "--id", "T99")
    assert code == 2
    assert "unknown theorem ids: T99" in err


def test_theorems_json(capsys):
    code, out, _ = run(capsys, "theorems", "--max-order", "2", "--json", "--timings")
    assert code == 0
    data = json.loads(out)
    jsonschema.validate(data, SCHEMAS["theorems"])
    assert [item["id"] for item in data] == [f"T{i}" for i in range(1, 12)]
    assert all(item["verified"] for item in data)
    assert all("elapsed" in item for item in data)


def test_theorems_over_cap(capsys):
    code, _, err = run(capsys, "theorems", "--max-order", "5")
    assert code == 2
    assert "T1: order 5 exceeds the all-magmas cap 4" in err


@pytest.mark.parametrize("argv", [("--max-order", "0"), ("--max-order", "-2", "--json")])
def test_theorems_reject_empty_sweep(capsys, argv):
    # a sweep over no structures would verify every theorem vacuously
    code, out, err = run(capsys, "theorems", *argv)
    assert code == 2
    assert out == ""
    assert "max order must be positive" in err


def test_theorems_bad_cap_override(capsys, monkeypatch):
    monkeypatch.setenv("MAGMA_LAB_MAX_ORDER", "zap")
    code, _, err = run(capsys, "theorems", "--max-order", "2")
    assert code == 2
    assert "bad MAGMA_LAB_MAX_ORDER value 'zap'" in err


def test_enumerate_into_closed_pipe_is_quiet():
    # enumerate --order 3 writes about 400 KB, more than a pipe buffer holds,
    # so the writer meets the closed pipe while it is still printing
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    with subprocess.Popen(
        [sys.executable, "-c",
         "import sys; from magma_lab.cli import main; sys.exit(main())",
         "enumerate", "--order", "3"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as writer:
        assert writer.stdout.readline() == b"3\n"
        writer.stdout.close()
        err = writer.stderr.read()
        code = writer.wait(timeout=60)
    assert err == b""
    assert code == 0


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "magma_lab", "count", "--order", "3", "--mode", "latin"],
        capture_output=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, b"12\n", b"")


def test_examples_text(capsys):
    code, out, _ = run(capsys, "examples")
    assert code == 0
    lines = out.splitlines()
    assert "example 5: zn_rsub(3) [finite]" in lines
    assert "  AGII  documented True  computed False (exact)  MISMATCH" in lines


def test_examples_single_id(capsys):
    code, out, _ = run(capsys, "examples", "--id", "7")
    assert code == 0
    assert out.startswith("example 7: proj1(2) [finite]")
    assert "note: no two-sided neutral" in out
    assert "MISMATCH" not in out


def test_examples_unknown_id(capsys):
    code, _, err = run(capsys, "examples", "--id", "99")
    assert code == 2
    assert "no example numbered 99" in err


def test_examples_id_0_is_not_the_whole_catalog(capsys):
    code, out, err = run(capsys, "examples", "--id", "0")
    assert code == 2
    assert out == ""
    assert "no example numbered 0" in err


def test_search_loop_reaches_the_latin_cap(capsys):
    code, out, _ = run(capsys, "search", "--assume", "LOOP", "--refute", "A",
                       "--orders", "1..5", "--json")
    assert code == 0
    data = json.loads(out)
    jsonschema.validate(data, SCHEMAS["search"])
    assert data["assume"] == ["LOOP"]
    assert data["order"] == 5
    found = magma_from_rows(data["found"])
    assert ref_holds(found, LOOP)
    assert not ref_holds(found, A)


def test_examples_json(capsys):
    code, out, _ = run(capsys, "examples", "--json")
    assert code == 0
    data = json.loads(out)
    jsonschema.validate(data, SCHEMAS["examples"])
    assert len(data) == 11
    flagged = {item["example"]: item["mismatches"] for item in data
               if item["mismatches"]}
    assert flagged == {5: ["AGII"], 6: ["NE"]}


def test_examples_emit(tmp_path, capsys):
    out_dir = tmp_path / "catalog"
    code, out, _ = run(capsys, "examples", "--emit", str(out_dir))
    assert code == 0
    assert out == f"wrote 8 tables to {out_dir}\n"
    written = sorted(p.name for p in out_dir.iterdir())
    assert written == [
        "chain_join_4.cay", "chain_meet_4.cay", "proj1_2.cay", "proj2_2.cay",
        "trivalent_equiv.cay", "zn_add_5.cay", "zn_rsub_3.cay", "zn_sub_3.cay",
    ]


def test_missing_table_file(capsys):
    code, _, err = run(capsys, "check", "--table", "/no/such/file.cay",
                       "--law", "A")
    assert code == 2
    assert err.startswith("error:")


def test_malformed_table(write_table, capsys):
    path = write_table("2\n0 1\n")
    code, _, err = run(capsys, "classify", "--table", path)
    assert code == 2
    assert "expected 2 rows, found 1" in err


def test_enumerate_workers_agree(capsys):
    _, base, _ = run(capsys, "enumerate", "--order", "3", "--mode", "latin")
    _, par, _ = run(capsys, "enumerate", "--order", "3", "--mode", "latin",
                    "--workers", "2")
    assert par == base


def test_constrained_enumerate_workers_agree(capsys):
    argv = ("enumerate", "--order", "4", "--assume", "AGII")
    code, base, _ = run(capsys, *argv, "--workers", "1")
    assert code == 0
    assert base.endswith("\n2249 tables\n")
    assert run(capsys, *argv, "--workers", "2")[1] == base


LONG_CHAIN = " + ".join(["a"] * 3000) + " = a"
WIDE = " + ".join("abcdefghijklmno") + " = a"  # 15 variables: 3^15 assignments at order 3


def test_long_chain_law_checks(write_table, capsys):
    path = write_table(ZN_ADD_2)
    code, out, err = run(capsys, "check", "--table", path, "--law", LONG_CHAIN)
    assert code == 1
    assert out == f"{LONG_CHAIN}: fails witness a=1\n"
    assert "Traceback" not in err


def test_long_chain_law_searches_alike_at_any_worker_count(capsys):
    argv = ("search", "--assume", LONG_CHAIN, "--refute", "A", "--orders", "1..3")
    code, base, err = run(capsys, *argv, "--workers", "1")
    assert code == 0
    assert base.startswith("found at order 3 after examining 7 structures\n")
    assert run(capsys, *argv, "--workers", "2") == (0, base, err)


def test_deep_parentheses_exit_2(write_table, capsys):
    path = write_table(ZN_ADD_2)
    law = "(" * 2000 + "a" + ")" * 2000 + " = a"
    code, out, err = run(capsys, "check", "--table", path, "--law", law)
    assert code == 2
    assert out == ""
    assert "parentheses nested too deeply at offset 100" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("count", "--order", "3", "--assume", WIDE),
    ("check", "--table", "ZN_SUB_3", "--law", WIDE),
    ("search", "--assume", WIDE, "--refute", "A", "--orders", "1..3"),
    ("search", "--assume", "A", "--refute", WIDE, "--orders", "1..3"),
])
def test_assignment_cap_exits_2(write_table, capsys, argv):
    argv = [write_table(ZN_SUB_3) if a == "ZN_SUB_3" else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "14348907 assignments at order 3 exceed the cap of 10000000" in err
    assert "Traceback" not in err


def test_theorems_failing_text(capsys, monkeypatch):
    bogus = TheoremSpec("T99", "implication", ALL_MAGMAS, "every magma is commutative",
                        (_imp((), (C,)),))
    monkeypatch.setattr(cli, "CATALOG", (bogus,))
    monkeypatch.setattr(cli, "BY_ID", {"T99": bogus})
    code, out, _ = run(capsys, "theorems", "--id", "T99", "--max-order", "2")
    assert code == 1
    assert out.splitlines() == [
        "T99: FAIL  all-magmas up to order 2, 17 structures",
        "  failing branch: {} => {C}",
        "  2",
        "  0 0",
        "  1 0",
        "0/1 verified",
    ]


def test_theorems_timings_text(capsys):
    code, out, _ = run(capsys, "theorems", "--max-order", "2", "--id", "T1", "--timings")
    assert code == 0
    lines = out.splitlines()
    assert re.fullmatch(
        r"T1: PASS  all-magmas up to order 2, 17 structures \(\d+\.\d\ds\)", lines[0]
    )
    assert lines[1:] == ["1/1 verified"]


def test_enumerate_emit_json(tmp_path, capsys):
    out_dir = tmp_path / "tables"
    code, out, _ = run(capsys, "enumerate", "--order", "2", "--mode", "latin",
                       "--emit", str(out_dir), "--json")
    assert code == 0
    data = json.loads(out)
    jsonschema.validate(data, SCHEMAS["enumerate"])
    assert data == {"order": 2, "mode": "latin-squares", "count": 2, "emitted": str(out_dir)}
    assert sorted(p.name for p in out_dir.iterdir()) == ["000000.cay", "000001.cay"]


def test_up_to_iso_over_canonical_cap_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("MAGMA_LAB_MAX_ORDER", "8")
    code, out, err = run(capsys, "count", "--order", "8", "--up-to-iso")
    assert code == 2
    assert out == ""
    assert "up_to_iso needs order <= 7" in err


def test_search_needs_all_three_flags(capsys):
    code, out, err = run(capsys, "search", "--assume", "A")
    assert code == 2
    assert out == ""
    assert "need either --spec or all of --assume, --refute, --orders" in err


def test_classify_over_assignment_cap_exits_2(write_table, capsys):
    path = write_table(format_table(zn_add(216)))
    code, out, err = run(capsys, "classify", "--table", path)
    assert code == 2
    assert out == ""
    assert "10124352 assignments at order 216 exceed the cap of 10000000" in err
    assert "Traceback" not in err
