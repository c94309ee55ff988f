"""Command-line front end.

Exit codes: 0 for success (holds / found / verified), 1 for a semantically
negative outcome (a law fails, a search exhausts, a theorem sweep finds a
counterexample), 2 for usage, input or feasibility errors. A reader that
closes stdout early (``enumerate ... | head``) ends the command quietly
with 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from .core import Magma, _excerpt_int, canonical_form, format_table, format_tables, parse_table
from .dsl import format_law, parse_law, parse_law_file, parse_laws, parse_orders, parse_spec
from .enumeration import ALL_MAGMAS, LATIN, blocks, count as count_tables, models_spec, tables
from .properties import check_law, classify
from .search import SearchSpec, find_model
from .structures import example_suite
from .theorems import CATALOG, BY_ID, QUASIGROUPS, verify_theorems

_MODES = {"all": ALL_MAGMAS, "latin": LATIN}
# Tables rendered at once by enumerate's text output: bounds the text held
# in memory when one first-row block is large.
_RENDER_SLICE = 4096


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _load_magma(path: str) -> Magma:
    return parse_table(_read_text(path))


def _law_lists(values, flag: str) -> list:
    """The laws of a repeatable law-list flag, in order. An error names the
    occurrence its offset counts in: '--assume #2: ...' for the second."""
    return [
        law
        for k, value in enumerate(values or (), start=1)
        for law in parse_laws(value, prefix=f"{flag} #{k}: ")
    ]


def _fmt_pairs(d: dict) -> str:
    return " ".join(f"{k}={v}" for k, v in d.items())


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _report_obj(rep) -> dict:
    return {
        "law": format_law(rep.law),
        "order": rep.order,
        "holds": rep.holds,
        "witness": rep.witness,
        "detail": rep.detail,
    }


def _cmd_check(args) -> int:
    if args.table == "-" and args.law_file == "-":
        raise ValueError("--table - and --law-file - cannot both read stdin")
    m = _load_magma(args.table)
    laws = _law_lists(args.law, "--law")
    if args.law_file:
        laws += parse_law_file(_read_text(args.law_file))
    if not laws:
        raise ValueError("no laws given; use --law or --law-file")
    reports = [check_law(m, law) for law in laws]
    if args.json:
        _emit_json([_report_obj(r) for r in reports])
    else:
        for rep in reports:
            name = format_law(rep.law)
            if rep.holds:
                print(f"{name}: holds")
            else:
                line = f"{name}: fails"
                if rep.witness:
                    line += f" witness {_fmt_pairs(rep.witness)}"
                if rep.detail:
                    line += f" [{_fmt_pairs(rep.detail)}]"
                print(line)
    return 0 if all(r.holds for r in reports) else 1


def _cmd_classify(args) -> int:
    m = _load_magma(args.table)
    rep = classify(m)
    if args.json:
        _emit_json({
            "order": rep.order,
            "labels": list(rep.labels),
            "neutrals": {
                "left": list(rep.neutrals.left),
                "right": list(rep.neutrals.right),
                "two_sided": rep.neutrals.two_sided,
            },
            "inverses": list(rep.inverses) if rep.inverses is not None else None,
        })
        return 0
    def fmt(vals):
        return " ".join(str(v) for v in vals) if vals else "none"
    print(f"order {rep.order}")
    print("classes: " + ", ".join(rep.labels))
    print(f"left neutrals: {fmt(rep.neutrals.left)}")
    print(f"right neutrals: {fmt(rep.neutrals.right)}")
    two = rep.neutrals.two_sided
    print(f"two-sided neutral: {two if two is not None else 'none'}")
    if rep.inverses is not None:
        pairs = " ".join(
            f"{a}:{b if b is not None else '-'}" for a, b in enumerate(rep.inverses)
        )
        print(f"inverses: {pairs}")
    return 0


def _cmd_canon(args) -> int:
    m = _load_magma(args.table)
    cm = canonical_form(m)
    if args.json:
        _emit_json({"order": cm.order, "rows": cm.rows()})
    else:
        sys.stdout.write(format_table(cm))
    return 0


def _enum_spec_from_args(args):
    spec = models_spec(_law_lists(args.assume, "--assume"), args.order, _MODES[args.mode] == LATIN)
    return replace(spec, up_to_iso=args.up_to_iso)


def _cmd_enumerate(args) -> int:
    # JSON reports the requested mode, whichever one the assumptions select
    mode = _MODES[args.mode]
    spec = _enum_spec_from_args(args)
    if args.emit:
        out = Path(args.emit)
        out.mkdir(parents=True, exist_ok=True)
        total = 0
        for i, m in enumerate(tables(spec, workers=args.workers)):
            (out / f"{i:06d}.cay").write_text(format_table(m), encoding="utf-8")
            total += 1
        if args.json:
            _emit_json({
                "order": args.order, "mode": mode,
                "count": total, "emitted": str(out),
            })
        else:
            print(f"wrote {total} tables to {out}")
        return 0
    if args.json:
        rows = [m.rows() for m in tables(spec, workers=args.workers)]
        _emit_json({
            "order": args.order, "mode": mode,
            "count": len(rows), "tables": rows,
        })
        return 0
    # Render a slice of a first-row block at once but write each table on
    # its own: a stdout that buffers a set number of writes would otherwise
    # hold that many whole slices.
    total = 0
    for block in blocks(spec, workers=args.workers):
        for i in range(0, len(block), _RENDER_SLICE):
            sys.stdout.writelines(format_tables(args.order, block[i:i + _RENDER_SLICE]))
        total += len(block)
    print(f"{total} tables")
    return 0


def _cmd_count(args) -> int:
    total = count_tables(_enum_spec_from_args(args), workers=args.workers)
    if args.json:
        _emit_json({"order": args.order, "mode": _MODES[args.mode], "count": total})
    else:
        print(total)
    return 0


def _search_spec_from_args(args) -> SearchSpec:
    if args.spec:
        if args.assume or args.refute or args.orders:
            raise ValueError("--spec excludes --assume/--refute/--orders")
        return parse_spec(args.spec)
    if not (args.assume and args.refute and args.orders):
        raise ValueError("need either --spec or all of --assume, --refute, --orders")
    return SearchSpec(
        assume=tuple(_law_lists(args.assume, "--assume")),
        refute=parse_law(args.refute),
        orders=parse_orders(args.orders),
    )


def _cmd_search(args) -> int:
    spec = _search_spec_from_args(args)
    result = find_model(spec, workers=args.workers)
    lo, hi = spec.orders
    if args.json:
        _emit_json({
            "assume": [format_law(l) for l in spec.assume],
            "refute": format_law(spec.refute),
            "orders": [lo, hi],
            "found": result.found.rows() if result.found else None,
            "order": result.order_found,
            "examined": result.examined,
        })
    elif result.found is not None:
        print(
            f"found at order {result.order_found} "
            f"after examining {result.examined} structures"
        )
        sys.stdout.write(format_table(result.found))
    else:
        print(f"exhausted orders {lo}..{hi}; examined {result.examined} structures")
    if result.found is not None and args.emit:
        Path(args.emit).write_text(format_table(result.found), encoding="utf-8")
    return 0 if result.found is not None else 1


def _cmd_theorems(args) -> int:
    if args.id:
        unknown = [tid for tid in args.id if tid not in BY_ID]
        if unknown:
            raise ValueError(f"unknown theorem ids: {', '.join(unknown)}")
        specs = [t for t in CATALOG if t.id in set(args.id)]
    elif args.quasigroups:
        specs = [t for t in CATALOG if t.domain == QUASIGROUPS]
    else:
        specs = list(CATALOG)
    reports = verify_theorems(specs, args.max_order)
    if args.json:
        out = []
        for r in reports:
            item = {
                "id": r.theorem.id,
                "kind": r.theorem.kind,
                "domain": r.theorem.domain,
                "statement": r.theorem.statement,
                "max_order": r.max_order,
                "examined": r.structures_examined,
                "verified": r.verified,
                "branch": r.branch,
                "counterexample": r.counterexample.rows() if r.counterexample else None,
            }
            if args.timings:
                item["elapsed"] = round(r.elapsed, 3)
            out.append(item)
        _emit_json(out)
    else:
        for r in reports:
            status = "PASS" if r.verified else "FAIL"
            line = (
                f"{r.theorem.id}: {status}  {r.theorem.domain} up to order "
                f"{r.max_order}, {r.structures_examined} structures"
            )
            if args.timings:
                line += f" ({r.elapsed:.2f}s)"
            print(line)
            if not r.verified:
                print(f"  failing branch: {r.branch}")
                for tline in format_table(r.counterexample).splitlines():
                    print(f"  {tline}")
        npass = sum(1 for r in reports if r.verified)
        print(f"{npass}/{len(reports)} verified")
    return 0 if all(r.verified for r in reports) else 1


def _slug(s) -> str:
    base = s.name
    if s.params:
        base += "_" + "_".join(str(p) for p in s.params)
    return base.replace("-", "m")


def _cmd_examples(args) -> int:
    records = example_suite()
    if args.id is not None:
        records = [r for r in records if r.example == args.id]
        if not records:
            raise ValueError(f"no example numbered {_excerpt_int(args.id)}")
    if args.emit:
        out = Path(args.emit)
        out.mkdir(parents=True, exist_ok=True)
        written = 0
        for rec in records:
            if rec.structure.kind == "finite":
                path = out / f"{_slug(rec.structure)}.cay"
                path.write_text(format_table(rec.structure.magma), encoding="utf-8")
                written += 1
        print(f"wrote {written} tables to {out}")
        return 0
    if args.json:
        _emit_json([
            {
                "example": rec.example,
                "structure": rec.structure.label,
                "kind": rec.structure.kind,
                "claims": rec.claims,
                "actual": rec.actual,
                "scopes": rec.scopes,
                "mismatches": list(rec.mismatches),
                "notes": list(rec.notes),
            }
            for rec in records
        ])
        return 0
    for rec in records:
        print(f"example {rec.example}: {rec.structure.label} [{rec.structure.kind}]")
        for tag in rec.claims:
            mark = "  MISMATCH" if tag in rec.mismatches else ""
            print(
                f"  {tag:<5} documented {str(rec.claims[tag]):<5} "
                f"computed {str(rec.actual[tag]):<5} ({rec.scopes[tag]}){mark}"
            )
        for note in rec.notes:
            print(f"  note: {note}")
    return 0


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {_excerpt_int(value)}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magma-lab",
        description="check, classify, enumerate and search finite binary operations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("check", help="check laws against a Cayley table")
    p.add_argument("--table", required=True, help="Cayley file, or - for stdin")
    p.add_argument("--law", action="append", help="law name or equation; repeatable")
    p.add_argument("--law-file", help="file with one law per line")
    add_json(p)

    p = sub.add_parser("classify", help="name the classes a table belongs to")
    p.add_argument("--table", required=True)
    add_json(p)

    p = sub.add_parser("canon", help="print the canonical form of a table")
    p.add_argument("--table", required=True)
    add_json(p)

    for name, help_ in (("enumerate", "stream all tables"), ("count", "count tables")):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--order", type=int, required=True)
        p.add_argument("--mode", choices=sorted(_MODES), default="all")
        p.add_argument("--assume", action="append",
                       help="constraint law, comma-separable; repeatable")
        p.add_argument("--up-to-iso", action="store_true",
                       help="emit only canonical representatives")
        p.add_argument("--workers", type=positive_int, default=1)
        if name == "enumerate":
            p.add_argument("--emit", help="write one .cay file per table here")
        add_json(p)

    p = sub.add_parser("search", help="find a model of some laws refuting another")
    p.add_argument("--spec", help="'assume ...; refute ...; orders lo..hi'")
    p.add_argument("--assume", action="append", help="law, comma-separable; repeatable")
    p.add_argument("--refute", help="law to refute")
    p.add_argument("--orders", help="order range lo..hi")
    p.add_argument("--workers", type=positive_int, default=1)
    p.add_argument("--emit", help="write the found table to this file")
    add_json(p)

    p = sub.add_parser("theorems", help="verify the theorem catalog exhaustively")
    p.add_argument("--max-order", type=int, default=3)
    which = p.add_mutually_exclusive_group()
    which.add_argument("--quasigroups", action="store_true",
                       help="only the quasigroup-domain theorems")
    which.add_argument("--id", action="append", help="theorem id, e.g. T7; repeatable")
    p.add_argument("--timings", action="store_true", help="append wall-clock times")
    add_json(p)

    p = sub.add_parser("examples", help="evaluate the built-in structure catalog")
    p.add_argument("--id", type=int, help="only this example number")
    output = p.add_mutually_exclusive_group()
    output.add_argument("--emit", help="write finite catalog tables here")
    add_json(output)

    return parser


_COMMANDS = {
    "check": _cmd_check,
    "classify": _cmd_classify,
    "canon": _cmd_canon,
    "enumerate": _cmd_enumerate,
    "count": _cmd_count,
    "search": _cmd_search,
    "theorems": _cmd_theorems,
    "examples": _cmd_examples,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader stopped early (``| head``). Point stdout at devnull so
        # the interpreter's final flush of what is still buffered is silent.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
