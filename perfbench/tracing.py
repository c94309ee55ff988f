"""Spans around each layer's public functions, installed from outside.

A wrapper replaces a function at the name its caller imports it under
(``theorems.holds``, ``cli.count_tables``, ...), so magma_lab itself is
unchanged. Every call records a span: name, start, end, parent span and
request id (one request per ``cli.main`` call). A generator gets one span
per ``next``. Spans are kept in flat in-memory arrays, turned into
per-layer metrics when the traced batch ends, and then written out.
"""

from __future__ import annotations

import json
import resource
import time
from array import array
from pathlib import Path

from magma_lab import cli, dsl, enumeration, properties, search, structures, theorems

# span name -> the (module, attribute) pairs its callers look it up under
WRAPPED = {
    "cli.main": [(cli, "main")],
    "core.parse_table": [(cli, "parse_table")],
    "core.format_table": [(cli, "format_table")],
    "core.canonical_form": [(cli, "canonical_form"), (enumeration, "canonical_form")],
    "dsl.parse_law": [(cli, "parse_law"), (dsl, "parse_law")],
    "dsl.parse_spec": [(cli, "parse_spec")],
    "properties.holds": [(theorems, "holds"), (search, "holds"), (enumeration, "holds"),
                         (structures, "holds"), (properties, "holds")],
    "properties.check_law": [(cli, "check_law"), (properties, "check_law")],
    "properties.classify": [(cli, "classify")],
    "enumeration.tables": [(cli, "tables"), (theorems, "tables"), (search, "tables"),
                           (enumeration, "tables")],
    "enumeration.count": [(cli, "count_tables")],
    "search.find_model": [(cli, "find_model")],
    "theorems.verify_theorems": [(cli, "verify_theorems")],
    "structures.example_suite": [(cli, "example_suite")],
}
GENERATORS = {"enumeration.tables"}

PER_LAYER = (
    "cli.main.calls", "cli.main.self_s",
    "core.parse_table.calls", "core.parse_table.total_s",
    "core.format_table.calls", "core.format_table.total_s",
    "core.canonical_form.calls", "core.canonical_form.total_s",
    "dsl.parse_law.calls", "dsl.parse_law.total_s",
    "dsl.parse_spec.calls", "dsl.parse_spec.total_s",
    "properties.holds.calls", "properties.holds.total_s",
    "properties.holds.memo_hit_ratio", "properties.holds.true_ratio",
    "properties.check_law.calls", "properties.check_law.total_s",
    "properties.classify.calls", "properties.classify.total_s",
    "enumeration.tables.yielded", "enumeration.tables.self_s",
    "enumeration.count.calls", "enumeration.count.tables", "enumeration.count.total_s",
    "enumeration.pool.child_cpu_s",
    "search.find_model.calls", "search.find_model.total_s",
    "search.find_model.examined", "search.find_model.found_ratio",
    "theorems.verify_theorems.total_s", "theorems.verify_theorems.self_s",
    "theorems.structures_examined",
    "theorems.all-magmas.elapsed_s", "theorems.quasigroups.elapsed_s",
    "structures.example_suite.calls", "structures.example_suite.total_s",
    "trace.overhead_frac",
)


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric.endswith(("_ratio", "_frac")) else "count"


COUNTS = tuple(m for m in PER_LAYER if unit(m) == "count")


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Tracer:
    """Records spans while installed; ``install`` and ``uninstall`` bracket
    exactly one traced batch."""

    def __init__(self):
        self.names = list(WRAPPED)
        self.name_ix = array("B")   # index into self.names
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")    # span index, -1 at the top
        self.request = array("i")
        self.nested = array("B")    # 1 when inside a span of the same name
        self.counters = dict.fromkeys((
            "holds.memo_lookups", "holds.memo_hits", "holds.true", "tables.yielded",
            "count.tables", "find_model.examined", "find_model.found",
            "theorems.examined",
        ), 0)
        self.counters["theorems.all-magmas.elapsed"] = 0.0
        self.counters["theorems.quasigroups.elapsed"] = 0.0
        self._stack = [-1]
        self._active = [0] * len(self.names)
        self._request = [0]
        self._saved = []
        self._child_cpu = 0.0

    # -- recording ---------------------------------------------------------

    def _open(self, ix: int) -> int:
        i = len(self.start)
        self.name_ix.append(ix)
        self.parent.append(self._stack[-1])
        self.request.append(self._request[0])
        self.nested.append(1 if self._active[ix] else 0)
        self.end.append(0.0)
        self._active[ix] += 1
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int, ix: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()
        self._active[ix] -= 1

    def _wrap_call(self, fn, ix: int, after):
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            i = open_(ix)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(i, ix)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _wrap_holds(self, fn, ix: int):
        open_, close, counters = self._open, self._close, self.counters

        def holds(m, law, memo=None):
            if memo is not None and law.tag != "USER":
                counters["holds.memo_lookups"] += 1
                if memo.get(law.tag) is not None:
                    counters["holds.memo_hits"] += 1
            i = open_(ix)
            try:
                result = fn(m, law, memo)
            finally:
                close(i, ix)
            if result:
                counters["holds.true"] += 1
            return result

        return holds

    def _wrap_generator(self, fn, ix: int):
        open_, close, counters = self._open, self._close, self.counters

        def generator(*args, **kwargs):
            it = fn(*args, **kwargs)
            try:
                while True:
                    i = open_(ix)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close(i, ix)
                    counters["tables.yielded"] += 1
                    yield item
            finally:
                it.close()

        return generator

    def _after(self, name: str):
        c = self.counters
        if name == "cli.main":
            def after(args, result):
                self._request[0] += 1
        elif name == "enumeration.count":
            def after(args, result):
                c["count.tables"] += result
        elif name == "search.find_model":
            def after(args, result):
                c["find_model.examined"] += result.examined
                c["find_model.found"] += result.found is not None
        elif name == "theorems.verify_theorems":
            def after(args, reports):
                seen = {}
                for r in reports:
                    seen[r.theorem.domain] = r
                for domain, r in seen.items():
                    c["theorems.examined"] += r.structures_examined
                    c[f"theorems.{domain}.elapsed"] += r.elapsed
        else:
            after = None
        return after

    def install(self) -> None:
        for ix, name in enumerate(self.names):
            for module, attr in WRAPPED[name]:
                fn = getattr(module, attr)
                self._saved.append((module, attr, fn))
                if name == "properties.holds":
                    wrapped = self._wrap_holds(fn, ix)
                elif name in GENERATORS:
                    wrapped = self._wrap_generator(fn, ix)
                else:
                    wrapped = self._wrap_call(fn, ix, self._after(name))
                setattr(module, attr, wrapped)
        self._child_cpu = _children_cpu()

    def uninstall(self) -> None:
        self._child_cpu = _children_cpu() - self._child_cpu
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    # -- reporting ---------------------------------------------------------

    def metrics(self, traced_wall: float, untraced_wall: float) -> dict:
        """Per-layer metrics computed from the spans and boundary counters.

        total_s sums the spans not nested in a span of the same name;
        self_s subtracts from each span the time its direct children cover.
        """
        k = len(self.names)
        calls, total, self_time = [0] * k, [0.0] * k, [0.0] * k
        covered = [0.0] * len(self.start)
        name_ix, parent, nested = self.name_ix, self.parent, self.nested
        durations = [e - s for s, e in zip(self.start, self.end)]
        for i, d in enumerate(durations):
            p = parent[i]
            if p >= 0:
                covered[p] += d
        for i, d in enumerate(durations):
            ix = name_ix[i]
            calls[ix] += 1
            if not nested[i]:
                total[ix] += d
            self_time[ix] += d - covered[i]
        by = {name: i for i, name in enumerate(self.names)}
        c = self.counters

        def ratio(num, den):
            return num / den if den else 0.0

        out = {
            "cli.main.self_s": self_time[by["cli.main"]],
            "enumeration.tables.yielded": c["tables.yielded"],
            "enumeration.tables.self_s": self_time[by["enumeration.tables"]],
            "enumeration.count.tables": c["count.tables"],
            "enumeration.pool.child_cpu_s": self._child_cpu,
            "properties.holds.memo_hit_ratio": ratio(c["holds.memo_hits"], c["holds.memo_lookups"]),
            "properties.holds.true_ratio": ratio(c["holds.true"], calls[by["properties.holds"]]),
            "search.find_model.examined": c["find_model.examined"],
            "search.find_model.found_ratio": ratio(c["find_model.found"], calls[by["search.find_model"]]),
            "theorems.verify_theorems.self_s": self_time[by["theorems.verify_theorems"]],
            "theorems.structures_examined": c["theorems.examined"],
            "theorems.all-magmas.elapsed_s": c["theorems.all-magmas.elapsed"],
            "theorems.quasigroups.elapsed_s": c["theorems.quasigroups.elapsed"],
            "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
        }
        for name, ix in by.items():
            for suffix, value in (("calls", calls[ix]), ("total_s", total[ix])):
                key = f"{name}.{suffix}"
                if key in PER_LAYER and key not in out:
                    out[key] = value
        return {key: out[key] for key in PER_LAYER}

    def write(self, path: Path) -> None:
        """A JSON header line, then the span arrays back to back."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("name_ix", "start", "end", "parent", "request", "nested")
        header = {
            "spans": len(self.start),
            "names": self.names,
            "fields": [[f, getattr(self, f).typecode] for f in fields],
            "counters": self.counters,
        }
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for field in fields:
                getattr(self, field).tofile(f)
