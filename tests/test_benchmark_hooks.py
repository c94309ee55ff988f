"""The benchmark's trace mode patches magma_lab from outside. These checks
keep a rename in magma_lab from breaking it unnoticed, and keep the work a
session does pinned, without running the benchmark's own (slower) test
suite."""

import inspect
import sys
from collections import Counter
from pathlib import Path

from magma_lab import properties, theorems

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_module(name):
    # test_perfbench puts perfbench/ and src/ on sys.path itself, so restore
    # the whole list rather than removing one entry
    saved = list(sys.path)
    sys.path.insert(0, str(PERFBENCH))
    try:
        return __import__(name)
    finally:
        sys.path[:] = saved


def test_traced_names_exist():
    tracing = _perfbench_module("tracing")
    for span, targets in tracing.WRAPPED.items():
        for module, attr in targets:
            assert callable(getattr(module, attr, None)), f"{span}: {module.__name__}.{attr}"
    assert "memo" in inspect.signature(properties.holds).parameters


def test_session_work_counts_are_pinned(tmp_path):
    # every session check, classify and examples request runs the law
    # scans; the counts are the deterministic sign that their work is unchanged
    pins = _perfbench_module("test_perfbench")
    assert pins.traced_counts("session", tmp_path) == pins.PINNED["session"]


def test_sweep_calls_through_traced_names(monkeypatch):
    # trace mode wraps theorems.tables and theorems.holds; a sweep that went
    # around them would read 0 in the per-layer theorem metrics
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(theorems, "tables", counting("tables", theorems.tables))
    monkeypatch.setattr(theorems, "holds", counting("holds", theorems.holds))
    assert all(r.verified for r in theorems.verify_theorems(theorems.CATALOG, 2))
    assert calls["tables"] > 0
    assert calls["holds"] > 0
