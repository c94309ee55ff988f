"""The benchmark's trace mode patches magma_lab from outside. These checks
keep a rename in magma_lab from breaking it unnoticed, without running the
benchmark's own (slower) test suite."""

import inspect
import sys
from pathlib import Path

from magma_lab import properties

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_names_exist():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
    for span, targets in tracing.WRAPPED.items():
        for module, attr in targets:
            assert callable(getattr(module, attr, None)), f"{span}: {module.__name__}.{attr}"
    assert "memo" in inspect.signature(properties.holds).parameters
