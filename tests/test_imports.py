"""Every imported name is read somewhere in its module.

A stdlib-ast scan of src/magma_lab/*.py and tests/*.py; __init__.py is
left out, since its imports are the package's re-exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    p for p in [*ROOT.glob("src/magma_lab/*.py"), *ROOT.glob("tests/*.py")]
    if p.name != "__init__.py"
)


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_no_unused_imports():
    found = {
        str(p.relative_to(ROOT)): unused
        for p in FILES
        if (unused := unused_imports(p.read_text(encoding="utf-8")))
    }
    assert found == {}


def test_scan_sees_an_unused_import():
    source = "import os\nfrom typing import Iterable, Sequence\nx: Sequence = os.sep\n"
    assert unused_imports(source) == [(2, "Iterable")]
