"""Dead names, found by two stdlib-ast scans.

Every imported name is read somewhere in its module: a scan of
src/magma_lab/*.py and tests/*.py, leaving out __init__.py, since its
imports are the package's re-exports.

Every private top-level function, class or assignment in src/magma_lab/*.py
is read somewhere in src/, outside its own definition.

A third scan keeps one cap policy: enumeration.py is the only module in
src/magma_lab/ that reads the environment or names MAX_ORDER_ENV.

A fourth keeps one parser of request text: dsl.py is the only module in
src/magma_lab/ that imports re. A fifth keeps one worker-pool path:
enumeration.py is the only one that imports multiprocessing or
concurrent.futures.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(ROOT.glob("src/magma_lab/*.py"))
FILES = sorted(
    p for p in [*SOURCES, *ROOT.glob("tests/*.py")] if p.name != "__init__.py"
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


def _reads(node) -> Counter:
    """Bare names read under node."""
    return Counter(
        n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    )


def _taken_from(tree, module: str):
    """Names that tree imports from module or reads as module.name."""
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom) and (n.module or "").split(".")[-1] == module:
            yield from (alias.name for alias in n.names)
        elif isinstance(n, ast.Attribute) and getattr(n.value, "id", None) == module:
            yield n.attr


def _private_definitions(tree):
    """(name, line, node) for each private top-level def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno, node


def unread_private_names(sources: dict) -> list:
    """(module, line, name) of each private top-level name in sources (module
    name to source text) that is read neither in its own module, outside its
    own definition, nor by another module that imports it from there."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    unread = []
    for module, tree in trees.items():
        own = _reads(tree)
        taken = {
            name for other, t in trees.items() if other != module for name in _taken_from(t, module)
        }
        unread += [
            (module, line, name)
            for name, line, node in _private_definitions(tree)
            if own[name] == _reads(node)[name] and name not in taken
        ]
    return sorted(unread)


def test_no_unread_private_names():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    assert unread_private_names(sources) == []


def test_scan_sees_an_unread_private_name():
    sources = {
        "a": "_used = 1\n_stale = 2\n\ndef _loop(k):\n    return _loop(k - 1)\n",
        "b": "from .a import _used\nx = _used\n",
        "c": "from pkg import a\ny = a._used\n\ndef _used():\n    pass\n",
    }
    want = [("a", 2, "_stale"), ("a", 4, "_loop"), ("c", 4, "_used")]
    assert unread_private_names(sources) == want


def _env_name(node):
    """The name node reads the environment or the cap override through, if any."""
    if isinstance(node, ast.Attribute):
        if node.attr == "MAX_ORDER_ENV" or getattr(node.value, "id", None) == "os":
            return node.attr
    elif isinstance(node, ast.alias):
        return node.name
    elif isinstance(node, ast.Name):
        return node.id
    return None


def env_readers(sources: dict) -> list:
    """Sorted names of the modules in sources (module name to source text)
    that read os.environ or os.getenv, import either from os, or name
    MAX_ORDER_ENV."""
    names = {"environ", "getenv", "MAX_ORDER_ENV"}
    return sorted(
        module
        for module, text in sources.items()
        if any(_env_name(n) in names for n in ast.walk(ast.parse(text)))
    )


def test_only_enumeration_reads_the_cap_override():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    assert env_readers(sources) == ["enumeration"]


def test_scan_sees_a_second_cap_reader():
    sources = {
        "a": "import os\nMAX_ORDER_ENV = 'X'\ncap = os.environ.get(MAX_ORDER_ENV)\n",
        "b": "import os\nworkers = os.cpu_count()\n",
    }
    assert env_readers(sources) == ["a"]
    for reader in (
        "from .a import MAX_ORDER_ENV\n",
        "from . import a\nname = a.MAX_ORDER_ENV\n",
        "import os\ncap = os.getenv('X')\n",
        "from os import environ\n",
    ):
        sources["b"] = reader
        assert env_readers(sources) == ["a", "b"], reader


def _imported(node) -> list:
    """The dotted names node imports: each module, and for a from-import
    also each module.name."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    # a relative import (level > 0) names a module of the package
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
    return []


def importers(sources: dict, *modules: str) -> list:
    """Sorted names of the modules in sources (module name to source text)
    that import one of modules, a submodule of it or anything from either,
    at any depth."""
    prefixes = tuple(m + "." for m in modules)
    return sorted(
        module
        for module, text in sources.items()
        if any(
            name in modules or name.startswith(prefixes)
            for n in ast.walk(ast.parse(text))
            for name in _imported(n)
        )
    )


def test_only_dsl_imports_re():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    assert importers(sources, "re") == ["dsl"]


def test_scan_sees_a_second_re_importer():
    sources = {
        "a": "import re\nNAME = re.compile('[a-z]+')\n",
        "b": "from . import regexes\nfrom .re_tools import split\nimport os\n",
    }
    assert importers(sources, "re") == ["a"]
    for importer in (
        "import re as regex\n",
        "from re import compile\n",
        "import os, re\n",
        "def scan(text):\n    import re\n    return re.split(',', text)\n",
    ):
        sources["b"] = importer
        assert importers(sources, "re") == ["a", "b"], importer


POOL_MODULES = ("multiprocessing", "concurrent.futures")


def test_only_enumeration_imports_a_worker_pool():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    assert importers(sources, *POOL_MODULES) == ["enumeration"]


def test_scan_sees_a_second_pool_importer():
    sources = {
        "a": "from multiprocessing import Pool\n",
        "b": "import concurrent\nimport multiprocessing_tools\nfrom . import multiprocessing\n",
    }
    assert importers(sources, *POOL_MODULES) == ["a"]
    for importer in (
        "import multiprocessing as mp\n",
        "import os, multiprocessing.pool\n",
        "from multiprocessing.pool import ThreadPool\n",
        "from concurrent.futures import ProcessPoolExecutor\n",
        "from concurrent import futures\n",
        "def run(jobs):\n    import concurrent.futures as cf\n    return cf\n",
    ):
        sources["b"] = importer
        assert importers(sources, *POOL_MODULES) == ["a", "b"], importer
