"""No file imports a name it never reads, no package module reads a
sibling's private name, and every memo in the package is bounded.

Walks the syntax tree of every Python file under src/, tests/ and tools/ and
fails on a name that an import binds and the file never reads, counting the
names read inside quoted annotations.  An ``__init__.py`` imports to
re-export, and ``from __future__`` imports bind nothing, so both are exempt.
A module under src/ may not import an underscore name from another module
of the package, nor read one as an attribute of a module it imports, and
neither may a script under tools/, so it depends on the public API only.
Every ``lru_cache`` under src/ passes an integer maxsize of at most
MAX_CACHE, and ``functools.cache`` appears nowhere there: a classification
rarely repeats a degree, so each memo fills to its bound.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    path
    for folder in ("src", "tests", "tools")
    for path in (ROOT / folder).rglob("*.py")
    if path.name != "__init__.py"
)
SRC_FILES = [path for path in FILES if path.is_relative_to(ROOT / "src")]
PUBLIC_ONLY = [path for path in FILES if not path.is_relative_to(ROOT / "tests")]
MAX_CACHE = 1024


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            yield node.annotation


def _names_read(tree: ast.AST) -> set[str]:
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for note in _annotations(tree):
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            read |= _names_read(ast.parse(note.value, mode="eval"))
    return read


def unused_imports(tree: ast.AST) -> list[str]:
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name.partition(".")[0], node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name, node.lineno)
    read = _names_read(tree)
    return [
        f"{line}: {name}"
        for name, line in sorted(bound.items(), key=lambda item: (item[1], item[0]))
        if name not in read
    ]


def private_imports(tree: ast.AST) -> list[str]:
    """Underscore names taken from a module of the package: ``from .curve
    import _x``, or ``curve._x`` after ``from . import curve``."""
    modules: set[str] = set()
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if not node.level and (node.module or "").partition(".")[0] != "cyclicaut":
            continue
        for alias in node.names:
            if node.module in (None, "cyclicaut"):
                modules.add(alias.asname or alias.name)
            elif alias.name.startswith("_"):
                found.append(f"{node.lineno}: {alias.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr.startswith("_")
        ):
            found.append(f"{node.lineno}: {node.value.id}.{node.attr}")
    return sorted(found)


def test_files_found():
    names = {path.relative_to(ROOT).as_posix() for path in FILES}
    assert {"src/cyclicaut/cli.py", "tests/test_cli.py", "tools/dump_answers.py"} <= names


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(), str(path))) == []


def test_guard_catches_each_form():
    source = "\n".join(
        [
            "from __future__ import annotations",
            "import json",
            "import os.path",
            "import numpy as np",
            "from math import gcd, lcm",
            "from typing import Sequence as Seq",
            "from pathlib import Path",
            "import sys",
            "def f(x: 'Path') -> 'dict[str, Seq]':",
            "    return gcd(x, sys.maxsize)",
        ]
    )
    assert unused_imports(ast.parse(source)) == ["2: json", "3: os", "4: np", "5: lcm"]


@pytest.mark.parametrize("path", PUBLIC_ONLY, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_private_sibling_imports(path):
    assert private_imports(ast.parse(path.read_text(), str(path))) == []


def test_private_guard_catches_each_form():
    source = "\n".join(
        [
            "from __future__ import annotations",
            "from math import _private",
            "from .curve import _count_cycles, genus",
            "from cyclicaut.verify import _walk_orbits",
            "from . import curve",
            "from cyclicaut import verify as v",
            "def f(x):",
            "    return curve._build_cover(x), v._require_degree(x), curve.genus(x), x._own",
        ]
    )
    assert private_imports(ast.parse(source)) == [
        "3: _count_cycles",
        "4: _walk_orbits",
        "8: curve._build_cover",
        "8: v._require_degree",
    ]


def unbounded_caches(tree: ast.AST) -> list[str]:
    """Memos without an integer bound of at most MAX_CACHE: ``lru_cache``
    used bare or with any other maxsize, and every ``functools.cache``."""
    modules, lru, found = set(), set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "functools"}
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            for alias in node.names:
                if alias.name == "cache":
                    found.append(f"{node.lineno}: functools.cache")
                elif alias.name == "lru_cache":
                    lru.add(alias.asname or alias.name)

    def is_lru(node: ast.AST) -> bool:
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            return node.value.id in modules and node.attr == "lru_cache"
        return isinstance(node, ast.Name) and node.id in lru

    called = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and is_lru(node.func):
            called.add(node.func)
            sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
            size = sizes[0] if sizes else None
            if not (
                isinstance(size, ast.Constant)
                and type(size.value) is int
                and 0 <= size.value <= MAX_CACHE
            ):
                found.append(f"{node.lineno}: lru_cache without maxsize <= {MAX_CACHE}")
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr == "cache"
        ):
            found.append(f"{node.lineno}: functools.cache")
    for node in ast.walk(tree):
        if is_lru(node) and node not in called:
            found.append(f"{node.lineno}: bare lru_cache")
    return sorted(found, key=lambda entry: int(entry.partition(":")[0]))


@pytest.mark.parametrize("path", SRC_FILES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_memos_are_bounded(path):
    assert unbounded_caches(ast.parse(path.read_text(), str(path))) == []


def test_memo_guard_catches_each_form():
    source = "\n".join(
        [
            "import functools",
            "from functools import cache, lru_cache, lru_cache as memo",
            "@lru_cache(maxsize=256)",
            "def a(n): return n",
            "@functools.lru_cache(1024)",
            "def b(n): return n",
            "@lru_cache",
            "def c(n): return n",
            "@functools.lru_cache(maxsize=None)",
            "def d(n): return n",
            "@memo(4096)",
            "def e(n): return n",
            "@lru_cache(maxsize=True)",
            "def f(n): return n",
            "g = lru_cache()(a)",
            "@functools.cache",
            "def h(n): return n",
        ]
    )
    assert unbounded_caches(ast.parse(source)) == [
        "2: functools.cache",
        "7: bare lru_cache",
        "9: lru_cache without maxsize <= 1024",
        "11: lru_cache without maxsize <= 1024",
        "13: lru_cache without maxsize <= 1024",
        "15: lru_cache without maxsize <= 1024",
        "16: functools.cache",
    ]
