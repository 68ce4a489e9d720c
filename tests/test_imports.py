"""No file imports a name it never reads.

Walks the syntax tree of every Python file under src/, tests/ and tools/ and
fails on a name that an import binds and the file never reads, counting the
names read inside quoted annotations.  An ``__init__.py`` imports to
re-export, and ``from __future__`` imports bind nothing, so both are exempt.
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
