"""The program computes with integers and rationals only.

Walks the syntax tree of every module of the package and fails on an import
of cmath, a call of float() or complex(), a float or complex literal, or a
true division (which yields a float from integers; Fraction(a, b) is the
exact quotient).
"""

import ast
from pathlib import Path

import pytest

import cyclicaut

MODULES = sorted(Path(cyclicaut.__file__).parent.glob("*.py"))


def floating_point(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        where = getattr(node, "lineno", "?")
        if isinstance(node, ast.Import):
            found += [f"{where}: import {a.name}" for a in node.names if a.name == "cmath"]
        elif isinstance(node, ast.ImportFrom) and node.module == "cmath":
            found.append(f"{where}: from cmath import")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("float", "complex"):
                found.append(f"{where}: {node.func.id}(...)")
        elif isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append(f"{where}: literal {node.value!r}")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"{where}: true division")
    return found


def test_modules_found():
    assert {m.name for m in MODULES} >= {"curve.py", "verify.py", "grouptheory.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_floating_point(path):
    assert floating_point(ast.parse(path.read_text(), str(path))) == []


def test_guard_catches_each_form():
    source = "\n".join(
        [
            "import cmath",
            "from cmath import exp",
            "a = float('1')",
            "b = complex(1, 2)",
            "c = 1e-8",
            "d = 2j",
            "e = 3 / 2",
            "f = 1; f /= 2",
            "g = 7 // 2",
        ]
    )
    lines = sorted(int(hit.split(":")[0]) for hit in floating_point(ast.parse(source)))
    assert lines == [1, 2, 3, 4, 5, 6, 7, 8]
