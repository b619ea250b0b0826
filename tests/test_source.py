"""Source checks that need no linter: every module uses what it imports."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "liedouble"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def _annotation_names(tree):
    """Names inside string annotations such as ``-> "Matrix"``."""
    for node in ast.walk(tree):
        notes = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            notes.append(node.returns)
        if isinstance(node, ast.arg):
            notes.append(node.annotation)
        if isinstance(node, ast.AnnAssign):
            notes.append(node.annotation)
        for note in notes:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                parsed = ast.parse(note.value, mode="eval")
                yield from (n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))


def unused_imports(source: str) -> list:
    """Names a module imports (``__future__`` aside) and never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used.update(_annotation_names(tree))
    return sorted(set(imported) - used)


def test_the_check_sees_unused_and_used_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from math import gcd, lcm as least\n"
        "from .scalars import Scalar, _native\n"
        "def f(x: 'Scalar') -> int:\n"
        "    return gcd(x, 2)\n"
    )
    assert unused_imports(source) == ["_native", "least", "os"]


@pytest.mark.parametrize("name", MODULES)
def test_every_imported_name_is_used(name):
    assert unused_imports((SRC / name).read_text(encoding="utf-8")) == []
