"""Source checks that need no linter: every module uses what it imports, and
every private module-level name is read somewhere in the package."""

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


def _targets(node):
    """The plain names a module-level statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        yield node.name
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
            for n in ast.walk(target):
                if isinstance(n, ast.Name):
                    yield n.id


def unread_private_names(sources: dict) -> list:
    """``module:name`` for each module-level private name (``_x``, not a
    dunder) that no module in ``sources`` reads: as a loaded name, an
    attribute or an imported name."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                read.update(a.name for a in n.names)
    return sorted(
        f"{module}:{name}"
        for module, tree in trees.items()
        for node in tree.body
        for name in _targets(node)
        if name.startswith("_") and not name.startswith("__") and name not in read
    )


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


def test_the_private_check_sees_unread_and_read_names():
    sources = {
        "a.py": "_kept = 1\n_left, _spare = 2, 3\ndef _helper(): return _kept\n"
                "class _Box: pass\n__all__ = []\n",
        "b.py": "from .a import _helper\nimport a\nvalue = a._Box\n",
    }
    assert unread_private_names(sources) == ["a.py:_left", "a.py:_spare"]


def test_every_private_module_level_name_is_read():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert unread_private_names(sources) == []


# raises of a class that is not a LieDoubleError, each with its reason
UNTYPED_RAISES = {
    ("cli.py", "_Usage"): "an option error of argparse's; main prints it as a usage error and exits 2",
}


def untyped_raises(source: str, typed) -> list:
    """``(line, name)`` for each raise in ``source``, ``raise Name(...)`` or
    ``raise Name``, whose name is not in ``typed``, in line order; another
    expression counts as its text, and a bare re-raise is not a new
    raise."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = raised.id if isinstance(raised, ast.Name) else ast.unparse(raised)
            if name not in typed:
                out.append((node.lineno, name))
    return sorted(out)


def test_the_raise_check_sees_untyped_and_typed_raises():
    source = (
        "def f(x):\n"
        "    if x:\n"
        "        raise ParseError('bad')\n"
        "    if x is None:\n"
        "        raise ValueError('none')\n"
        "    raise errors.Other\n"
    )
    assert untyped_raises(source, {"ParseError"}) == [(5, "ValueError"), (6, "errors.Other")]


def test_every_raise_in_the_package_is_a_typed_error():
    # each raise names a LieDoubleError subclass, so a library caller can
    # catch the package's refusals by one class; UNTYPED_RAISES gives the
    # reason for each exception to that
    from liedouble import errors

    typed = {name for name, value in vars(errors).items()
             if isinstance(value, type) and issubclass(value, errors.LieDoubleError)}
    found = {(module, name) for module in MODULES + ["__init__.py"]
             for _, name in untyped_raises((SRC / module).read_text(encoding="utf-8"), typed)}
    assert found == set(UNTYPED_RAISES)
