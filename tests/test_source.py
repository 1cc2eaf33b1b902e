"""Rules on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "laguerre"


def test_invariants_raise_typed_errors_not_asserts():
    # python -O strips assert statements, so an invariant of the engine must
    # raise a typed GeometryError instead
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}" for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_module_imports_another_modules_private_name():
    # a name another module of the package needs is public; a leading
    # underscore marks what only its own module may use
    found = [f"{path.name}:{node.lineno} {alias.name}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.ImportFrom) and node.level >= 1
             for alias in node.names if alias.name.startswith("_")]
    assert found == []
