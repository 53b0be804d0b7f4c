"""No float decides anything: the package source and the unpruned references
in tests/reference.py have no float literal, no float() call and no math
import beyond the exact integer functions."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "fordcircles"
SOURCES = [*sorted(SRC.rglob("*.py")), TESTS / "reference.py"]
# exact on ints and Fractions; math's other functions return floats
EXACT_MATH = {"gcd", "isqrt", "lcm", "ceil", "floor"}


def float_uses(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield node.lineno, f"float literal {node.value!r}"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            yield node.lineno, "float() call"
        elif isinstance(node, ast.Import):
            yield from ((node.lineno, "import math") for alias in node.names
                        if alias.name == "math")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            yield from ((node.lineno, f"math.{alias.name}") for alias in node.names
                        if alias.name not in EXACT_MATH)


def source_id(path: Path) -> str:
    """A package module by its path in the package, a test file by its path
    in the repository."""
    root = SRC if path.is_relative_to(SRC) else TESTS.parent
    return path.relative_to(root).as_posix()


@pytest.mark.parametrize("path", SOURCES, ids=source_id)
def test_no_float_in_source(path):
    assert list(float_uses(ast.parse(path.read_text(), str(path)))) == []


def test_scan_sees_every_kind():
    source = "import math\nfrom math import gcd, sqrt\nx = float(1) + 0.5\n"
    assert sorted(float_uses(ast.parse(source))) == [
        (1, "import math"), (2, "math.sqrt"), (3, "float literal 0.5"), (3, "float() call")]
