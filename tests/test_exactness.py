"""No floating point in matk: its sources name no ``float``, write no float
literal, import no ``math`` beyond its integer functions, and apply no true
division ``/`` and no ``**``, outside an allow-list of uses that are exact
on their operands."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "matk"
MODULES = sorted(SRC.glob("*.py"))
# the functions of ``math`` that take and return ints only
INTEGER_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm"}

# (module, enclosing function, expression)
ALLOWED = {
    ("exactalg.py", "Ring.inv", "1 / Fraction(a)"),  # a Fraction over Q
    ("massey.py", "_class_count", "ring.p ** free"),  # int to a count, free > 0
}


def inexact(source: str) -> list:
    """(enclosing function, construct) of each inexact construct: ``float``,
    a float or complex literal, ``import math``, a ``from math import`` of
    a name outside ``INTEGER_MATH``, ``/``, ``/=``, ``**`` and ``**=``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name) and child.id == "float":
                found.append((scope, "float"))
            elif isinstance(child, ast.Constant) and isinstance(child.value, (float, complex)):
                found.append((scope, ast.unparse(child)))
            elif isinstance(child, ast.Import) and any(
                    alias.name.split(".")[0] == "math" for alias in child.names):
                found.append((scope, ast.unparse(child)))
            elif isinstance(child, ast.ImportFrom) and child.module == "math" and any(
                    alias.name not in INTEGER_MATH for alias in child.names):
                found.append((scope, ast.unparse(child)))
            elif isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(
                    child.op, (ast.Div, ast.Pow)):
                found.append((scope, ast.unparse(child)))
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            visit(child, inner)

    visit(ast.parse(source), "")
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_sources_are_exact(path):
    found = {(path.name, *f) for f in inexact(path.read_text(encoding="utf-8"))}
    assert found <= ALLOWED, sorted(found - ALLOWED)


def test_every_allowed_use_is_in_the_sources():
    found = {(path.name, *f) for path in MODULES
             for f in inexact(path.read_text(encoding="utf-8"))}
    assert ALLOWED <= found


@pytest.mark.parametrize("source,construct", [
    ("x = float(y)", "float"),
    ("x = 0.5", "0.5"),
    ("x = 2j", "2j"),
    ("import math", "import math"),
    ("import math as m", "import math as m"),
    ("from math import gcd, sqrt", "from math import gcd, sqrt"),
    ("from math import *", "from math import *"),
    ("x = a / b", "a / b"),
    ("x /= 2", "x /= 2"),
    ("x = (-1) ** r", "(-1) ** r"),
    ("x **= 2", "x **= 2"),
])
def test_each_inexact_construct_is_found(source, construct):
    assert inexact(f"def f(a, b, r, x, y):\n    {source}\n") == [("f", construct)]


def test_exact_integer_arithmetic_passes():
    assert inexact("from math import gcd, isqrt\n\n\ndef f(a, b, p):\n"
                   "    return a // b, a % p, pow(a, -1, p), -1 if a & 1 else 1\n") == []
