"""Every name that a matk source or test module imports is read in it, and
no function imports again a name that its module imports at top level."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
# matk/__init__.py imports names only to re-export them
MODULES = [path for path in sorted((ROOT / "src" / "matk").glob("*.py"))
           if path.name != "__init__.py"] + sorted((ROOT / "tests").glob("*.py"))


def _imports(scope):
    """The import statements of a module or function body, not of the
    functions defined in it."""
    for child in ast.iter_child_nodes(scope):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _imports(child)


def _binds(node) -> list:
    """(line, name) of each name an import statement binds."""
    return [(alias.lineno, alias.asname or alias.name.split(".")[0]) for alias in node.names]


def unused_imports(source: str) -> list:
    """(line, name) of each name an import binds that no expression of its
    module or function reads; ``from __future__`` imports and ``# noqa``
    lines are exempt."""
    tree = ast.parse(source)
    lines = source.splitlines()
    unused = []
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
        for node in _imports(scope):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for line, name in _binds(node):
                if name not in read and "# noqa" not in lines[line - 1]:
                    unused.append((line, name))
    return sorted(unused)


def shadowing_imports(source: str) -> list:
    """(line, name) of each name a function imports that its module already
    binds by an import at top level: the inner import only shadows it."""
    tree = ast.parse(source)
    top = {name for node in _imports(tree) for _, name in _binds(node)}
    return sorted((line, name) for scope in ast.walk(tree)
                  if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for node in _imports(scope) for line, name in _binds(node) if name in top)


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport sys  # noqa\n"
              "from json import (\n    dumps,\n    loads,\n)\n"
              "def f():\n    import re\n    return loads\n"
              "def g():\n    import sys\n    return re, sys\n")
    assert unused_imports(source) == [(2, "os"), (5, "dumps"), (9, "re")]


def test_no_module_imports_a_name_it_does_not_use():
    assert len(MODULES) > 20
    unused = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for path in MODULES for line, name in unused_imports(path.read_text())]
    assert unused == []


def test_the_check_finds_a_shadowing_import():
    source = ("import json\nfrom matk.exactalg import GF as F, ZZ\n"
              "def f():\n    import json\n    from matk.exactalg import QQ, ZZ\n"
              "    def g():\n        from matk.exactalg import GF as F\n        import re\n"
              "        return F, re\n    return json, QQ, ZZ, g\n")
    assert shadowing_imports(source) == [(4, "json"), (5, "ZZ"), (7, "F")]


def test_no_function_imports_again_what_its_module_imports():
    shadowing = [f"{path.relative_to(ROOT)}:{line}: {name}"
                 for path in MODULES for line, name in shadowing_imports(path.read_text())]
    assert shadowing == []
