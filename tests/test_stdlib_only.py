"""The matk runtime imports nothing outside the standard library, and a
command's cold start imports none of its slow modules."""

import ast
import pathlib
import sys

from helpers import modules_imported_by

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "matk"


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module  # relative imports (level > 0) stay inside matk


def test_runtime_imports_only_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"matk"}
    sources = sorted(SRC.glob("*.py"))
    assert sources
    stray = [f"{path.name}: {name}" for path in sources
             for name in _imported_modules(path) if name.split(".")[0] not in allowed]
    assert stray == []


def test_importing_the_cli_leaves_the_slow_standard_modules_out():
    """Each matk command is a fresh process that imports ``matk.cli`` first.
    ``dataclasses`` pulls in ``inspect`` and ``fractions`` pulls in
    ``decimal``: with ``traceback``, milliseconds on every command."""
    added = modules_imported_by("import matk.cli")
    assert "matk.cli" in added
    assert added & {"dataclasses", "inspect", "fractions", "decimal", "traceback"} == set()
