"""The benchmark tracer names matk functions and methods; a rename in matk
must fail here, not only when the traced benchmark runs."""

import importlib.util
import pathlib
import sys

import matk  # noqa: F401  (the tracer reads the matk modules from sys.modules)

from helpers import modules_imported_by

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_resolves_every_traced_method(monkeypatch):
    tracer = _load_tracer(monkeypatch)
    traced = {name: fn for name, fn in tracer.Tracer().targets()}
    for short, cls_name, names in tracer.METHODS:
        for name in names:
            assert callable(traced[f"{short}.{name}"]), f"{cls_name}.{name}"


def test_import_matk_loads_every_traced_module(monkeypatch):
    """The tracer and the benchmark's memo reset look the matk modules up in
    ``sys.modules``, and ``perfbench/cli_child.py`` installs the tracer right
    after ``import matk.cli``: the package must load every one eagerly."""
    tracer = _load_tracer(monkeypatch)
    assert {f"matk.{short}" for short in tracer.MODULES} <= modules_imported_by("import matk")
