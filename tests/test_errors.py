"""Every matk exception class derives from the one MatkError base."""

import importlib
import inspect
import pathlib

import pytest

from matk.errors import MatkError
from matk.exactalg import ZZ, AbelianGroup, Ring

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "matk"


def _exception_classes():
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"matk.{path.stem}" if path.stem != "__init__" else "matk")
        for name, obj in vars(module).items():
            if (inspect.isclass(obj) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__):
                yield f"{module.__name__}.{name}", obj


def test_every_exception_class_is_a_matk_error():
    found = dict(_exception_classes())
    assert len(found) > 25
    assert [name for name, cls in found.items() if not issubclass(cls, MatkError)] == []


@pytest.mark.parametrize("check", [
    lambda: AbelianGroup(0, (4, 2)),  # divisibility chain
    lambda: AbelianGroup(0, (1,)),  # torsion factor 1
    lambda: ZZ.inv(1),  # Z is not a field
    lambda: Ring("X"),  # unknown ring kind
])
def test_internal_invariants_stay_plain_value_errors(check):
    with pytest.raises(ValueError) as err:
        check()
    assert not isinstance(err.value, MatkError)
