"""Every matk exception class derives from the one MatkError base, and bad
arguments to library calls raise one."""

import importlib
import inspect
import pathlib

import pytest

from matk import exactalg, nestohedra
from matk.errors import MalformedInput, MatkError
from matk.exactalg import GF, ZZ, AbelianGroup, Ring

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


@pytest.mark.parametrize("check,error", [
    (lambda: AbelianGroup(0, (4, 2)), exactalg.InvalidAbelianGroup),  # divisibility chain
    (lambda: AbelianGroup(0, (1,)), exactalg.InvalidAbelianGroup),  # torsion factor 1
    (lambda: ZZ.inv(1), exactalg.NotAField),
    (lambda: Ring("X"), exactalg.UnknownRingKind),
    (lambda: nestohedra.graphical_building_set(3, [(1, 2), (2, 2)]), nestohedra.NotSimpleGraph),
    (lambda: nestohedra.graphical_building_set(3, [(1, 5)]), nestohedra.NotSimpleGraph),
    (lambda: nestohedra.graphical_building_set(3, [(0, 1)]), nestohedra.NotSimpleGraph),
    (lambda: nestohedra.graphical_building_set(3, [("a", 1)]), MalformedInput),
    (lambda: nestohedra.graphical_building_set(3, [(1,)]), nestohedra.NotSimpleGraph),
    (lambda: nestohedra.graphical_building_set(-1, []), nestohedra.NotSimpleGraph),
    (lambda: nestohedra.standard_polytope_complex("cube", 3), nestohedra.UnknownPolytopeKind),
    (lambda: nestohedra.permutahedron_massey_slots(3, 4), nestohedra.InvalidSlotParameters),
    (lambda: nestohedra.stellohedron_massey_slots(1), nestohedra.InvalidSlotParameters),
    (lambda: nestohedra.nestohedron_massey_input("stellohedron", 4, 3, GF(2)),
     nestohedra.InvalidSlotParameters),
    (lambda: nestohedra.nestohedron_massey_input("cube", 3, 3, GF(2)),
     nestohedra.UnknownPolytopeKind),
    (lambda: nestohedra.cube_truncation(3, [(1.7, 2.9)]), MalformedInput),
    (lambda: nestohedra.cube_truncation(3, [("a", 2)]), MalformedInput),
    (lambda: nestohedra.cube_truncation(3, [(1, 2, 3)]), nestohedra.InvalidTruncationPair),
    (lambda: nestohedra.cube_truncation("x", []), MalformedInput),
], ids=["abelian_divisibility", "abelian_torsion_one", "z_not_a_field", "unknown_ring_kind",
        "graph_loop", "graph_endpoint_above_n", "graph_endpoint_zero", "graph_endpoint_not_int",
        "graph_edge_not_pair", "graph_negative_count", "polytope_kind", "permutahedron_k_above_n", "stellohedron_n_below_2",
        "stellohedron_k_below_n", "massey_kind", "truncation_index_not_int",
        "truncation_index_not_digits", "truncation_entry_not_pair", "truncation_dimension_not_int"])
def test_bad_arguments_are_matk_errors(check, error):
    with pytest.raises(MatkError) as err:
        check()
    assert type(err.value) is error


def test_connected_slot_is_a_matk_error(monkeypatch):
    """A slot recipe whose K_J is connected (v{1} and v{1,2} are nested, so
    joined by an edge) has no degree-zero class to offer."""
    def slots(n, k):
        return [["v{1}", "v{1,2}"], ["v{3}", "v{4}"]], []

    monkeypatch.setattr(nestohedra, "permutahedron_massey_slots", slots)
    with pytest.raises(MatkError) as err:
        nestohedra.nestohedron_massey_input("permutahedron", 3, 2, GF(2))
    assert type(err.value) is nestohedra.ConnectedSlot
