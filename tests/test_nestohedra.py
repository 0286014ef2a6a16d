import functools
import itertools
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from matk.cochains import Cochain, cochain_to_json
from matk.exactalg import GF, QQ, ZZ
from matk.nestohedra import (
    BuildingSet,
    InvalidTruncationPair,
    MissingSingleton,
    NotUnionClosed,
    cube_dual_complex,
    cube_truncation,
    graphical_building_set,
    nested_set_complex,
    nestohedron_massey_input,
    permutahedron_building_set,
    permutahedron_massey_slots,
    standard_polytope_complex,
    stellohedron_building_set,
    stellohedron_massey_slots,
    subset_label,
    validate_building_set,
)
from matk.simplicial import (
    SimplicialComplex,
    UnknownVertex,
    complex_to_json,
    full_subcomplex,
    reorder_vertices,
    star_delete,
)

from helpers import cube_truncation_reference, reduced_betti, simplex_boundary


def test_simplex_building_set_is_valid():
    B = validate_building_set(3, [[1], [2], [3], [1, 2, 3]])
    assert B.maximal() == [frozenset({1, 2, 3})]


def test_missing_singleton():
    with pytest.raises(MissingSingleton):
        validate_building_set(3, [[1], [2], [1, 2], [2, 3]])


def test_not_union_closed_reports_pair():
    with pytest.raises(NotUnionClosed) as err:
        validate_building_set(3, [[1], [2], [3], [1, 2], [2, 3]])
    assert "[1, 2]" in str(err.value) and "[2, 3]" in str(err.value)


def test_nested_set_complex_of_simplex():
    B = validate_building_set(3, [[1], [2], [3], [1, 2, 3]])
    N = nested_set_complex(B)
    assert N == simplex_boundary(["v{1}", "v{2}", "v{3}"])


def admissible(family, B):
    """The definition, checked on the whole family: members pairwise nested
    or disjoint, and no pairwise-disjoint subfamily of two or more members
    unions into the building set."""
    for S, T in itertools.combinations(family, 2):
        if not (S <= T or T <= S or not (S & T)):
            return False
    for size in range(2, len(family) + 1):
        for sub in itertools.combinations(family, size):
            if all(not (a & b) for a, b in itertools.combinations(sub, 2)):
                if frozenset().union(*sub) in B.sets:
                    return False
    return True


def brute_force_nested_sets(B):
    """Every admissible family of non-maximal members, by size.

    Admissibility passes to subfamilies, so every admissible family of size
    k + 1 is an admissible family of size k plus one later member; each
    candidate is checked whole by ``admissible``.
    """
    maximal = set(B.maximal())
    members = sorted((S for S in B.members() if S not in maximal),
                     key=lambda S: tuple(sorted(S)))
    levels = [[()]]
    while levels[-1]:
        levels.append([
            F + (j,)
            for F in levels[-1]
            for j in range(F[-1] + 1 if F else 0, len(members))
            if admissible([members[i] for i in F + (j,)], B)
        ])
    return [tuple(members[i] for i in F) for level in levels[1:] for F in level]


def maximal_nested_sets(B):
    families = {frozenset(F) for F in brute_force_nested_sets(B)}
    grown = {F - {S} for F in families for S in F}
    return {F for F in families if F not in grown}


def assert_matches_definition(B):
    N = nested_set_complex(B)
    maximal = set(B.maximal())
    members = sorted((S for S in B.members() if S not in maximal),
                     key=lambda S: tuple(sorted(S)))
    assert N.vertices == tuple(subset_label(S) for S in members)
    assert {frozenset(f) for f in N.facets} == {
        frozenset(subset_label(S) for S in F) for F in maximal_nested_sets(B)}


@pytest.mark.parametrize("kind,n", [
    ("permutahedron", 2), ("permutahedron", 3), ("permutahedron", 4),
    ("stellohedron", 2), ("stellohedron", 3), ("stellohedron", 4),
])
def test_nested_set_complex_matches_the_definition(kind, n):
    B = (permutahedron_building_set if kind == "permutahedron"
         else stellohedron_building_set)(n)
    assert_matches_definition(B)


@st.composite
def graphical_building_sets(draw, max_ground=5):
    n = draw(st.integers(1, max_ground))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return graphical_building_set(n, edges)


@settings(max_examples=60, deadline=None)
@given(graphical_building_sets(max_ground=7))
def test_graphical_building_sets_pass_validation(B):
    assert validate_building_set(B.ground, B.sets) == B


@settings(max_examples=40, deadline=None)
@given(graphical_building_sets())
def test_nested_set_complex_matches_the_definition_on_graphs(B):
    assert_matches_definition(B)


@settings(max_examples=60, deadline=None)
@given(graphical_building_sets(), st.data())
def test_restricted_search_is_the_full_subcomplex(B, data):
    K = nested_set_complex(B)
    W = data.draw(st.lists(st.sampled_from(K.vertices), unique=True)) if K.vertices else []
    restricted = nested_set_complex(B, W)
    reference = full_subcomplex(K, W)
    assert restricted.vertices == reference.vertices
    assert restricted.facets == reference.facets


@pytest.mark.parametrize("label", ["v{1,2,3,4}", "v{5}", "x"])
def test_restricted_search_rejects_unknown_labels(label):
    B = permutahedron_building_set(3)  # v{1,2,3,4} is its maximal member, no vertex
    with pytest.raises(UnknownVertex, match=re.escape(repr(label))):
        nested_set_complex(B, ["v{1}", label])
    with pytest.raises(UnknownVertex):
        full_subcomplex(nested_set_complex(B), ["v{1}", label])


def _component(K, v):
    """The vertices joined to v by a path of edges of K."""
    seen, stack = {v}, [v]
    while stack:
        u = stack.pop()
        for e in K.faces(1):
            if u in e:
                w = e[1] if e[0] == u else e[0]
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return seen


@functools.lru_cache(maxsize=None)
def _whole_complex(kind, n):
    return standard_polytope_complex(kind, n)


def _massey_input_from_the_whole_complex(kind, n, k, ring):
    """The recipe that builds every nested family, then restricts."""
    if kind == "permutahedron":
        slots, contractions = permutahedron_massey_slots(n, k)
    else:
        slots, contractions = stellohedron_massey_slots(n)
    order = [v for Ji in slots for v in Ji]
    sub = reorder_vertices(full_subcomplex(_whole_complex(kind, n), order), order)
    reps = [Cochain(sub, ring, Ji, 0,
                    {(v,): ring.one for v in _component(full_subcomplex(sub, Ji), Ji[0])})
            for Ji in slots]
    return sub, reps, contractions


@pytest.mark.parametrize("kind,n,k", [
    ("permutahedron", n, k) for n in range(2, 6) for k in range(2, n + 1)
] + [("stellohedron", n, n) for n in range(2, 6)])
def test_massey_input_matches_the_whole_complex_recipe(kind, n, k):
    for ring in (GF(2), GF(3), ZZ):
        sub, classes, contractions = nestohedron_massey_input(kind, n, k, ring)
        ref_sub, ref_reps, ref_contractions = _massey_input_from_the_whole_complex(
            kind, n, k, ring)
        assert json.dumps(complex_to_json(sub)) == json.dumps(complex_to_json(ref_sub))
        assert [json.dumps(cochain_to_json(c.representative)) for c in classes] == [
            json.dumps(cochain_to_json(a)) for a in ref_reps]
        assert contractions == ref_contractions


def test_permutahedron3_is_a_small_sphere():
    K = standard_polytope_complex("permutahedron", 3)
    assert len(K.vertices) == 2 ** 4 - 2 == 14
    assert K.f_vector() == (14, 36, 24)
    assert K.euler_characteristic() == 2
    assert reduced_betti(K, QQ) == {2: 1}
    # cross-check the face counts against direct enumeration
    B = permutahedron_building_set(3)
    brute = brute_force_nested_sets(B)
    by_size = {}
    for f in brute:
        by_size[len(f)] = by_size.get(len(f), 0) + 1
    assert (by_size[1], by_size[2], by_size[3]) == (14, 36, 24)


def test_permutahedron_vertex_count():
    for n in (2, 3, 4):
        K = standard_polytope_complex("permutahedron", n)
        assert len(K.vertices) == 2 ** (n + 1) - 2


def test_complete_graph_building_set_is_power_set():
    B = permutahedron_building_set(3)
    assert len(B.sets) == 2 ** 4 - 1


def test_path_graph_gives_associahedron_building_set():
    B = graphical_building_set(3, [(1, 2), (2, 3)])
    assert B.sets == frozenset(map(frozenset, [{1}, {2}, {3}, {1, 2}, {2, 3}, {1, 2, 3}]))


def test_edgeless_graph_gives_singletons():
    B = graphical_building_set(3, [])
    assert B.sets == frozenset(map(frozenset, [{1}, {2}, {3}]))


def test_star_graph_building_set():
    B = stellohedron_building_set(3)
    expected = {frozenset({i}) for i in range(1, 5)}
    expected |= {frozenset({1} | set(s))
                 for size in range(1, 4)
                 for s in itertools.combinations({2, 3, 4}, size)}
    assert B.sets == frozenset(expected)


def test_stellohedron2_is_a_pentagon():
    K = standard_polytope_complex("stellohedron", 2)
    assert K.f_vector() == (5, 5)
    assert reduced_betti(K, QQ) == {1: 1}


@pytest.mark.parametrize("kind,n", [
    ("permutahedron", 2), ("permutahedron", 3), ("permutahedron", 4),
    ("stellohedron", 2), ("stellohedron", 3), ("stellohedron", 4),
])
def test_nested_set_complexes_are_spheres(kind, n):
    K = standard_polytope_complex(kind, n)
    assert reduced_betti(K, QQ) == {n - 1: 1}
    assert K.euler_characteristic() == (2 if (n - 1) % 2 == 0 else 0)


def test_cube_truncation_equals_star_deletion():
    truncated = cube_truncation(3, [(1, 2), (2, 3)])
    deletion_route = cube_dual_complex(3)
    for e in (("1", "2'"), ("2", "3'")):
        deletion_route = star_delete(deletion_route, e)
    assert truncated == deletion_route
    # order of the truncation pairs does not matter
    assert cube_truncation(3, [(2, 3), (1, 2)]) == truncated


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cube_truncation_matches_stellar_subdivision(data):
    n = data.draw(st.integers(2, 6))
    pairs = data.draw(st.lists(st.sampled_from(
        [(i, k) for i in range(1, n + 1) for k in range(i + 1, n + 1)]), unique=True))
    assert cube_truncation(n, pairs, allow_full=True) == cube_truncation_reference(n, pairs)


def test_cube_truncation_validation():
    with pytest.raises(InvalidTruncationPair):
        cube_truncation(3, [(2, 2)])
    with pytest.raises(InvalidTruncationPair):
        cube_truncation(3, [(1, 3)])
    full = cube_truncation(3, [(1, 3)], allow_full=True)
    assert not full.has_face(("1", "3'"))


def test_permutahedron3_contains_the_marked_subcomplex_vertices():
    K = standard_polytope_complex("permutahedron", 3)
    figure_vertices = [
        "v{2,3,4}", "v{1,2,4}", "v{1,3,4}", "v{2}", "v{1,2}",
        "v{4}", "v{2,3}", "v{1,2,3}", "v{1}",
    ]
    for v in figure_vertices + ["v{2,4}"]:
        assert v in K.vertices
    sub = full_subcomplex(K, figure_vertices)
    assert len(sub.vertices) == 9
    assert "v{2,4}" not in sub.vertices


def test_building_set_json_round_trip():
    B = stellohedron_building_set(2)
    blob = B.to_json()
    assert BuildingSet.from_json(blob) == B


def test_permutahedron_massey_slot_shapes():
    slots, contractions = permutahedron_massey_slots(3, 2)
    assert slots == [["v{1}", "v{2}"], ["v{1,2,3}", "v{1,2,4}"]]
    assert contractions == []
    slots, contractions = permutahedron_massey_slots(3, 3)
    assert slots[0] == ["v{1}", "v{2,3,4}", "v{3,4}"]
    assert contractions[0] == ("v{2,3,4}", "v{3,4}")
    K = standard_polytope_complex("permutahedron", 3)
    for Ji in slots:
        for v in Ji:
            assert v in K.vertices


def test_stellohedron_massey_slot_shapes():
    slots, contractions = stellohedron_massey_slots(3)
    assert slots == [
        ["v{2}", "v{1}"],
        ["v{1,2}", "v{1,3,4}", "v{1,4}"],
        ["v{1,3}", "v{3}", "v{1,2,4}"],
    ]
    assert contractions == [("v{1,3,4}", "v{1,4}"), ("v{1,3}", "v{3}")]
    K = standard_polytope_complex("stellohedron", 3)
    for Ji in slots:
        for v in Ji:
            assert v in K.vertices


def test_truncated_octahedron_subcomplex_triple_product():
    """The nine-vertex full subcomplex of the permutahedral sphere carries a
    triple product in degree 11 with rank-one indeterminacy; its three classes
    pull back from the contracted six-vertex graph."""
    import json
    import pathlib

    from matk.cochains import cochain_from_json
    from matk.hochster import CohomologyClass
    from matk.massey import triple_massey_decide
    from matk.simplicial import complex_from_json

    fixdir = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
    K = complex_from_json(json.loads((fixdir / "truncated-octahedron.json").read_text()))
    classes = tuple(
        CohomologyClass(cochain_from_json(blob, K, ZZ))
        for blob in json.loads((fixdir / "truncated-octahedron-classes.json").read_text())
    )
    verdict = triple_massey_decide(*classes)
    assert verdict.defined and verdict.contains_zero is False
    assert verdict.indeterminacy_rank == 1
    omega = verdict.witness_cocycle
    assert omega.p + len(omega.J) + 1 == 11


def test_five_permutahedron_carries_the_fourfold_indeterminacy_example():
    """A 12-vertex full subcomplex of the 5-permutahedron boundary contracts,
    one link-checked edge at a time, onto the eight-vertex fourfold example,
    so its moment-angle manifold inherits the product with indeterminacy."""
    from matk.constructions import contract_edges
    from matk.exactalg import GF
    from matk.hochster import class_in_slot
    from matk.massey import enumerate_defining_systems
    from matk.simplicial import full_subcomplex, relabel, reorder_vertices

    from helpers import four_massey_complex

    P5 = standard_polytope_complex("permutahedron", 5)
    J = [
        ["v{1}", "v{2}", "v{2,5}", "v{5}"],
        ["v{1,2}", "v{3}"],
        ["v{1,2,3}", "v{2,3}", "v{3,4}"],
        ["v{1,2,3,4}", "v{2,3,4}", "v{1,3,4,5}"],
    ]
    order = [v for Ji in J for v in Ji]
    sub = reorder_vertices(full_subcomplex(P5, order), order)
    contractions = [("v{2}", "v{2,5}"), ("v{2,5}", "v{5}"),
                    ("v{1,2,3}", "v{2,3}"), ("v{1,2,3,4}", "v{2,3,4}")]
    Khat, phi, ok = contract_edges(sub, contractions)
    assert ok and phi.is_order_compatible()
    rename = dict(zip(Khat.vertices, ["1", "1'", "2", "2'", "3", "3'", "4", "4'"]))
    assert relabel(Khat, rename) == four_massey_complex()
    ring = GF(2)
    classes = []
    for Ji in J:
        KJ = full_subcomplex(sub, Ji)
        component = {Ji[0]}
        grew = True
        while grew:
            grew = False
            for e in KJ.faces(1):
                if set(e) & component and not set(e) <= component:
                    component |= set(e)
                    grew = True
        classes.append(class_in_slot(sub, ring, Ji, 0,
                                     {(v,): ring.one for v in component}))
    verdict = enumerate_defining_systems(tuple(classes), budget=16)
    assert verdict.defined and verdict.contains_zero is False
    assert verdict.distinct_class_count >= 2  # the indeterminacy survives upstairs
