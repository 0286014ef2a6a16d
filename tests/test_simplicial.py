import itertools

import pytest
from hypothesis import given, settings, strategies as st

from matk.simplicial import (
    DuplicateVertex,
    EdgeNotInComplex,
    FacetUsesUnknownLabel,
    LabelCollision,
    SimplexNotInComplex,
    SimplicialComplex,
    UnknownVertex,
    VertexMap,
    complex_from_json,
    complex_to_json,
    contract_edge,
    full_subcomplex,
    join,
    link,
    link_condition,
    reorder_vertices,
    star,
    star_delete,
    stellar_subdivide,
)
from matk.exactalg import GF, QQ

from helpers import (
    boundary_star,
    boundary_star_reference,
    cycle_complex,
    euler_characteristic,
    f_vector,
    is_surjective_reference,
    octahedron,
    preimages_reference,
    reduced_betti,
    simplex_boundary,
    two_points,
)


def test_build_two_point_complex():
    K = SimplicialComplex(["1", "2"], [["1"], ["2"]])
    assert K.facets == (("1",), ("2",))
    assert K.dim == 0


def test_build_rejects_unknown_label():
    with pytest.raises(FacetUsesUnknownLabel):
        SimplicialComplex(["1", "2", "3"], [["1", "2"], ["2", "3"], ["1", "3", "?"]])


def test_build_rejects_duplicate_vertex():
    with pytest.raises(DuplicateVertex):
        SimplicialComplex(["1", "1"], [["1"]])


def test_build_keeps_isolated_vertices():
    K = SimplicialComplex(["1", "2", "3"], [["1", "2"]])
    assert ("3",) in K.facets
    assert K.has_face(("3",))


def test_build_reduces_to_maximal_facets():
    K = SimplicialComplex(["1", "2", "3"], [["1", "2"], ["1"], ["1", "2", "3"]])
    assert K.facets == (("1", "2", "3"),)


def test_octahedron_f_vector():
    K = octahedron()
    assert f_vector(K) == (6, 12, 8)
    for f in K.facets:
        for a, b in (("1", "2"), ("3", "4"), ("5", "6")):
            assert not ({a, b} <= set(f))


def test_full_subcomplex_opposite_pair_is_s0():
    K = octahedron()
    assert full_subcomplex(K, {"1", "2"}) == two_points()


def test_full_subcomplex_empty():
    K = octahedron()
    E = full_subcomplex(K, set())
    assert not E.vertices
    assert E.faces(-1) == ((),)


def test_full_subcomplex_keeps_order():
    K = SimplicialComplex(list("abc"), [["a", "b"], ["b", "c"]])
    S = full_subcomplex(K, {"c", "a"})
    assert S.vertices == ("a", "c")
    assert S.facets == (("a",), ("c",))


def test_star_of_edge_in_octahedron():
    K = octahedron()
    S = star(K, ("1", "6"))
    assert set(S.facets) == {("1", "3", "6"), ("1", "4", "6")}


def test_star_link_of_empty_simplex():
    K = octahedron()
    assert star(K, ()) == K
    assert link(K, ()) == K


def test_link_of_vertex_in_triangle_boundary():
    K = simplex_boundary(["1", "2", "3"])
    # oracle: enumerate cofaces by brute force
    expected = set()
    for size in range(0, 3):
        for sub in itertools.combinations(["1", "2", "3"], size):
            if "1" not in sub and K.has_face(("1",) + sub):
                expected.add(sub)
    L = link(K, ("1",))
    assert set(L.all_faces(include_empty=True)) == expected | {()}
    assert L == two_points("2", "3")


def test_link_requires_face():
    with pytest.raises(SimplexNotInComplex):
        link(octahedron(), ("1", "2"))


def test_boundary_star_of_edge_is_a_square():
    K = octahedron()
    B = boundary_star(K, ("1", "6"))
    assert set(B.facets) == {("1", "3"), ("1", "4"), ("3", "6"), ("4", "6")}
    assert reduced_betti(B) == {1: 1}


def test_star_delete_commutes_on_octahedron():
    K = octahedron()
    K1 = star_delete(star_delete(K, ("1", "6")), ("3", "6"))
    K2 = star_delete(star_delete(K, ("3", "6")), ("1", "6"))
    assert K1 == K2
    removed = set(K.all_faces()) - set(K1.all_faces())
    assert removed == {("1", "6"), ("3", "6"), ("1", "3", "6"), ("1", "4", "6"), ("2", "3", "6")}


def test_star_delete_facet_removes_single_face():
    K = simplex_boundary(["1", "2", "3", "4"])  # boundary of a tetrahedron
    D = star_delete(K, ("1", "2", "3"))
    assert set(K.all_faces()) - set(D.all_faces()) == {("1", "2", "3")}


def test_star_delete_vertex_shrinks_vertex_list():
    K = SimplicialComplex(["1", "2", "3"], [["1", "2"], ["2", "3"]])
    D = star_delete(K, ("2",))
    assert D.vertices == ("1", "3")
    assert D.facets == (("1",), ("3",))


def test_join_of_spheres():
    S0 = two_points()
    T = two_points("3", "4")
    assert join(S0, T) == SimplicialComplex(
        "1234", [["1", "3"], ["1", "4"], ["2", "3"], ["2", "4"]]
    )
    K = join(join(S0, T), two_points("5", "6"))
    assert f_vector(K) == (6, 12, 8)
    # same complex as the octahedron up to the pairing convention
    assert reduced_betti(K) == {2: 1}


def test_join_rejects_label_collision():
    with pytest.raises(LabelCollision):
        join(two_points(), two_points("2", "3"))


def test_join_example_wedge_betti():
    K1 = two_points()
    K2 = SimplicialComplex(["3", "4", "5", "6"], [["3", "4"], ["4", "5"], ["3", "5"], ["6"]])
    K = join(K1, K2)
    assert reduced_betti(K) == {1: 1, 2: 1}


def test_star_delete_join_is_contractible():
    K1 = two_points()
    K2 = SimplicialComplex(["3", "4", "5", "6"], [["3", "4"], ["4", "5"], ["3", "5"], ["6"]])
    K = join(K1, K2)
    for e in (("1", "4"), ("1", "5"), ("1", "6")):
        K = star_delete(K, e)
    assert reduced_betti(K) == {}


def test_stellar_subdivision_restriction_identity():
    K = octahedron()
    S = stellar_subdivide(K, ("1", "6"), "7")
    assert full_subcomplex(S, set("123456")) == star_delete(K, ("1", "6"))
    assert euler_characteristic(S) == euler_characteristic(K) == 2


def test_stellar_subdivision_of_triangle_edge():
    K = simplex_boundary(["1", "2", "3"])
    S = stellar_subdivide(K, ("1", "2"), "4")
    assert f_vector(S) == (4, 4)
    assert reduced_betti(S) == {1: 1}


def test_contract_edge_of_hollow_triangle_fails_link_condition():
    K = simplex_boundary(["1", "2", "3"])
    Khat, phi, ok = contract_edge(K, ("2", "3"))
    assert not ok
    assert Khat.dim == 1 and len(Khat.vertices) == 2
    assert not link_condition(K, "2", "3")


def test_contract_edge_can_create_a_cycle():
    K = SimplicialComplex(
        "12345",
        [["1", "2", "3"], ["1", "2", "4"], ["1", "3", "4"], ["3", "4", "5"], ["2", "5"]],
    )
    assert reduced_betti(K).get(2, 0) == 0
    Khat, phi, ok = contract_edge(K, ("2", "5"))
    assert not ok
    assert reduced_betti(Khat) == {2: 1}
    assert Khat == simplex_boundary(list(Khat.vertices))


def test_contract_edge_of_square():
    K = cycle_complex(4)
    Khat, phi, ok = contract_edge(K, ("2", "3"))
    assert ok
    assert reduced_betti(K) == reduced_betti(Khat) == {1: 1}
    assert phi.is_simplicial() and phi.is_surjective() and phi.is_order_compatible()


def test_contract_missing_edge_raises():
    with pytest.raises(EdgeNotInComplex):
        contract_edge(octahedron(), ("1", "2"))


def test_json_round_trip_is_stable():
    K = octahedron()
    blob = complex_to_json(K)
    K2 = complex_from_json(blob)
    assert K2 == K
    assert complex_to_json(K2) == blob


# -- randomized properties ----------------------------------------------------

@st.composite
def small_complexes(draw, max_vertices=6):
    n = draw(st.integers(2, max_vertices))
    labels = [str(i + 1) for i in range(n)]
    n_facets = draw(st.integers(1, 8))
    facets = [
        draw(st.sets(st.sampled_from(labels), min_size=1, max_size=min(4, n)))
        for _ in range(n_facets)
    ]
    return SimplicialComplex(labels, facets)


@settings(max_examples=60, deadline=None)
@given(small_complexes(), st.data())
def test_downward_closure(K, data):
    p = data.draw(st.integers(0, max(K.dim, 0)))
    faces = K.faces(p)
    if not faces:
        return
    f = data.draw(st.sampled_from(faces))
    for size in range(len(f) + 1):
        for sub in itertools.combinations(f, size):
            assert K.has_face(sub)


@settings(max_examples=60, deadline=None)
@given(small_complexes(), st.data())
def test_star_deletion_commutativity(K, data):
    faces = [f for p in range(K.dim + 1) for f in K.faces(p)]
    I1 = data.draw(st.sampled_from(faces))
    I2 = data.draw(st.sampled_from(faces))
    if set(I1) <= set(I2) or set(I2) <= set(I1):
        return
    A = star_delete(star_delete(K, I1), I2)
    B = star_delete(star_delete(K, I2), I1)
    assert set(A.all_faces()) == set(B.all_faces())


@settings(max_examples=40, deadline=None)
@given(small_complexes(), st.data())
def test_restriction_identity(K, data):
    faces = [f for p in range(1, K.dim + 1) for f in K.faces(p)]
    if not faces:
        return
    I = data.draw(st.sampled_from(faces))
    S = stellar_subdivide(K, I, "new")
    assert full_subcomplex(S, set(K.vertices)) == star_delete(K, I)


@settings(max_examples=40, deadline=None)
@given(small_complexes(), st.data())
def test_contraction_preserves_betti_under_link_condition(K, data):
    edges = [e for e in K.faces(1) if link_condition(K, *e)]
    if not edges:
        return
    e = data.draw(st.sampled_from(edges))
    Khat, phi, ok = contract_edge(K, e)
    assert ok
    for ring in (QQ, GF(2)):
        assert reduced_betti(K, ring) == reduced_betti(Khat, ring)


@settings(max_examples=30, deadline=None)
@given(small_complexes())
def test_reorder_keeps_face_set(K):
    order = sorted(K.vertices, reverse=True)
    R = reorder_vertices(K, order)
    assert {frozenset(f) for f in R.all_faces()} == {frozenset(f) for f in K.all_faces()}


# -- the face index -------------------------------------------------------------

@st.composite
def raw_complexes(draw, max_vertices=6):
    """Vertex labels and facet lists as a caller might pass them: repeats,
    non-maximal and empty facets, and vertices in no facet."""
    n = draw(st.integers(0, max_vertices))
    labels = [str(i + 1) for i in range(n)]
    facets = draw(st.lists(
        st.lists(st.sampled_from(labels), max_size=4) if labels else st.just([]),
        max_size=8))
    return labels, facets


def _maximal_family(labels, facets):
    family = {frozenset(f) for f in facets if f} | {frozenset((v,)) for v in labels}
    return {f for f in family if not any(f < g for g in family)}


@settings(max_examples=150, deadline=None)
@given(raw_complexes())
def test_facets_are_the_maximal_input_faces(raw):
    labels, facets = raw
    K = SimplicialComplex(labels, facets)
    assert {frozenset(f) for f in K.facets} == _maximal_family(labels, facets)
    assert len(set(K.facets)) == len(K.facets)
    ranks = [tuple(K.rank(v) for v in f) for f in K.facets]
    assert all(list(r) == sorted(r) for r in ranks)
    assert ranks == sorted(ranks)


@settings(max_examples=150, deadline=None)
@given(raw_complexes(), st.data())
def test_has_face_is_containment_in_some_facet(raw, data):
    labels, facets = raw
    K = SimplicialComplex(labels, facets)
    family = _maximal_family(labels, facets)
    pool = labels + ["?", "0", "x1"]
    for _ in range(10):
        q = data.draw(st.lists(st.sampled_from(pool), max_size=5))
        assert K.has_face(q) == (not q or any(set(q) <= f for f in family))
        assert K.has_face(iter(q)) == K.has_face(tuple(q))
    assert K.has_face(())
    assert not K.has_face(("?",))


def test_empty_facet_is_never_kept():
    # {empty face} has one form: no facets, however it is written
    assert SimplicialComplex([], []).facets == ()
    assert SimplicialComplex([], [[]]).facets == ()
    assert SimplicialComplex([], [[]]) == SimplicialComplex([], [])
    assert hash(SimplicialComplex([], [[]])) == hash(SimplicialComplex([], []))
    assert SimplicialComplex(["a"], [[]]).facets == (("a",),)
    assert SimplicialComplex(["a", "b"], [[], ["b", "a"]]).facets == (("a", "b"),)
    for K in (SimplicialComplex([], []), SimplicialComplex([], [[]])):
        assert K.has_face(()) and not K.has_face(("a",))
        assert K.dim == -1


def test_sort_simplex_orders_by_rank_and_rejects_unknown_vertices():
    K = SimplicialComplex(["c", "a", "b"], [["a", "b", "c"]])
    assert K.sort_simplex(["b", "a", "c", "a"]) == ("c", "a", "b")
    assert K.faces(1) == (("c", "a"), ("c", "b"), ("a", "b"))
    with pytest.raises(UnknownVertex):
        K.sort_simplex(["a", "z"])


@settings(max_examples=60, deadline=None)
@given(small_complexes(), st.data())
def test_star_link_and_deletion_read_the_index(K, data):
    faces = K.all_faces(include_empty=True)
    s = data.draw(st.sampled_from(faces))
    cofaces = [f for f in K.facets if set(s) <= set(f)]
    assert star(K, s).facets == SimplicialComplex(
        sorted({v for f in cofaces for v in f}, key=K.rank), cofaces).facets
    assert set(link(K, s).all_faces()) == {
        f for f in star(K, s).all_faces() if not set(f) & set(s)}
    if s:
        kept = {f for f in K.all_faces() if not set(s) <= set(f)}
        assert set(star_delete(K, s).all_faces()) == kept
    J = data.draw(st.sets(st.sampled_from(K.vertices)))
    assert set(full_subcomplex(K, J).all_faces()) == {
        f for f in K.all_faces() if set(f) <= J}


def _assert_map_matches_references(phi):
    assert phi.is_surjective() == is_surjective_reference(phi)
    for ts in phi.target.all_faces(include_empty=True):
        for p in range(-2, phi.source.dim + 2):
            assert phi.preimages(ts, p) == preimages_reference(phi, ts, p)


@settings(max_examples=100, deadline=None)
@given(small_complexes(), st.data())
def test_facet_built_operations_match_face_enumeration(K, data):
    s = data.draw(st.sampled_from(K.all_faces(include_empty=True)[::-1]))
    bstar = boundary_star_reference(K, s)
    assert boundary_star(K, s) == bstar
    if len(s) >= 2:
        kept = {f for f in K.all_faces() if not set(s) <= set(f)}
        cone = {f + ("new",) for f in bstar.all_faces(include_empty=True)}
        assert set(stellar_subdivide(K, s, "new").all_faces()) == kept | cone
    # a random vertex map onto a target spanned by some facet images and some
    # other simplices, so it may be neither simplicial nor surjective
    labels = ["a", "b", "c", "d"][:data.draw(st.integers(1, 4))]
    assignment = {v: data.draw(st.sampled_from(labels)) for v in K.vertices}
    facets = [{assignment[v] for v in f} for f in K.facets if data.draw(st.booleans())]
    facets += data.draw(st.lists(st.sets(st.sampled_from(labels), min_size=1), max_size=2))
    _assert_map_matches_references(VertexMap(K, SimplicialComplex(labels, facets), assignment))
    if K.faces(1):
        edge = data.draw(st.sampled_from(K.faces(1)))
        _assert_map_matches_references(contract_edge(K, edge).map)
