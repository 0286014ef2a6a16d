import itertools
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from matk.cochains import Cochain, coboundary, evaluate, Chain, boundary, reduced_cohomology
from matk.exactalg import GF, QQ, ZZ, AbelianGroup
from matk.hochster import (
    CohomologyClass,
    VertexCapExceeded,
    class_in_slot,
    hochster_decompose,
    moment_angle_cw_oracle,
    product_in_hochster,
    unit_class,
)
from matk.simplicial import SimplicialComplex

from helpers import cycle_complex, fig1_complex, octahedron, rp2_six_vertices, two_points
from test_simplicial import small_complexes

RINGS = (ZZ, QQ, GF(2), GF(3))


def total_betti(table):
    return {d: g.free_rank for d, g in table.total.items() if g.free_rank}


def test_s0_gives_a_three_sphere():
    K = two_points()
    table = hochster_decompose(K, ZZ)
    assert total_betti(table) == {0: 1, 3: 1}
    oracle = moment_angle_cw_oracle(K, ZZ)
    assert oracle == {0: AbelianGroup(1), 3: AbelianGroup(1)}


def test_square_gives_s3_x_s3():
    K = cycle_complex(4)
    table = hochster_decompose(K, ZZ)
    assert total_betti(table) == {0: 1, 3: 2, 6: 1}
    oracle = moment_angle_cw_oracle(K, ZZ)
    assert {d: g.free_rank for d, g in oracle.items()} == {0: 1, 3: 2, 6: 1}


def test_point_gives_a_disc():
    K = SimplicialComplex(["1"], [["1"]])
    oracle = moment_angle_cw_oracle(K, ZZ)
    assert oracle == {0: AbelianGroup(1)}


def test_octahedron_gives_product_of_three_spheres():
    K = octahedron()
    table = hochster_decompose(K, ZZ)
    assert total_betti(table) == {0: 1, 3: 3, 6: 3, 9: 1}
    for g in table.total.values():
        assert g.torsion == ()
    # the cell model sees the same threefold sphere product
    oracle = moment_angle_cw_oracle(K, ZZ)
    assert {d: g.free_rank for d, g in oracle.items()} == {0: 1, 3: 3, 6: 3, 9: 1}


def test_fig1_classes_live_in_degree_three():
    K = fig1_complex()
    table = hochster_decompose(K, ZZ)
    for J in (("1", "2"), ("3", "4"), ("5", "6")):
        assert table.slot(J, 0) == AbelianGroup(1)
    assert table.group(3).free_rank == 6  # one class per missing edge
    assert table.group(8).free_rank >= 1  # where the triple product lives


def test_vertex_cap():
    K = octahedron()
    with pytest.raises(VertexCapExceeded):
        hochster_decompose(K, ZZ, cap=5)
    with pytest.raises(VertexCapExceeded):
        moment_angle_cw_oracle(K, ZZ, cap=5)


def test_unit_class_is_identity():
    K = fig1_complex()
    unit = unit_class(K, ZZ)
    assert unit.total_degree == 0
    alpha = class_in_slot(K, ZZ, ("3", "4"), 0, {("3",): 1})
    prod = product_in_hochster(unit, alpha)
    assert prod.same_class(alpha)


def test_fig1_pairwise_products_vanish():
    K = fig1_complex()
    a1 = class_in_slot(K, ZZ, ("1", "2"), 0, {("1",): 1})
    a2 = class_in_slot(K, ZZ, ("3", "4"), 0, {("3",): 1})
    prod = product_in_hochster(a1, a2)
    assert prod.total_degree == 6
    assert prod.is_zero()


def test_square_top_product_is_fundamental():
    K = cycle_complex(4)
    a = class_in_slot(K, ZZ, ("1", "3"), 0, {("1",): 1})
    b = class_in_slot(K, ZZ, ("2", "4"), 0, {("2",): 1})
    prod = product_in_hochster(a, b)
    assert prod.total_degree == 6
    assert not prod.is_zero()
    # nondegeneracy: the product evaluates on the fundamental 1-cycle of the square
    H = prod.cohomology()
    cycle_vectors = [v for v in _cycle_space(K)]
    assert any(evaluate(prod.representative, x) != 0 for x in cycle_vectors)


def _cycle_space(K):
    from matk import exactalg

    edges = K.faces(1)
    chains = []
    import itertools

    for coeffs in itertools.product((-1, 0, 1), repeat=len(edges)):
        if all(c == 0 for c in coeffs):
            continue
        x = Chain(K, ZZ, K.vertices, 1, dict(zip(edges, coeffs)))
        if boundary(x).is_zero():
            chains.append(x)
    return chains


def test_product_independent_of_representative():
    K = fig1_complex()
    a1 = class_in_slot(K, ZZ, ("1", "2"), 0, {("1",): 1})
    a3 = class_in_slot(K, ZZ, ("5", "6"), 0, {("5",): 1})
    shifted = CohomologyClass(
        a1.representative
        + coboundary(Cochain(K, ZZ, ("1", "2"), -1, {(): 3}))
    )
    assert shifted.same_class(a1)
    p1 = product_in_hochster(a1, a3)
    p2 = product_in_hochster(shifted, a3)
    assert p1.cohomology().are_cohomologous(p1.representative, p2.representative)


def test_degree_additivity():
    K = fig1_complex()
    a = class_in_slot(K, ZZ, ("1", "2"), 0, {("1",): 1})
    b = class_in_slot(K, ZZ, ("3", "4"), 0, {("3",): 1})
    assert product_in_hochster(a, b).total_degree == a.total_degree + b.total_degree


@settings(max_examples=25, deadline=None)
@given(small_complexes(max_vertices=5), st.sampled_from(RINGS))
def test_oracle_equivalence_random(K, ring):
    table = hochster_decompose(K, ring)
    oracle = moment_angle_cw_oracle(K, ring)
    nontrivial = {d: g for d, g in table.total.items() if not g.is_trivial}
    assert nontrivial == oracle


def test_oracle_equivalence_on_fixtures_all_rings():
    for K in (two_points(), cycle_complex(4), cycle_complex(5), fig1_complex()):
        for ring in RINGS:
            table = hochster_decompose(K, ring)
            assert {d: g for d, g in table.total.items() if not g.is_trivial} == \
                moment_angle_cw_oracle(K, ring)


def test_oracle_equivalence_nine_vertex_fixture():
    import json
    import pathlib

    from matk.simplicial import complex_from_json

    path = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "truncated-octahedron.json"
    K = complex_from_json(json.loads(path.read_text()))
    assert len(K.vertices) == 9
    for ring in (ZZ, GF(2)):
        table = hochster_decompose(K, ring)
        oracle = moment_angle_cw_oracle(K, ring)
        assert {d: g for d, g in table.total.items() if not g.is_trivial} == oracle


def test_join_kunneth_convolution():
    from matk.simplicial import join

    K1 = two_points()
    K2 = cycle_complex(4, labels=["a", "b", "c", "d"])
    K = join(K1, K2)
    t1 = total_betti(hochster_decompose(K1, QQ))
    t2 = total_betti(hochster_decompose(K2, QQ))
    t = total_betti(hochster_decompose(K, QQ))
    conv = {}
    for d1, b1 in t1.items():
        for d2, b2 in t2.items():
            conv[d1 + d2] = conv.get(d1 + d2, 0) + b1 * b2
    assert t == conv


@st.composite
def complexes_with_planted_rp2(draw, max_vertices=8):
    """Random complexes on up to max_vertices shuffled vertices; with a
    planted RP^2 on six of them, no other facet meets those six in more than
    two vertices, so the RP^2 stays a full subcomplex and its C2 torsion
    reaches the Hochster table over Z."""
    planted = draw(st.booleans())
    n = draw(st.integers(6 if planted else 2, max_vertices))
    labels = draw(st.permutations([str(i) for i in range(n)]))
    facets = []
    rp2 = set()
    if planted:
        rp2_labels = draw(st.permutations(labels))[:6]
        rp2 = set(rp2_labels)
        facets = [[rp2_labels[int(v)] for v in f] for f in rp2_six_vertices().facets]
    for _ in range(draw(st.integers(1, 8))):
        f = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=min(4, n), unique=True))
        inside = [v for v in f if v in rp2]
        facets.append([v for v in f if v not in rp2] + inside[:2])
    return SimplicialComplex(labels, facets)


# two disjoint hollow triangles: an odd cycle off the star of any vertex of
# the other, which the relative cochains see only with the right signs
TWO_TRIANGLES = SimplicialComplex(list("abcdef"), ["ab", "bc", "ac", "de", "ef", "df"])


@settings(max_examples=30, deadline=None)
@given(complexes_with_planted_rp2(), st.sampled_from(RINGS))
@example(TWO_TRIANGLES, QQ)
def test_face_table_path_matches_per_subset_cohomology(K, ring):
    """The cone-reduced face-table decomposition against the groups of one
    ReducedCohomology per full subcomplex."""
    table = hochster_decompose(K, ring)
    for size in range(len(K.vertices) + 1):
        for J in itertools.combinations(K.vertices, size):
            groups = reduced_cohomology(K, J, ring).groups()
            assert table.by_J.get(J, {}) == {p: g for p, g in groups.items()
                                             if not g.is_trivial}


def test_planted_rp2_keeps_its_torsion_through_the_cone_reduction():
    rp2 = rp2_six_vertices()
    K = SimplicialComplex(rp2.vertices + ("6", "7"),
                          [list(f) for f in rp2.facets] + [["0", "6", "7"], ["3", "4", "7"]])
    assert hochster_decompose(K, ZZ).slot(rp2.vertices, 2) == AbelianGroup(0, (2,))
    assert hochster_decompose(K, GF(2)).slot(rp2.vertices, 2) == AbelianGroup(1)


@pytest.mark.parametrize("kind, ring", [("stellohedron", ZZ), ("stellohedron", GF(2)),
                                        ("permutahedron", GF(2))],
                         ids=["stellohedron-Z", "stellohedron-F2", "permutahedron-F2"])
def test_alexander_duality_on_nestohedra(kind, ring):
    """Alexander duality on the (d-1)-sphere K on vertices V: for every J
    and -1 <= i <= d-1, H~^i(K_J) and H~^(d-2-i)(K_(V-J)) have the same free
    rank, and over Z H~^i(K_J) and H~^(d-1-i)(K_(V-J)) the same torsion."""
    from matk.nestohedra import standard_polytope_complex

    K = standard_polytope_complex(kind, 3)
    table = hochster_decompose(K, ring)
    V, d = K.vertices, K.dim + 1
    bad, checks = [], 0
    for size in range(len(V) + 1):
        for J in itertools.combinations(V, size):
            rest = tuple(v for v in V if v not in J)
            for i in range(-1, d):
                checks += 1
                g = table.slot(J, i)
                if g.free_rank != table.slot(rest, d - 2 - i).free_rank:
                    bad.append((J, i, "free"))
                if not ring.is_field and g.torsion != table.slot(rest, d - 1 - i).torsion:
                    bad.append((J, i, "torsion"))
    assert checks == 2 ** len(V) * (d + 1)
    assert bad == []
