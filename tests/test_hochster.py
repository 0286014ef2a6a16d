import time

import pytest
from hypothesis import given, settings, strategies as st

from matk.cochains import Cochain, coboundary, evaluate, Chain, boundary
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

from helpers import cycle_complex, fig1_complex, octahedron, two_points
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
    K = complex_from_json(json.load(open(path)))
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
