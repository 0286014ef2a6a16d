import itertools
import json
import math
import pathlib

import pytest
from hypothesis import example, given, settings, strategies as st

from matk import exactalg
from matk.cochains import Cochain, _mask_of, coboundary, evaluate, Chain, boundary, reduced_cohomology
from matk.exactalg import GF, QQ, ZZ, AbelianGroup
from matk.hochster import (
    CohomologyClass,
    VertexCapExceeded,
    _cw_complex,
    _degree_order,
    class_in_slot,
    hochster_decompose,
    moment_angle_cw_oracle,
    product_in_hochster,
)
from matk.nestohedra import standard_polytope_complex
from matk.simplicial import (SimplicialComplex, UnknownVertex, complex_from_json, full_subcomplex,
                             join)

from helpers import (
    cw_cells_reference,
    cw_complex_reference,
    cw_is_critical,
    cw_slots_reference,
    cycle_complex,
    eliminate_reference,
    fig1_complex,
    groups_per_degree,
    is_connected,
    is_core,
    keyed_alike,
    matching_order,
    minimal_non_faces,
    octahedron,
    reduced_euler_characteristic,
    rp2_six_vertices,
    same_class,
    simplex_boundary,
    taylor_slots,
    two_points,
    uct_mismatches,
    unit_class,
)
from test_simplicial import small_complexes

RINGS = (ZZ, QQ, GF(2), GF(3))
FIX = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def truncated_octahedron():
    return complex_from_json(json.loads((FIX / "truncated-octahedron.json").read_text()))


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
    assert same_class(prod, alpha)


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
    edges = K.faces(1)
    chains = []
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
    assert same_class(shifted, a1)
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
    for K in (two_points(), cycle_complex(4), cycle_complex(5), fig1_complex(), RP2_AND_SPHERE):
        for ring in RINGS:
            table = hochster_decompose(K, ring)
            assert {d: g for d, g in table.total.items() if not g.is_trivial} == \
                moment_angle_cw_oracle(K, ring)


def test_oracle_equivalence_nine_vertex_fixture():
    K = truncated_octahedron()
    assert len(K.vertices) == 9
    for ring in (ZZ, GF(2)):
        table = hochster_decompose(K, ring)
        oracle = moment_angle_cw_oracle(K, ring)
        assert {d: g for d, g in table.total.items() if not g.is_trivial} == oracle


def _keyed_by_cell(cells, deltas) -> dict:
    """A cochain complex given by positions, with each row and each entry
    named by its cell from ``cells`` (per degree, in position order, one
    cell per row)."""
    assert all(len(rows) == len(cells[d + 1]) for d, rows in deltas.items())
    return {cells[d + 1][i]: {cells[d][j]: a for j, a in row.items()}
            for d, rows in deltas.items() for i, row in enumerate(rows)}


def _critical_cells(K) -> dict:
    """The critical cells of ``cw_cells_reference`` per degree, in the order
    ``_cw_complex`` documents, masks and vertices read in the matching
    order: by the mask of sigma, then by the first vertex of T, then by the
    mask of T, decreasing."""
    order = matching_order(K)
    rank = {v: r for r, v in enumerate(order)}

    def mask(face):
        return sum(1 << rank[v] for v in face)

    return {d: sorted((c for c in cells if cw_is_critical(K, *c, order)),
                      key=lambda c: (mask(c[0]), min(map(rank.get, c[1]), default=-1), -mask(c[1])))
            for d, cells in cw_cells_reference(K).items()}


def _permuted(K, perm) -> tuple:
    """K.vertices reordered by perm, a permutation of range(n) for some
    n >= len(K.vertices): the vertex of rank perm[i] goes i-th, and the
    entries past the last rank are skipped."""
    return tuple(K.vertices[r] for r in perm if r < len(K.vertices))


class _WithGhosts:
    """K with extra listed vertices that are no face, which a
    SimplicialComplex never has; the cell models read only these."""

    def __init__(self, K, vertices):
        self.vertices, self.dim, self.faces, self.facets = tuple(vertices), K.dim, K.faces, K.facets
        self._rank = {v: i for i, v in enumerate(self.vertices)}
        self.rank = self._rank.__getitem__
        self.has_face = lambda s: set(s) <= set(K.vertices) and K.has_face(s)


class _NoFaces:
    """K with only what the cell model reads: its vertices, facets,
    dimension and ranks; enumerating its faces raises."""

    def __init__(self, K):
        self.vertices, self.facets, self.dim, self._rank = K.vertices, K.facets, K.dim, K._rank

    def faces(self, p):
        raise AssertionError(f"the cell model enumerated the {p}-faces")


EDGE_CASES = [SimplicialComplex([], []), SimplicialComplex([], [[]]),
              SimplicialComplex(["1"], [["1"]]), SimplicialComplex(["1", "2", "3"], [["2"]]),
              rp2_six_vertices()]


def _with_examples(inputs):
    """One hypothesis example per input: a complex, or a tuple of arguments."""
    def decorate(test):
        for args in inputs:
            test = example(*args)(test) if isinstance(args, tuple) else example(args)(test)
        return test
    return decorate


def _assert_builds_the_linked_critical_cells(K, L):
    """``_cw_complex(K)`` against the label-tuple cells of L, which is K
    with its vertices listed in the matching order, since the bitmask signs
    count the t-coordinates in that order.  The cells built are the
    critical cells with a critical facet or a critical coface, in the
    documented order, and each row is the reference row of its cell with
    the matched facets dropped; rows and entries compared by cell, not by
    position.  Per degree, ``sizes`` minus the cells built is the number of
    critical cells with neither, the isolated ones."""
    order = matching_order(L)
    assert order == L.vertices
    full = _keyed_by_cell(cw_cells_reference(L), cw_complex_reference(L)[1])
    restricted = {cell: {f: a for f, a in row.items() if cw_is_critical(L, *f, order)}
                  for cell, row in full.items() if cw_is_critical(L, *cell, order)}
    cofaces = {f for row in restricted.values() for f in row}
    critical = _critical_cells(L)
    built = {d: [c for c in level if restricted.get(c) or c in cofaces]
             for d, level in critical.items()}
    sizes, deltas = _cw_complex(K)
    assert _keyed_by_cell(built, deltas) == {c: restricted[c] for level in built.values()
                                            for c in level}
    assert {d: n - len(built[d]) for d, n in sizes.items()} == {
        d: len(level) - len(built[d]) for d, level in critical.items()}


@settings(max_examples=40, deadline=None)
@given(small_complexes(max_vertices=7))
@_with_examples(EDGE_CASES + [fig1_complex(), truncated_octahedron(),
                              SimplicialComplex(["1", "2", "3", "4"], [["1", "2"], ["3", "4"]])])
def test_cw_complex_restricts_the_reference_to_critical_cells(K):
    """The cells built, their rows and the isolated counts against the
    reference.  The examples include three isolated points, and two
    disjoint edges, where the group (sigma, v) = ({3, 4}, 2) has C = {3, 4}
    and A empty: its one cell ({3, 4}, {2}) has critical facets and is the
    facet of no cell."""
    _assert_builds_the_linked_critical_cells(K, SimplicialComplex(matching_order(K), K.facets))


def _slots_by_label(table) -> dict:
    """The slots of a table keyed by J as a label tuple, as the references key them."""
    vertices = table.complex.vertices
    return {tuple(v for r, v in enumerate(vertices) if J >> r & 1): groups
            for J, groups in table.by_J.items()}


@settings(max_examples=30, deadline=None)
@given(small_complexes(max_vertices=7), st.sampled_from((ZZ, GF(2))))
@_with_examples(itertools.product(EDGE_CASES + [fig1_complex(), truncated_octahedron()],
                                  (ZZ, GF(2))))
def test_slots_match_the_cell_model_block_by_block(K, ring):
    """Slot by slot, the table against the cell model of Z_K split by
    J = sigma ∪ T.  A slot moved to another J of the same size keeps every
    degree total, which is all the oracle comparisons read."""
    assert _slots_by_label(hochster_decompose(K, ring)) == cw_slots_reference(K, ring)


@settings(max_examples=40, deadline=None)
@given(small_complexes(max_vertices=7))
@_with_examples(EDGE_CASES)
def test_critical_cells_span_a_subcomplex(K):
    """No row of a matched cell in the full model has an entry at a
    critical cell: the coboundary of a critical cochain stays critical."""
    order = matching_order(K)
    rows = _keyed_by_cell(cw_cells_reference(K), cw_complex_reference(K)[1])
    for cell, row in rows.items():
        if not cw_is_critical(K, *cell, order):
            assert not any(cw_is_critical(K, *f, order) for f in row), cell


@settings(max_examples=30, deadline=None)
@given(small_complexes(max_vertices=7), st.permutations(range(7)))
@example(rp2_six_vertices(), tuple(reversed(range(7))))
@example(octahedron(), (5, 3, 1, 0, 2, 4, 6))
def test_any_vertex_order_gives_a_critical_subcomplex_with_the_groups(K, perm):
    """The matching lemma for the first vertex of J in an arbitrary order,
    not only the matching order: the critical cells span a subcomplex, and
    the reference restricted to them has the groups of every cell over Z
    and F2."""
    order = _permuted(K, perm)
    cells = cw_cells_reference(K)
    sizes, deltas = cw_complex_reference(K)
    rows = _keyed_by_cell(cells, deltas)
    critical = {d: [c for c in level if cw_is_critical(K, *c, order)] for d, level in cells.items()}
    position = {c: i for level in critical.values() for i, c in enumerate(level)}
    for cell, row in rows.items():
        if cell not in position:
            assert not any(f in position for f in row), cell
    restricted = {d: [{position[f]: a for f, a in rows[c].items() if f in position}
                      for c in critical[d + 1]]
                  for d in deltas}
    for ring in (ZZ, GF(2)):
        want = {d: g for d, g in groups_per_degree(sizes, deltas, ring).items() if not g.is_trivial}
        got = groups_per_degree({d: len(level) for d, level in critical.items()}, restricted, ring)
        assert {d: g for d, g in got.items() if not g.is_trivial} == want


@settings(max_examples=30, deadline=None)
@given(small_complexes(max_vertices=7), st.permutations(range(7)), st.sampled_from((ZZ, GF(2))))
@example(rp2_six_vertices(), tuple(reversed(range(7))), ZZ)
@example(fig1_complex(), (6, 5, 4, 3, 2, 1, 0), GF(2))
def test_oracle_ignores_the_order_of_the_vertex_list(K, perm, ring):
    """Listing the vertices in another order changes the ranks, so the
    tie-breaks of the matching order and with them the critical cells and
    the signs; the groups stay."""
    permuted = SimplicialComplex(_permuted(K, perm), K.facets)
    assert moment_angle_cw_oracle(permuted, ring) == moment_angle_cw_oracle(K, ring)


@settings(max_examples=30, deadline=None)
@given(small_complexes(max_vertices=7))
@_with_examples(EDGE_CASES)
def test_critical_cells_keep_the_groups(K):
    """The critical cells, reduced with clearing, give the groups of every
    cell, each coboundary reduced whole, over Z, Q, F2 and F3."""
    reduced, full = _cw_complex(K), cw_complex_reference(K)
    for ring in RINGS:
        assert exactalg.cohomology_groups(*reduced, ring) == groups_per_degree(*full, ring)


@settings(max_examples=30, deadline=None)
@given(small_complexes(max_vertices=7), st.sampled_from((ZZ, GF(2))))
@_with_examples(itertools.product(EDGE_CASES + [fig1_complex()], (ZZ, GF(2))))
def test_oracle_reads_the_facets_not_the_faces(K, ring):
    """The oracle on a complex whose faces cannot be enumerated gives the
    groups of the real complex, the Hochster totals: it shares no face
    enumeration with ``cochains``."""
    assert moment_angle_cw_oracle(_NoFaces(K), ring) == {
        d: g for d, g in hochster_decompose(K, ring).total.items() if not g.is_trivial}


@settings(max_examples=60, deadline=None)
@given(small_complexes(max_vertices=7))
@_with_examples(EDGE_CASES + [fig1_complex(), truncated_octahedron(), _WithGhosts(
    SimplicialComplex(["1", "2", "3"], [["1"], ["2", "3"]]), ["g0", "1", "2", "3", "g1"])])
def test_degree_order_is_the_matching_order(K):
    """The order read off the facets' masks against the edge count of
    ``K.faces(1)`` in helpers.  The ghost g0 and the isolated vertex 1 both
    have no neighbour, so they keep their rank order; counting the closed
    neighbourhood instead (1 for the isolated vertex, a face, 0 for a
    ghost) would put 1 before g0 and change the matching."""
    assert tuple(_degree_order(K)) == matching_order(K)


@pytest.mark.parametrize("K", [two_points(), fig1_complex(), rp2_six_vertices(),
                               SimplicialComplex(["1", "2", "3"], [["1"], ["2", "3"]])],
                         ids=["s0", "fig1", "rp2", "point-and-edge"])
def test_critical_cells_with_ghost_vertices(K):
    """A ghost vertex g (no face) has no edges, so ghosts come after every
    vertex with an edge in the matching order, tied in rank order with the
    isolated vertices of K: in s0 and point-and-edge g0 comes before one.
    A cell whose first vertex of J is a ghost is critical, as that ghost is
    in T and in no face; the others are matched as in K.  So more critical
    cells are isolated.  Z_K gains a circle factor per
    ghost, so the groups are those of Z_K shifted by the Kunneth formula."""
    ghosts = _WithGhosts(K, ["g0", *K.vertices[:2], "g1", *K.vertices[2:]])
    _assert_builds_the_linked_critical_cells(ghosts, _WithGhosts(K, matching_order(ghosts)))
    sizes, deltas = _cw_complex(ghosts)
    assert keyed_alike(deltas)
    for ring in (ZZ, GF(2)):
        groups = exactalg.cohomology_groups(sizes, deltas, ring)
        assert groups == groups_per_degree(*cw_complex_reference(ghosts), ring)
        expected = {}
        for d, g in moment_angle_cw_oracle(K, ring).items():
            for shift, copies in ((0, 1), (1, 2), (2, 1)):  # H*(T^2)
                expected.setdefault(d + shift, []).extend([g] * copies)
        assert {d: g for d, g in groups.items() if not g.is_trivial} == {
            d: AbelianGroup(0).direct_sum(*gs) for d, gs in expected.items()}


@settings(max_examples=40, deadline=None)
@given(small_complexes(max_vertices=7))
@_with_examples(EDGE_CASES)
def test_cw_coboundary_squares_to_zero(K):
    """delta o delta = 0 over Z for every pair of consecutive coboundaries,
    on every cell and on the critical ones: a check of the popcount sign
    rule, and of the key contract, that needs no Hochster decomposition."""
    assert keyed_alike(_cw_complex(K)[1])
    assert keyed_alike(cw_complex_reference(K)[1])


@settings(max_examples=40, deadline=None)
@given(small_complexes(max_vertices=7))
@_with_examples(EDGE_CASES)
def test_cw_cell_count(K):
    """One cell (sigma, T) per face sigma and subset T of the other
    vertices: sum over faces of 2^(m - |sigma|), C(m - |sigma|, d - 2|sigma|)
    of them in degree d."""
    m = len(K.vertices)
    faces = [s for p in range(-1, K.dim + 1) for s in K.faces(p)]
    sizes, _ = cw_complex_reference(K)
    assert sum(sizes.values()) == sum(2 ** (m - len(s)) for s in faces)
    assert sizes == {d: sum(math.comb(m - len(s), d - 2 * len(s)) for s in faces
                            if d >= 2 * len(s))
                     for d in sizes}


@settings(max_examples=40, deadline=None)
@given(small_complexes(max_vertices=7))
@_with_examples(EDGE_CASES)
def test_cw_critical_cell_count(K):
    """Per nonempty J with v its first vertex in the matching order,
    f(K_J) - f(st_v K_J) critical cells, faces counted with the empty one
    and sigma in degree |sigma| + |J|, plus the cell (empty, empty): brute
    force over subsets."""
    want = {0: 1}
    for n in range(1, len(K.vertices) + 1):
        for J in itertools.combinations(matching_order(K), n):  # J[0] is the first
            for size in range(n + 1):
                sigmas = list(itertools.combinations(J, size))
                in_K_J = sum(K.has_face(s) for s in sigmas)
                in_star = sum(K.has_face({*s, J[0]}) for s in sigmas)
                if in_K_J - in_star:
                    want[size + n] = want.get(size + n, 0) + in_K_J - in_star
    assert {d: n for d, n in _cw_complex(K)[0].items() if n} == want


@pytest.mark.parametrize("K", [fig1_complex(), truncated_octahedron(), rp2_six_vertices()],
                         ids=["fig1", "truncated-octahedron", "rp2"])
def test_kernel_matches_the_reference_on_cell_models(K):
    """The elimination kernel against the plain one in helpers on every
    coboundary of a cell model, whole, over Z, F2 and F3."""
    _, deltas = cw_complex_reference(K)
    for ring in (ZZ, GF(2), GF(3)):
        for rows in deltas.values():
            assert exactalg._eliminate(rows, ring) == eliminate_reference(rows, ring)


@settings(max_examples=30, deadline=None)
@given(small_complexes(max_vertices=6), st.sampled_from(RINGS))
@example(rp2_six_vertices(), ZZ)
def test_clearing_keeps_the_groups_of_cell_models(K, ring):
    """``cohomology_groups`` reduces top-down and drops the rows at the unit
    pivots of the degree above; every coboundary reduced whole gives the
    same groups."""
    sizes, deltas = cw_complex_reference(K)
    assert keyed_alike(deltas)
    assert exactalg.cohomology_groups(sizes, deltas, ring) == groups_per_degree(sizes, deltas, ring)


def test_clearing_keeps_the_residual_columns():
    """Over Z the cell model of RP^2, of every cell or of the critical ones,
    leaves a residual, whose C2 needs the rows at the residual's columns one
    degree down: only unit pivots clear."""
    for sizes, deltas in (cw_complex_reference(rp2_six_vertices()), _cw_complex(rp2_six_vertices())):
        assert any(exactalg._eliminate(rows, ZZ)[1] for rows in deltas.values())
        groups = exactalg.cohomology_groups(sizes, deltas, ZZ)
        assert groups == groups_per_degree(sizes, deltas, ZZ)
        assert [g.torsion for g in groups.values() if g.torsion] == [(2,)]


def test_join_kunneth_convolution():
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


def disjoint_union(*complexes):
    """The disjoint union, each complex's vertices renamed to the next
    unused numbers in their order."""
    vertices, facets = [], []
    for L in complexes:
        rename = {v: str(len(vertices) + i) for i, v in enumerate(L.vertices)}
        facets += [[rename[v] for v in f] for f in L.facets]
        vertices += rename.values()
    return SimplicialComplex(vertices, facets)


RP2_AND_EDGE = disjoint_union(rp2_six_vertices(), SimplicialComplex(["a", "b"], ["ab"]))
# a slot group with both free rank and torsion, H^2 = Z + C2 on all the
# vertices: RP^2 with the boundary of the tetrahedron 01ab glued on along
# its edge 01, and RP^2 beside the boundary of a tetrahedron
RP2_AND_SPHERE_ON_AN_EDGE = SimplicialComplex(
    list(rp2_six_vertices().vertices) + ["a", "b"],
    [list(f) for f in rp2_six_vertices().facets] + ["01a", "01b", "0ab", "1ab"])
RP2_AND_SPHERE = disjoint_union(rp2_six_vertices(), simplex_boundary("abcd"))
# every J meeting both planes is a merge of the kinds of its two parts, and
# all twelve vertices merge C2 with C2; three components make a merge whose
# second part is itself a merge, with torsion on either side of it
TWO_PROJECTIVE_PLANES = disjoint_union(rp2_six_vertices(), rp2_six_vertices())
POINT_PROJECTIVE_PLANE_AND_SQUARE = disjoint_union(SimplicialComplex(["a"], ["a"]),
                                                   rp2_six_vertices(), cycle_complex(4))

# non-flag complexes with vertices v, w where N[v] lies inside N[w] but lk v
# is no cone on w, so a test on neighbourhoods alone would collapse them: in
# the hollow triangle the edge ac keeps a from being dominated by b, and in
# the boundary of the tetrahedron the triangle bcd keeps d from being
# dominated by a; coned over abc, that boundary first collapses through the
# apex e and then is a core
HOLLOW_TRIANGLE = simplex_boundary("abc")
TETRAHEDRON_BOUNDARY = simplex_boundary("abcd")
CONED_TETRAHEDRON_BOUNDARY = SimplicialComplex(
    list("abcde"), [list(f) for f in TETRAHEDRON_BOUNDARY.facets] + [list("abce")])
PERMUTAHEDRON3 = standard_polytope_complex("permutahedron", 3)
# a core's rows keyed by face index instead of position here make clearing
# drop rows that are no pivots: a wrong total in degrees 8 and 9 over every ring
CLEARING_TRAP = SimplicialComplex(
    [str(i) for i in range(6)],
    ["312", "543", "234", "401", "3205", "152", "143", "402", "2134"])


def core_inputs(K, ring) -> list:
    """The (sizes, deltas, ring) of each core ``hochster_decompose`` hands
    to ``exactalg.cohomology_groups``."""
    calls, real = [], exactalg.cohomology_groups
    exactalg.cohomology_groups = lambda *args: calls.append(args) or real(*args)
    try:
        hochster_decompose(K, ring)
    finally:
        exactalg.cohomology_groups = real
    return calls


@settings(max_examples=30, deadline=None)
@given(complexes_with_planted_rp2(), st.sampled_from(RINGS))
@example(PERMUTAHEDRON3, ZZ)
@example(RP2_AND_EDGE, ZZ)
@example(CLEARING_TRAP, GF(2))
def test_clearing_keeps_the_groups_of_hochster_cores(K, ring):
    """A core's rows are keyed as ``cohomology_groups`` requires, column j of
    one degree naming row j of the next one down, and its groups with
    clearing are those of every coboundary reduced whole."""
    for sizes, deltas, _ in core_inputs(K, ring):
        assert keyed_alike(deltas)
        assert exactalg.cohomology_groups(sizes, deltas, ring) == \
            groups_per_degree(sizes, deltas, ring)


@settings(max_examples=30, deadline=None)
@given(complexes_with_planted_rp2(), st.sampled_from(RINGS))
@example(TWO_TRIANGLES, QQ)
@example(RP2_AND_EDGE, ZZ)
@example(RP2_AND_SPHERE_ON_AN_EDGE, ZZ)
@example(HOLLOW_TRIANGLE, ZZ)
@example(TETRAHEDRON_BOUNDARY, ZZ)
@example(CONED_TETRAHEDRON_BOUNDARY, ZZ)
@example(CLEARING_TRAP, ZZ)
@example(TWO_PROJECTIVE_PLANES, ZZ)
@example(POINT_PROJECTIVE_PLANE_AND_SQUARE, ZZ)
def test_face_table_path_matches_per_subset_cohomology(K, ring):
    """The strong-collapse face-table decomposition against the groups of
    one ReducedCohomology per full subcomplex, slot by slot and in total."""
    table, per_degree = hochster_decompose(K, ring), {}
    for size in range(len(K.vertices) + 1):
        for J in itertools.combinations(K.vertices, size):
            groups = reduced_cohomology(K, J, ring).groups()
            assert table.by_J.get(_mask_of(K, J), {}) == {p: g for p, g in groups.items()
                                                          if not g.is_trivial}
            for p, g in groups.items():
                per_degree.setdefault(p + size + 1, []).append(g)
    totals = {d: AbelianGroup(0).direct_sum(*gs) for d, gs in per_degree.items()}
    assert {d: g for d, g in table.total.items() if not g.is_trivial} == {
        d: g for d, g in totals.items() if not g.is_trivial}


def test_disjoint_union_adds_up_its_components_torsion():
    K = disjoint_union(rp2_six_vertices(), rp2_six_vertices(), SimplicialComplex(["a"], ["a"]))
    J = K.vertices
    assert len(J) == 13
    z, f2 = hochster_decompose(K, ZZ), hochster_decompose(K, GF(2))
    assert z.slot(J, 2) == AbelianGroup(0, (2, 2))
    assert z.slot(J, 0) == AbelianGroup(2)
    assert f2.slot(J, 1) == f2.slot(J, 2) == AbelianGroup(2)
    for table, ring in ((z, ZZ), (f2, GF(2))):
        groups = reduced_cohomology(K, J, ring).groups()
        for p in range(-1, K.dim + 1):
            assert table.slot(J, p) == groups.get(p, AbelianGroup(0))


def test_slots_are_keyed_by_mask_and_listed_by_label():
    """by_J is keyed by the mask of J in rank order; to_json lists the slots
    by label tuple, an order the masks do not follow when the labels sort
    differently from their ranks."""
    K = SimplicialComplex(["b", "a", "10", "9"], [["b", "10"], ["a", "9"]])
    table = hochster_decompose(K, ZZ)
    assert _mask_of(K, ("a", "b")) == 0b0011 and table.by_J[0b0011] == {0: AbelianGroup(1)}
    assert table.slot(("a", "b"), 0) == AbelianGroup(1)
    rows = table.to_json()["by_J"]
    assert [(r["J"], r["p"]) for r in rows] == [
        ([], -1), (["10", "9"], 0), (["a", "10"], 0), (["a", "10", "9"], 0),
        (["b", "10", "9"], 0), (["b", "9"], 0), (["b", "a"], 0), (["b", "a", "10"], 0),
        (["b", "a", "10", "9"], 0), (["b", "a", "9"], 0)]
    with pytest.raises(UnknownVertex):
        table.slot(("a", "c"), 0)


def test_isolated_vertices_share_one_slot_dict_per_kind():
    """On 16 isolated vertices K_J is |J| points, H~^0 = Z^(|J|-1): one
    kind per rank, so by_J holds at most 16 distinct dicts (the empty J's
    unit and Z^1 .. Z^15) for its 65520 entries."""
    K = SimplicialComplex([f"v{i}" for i in range(16)], [[f"v{i}"] for i in range(16)])
    table = hochster_decompose(K, ZZ)
    assert len(table.by_J) == (1 << 16) - 16
    assert len({id(groups) for groups in table.by_J.values()}) <= 16
    assert table.total == {0: AbelianGroup(1), **{k + 1: AbelianGroup(math.comb(16, k) * (k - 1))
                                                  for k in range(2, 17)}}


@st.composite
def few_minimal_non_faces(draw, max_vertices=7, max_non_faces=8):
    """The complex on up to max_vertices vertices whose minimal non-faces are
    the minimal sets among a few random ones of 2 to 4 vertices: its faces
    are the sets containing none of them.  The Taylor complex has a cell per
    set of minimal non-faces, so their number bounds its cost."""
    m = draw(st.integers(2, max_vertices))
    drawn = draw(st.lists(st.sets(st.integers(0, m - 1), min_size=2, max_size=min(4, m)),
                          max_size=max_non_faces))
    masks = {sum(1 << v for v in N) for N in drawn}
    faces = [S for S in range(1 << m) if not any(N & S == N for N in masks)]
    facets = [S for S in faces if not any(S != F and S & F == S for F in faces)]
    return SimplicialComplex([str(v) for v in range(m)],
                             [[str(v) for v in range(m) if F >> v & 1] for F in facets])


@settings(max_examples=40, deadline=None)
@given(few_minimal_non_faces(), st.sampled_from((ZZ, GF(2))))
@example(disjoint_union(rp2_six_vertices(), SimplicialComplex(["a"], ["a"])), ZZ)
@example(join(rp2_six_vertices(), simplex_boundary("abcd")), ZZ)
@example(fig1_complex(), GF(2))
@example(TWO_TRIANGLES, ZZ)
def test_slots_match_the_taylor_resolution(K, ring):
    """Slot by slot, the table against Tor of the Stanley-Reisner ring
    through the Taylor resolution, which reads only the minimal non-faces.
    RP^2 beside a point is disconnected with a torsion component: its J of
    all seven vertices merges C2 with a point.  A disconnected input needs
    a missing edge per pair of vertices across its components, and RP^2
    has ten missing triangles, so it takes 16 non-faces, 2^16 Taylor cells."""
    assert len(minimal_non_faces(K)) <= 16
    assert _slots_by_label(hochster_decompose(K, ring)) == taylor_slots(K, ring)


def test_only_connected_full_subcomplexes_are_eliminated():
    """Every K_J of two hollow triangles but the two triangles themselves is
    a cone or disconnected, so two eliminations give the whole table."""
    assert count_eliminations(TWO_TRIANGLES) == 2


def count_eliminations(K, ring=ZZ) -> int:
    return len(core_inputs(K, ring))


def connected_cores(K) -> int:
    """The full subcomplexes on two or more vertices that are connected and
    have no dominated vertex, found on labels through links."""
    return sum(1 for size in range(2, len(K.vertices) + 1)
               for J in itertools.combinations(K.vertices, size)
               if is_connected(full_subcomplex(K, J)) and is_core(K, J))


def test_only_connected_cores_are_eliminated():
    """A K_J with a dominated vertex takes the groups of the smaller K_J it
    collapses to, so on permutahedron(3) only the connected cores on two or
    more vertices are eliminated."""
    cores = connected_cores(PERMUTAHEDRON3)
    assert cores == 196
    assert count_eliminations(PERMUTAHEDRON3) == cores


@settings(max_examples=40, deadline=None)
@given(complexes_with_planted_rp2())
@example(RP2_AND_EDGE)
@example(HOLLOW_TRIANGLE)
@example(TETRAHEDRON_BOUNDARY)
@example(CONED_TETRAHEDRON_BOUNDARY)
@example(CLEARING_TRAP)
def test_only_connected_cores_are_eliminated_on_non_flag_complexes(K):
    """The domination test of v by w reads the facets of K through v, each
    cut down to J, with w added; these complexes are not flag, so a facet
    can fail it where every neighbour of v in J is adjacent to w.  The test
    is memoised per v on J & N(v), where those facets lie: a key that missed
    a vertex of them, or v itself, would hand one J the answer of another,
    an extra or a missing elimination against the cores found through links."""
    assert count_eliminations(K) == connected_cores(K)


@st.composite
def clique_complexes(draw, max_vertices=9):
    """The clique complex of a random graph on up to max_vertices vertices:
    every set of pairwise adjacent vertices is a face."""
    n = draw(st.integers(2, max_vertices))
    pairs = list(itertools.combinations(range(n), 2))
    edges = {e for e, on in zip(pairs, draw(st.lists(st.booleans(), min_size=len(pairs),
                                                      max_size=len(pairs)))) if on}
    cliques = [[str(v) for v in S] for size in range(1, n + 1)
               for S in itertools.combinations(range(n), size)
               if all(e in edges for e in itertools.combinations(S, 2))]
    return SimplicialComplex([str(v) for v in range(n)], cliques)


@settings(max_examples=40, deadline=None)
@given(clique_complexes())
@example(cycle_complex(5))
def test_only_connected_cores_are_eliminated_on_flag_complexes(K):
    """On a flag complex v is dominated by w exactly when w is a neighbour
    of v in J adjacent to every other one: the neighbour half of the test
    alone decides, and the facet half must agree with it."""
    assert count_eliminations(K) == connected_cores(K)


def test_a_path_needs_no_elimination():
    """Every connected K_J of a path has a leaf, dominated by its one neighbour."""
    path = SimplicialComplex(list("abcd"), ["ab", "bc", "cd"])
    assert count_eliminations(path) == 0


@settings(max_examples=30, deadline=None)
@given(complexes_with_planted_rp2(), st.sampled_from(RINGS))
@example(PERMUTAHEDRON3, ZZ)
def test_slot_ranks_sum_to_the_reduced_euler_characteristic(K, ring):
    """Per slot, the alternating sum of the ranks of H~^p(K_J) is the
    reduced Euler characteristic of K_J from its face counts: an oracle
    with no elimination, past the cell oracle's vertex cap."""
    table = hochster_decompose(K, ring)
    for size in range(len(K.vertices) + 1):
        for J in itertools.combinations(K.vertices, size):
            groups = table.by_J.get(_mask_of(K, J), {})
            assert sum((-1) ** p * g.free_rank for p, g in groups.items()) == \
                reduced_euler_characteristic(full_subcomplex(K, J))


@settings(max_examples=30, deadline=None)
@given(complexes_with_planted_rp2(), st.sampled_from((2, 3)))
@example(RP2_AND_EDGE, 2)
def test_universal_coefficients_per_slot(K, q):
    """The F_q table follows slot by slot from the Z table."""
    assert uct_mismatches(hochster_decompose(K, ZZ), hochster_decompose(K, GF(q)), q) == []


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


def _assert_poincare_duality(total, n):
    """Totals of a closed orientable n-manifold: H^0 = H^n = Z, nothing
    outside degrees 0..n, rank H^k = rank H^(n-k) and Tors H^k = Tors
    H^(n-k+1)."""
    def group(k):
        return total.get(k, AbelianGroup(0))

    assert {d for d, g in total.items() if not g.is_trivial} <= set(range(n + 1))
    assert group(0) == group(n) == AbelianGroup(1)
    for k in range(n + 1):
        assert group(k).free_rank == group(n - k).free_rank, k
        assert group(k).torsion == group(n - k + 1).torsion, k


SPHERES = [cycle_complex(m) for m in range(4, 9)] + [
    octahedron(), standard_polytope_complex("stellohedron", 3)]


@pytest.mark.parametrize("K", SPHERES, ids=[f"C{m}" for m in range(4, 9)] + [
    "octahedron", "stellohedron3"])
def test_poincare_duality_of_the_oracle_on_spheres(K):
    """Z_K of a (d-1)-sphere K on m vertices is a closed orientable manifold
    of dimension m + d, so its oracle totals obey Poincare duality, over Z
    and over F2: a check of the cell model that needs no second model."""
    for ring in (ZZ, GF(2)):
        _assert_poincare_duality(moment_angle_cw_oracle(K, ring), len(K.vertices) + K.dim + 1)


def test_poincare_duality_of_hochster_on_the_permutahedron():
    """The same duality on the Hochster totals of a sphere past the
    oracle's vertex cap."""
    K = standard_polytope_complex("permutahedron", 3)
    with pytest.raises(VertexCapExceeded):
        moment_angle_cw_oracle(K, ZZ)
    _assert_poincare_duality(hochster_decompose(K, ZZ).total, len(K.vertices) + K.dim + 1)
