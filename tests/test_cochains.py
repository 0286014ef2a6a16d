import itertools

import pytest
from hypothesis import given, settings, strategies as st

from matk.cochains import (
    AmbientMismatch,
    Chain,
    Cochain,
    GradingMismatch,
    ReducedCohomology,
    VertexNotInSet,
    boundary,
    coboundary,
    cochain_from_json,
    cochain_to_json,
    cup_multiply,
    epsilon,
    evaluate,
    overline,
    reduced_cohomology,
    total_degree,
)
from matk.exactalg import GF, QQ, ZZ, AbelianGroup
from matk.simplicial import SimplicialComplex

from helpers import (
    contraction_example_source,
    cup_multiply_reference,
    epsilon_set,
    fig1_complex,
    joins_example_complex,
    octahedron,
    reduced_homology,
    rp2_six_vertices,
    two_points,
)
from test_simplicial import small_complexes


def chain_line(K):
    return SimplicialComplex([str(i) for i in range(1, 7)], [[str(i)] for i in range(1, 7)])


def test_epsilon_basics():
    K = chain_line(None)
    assert epsilon(K, "1", {"1", "3", "5"}) == 1
    assert epsilon(K, "3", {"1", "3", "5"}) == -1
    assert epsilon_set(K, {"1", "5"}, {"1", "3", "5"}) == 1
    with pytest.raises(VertexNotInSet):
        epsilon(K, "2", {"1", "3"})


def test_coboundary_of_vertex_cochain():
    K = fig1_complex()
    d = coboundary(Cochain.chi(K, ZZ, ("1",), J=K.vertices))
    # 1 is the first vertex of each edge, so every added vertex sits second
    assert d == Cochain(K, ZZ, K.vertices, 1,
                        {("1", "4"): -1, ("1", "5"): -1, ("1", "6"): -1})


def test_component_constant_is_cocycle():
    K = fig1_complex()
    a12 = Cochain(K, ZZ, ("1", "2", "3", "4"), 0,
                  {("3",): 5, ("1",): 7, ("2",): 7, ("4",): 7})
    assert coboundary(a12).is_zero()


def test_coboundary_of_empty_simplex():
    K = two_points()
    d = coboundary(Cochain(K, ZZ, ("1", "2"), -1, {(): 1}))
    assert d == Cochain(K, ZZ, ("1", "2"), 0, {("1",): 1, ("2",): 1})


@settings(max_examples=100, deadline=None)
@given(small_complexes(), st.data())
def test_dd_is_zero(K, data):
    ring = data.draw(st.sampled_from([ZZ, QQ, GF(2), GF(3)]))
    p = data.draw(st.integers(-1, max(K.dim, 0)))
    faces = K.faces(p)
    if not faces:
        return
    coeffs = {
        s: ring.of_int(data.draw(st.integers(-3, 3)))
        for s in data.draw(st.sets(st.sampled_from(faces), max_size=4))
    }
    a = Cochain(K, ring, K.vertices, p, coeffs)
    assert coboundary(coboundary(a)).is_zero()


@settings(max_examples=100, deadline=None)
@given(small_complexes(), st.data())
def test_boundary_boundary_is_zero(K, data):
    p = data.draw(st.integers(0, max(K.dim, 0)))
    faces = K.faces(p)
    if not faces:
        return
    coeffs = {s: data.draw(st.integers(-3, 3)) for s in faces}
    x = Chain(K, ZZ, K.vertices, p, coeffs)
    assert boundary(boundary(x)).is_zero()


def test_boundary_expansion_and_augmentation():
    K = octahedron()
    x = boundary(Chain.delta(K, ZZ, ("1", "3", "5"), J=K.vertices))
    assert x == Chain(K, ZZ, K.vertices, 1,
                      {("3", "5"): 1, ("1", "5"): -1, ("1", "3"): 1})
    v = boundary(Chain.delta(K, ZZ, ("2",), J=K.vertices))
    assert v == Chain(K, ZZ, K.vertices, -1, {(): 1})


def test_witness_cycle_of_joins_example_is_closed():
    K = joins_example_complex()
    x = Chain(K, ZZ, K.vertices, 1,
              {("1", "3"): 1, ("2", "3"): -1, ("2", "8"): 1, ("1", "8"): -1})
    assert boundary(x).is_zero()
    omega_prime = Cochain.chi(K, ZZ, ("1", "8"), J=K.vertices)
    assert evaluate(omega_prime, x) == -1


def test_evaluate_matches_kronecker():
    K = octahedron()
    a = Cochain.chi(K, ZZ, ("1", "3"), J=K.vertices)
    x = Chain.delta(K, ZZ, ("1", "3"), J=K.vertices)
    assert evaluate(a, x) == 1
    with pytest.raises(GradingMismatch):
        evaluate(a, Chain.delta(K, ZZ, ("1",), J=K.vertices))


@settings(max_examples=80, deadline=None)
@given(small_complexes(), st.data())
def test_adjointness(K, data):
    ring = data.draw(st.sampled_from([ZZ, GF(2), GF(5)]))
    p = data.draw(st.integers(0, max(K.dim, 0)))
    lower, upper = K.faces(p), K.faces(p + 1)
    if not lower or not upper:
        return
    a = Cochain(K, ring, K.vertices, p,
                {s: ring.of_int(data.draw(st.integers(-2, 2))) for s in lower})
    x = Chain(K, ring, K.vertices, p + 1,
              {s: ring.of_int(data.draw(st.integers(-2, 2))) for s in upper})
    assert evaluate(coboundary(a), x) == evaluate(a, boundary(x))


def test_cup_product_overlapping_supports_vanish():
    K = fig1_complex()
    a = Cochain.chi(K, ZZ, ("3",), J=("3", "4"))
    b = Cochain.chi(K, ZZ, ("4",), J=("4", "5"))
    assert cup_multiply(a, b).is_zero()


def test_cup_product_on_fig1():
    K = fig1_complex()
    a2 = Cochain.chi(K, ZZ, ("3",), J=("3", "4"))
    a3 = Cochain.chi(K, ZZ, ("5",), J=("5", "6"))
    prod = cup_multiply(overline(a2), a3)
    assert prod == Cochain(K, ZZ, ("3", "4", "5", "6"), 1, {("3", "5"): 1})
    # terms outside the complex are dropped
    a1 = Cochain.chi(K, ZZ, ("1",), J=("1", "2"))
    assert cup_multiply(overline(a1), a2).is_zero()  # {1,3} is not an edge


def test_cup_product_ordered_blocks_sign():
    K = contraction_example_source()
    a1 = Cochain.chi(K, ZZ, ("1", "3"), J=("1", "2", "3", "4"))
    a2 = Cochain.chi(K, ZZ, ("5",), J=("5", "6"))
    assert cup_multiply(a1, a2) == Cochain(
        K, ZZ, ("1", "2", "3", "4", "5", "6"), 2, {("1", "3", "5"): 1}
    )


def test_unit_cochain_multiplies_trivially():
    K = fig1_complex()
    unit = Cochain(K, ZZ, (), -1, {(): 1})
    a = Cochain.chi(K, ZZ, ("3",), J=("3", "4"))
    assert cup_multiply(unit, a) == a
    assert cup_multiply(a, unit) == a


def random_cochains(data, K, parts):
    """One cochain of degree -1..1, coefficients in -2..2, over Z, Q, F2 or
    F3, on each of `parts` disjoint vertex sets of K; the sets interleave in
    any way (consecutive blocks are one case), may be empty and may leave
    vertices out.  None when some set has no faces in its drawn degree."""
    ring = data.draw(st.sampled_from([ZZ, QQ, GF(2), GF(3)]))
    n = len(K.vertices)
    labels = data.draw(st.lists(st.integers(0, parts), min_size=n, max_size=n))
    out = []
    for i in range(parts):
        J = tuple(v for v, part in zip(K.vertices, labels) if part == i)
        p = data.draw(st.integers(-1, 1))
        faces = [s for s in K.faces(p) if set(s) <= set(J)]
        if not faces:
            return None
        out.append(Cochain(K, ring, J, p,
                           {s: ring.of_int(data.draw(st.integers(-2, 2))) for s in faces}))
    return out


@settings(max_examples=150, deadline=None)
@given(small_complexes(), st.data())
def test_cup_agrees_with_paper_formula(K, data):
    cochains = random_cochains(data, K, 2)
    if cochains is not None:
        a, b = cochains
        assert cup_multiply(a, b) == cup_multiply_reference(a, b)


@settings(max_examples=80, deadline=None)
@given(small_complexes(), st.data())
def test_cup_graded_commutative(K, data):
    cochains = random_cochains(data, K, 2)
    if cochains is not None:
        a, b = cochains
        sign = a.ring.of_int((-1) ** (total_degree(a) * total_degree(b)))
        assert cup_multiply(a, b) == cup_multiply(b, a).scale(sign)


@settings(max_examples=80, deadline=None)
@given(small_complexes(), st.data())
def test_cup_associative(K, data):
    cochains = random_cochains(data, K, 3)
    if cochains is not None:
        a, b, c = cochains
        assert cup_multiply(cup_multiply(a, b), c) == cup_multiply(a, cup_multiply(b, c))


@settings(max_examples=150, deadline=None)
@given(small_complexes(), st.data())
def test_leibniz_rule(K, data):
    cochains = random_cochains(data, K, 2)
    if cochains is None:
        return
    a, b = cochains
    ring = a.ring
    lhs = coboundary(cup_multiply(a, b))
    sign = ring.of_int((-1) ** total_degree(a))
    rhs = cup_multiply(coboundary(a), b) + cup_multiply(a, coboundary(b)).scale(sign)
    assert lhs == rhs


@pytest.mark.parametrize("ring,c,reduced", [(GF(2), 2, 0), (GF(2), 3, 1), (GF(3), 3, 0),
                                            (GF(3), 4, 1), (GF(3), -1, 2)])
def test_cochain_reduces_its_coefficients(ring, c, reduced):
    K = two_points()
    a = Cochain(K, ring, ("1", "2"), 0, {("1",): c})
    assert a.is_zero() == (reduced == 0)
    assert a == Cochain(K, ring, ("1", "2"), 0, {("1",): reduced})
    expected = [{"simplex": ["1"], "coeff": str(reduced)}] if reduced else []
    assert cochain_to_json(a)["terms"] == expected


def test_support_bookkeeping():
    K = fig1_complex()
    a = Cochain(K, ZZ, ("1", "2", "3"), 0, {("1",): 2, ("2",): -1})
    b = Cochain(K, ZZ, ("1", "2", "3"), 0, {("1",): -2, ("3",): 4})
    s = a + b
    assert s.support == (("2",), ("3",))
    assert set(s.support) <= set(a.support) | set(b.support)


def test_reduced_cohomology_of_s0():
    K = two_points()
    H = reduced_cohomology(K, ("1", "2"), ZZ)
    assert H.group(0) == AbelianGroup(1)
    assert H.group(-1) == AbelianGroup(0)


def test_reduced_cohomology_of_empty_subcomplex():
    K = two_points()
    H = reduced_cohomology(K, (), ZZ)
    assert H.group(-1) == AbelianGroup(1)


def test_reduced_cohomology_of_rp2():
    K = rp2_six_vertices()
    H = reduced_cohomology(K, K.vertices, ZZ)
    assert H.group(0) == AbelianGroup(0)
    assert H.group(1) == AbelianGroup(0)
    assert H.group(2) == AbelianGroup(0, (2,))
    H2 = reduced_cohomology(K, K.vertices, GF(2))
    assert H2.group(1) == AbelianGroup(1)
    assert H2.group(2) == AbelianGroup(1)


def test_fig1_first_cohomology_of_stage_subcomplexes_vanishes():
    K = fig1_complex()
    assert reduced_cohomology(K, ("1", "2", "3", "4"), ZZ).group(1).is_trivial
    assert reduced_cohomology(K, ("3", "4", "5", "6"), ZZ).group(1).is_trivial
    assert reduced_cohomology(K, ("1", "2", "3", "4"), ZZ).group(0) == AbelianGroup(1)


def test_fig1_cocycle_space_matches_text():
    K = fig1_complex()
    H = reduced_cohomology(K, ("1", "2", "3", "4"), ZZ)
    basis = H.cocycle_basis(0)
    assert len(basis) == 2
    for z in basis:
        assert coboundary(z).is_zero()
    chi3 = Cochain.chi(K, ZZ, ("3",), J=("1", "2", "3", "4"))
    comp = Cochain(K, ZZ, ("1", "2", "3", "4"), 0, {("1",): 1, ("2",): 1, ("4",): 1})
    for c in (chi3, comp):
        assert H.is_cocycle(c)
        assert not H.is_coboundary(c)
    assert H.class_key(chi3) != H.class_key(Cochain.zero(K, ZZ, ("1", "2", "3", "4"), 0))


def test_class_keys_separate_and_identify():
    K = fig1_complex()
    H = reduced_cohomology(K, K.vertices, ZZ)
    w1 = Cochain(K, ZZ, K.vertices, 1, {("1", "5"): 1})
    w2 = w1 + coboundary(Cochain.chi(K, ZZ, ("1",), J=K.vertices))
    assert H.class_key(w1) == H.class_key(w2)
    assert H.are_cohomologous(w1, w2)
    w3 = Cochain(K, ZZ, K.vertices, 1, {("1", "5"): 1, ("3", "5"): 1})
    assert H.class_key(w1) != H.class_key(w3)


def test_class_key_leaves_the_kernel_unlifted():
    K = fig1_complex()
    H = ReducedCohomology(K, K.vertices, ZZ)  # not the memo: a fresh Solver
    w = Cochain(K, ZZ, K.vertices, 1, {("1", "5"): 1})
    H.class_key(w)
    solver = H.solver(0)
    assert "kernel" not in vars(solver)
    assert len(solver.kernel) == len(H.simplices(0)) - solver.rank
    assert "kernel" in vars(solver)


def test_class_keys_on_mixed_free_and_torsion_group():
    # projective plane wedge a two-sphere: degree-two cohomology Z/2 + Z
    rp2 = rp2_six_vertices()
    sphere = [["0", "7", "8"], ["0", "7", "9"], ["0", "8", "9"], ["7", "8", "9"]]
    K = SimplicialComplex([str(i) for i in range(10)],
                          [list(f) for f in rp2.facets] + sphere)
    H = reduced_cohomology(K, K.vertices, ZZ)
    assert H.group(2) == AbelianGroup(1, (2,))
    torsion = Cochain.chi(K, ZZ, ("0", "1", "2"), J=K.vertices)
    free = Cochain.chi(K, ZZ, ("7", "8", "9"), J=K.vertices)
    assert H.is_cocycle(torsion) and H.is_cocycle(free)
    zero = Cochain.zero(K, ZZ, K.vertices, 2)
    kt, kf, k0 = H.class_key(torsion), H.class_key(free), H.class_key(zero)
    assert kt != k0 and kf != k0 and kt != kf
    # twice the torsion class dies; twice the free class does not
    assert H.class_key(torsion + torsion) == k0
    assert H.class_key(free + free) != k0
    assert H.class_key(free + free) != kf
    # keys are stable under coboundary shifts
    shift = coboundary(Cochain.chi(K, ZZ, ("0", "1"), J=K.vertices))
    assert H.class_key(torsion + shift) == kt


def test_cohomology_groups_match_homology_over_fields():
    for K in (octahedron(), fig1_complex(), rp2_six_vertices()):
        for ring in (QQ, GF(2), GF(3)):
            H = reduced_cohomology(K, K.vertices, ring)
            homology = reduced_homology(K, ring)
            for p in range(-1, K.dim + 1):
                assert H.group(p).free_rank == homology[p].free_rank


def test_json_round_trip():
    K = fig1_complex()
    a = Cochain(K, QQ, ("1", "2", "3", "4"), 0,
                {("3",): QQ.element_from_str("2/3"), ("1",): QQ.of_int(-1)})
    blob = cochain_to_json(a)
    assert blob["terms"][0]["coeff"] == "-1"
    assert cochain_from_json(blob, K, QQ) == a


@settings(max_examples=60, deadline=None)
@given(small_complexes(), st.data())
def test_trusted_arithmetic_equals_validated_construction(K, data):
    # +, -, scale and coordinate vectors skip validation; they must build
    # exactly what the validating constructor builds from the same terms
    ring = data.draw(st.sampled_from([ZZ, QQ, GF(2), GF(3)]))
    J = K.sort_simplex(data.draw(st.sets(st.sampled_from(K.vertices), min_size=1)))
    H = ReducedCohomology(K, J, ring)
    p = data.draw(st.integers(-1, H.max_p))
    coefficient = st.integers(-3, 3).map(ring.of_int)

    def draw_cochain():
        return Cochain(K, ring, J, p, {s: data.draw(coefficient) for s in H.simplices(p)
                                       if data.draw(st.booleans())})

    a, b = draw_cochain(), draw_cochain()
    c = data.draw(coefficient)
    terms = set(a.coeffs) | set(b.coeffs)
    assert a + b == Cochain(K, ring, J, p, {s: ring.add(a.coefficient(s), b.coefficient(s))
                                             for s in terms})
    assert a - b == Cochain(K, ring, J, p, {s: ring.sub(a.coefficient(s), b.coefficient(s))
                                             for s in terms})
    assert -a == Cochain(K, ring, J, p, {s: ring.neg(x) for s, x in a.coeffs.items()})
    assert a.scale(c) == Cochain(K, ring, J, p, {s: ring.mul(c, x) for s, x in a.coeffs.items()})
    assert H.cochain(H.vector(a), p) == a
    assert all(not ring.is_zero(x) for x in (a + b).coeffs.values())


@pytest.mark.parametrize("J,p,simplex", [
    (["1", "2", "3", "4"], 0, ["1", "2"]),  # not 0-dimensional
    (["1", "2", "3", "4"], 0, ["5"]),  # not inside J
    (["1", "2"], 1, ["1", "2"]),  # not a face of fig1
])
def test_malformed_json_cochain_still_raises(J, p, simplex):
    blob = {"J": J, "p": p, "terms": [{"simplex": simplex, "coeff": "1"}]}
    with pytest.raises(GradingMismatch):
        cochain_from_json(blob, fig1_complex(), ZZ)


def test_ambient_mismatch_raises():
    a = Cochain.chi(fig1_complex(), ZZ, ("3",), J=("3", "4"))
    b = Cochain.chi(octahedron(), ZZ, ("5",), J=("5", "6"))
    with pytest.raises(AmbientMismatch):
        cup_multiply(a, b)


@settings(max_examples=60, deadline=None)
@given(small_complexes(), st.data())
def test_coboundary_rows_match_coboundary_of_basis_cochains(K, data):
    # the rows handed to the elimination kernels carry exactly the signs of
    # coboundary(), the convention of this module
    J = data.draw(st.sets(st.sampled_from(K.vertices), min_size=1))
    ring = data.draw(st.sampled_from([ZZ, QQ, GF(3)]))
    H = ReducedCohomology(K, J, ring)
    for p in range(-1, H.max_p + 1):
        dom, cod = H.simplices(p), H.simplices(p + 1)
        rows = [{} for _ in cod]
        for j, s in enumerate(dom):
            image = coboundary(Cochain(K, ring, H.J, p, {s: ring.one}))
            for i, t in enumerate(cod):
                c = image.coefficient(t)
                if not ring.is_zero(c):
                    rows[i][j] = c
        assert [{j: ring.of_int(a) for j, a in row.items()}
                for row in H.delta_matrix(p)] == rows
