"""End-to-end acceptance criteria.

Each test prints one PASS line (visible with ``pytest -s``) and enforces the
stated runtime limit.  Everything here is exact arithmetic; the only
tolerances are the time budgets.
"""

import random
import time

from matk import cochains
from matk.cochains import (
    Chain,
    Cochain,
    boundary,
    coboundary,
    evaluate,
    reduced_cohomology,
)
from matk.constructions import (
    JoinMasseySpec,
    canonical_defining_system_joins,
    certify_join_nontrivial,
    construct_massey_complex,
    contract_edges,
    disjointify_defining_system,
    pullback_defining_system,
    witness_cycle,
)
from matk.exactalg import GF, QQ, ZZ, AbelianGroup
from matk.hochster import (
    class_in_slot,
    hochster_decompose,
    moment_angle_cw_oracle,
)
from matk.massey import (
    associated_cocycle,
    check_defining_system,
    enumerate_defining_systems,
    triple_massey_decide,
)
from matk.nestohedra import nestohedron_massey_input, standard_polytope_complex
from matk.simplicial import (
    SimplicialComplex,
    contract_edge,
    star_delete,
)

from helpers import (
    contraction_example_source,
    contraction_example_target,
    cycle_complex,
    enumerate_reference,
    euler_characteristic,
    f_vector,
    fig1_complex,
    four_massey_complex,
    octahedron,
    reduced_betti,
    rp2_join_spec,
    rp2_six_vertices,
    snf_diagonal,
    two_points,
)
from test_constructions import joins_example_spec, target_spec
from test_massey import _massey4_fixture, fig1_classes

RINGS = (ZZ, QQ, GF(2), GF(3))


def report(number, elapsed, limit, message):
    assert elapsed < limit, f"criterion {number} took {elapsed:.1f}s (limit {limit}s)"
    print(f"\nACCEPTANCE {number}: PASS ({elapsed:.2f}s) - {message}")


def random_complex(rng, max_vertices=7):
    n = rng.randint(2, max_vertices)
    labels = [str(i + 1) for i in range(n)]
    facets = [rng.sample(labels, rng.randint(1, min(4, n)))
              for _ in range(rng.randint(1, 9))]
    return SimplicialComplex(labels, facets)


def test_criterion_1_fig1_triple_product():
    t0 = time.monotonic()
    K = fig1_complex()
    verdict = triple_massey_decide(*fig1_classes(ZZ))
    assert verdict.defined
    assert verdict.contains_zero is False
    assert verdict.indeterminacy_rank == 1
    for p in (2, 3):
        ring = GF(p)
        enum = enumerate_reference(fig1_classes(ring))
        assert enum.defined and enum.contains_zero is False
        H = reduced_cohomology(K, K.vertices, ring)
        targets = [
            Cochain(K, ring, K.vertices, 1,
                    {("1", "5"): ring.one, ("3", "5"): ring.of_int(t)})
            for t in range(p)
        ]
        assert len(enum.class_representatives) == p and enum.indeterminacy_rank == 1
        for omega in enum.class_representatives:
            assert any(H.are_cohomologous(omega, t) for t in targets)
    report(1, time.monotonic() - t0, 1.0,
           "six-vertex fixture: defined, non-trivial, indeterminacy rank 1; "
           "all classes of the form [chi15 + t.chi35] over F2 and F3")


def test_criterion_2_oracle_equivalence():
    t0 = time.monotonic()
    fixtures = [
        two_points(), cycle_complex(4), cycle_complex(5), octahedron(),
        fig1_complex(), contraction_example_source(),
    ]
    rng = random.Random(20260809)
    complexes = fixtures + [random_complex(rng) for _ in range(100)]
    for K in complexes:
        for ring in RINGS:
            table = hochster_decompose(K, ring)
            oracle = moment_angle_cw_oracle(K, ring)
            nontrivial = {d: g for d, g in table.total.items() if not g.is_trivial}
            assert nontrivial == oracle, (K, ring.name())
    report(2, time.monotonic() - t0, 120.0,
           f"{len(complexes)} complexes x 4 rings: decomposition and cell "
           "model give identical ranks and torsion in every degree")


def test_criterion_3_join_construction_end_to_end():
    t0 = time.monotonic()
    spec = joins_example_spec()
    K, ledger = construct_massey_complex(spec)
    assert set(ledger.simplices()) == {
        ("1", "4"), ("1", "5"), ("1", "6"), ("3", "8"), ("4", "8"), ("5", "8")}
    ds = canonical_defining_system_joins(spec, K)
    assert ds.a(1, 2) == Cochain(K, ZZ, ("1", "2", "3", "4", "5", "6"), 0, {("1",): -1})
    assert ds.a(2, 3) == Cochain(K, ZZ, ("3", "4", "5", "6", "7", "8"), 0,
                                 {("3",): -1, ("4",): -1, ("5",): -1})
    omega = associated_cocycle(ds)
    assert omega.p + len(omega.J) + 1 == 10
    x = witness_cycle(spec, K)
    expected_x = Chain(K, ZZ, K.vertices, 1,
                    {("1", "3"): 1, ("2", "3"): -1, ("2", "8"): 1, ("1", "8"): -1})
    assert x in (expected_x, -expected_x)
    assert evaluate(omega, x) in (1, -1)
    f2 = GF(2)
    spec2 = joins_example_spec(f2)
    K2, _ = construct_massey_complex(spec2)
    ds2 = canonical_defining_system_joins(spec2, K2)
    enum = enumerate_defining_systems(ds2.classes)
    assert enum.defined and enum.contains_zero is False
    report(3, time.monotonic() - t0, 60.0,
           "worked join example: deletion list, canonical system, +-1 pairing "
           "with the witness cycle, exhaustive F2 triviality check")


def test_criterion_4_torsion_massey():
    t0 = time.monotonic()
    K1 = rp2_six_vertices()
    assert reduced_cohomology(K1, K1.vertices, ZZ).group(2) == AbelianGroup(0, (2,))
    spec = rp2_join_spec()
    K, _ = construct_massey_complex(spec)
    ds = canonical_defining_system_joins(spec, K)
    omega = associated_cocycle(ds)
    assert omega.p + len(omega.J) + 1 == 14
    verdict = triple_massey_decide(*ds.classes)
    assert verdict.defined and verdict.contains_zero is False
    assert verdict.indeterminacy_rank == 1
    J12 = ds.J_block(1, 2)
    assert reduced_cohomology(K, J12, ZZ).group(2) == AbelianGroup(1)
    alt = Cochain(K, ZZ, J12, 2, {
        ("1", "2", "6"): 1, ("1", "2", "4"): 1, ("1", "4", "7"): -1,
        ("3", "4", "7"): -1, ("0", "3", "7"): 1, ("0", "2", "7"): 1})
    ds_alt = ds.with_entry(1, 2, alt)
    assert check_defining_system(ds_alt) == []
    omega_alt = associated_cocycle(ds_alt)
    H = reduced_cohomology(K, K.vertices, ZZ)
    assert not H.are_cohomologous(omega, omega_alt)
    cert = certify_join_nontrivial(spec, K, ds)
    assert cert.method == "pairing" and cert.cycle.ring == GF(2)
    report(4, time.monotonic() - t0, 30.0,
           "projective-plane join: exact Z/2 in the factor, non-trivial "
           "product in degree 14 with rank-1 free indeterminacy, [w] != [w']")


def test_criterion_5_contraction_calculus():
    t0 = time.monotonic()
    K = contraction_example_source()
    Khat, phi, ok = contract_edge(K, ("1", "4"), new_label="1h")
    assert ok and Khat == contraction_example_target()
    for ring in (QQ, GF(2)):
        assert reduced_betti(K, ring) == reduced_betti(Khat, ring)
    spec = target_spec()
    ds_hat = canonical_defining_system_joins(spec, Khat)
    ds = pullback_defining_system(phi, ds_hat)
    minus_chi13 = Cochain(K, ZZ, ("1", "4", "2", "3", "5", "6"), 1, {("1", "3"): -1})
    assert ds.a(1, 2) == minus_chi13
    alt = Cochain(K, ZZ, ("1", "4", "2", "3", "5", "6"), 1,
                  {("1", "6"): 1, ("1", "4"): 1, ("1", "5"): 1})
    touched = ds.with_entry(1, 2, alt)
    assert check_defining_system(touched) == []
    clean = disjointify_defining_system(touched, ("1", "4"))
    assert clean.a(1, 2) == minus_chi13
    d_chi1 = coboundary(Cochain.chi(K, ZZ, ("1",), J=("1", "4", "2", "3", "5", "6")))
    assert alt - clean.a(1, 2) == -d_chi1
    verdict = triple_massey_decide(*ds.classes)
    assert verdict.defined and verdict.contains_zero is False
    report(5, time.monotonic() - t0, 60.0,
           "edge contraction {1,4}: link condition, Betti invariance, "
           "pullback -chi13, disjointification modulo d(chi1), non-trivial "
           "product upstairs")


def test_criterion_6_four_fold_with_indeterminacy():
    t0 = time.monotonic()
    K = four_massey_complex()
    ring = GF(2)
    classes = tuple(
        class_in_slot(K, ring, (str(i), str(i) + "'"), 0, {(str(i),): ring.one})
        for i in range(1, 5))
    checked = []

    def visit(ds, omega):
        a12, a23, a13 = ds.a(1, 2), ds.a(2, 3), ds.a(1, 3)
        shift = a13.coefficient(("3'",))
        nc = {v: ring.sub(a13.coefficient((v,)), shift)
              for v in ("1", "1'", "3")}
        b1 = a12.coefficient(("2'",))
        b2 = a12.coefficient(("1'",))
        b3 = a23.coefficient(("3'",))
        e2 = nc["1'"]
        e1 = ring.add(nc["1"], b3)
        e3 = ring.sub(ring.sub(nc["3"], e2), b2)
        assert ring.sub(e2, e1) == ring.of_int(-1)
        assert ring.sub(e3, e2) == ring.sub(b1, b2)
        checked.append(True)

    verdict = enumerate_reference(classes, budget=12, visit=visit)
    assert verdict.defined and verdict.contains_zero is False
    assert verdict.distinct_class_count >= 2
    assert len(checked) == 64
    report(6, time.monotonic() - t0, 60.0,
           "eight-vertex fourfold product over F2: all 64 systems obey the "
           "two parameter constraints, no zero class, several distinct classes")


def _pipeline_certificate(kind, n, k):
    ring = ZZ if k == 3 or k == 2 else GF(2)
    sub, classes, contractions = nestohedron_massey_input(kind, n, k, ring)
    if k == 2:
        from matk.hochster import product_in_hochster

        prod = product_in_hochster(classes[0], classes[1])
        assert not prod.is_zero()
        return "cup product nonzero"
    if contractions:
        Khat, phi, ok = contract_edges(sub, contractions)
        assert ok, "a contraction fails the link condition"
        assert phi.is_order_compatible()
        down_ring = classes[0].ring
        down_classes = []
        for cls in classes:
            image = Khat.sort_simplex({phi.assignment[v] for v in cls.J})
            comp = phi.assignment[cls.representative.support[0][0]]
            down_classes.append(class_in_slot(
                Khat, down_ring, image, 0, {(comp,): down_ring.one}))
        if k == 3:
            down = triple_massey_decide(*down_classes)
        else:
            down = enumerate_defining_systems(down_classes, budget=20)
        assert down.defined and down.contains_zero is False
        pulled = pullback_defining_system(phi, down.witness_system)
        assert check_defining_system(pulled) == []
    if k == 3:
        verdict = triple_massey_decide(*classes)
    else:
        verdict = enumerate_defining_systems(classes, budget=20)
    assert verdict.defined and verdict.contains_zero is False
    return "defined and non-trivial"


def test_criterion_7_nestohedra():
    t0 = time.monotonic()
    K = standard_polytope_complex("permutahedron", 3)
    assert f_vector(K) == (14, 36, 24)
    assert euler_characteristic(K) == 2
    assert reduced_betti(K, QQ) == {2: 1}
    for (n, k) in ((3, 2), (3, 3), (4, 3), (4, 4)):
        _pipeline_certificate("permutahedron", n, k)
    _pipeline_certificate("stellohedron", 3, 3)
    report(7, time.monotonic() - t0, 300.0,
           "permutahedron(3) sphere f-vector; k-fold products on "
           "permutahedra (3,2),(3,3),(4,3),(4,4) and stellohedron(3) all "
           "defined and non-trivial through the contraction + join pipeline")


def test_criterion_8_property_suites():
    t0 = time.monotonic()
    rng = random.Random(97)

    def random_cochain(K, ring, p):
        faces = K.faces(p)
        picks = rng.sample(faces, min(len(faces), rng.randint(1, 4)))
        return Cochain(K, ring, K.vertices, p,
                       {s: ring.of_int(rng.randint(-3, 3)) for s in picks})

    # d.d = 0 on 200 random cochains
    for _ in range(200):
        K = random_complex(rng, 6)
        ring = rng.choice(RINGS)
        p = rng.randint(0, max(K.dim, 0))
        if not K.faces(p):
            continue
        assert coboundary(coboundary(random_cochain(K, ring, p))).is_zero()

    # boundary.boundary = 0
    for _ in range(100):
        K = random_complex(rng, 6)
        p = rng.randint(0, max(K.dim, 0))
        faces = K.faces(p)
        if not faces:
            continue
        x = Chain(K, ZZ, K.vertices, p,
                  {s: rng.randint(-3, 3) for s in faces})
        assert boundary(boundary(x)).is_zero()

    # adjointness of d and the boundary under evaluation
    for _ in range(100):
        K = random_complex(rng, 6)
        ring = rng.choice(RINGS)
        p = rng.randint(0, max(K.dim, 0))
        lower, upper = K.faces(p), K.faces(p + 1)
        if not lower or not upper:
            continue
        a = Cochain(K, ring, K.vertices, p,
                    {s: ring.of_int(rng.randint(-2, 2)) for s in lower})
        x = Chain(K, ring, K.vertices, p + 1,
                  {s: ring.of_int(rng.randint(-2, 2)) for s in upper})
        assert evaluate(coboundary(a), x) == evaluate(a, boundary(x))

    # Smith form invariants are stable under row/column shuffles
    for _ in range(100):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        M = [[rng.randint(-8, 8) for _ in range(cols)] for _ in range(rows)]
        rperm = rng.sample(range(rows), rows)
        cperm = rng.sample(range(cols), cols)
        P = [[M[i][j] for j in cperm] for i in rperm]
        assert snf_diagonal(M) == snf_diagonal(P)

    # star deletion commutes for incomparable simplices
    trials = 0
    while trials < 100:
        K = random_complex(rng, 6)
        faces = [f for p in range(K.dim + 1) for f in K.faces(p)]
        I1, I2 = rng.choice(faces), rng.choice(faces)
        if set(I1) <= set(I2) or set(I2) <= set(I1):
            continue
        trials += 1
        A = star_delete(star_delete(K, I1), I2)
        B = star_delete(star_delete(K, I2), I1)
        assert set(A.all_faces()) == set(B.all_faces())

    # witness cycles close and canonical systems validate on random specs
    labels = [c + d for c in "abcdefgh" for d in "0123456789"]
    for _ in range(100):
        n_factors = rng.randint(2, 3)
        names = iter(rng.sample(labels, 12))
        factors, cochains = [], []
        for _i in range(n_factors):
            verts = [next(names) for _ in range(rng.randint(2, 3))]
            Ki = SimplicialComplex(verts, [[v] for v in verts])
            factors.append(Ki)
            cochains.append(Cochain.chi(Ki, ZZ, (verts[0],), J=verts))
        spec = JoinMasseySpec(tuple(factors), tuple(cochains))
        K, _ = construct_massey_complex(spec)
        assert boundary(witness_cycle(spec, K)).is_zero()
        assert check_defining_system(canonical_defining_system_joins(spec, K)) == []

    # pullbacks of random valid systems along the fixture contraction validate
    K = contraction_example_source()
    Khat, phi, _ = contract_edge(K, ("1", "4"), new_label="1h")
    for _ in range(100):
        ring = rng.choice(RINGS)
        spec = target_spec(ring)
        ds_hat = canonical_defining_system_joins(spec, Khat)
        for (i, k) in ((1, 2), (2, 3)):
            H = reduced_cohomology(Khat, ds_hat.J_block(i, k), ring)
            entry = ds_hat.a(i, k)
            for z in H.cocycle_basis(ds_hat.p_block(i, k)):
                c = rng.randint(0, 2)
                if c:
                    entry = entry + z.scale(ring.of_int(c))
            ds_hat = ds_hat.with_entry(i, k, entry)
        assert check_defining_system(ds_hat) == []
        pulled = pullback_defining_system(phi, ds_hat)
        assert check_defining_system(pulled) == []

    report(8, time.monotonic() - t0, 600.0,
           "property suites: differentials square to zero, adjointness, "
           "Smith stability, deletion commutativity, witness closedness, "
           "canonical and pulled-back systems all valid (100+ trials each)")


def test_criterion_9_fourfold_decisions_over_larger_fields():
    """The fourfold fixture has six free parameters, one of them in a_{3,4}:
    over F_p the coset argument makes p solves, not p^6 leaves."""
    for p, limit, classes in ((5, 0.5, 5), (101, 10.0, 101)):
        cochains._cached_cohomology.cache_clear()
        t0 = time.monotonic()
        verdict = enumerate_defining_systems(_massey4_fixture(GF(p)))
        elapsed = time.monotonic() - t0
        assert verdict.defined is True and verdict.contains_zero is False
        assert verdict.distinct_class_count == classes
        report(9, elapsed, limit,
               f"fourfold fixture over F{p}: defined, non-trivial, {classes} classes")


def test_criterion_10_nestohedral_input_from_its_slot_vertices():
    """permutahedron(7) has 254 vertices; the fourfold input keeps 8 of them
    and searches nested families over those alone."""
    t0 = time.monotonic()
    sub, classes, contractions = nestohedron_massey_input("permutahedron", 7, 4, GF(2))
    elapsed = time.monotonic() - t0
    assert len(sub.vertices) == 8 and len(classes) == 4 and contractions == []
    report(10, elapsed, 2.0,
           "fourfold input on permutahedron(7): an 8-vertex complex from its slot vertices")
