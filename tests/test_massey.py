import itertools
import json

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from matk import cochains, exactalg, massey
from matk.cochains import (
    AmbientMismatch,
    Chain,
    Cochain,
    coboundary,
    evaluate,
    overline,
    cup_multiply,
    reduced_cohomology,
)
from matk.errors import MalformedInput
from matk.exactalg import GF, QQ, ZZ
from matk.hochster import CohomologyClass, class_in_slot
from matk.massey import (
    DefiningSystem,
    InvalidDefiningSystem,
    MasseyVerdict,
    OverlappingSupports,
    RingNotFinite,
    associated_cocycle,
    check_defining_system,
    enumerate_defining_systems,
    find_evaluating_cycle,
    triple_massey_decide,
)
from matk.simplicial import MissingField, SimplicialComplex

from helpers import (
    cycle_complex,
    enumerate_reference,
    fig1_complex,
    four_massey_complex,
    joins_example_complex,
    octahedron,
    two_points,
)
from test_simplicial import small_complexes

RINGS = (ZZ, QQ, GF(2), GF(3))


def fig1_classes(ring):
    K = fig1_complex()
    return (
        class_in_slot(K, ring, ("1", "2"), 0, {("1",): ring.one}),
        class_in_slot(K, ring, ("3", "4"), 0, {("3",): ring.one}),
        class_in_slot(K, ring, ("5", "6"), 0, {("5",): ring.one}),
    )


def fig1_system(ring, c1, c2, c3):
    K = fig1_complex()
    classes = fig1_classes(ring)
    a12 = Cochain(K, ring, ("1", "2", "3", "4"), 0,
                  {("3",): ring.of_int(c1), ("1",): ring.of_int(c2),
                   ("2",): ring.of_int(c2), ("4",): ring.of_int(c2)})
    a23 = Cochain(K, ring, ("3", "4", "5", "6"), 0,
                  {("5",): ring.add(ring.one, ring.of_int(c3)),
                   ("3",): ring.of_int(c3), ("4",): ring.of_int(c3),
                   ("6",): ring.of_int(c3)})
    return DefiningSystem(classes, {(1, 2): a12, (2, 3): a23})


def test_defining_system_leaves_the_callers_entries_alone():
    entries = {}
    ds = DefiningSystem(fig1_classes(ZZ), entries)
    assert entries == {}
    assert sorted(ds.entries) == [(1, 1), (2, 2), (3, 3)]


def test_fig1_defining_system_is_valid():
    ds = fig1_system(ZZ, 2, 3, 5)
    assert check_defining_system(ds) == []


def test_fig1_associated_cocycle_matches_formula():
    K = fig1_complex()
    c1, c2, c3 = 2, 3, 5
    ds = fig1_system(ZZ, c1, c2, c3)
    omega = associated_cocycle(ds)
    expected = Cochain(K, ZZ, K.vertices, 1, {
        ("1", "4"): c3, ("1", "6"): c3,
        ("1", "5"): 1 + c3 + c2,
        ("3", "5"): c1,
        ("2", "5"): c2,
    })
    assert omega == expected
    H = reduced_cohomology(K, K.vertices, ZZ)
    normal_form = Cochain(K, ZZ, K.vertices, 1,
                          {("1", "5"): 1, ("3", "5"): c1 - c2})
    assert H.are_cohomologous(omega, normal_form)
    assert not H.is_coboundary(normal_form)


def test_perturbed_system_reports_one_residual():
    ds = fig1_system(ZZ, 1, 0, 0)
    broken = ds.with_entry(2, 3, ds.a(2, 3) + Cochain.chi(
        ds.complex, ZZ, ("4",), J=("3", "4", "5", "6")))
    bad = check_defining_system(broken)
    assert len(bad) == 1
    assert bad[0][:2] == (2, 3)
    with pytest.raises(InvalidDefiningSystem):
        associated_cocycle(broken)


def test_two_fold_system_is_the_cup_product():
    K = cycle_complex(4)
    a = class_in_slot(K, ZZ, ("1", "3"), 0, {("1",): 1})
    b = class_in_slot(K, ZZ, ("2", "4"), 0, {("2",): 1})
    ds = DefiningSystem((a, b), {})
    omega = associated_cocycle(ds)
    assert omega == cup_multiply(overline(a.representative), b.representative)


@pytest.mark.parametrize("ring", RINGS)
def test_fig1_triple_product_nontrivial_with_indeterminacy(ring):
    verdict = triple_massey_decide(*fig1_classes(ring))
    assert verdict.defined
    assert verdict.contains_zero is False
    assert verdict.indeterminacy_rank == 1
    assert verdict.witness_cocycle is not None
    assert check_defining_system(verdict.witness_system) == []
    x = verdict.witness_cycle
    assert x is not None
    assert not ring.is_zero(evaluate(verdict.witness_cocycle, x))


def test_nonvanishing_cup_product_obstructs():
    K = octahedron()
    a1 = class_in_slot(K, ZZ, ("1", "2"), 0, {("1",): 1})
    a2 = class_in_slot(K, ZZ, ("3", "4"), 0, {("3",): 1})
    a3 = class_in_slot(K, ZZ, ("5", "6"), 0, {("5",): 1})
    verdict = triple_massey_decide(a1, a2, a3)
    assert not verdict.defined
    assert verdict.obstruction_stage == (1, 2)


def test_overlapping_supports_raise():
    K = fig1_complex()
    a = class_in_slot(K, ZZ, ("1", "2"), 0, {("1",): 1})
    b = class_in_slot(K, ZZ, ("2", "3"), 0, {("3",): 1})  # {2,3} is a non-edge
    with pytest.raises(OverlappingSupports):
        triple_massey_decide(a, b, a)


def test_mixed_rings_are_an_ambient_mismatch():
    a1, _, a3 = fig1_classes(ZZ)
    _, a2, _ = fig1_classes(GF(2))
    with pytest.raises(AmbientMismatch):
        triple_massey_decide(a1, a2, a3)
    with pytest.raises(AmbientMismatch):
        enumerate_defining_systems((a1, a2, a3))


def test_enumeration_needs_finite_field():
    with pytest.raises(RingNotFinite):
        enumerate_defining_systems(fig1_classes(ZZ))


def test_enumeration_needs_two_classes():
    for classes in ((), fig1_classes(GF(2))[:1]):
        with pytest.raises(InvalidDefiningSystem):
            enumerate_defining_systems(classes)


@pytest.mark.parametrize("p", [2, 3])
def test_fig1_enumeration_class_set(p):
    ring = GF(p)
    K = fig1_complex()
    verdict = enumerate_reference(fig1_classes(ring))
    assert verdict.defined and verdict.contains_zero is False
    H = reduced_cohomology(K, K.vertices, ring)
    targets = [
        Cochain(K, ring, K.vertices, 1,
                {("1", "5"): ring.one, ("3", "5"): ring.of_int(t)})
        for t in range(p)
    ]
    assert verdict.distinct_class_count == p
    for omega in verdict.class_representatives:
        assert any(H.are_cohomologous(omega, t) for t in targets)


def test_budget_exhaustion_is_honest():
    verdict = enumerate_defining_systems(fig1_classes(GF(2)), budget=1)
    assert verdict.budget_exhausted
    assert verdict.contains_zero is None
    assert verdict.defined  # the parameter-free branch completes


def test_budget_verdict_is_unknown_when_the_probe_fails():
    """Over F2 the parameter-free branch of stellohedron(4)'s fourfold
    product fails, yet other branches complete: under budget the verdict
    cannot say "not defined"."""
    from matk.nestohedra import nestohedron_massey_input

    _, classes, _ = nestohedron_massey_input("stellohedron", 4, 4, GF(2))
    verdict = enumerate_defining_systems(classes, budget=0)
    assert verdict.budget_exhausted
    assert verdict.defined is None and verdict.contains_zero is None
    assert verdict.to_json() == {"defined": None, "contains_zero": None,
                                 "budget_exhausted": True}
    assert enumerate_defining_systems(classes).defined is True


def assert_matches_reference(classes, budget=20):
    """The coset decision and the exhaustive walk agree byte for byte."""
    fast = enumerate_defining_systems(classes, budget=budget)
    slow = enumerate_reference(classes, budget=budget)
    assert (json.dumps(fast.to_json(), sort_keys=True)
            == json.dumps(slow.to_json(), sort_keys=True))
    assert fast.distinct_class_count == slow.distinct_class_count
    return fast


def _shifted(classes, c):
    """Each representative plus c d(b), b the sum of the basis one degree
    down: the classes are unchanged."""
    out = []
    for cls in classes:
        rep = cls.representative
        H = reduced_cohomology(rep.complex, rep.J, rep.ring)
        b = Cochain(rep.complex, rep.ring, rep.J, rep.p - 1,
                    {s: rep.ring.of_int(c) for s in H.simplices(rep.p - 1)})
        out.append(CohomologyClass(rep + coboundary(b)))
    return tuple(out)


def _massey4_fixture(ring):
    import pathlib

    from matk.cochains import cochain_from_json
    from matk.simplicial import complex_from_json

    fixtures = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
    K = complex_from_json(json.loads((fixtures / "massey4.json").read_text()))
    blobs = json.loads((fixtures / "massey4-classes.json").read_text())
    blobs = blobs["classes"] if isinstance(blobs, dict) else blobs
    return tuple(CohomologyClass(cochain_from_json(b, K, ring)) for b in blobs)


def _nestohedral(kind, n, k):
    from matk.nestohedra import nestohedron_massey_input

    return tuple(nestohedron_massey_input(kind, n, k, GF(2))[1])


@pytest.mark.parametrize("shift", [0, 1])
@pytest.mark.parametrize("make", [
    lambda: _massey4_fixture(GF(2)),
    lambda: _massey4_fixture(GF(3)),
    lambda: _nestohedral("permutahedron", 4, 4),
    lambda: _nestohedral("permutahedron", 5, 4),
    lambda: _nestohedral("stellohedron", 4, 4),
], ids=["massey4-F2", "massey4-F3", "permutahedron-4-4", "permutahedron-5-4",
        "stellohedron-4-4"])
def test_enumeration_matches_reference_on_benchmark_inputs(make, shift):
    classes = make()
    assert_matches_reference(_shifted(classes, shift) if shift else classes)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_enumeration_matches_reference_on_fig1(p):
    verdict = assert_matches_reference(fig1_classes(GF(p)))
    assert verdict.distinct_class_count == p


def test_enumeration_matches_reference_on_moved_inputs():
    """The inputs of the tests that read the walk's leaves or classes."""
    from matk.constructions import canonical_defining_system_joins, pullback_class

    from test_constructions import phi_and_complexes, target_spec

    K = four_massey_complex()
    ring = GF(2)
    assert_matches_reference(tuple(
        class_in_slot(K, ring, (str(i), str(i) + "'"), 0, {(str(i),): ring.one})
        for i in range(1, 5)), budget=12)
    assert_matches_reference(fig1_classes(GF(3)))
    K, Khat, phi, _ = phi_and_complexes()
    ds_hat = canonical_defining_system_joins(target_spec(ring), Khat)
    assert_matches_reference(ds_hat.classes, budget=16)
    assert_matches_reference(tuple(
        CohomologyClass(pullback_class(phi, c.representative)) for c in ds_hat.classes),
        budget=16)


def _products_stay_affine(n, params, E):
    """No product in a staircase or in the associated cochain multiplies two
    factors that vary with the parameters outside E."""
    varies = {(i, i): False for i in range(1, n + 1)}
    for (i, k) in massey._stages(n) + [(1, n)]:
        factors = [(varies[(i, r)], varies[(r + 1, k)]) for r in range(i, k)]
        if any(u and v for u, v in factors):
            return False
        own = (i, k) not in E and params.get((i, k), 0) > 0
        varies[(i, k)] = own or any(u or v for u, v in factors)
    return True


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.integers(0, 3), min_size=len(massey._stages(n)), max_size=len(massey._stages(n))))))
def test_enumerated_stages_are_a_cheapest_affine_choice(case):
    n, counts = case
    params = dict(zip(massey._stages(n), counts))
    E = massey._enumerated_stages(n, params)
    assert _products_stay_affine(n, params, set(E))
    cheapest = min(sum(params[s] for s in subset)
                   for r in range(len(params) + 1)
                   for subset in itertools.combinations(params, r)
                   if _products_stay_affine(n, params, set(subset)))
    assert sum(params[s] for s in E) == cheapest


def test_twofold_enumeration_matches_reference_over_z():
    """With no stages to solve a product is decided over Z; the class keys
    of the last pair carry a Hermite residual, as their slot is C2."""
    from matk.constructions import canonical_defining_system_joins, construct_massey_complex

    from helpers import rp2_join_spec

    spec = rp2_join_spec()
    K, _ = construct_massey_complex(spec)
    a1, a2, a3 = canonical_defining_system_joins(spec, K).classes
    verdicts = [assert_matches_reference(pair) for pair in ((a1, a2), (a2, a3), (a1, a3))]
    assert [v.contains_zero for v in verdicts] == [True, True, False]


@st.composite
def s0_join_products(draw, n):
    """n classes on the slots {i, i'} of a join of n copies of S0 with some
    cross pairs star-deleted, over F2, F3 or F5: each representative is c
    chi_v for a slot vertex v, shifted by a multiple of d(chi_empty).  One
    deletion between each two neighbouring slots makes their product zero,
    so that most of the drawn Massey products are defined."""
    from matk.simplicial import join, star_delete

    ring = draw(st.sampled_from([GF(2), GF(3), GF(5)]))
    K = two_points("1", "1'")
    for i in range(2, n + 1):
        K = join(K, two_points(str(i), f"{i}'"))
    cross = [(u, v) for u, v in itertools.combinations(K.vertices, 2)
             if u.rstrip("'") != v.rstrip("'")]
    neighbours = [draw(st.sampled_from([(u, v) for u in (str(i), f"{i}'")
                                        for v in (str(i + 1), f"{i + 1}'")]))
                  for i in range(1, n)]
    # the deletions of the fourfold fixture, less at most two of them
    fixture = [e for e in [("1", "2'"), ("1", "3'"), ("2", "3'"), ("2", "4'"), ("3", "4'"),
                           ("1'", "2'"), ("1'", "3'")] if int(e[1][0]) <= n]
    dropped = draw(st.lists(st.sampled_from(fixture), max_size=2, unique=True))
    kept = [e for e in fixture if e not in dropped]
    extra = draw(st.lists(st.sampled_from(cross), max_size=3, unique=True))
    for pair in dict.fromkeys(neighbours + kept + extra):
        K = star_delete(K, pair)
    classes = []
    for i in range(1, n + 1):
        slot = (str(i), f"{i}'")
        v = draw(st.sampled_from(slot))
        c, shift = draw(st.integers(1, ring.p - 1)), draw(st.integers(0, ring.p - 1))
        coeffs = {(u,): ring.of_int(shift + (c if u == v else 0)) for u in slot}
        classes.append(CohomologyClass(Cochain(K, ring, slot, 0, coeffs)))
    return tuple(classes)


# budgets that keep the walk of the reference to a few hundred leaves
WALK_BUDGET = {2: 10, 3: 6, 5: 4}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([3, 4]).flatmap(s0_join_products))
def test_enumeration_matches_reference_on_random_products(classes):
    assert_matches_reference(classes, budget=WALK_BUDGET[classes[0].ring.p])


def test_four_massey_enumeration_shape_and_nontriviality():
    K = four_massey_complex()
    ring = GF(2)
    classes = tuple(
        class_in_slot(K, ring, (str(i), str(i) + "'"), 0, {(str(i),): ring.one})
        for i in range(1, 5)
    )
    seen = []

    def visit(ds, omega):
        # The displayed solution family fixes the coefficient of chi_{3'} in
        # a_{1,3} to zero; any solution differs from it by the all-ones
        # coboundary shift, so normalize that away before reading parameters.
        a12, a23, a13 = ds.a(1, 2), ds.a(2, 3), ds.a(1, 3)
        shift = a13.coefficient(("3'",))
        nc = {v: ring.sub(a13.coefficient((v,)), shift)
              for v in ("1", "1'", "2", "2'", "3", "3'")}
        b1 = a12.coefficient(("2'",))
        b2 = a12.coefficient(("1'",))
        b3 = a23.coefficient(("3'",))
        e2 = nc["1'"]
        e1 = ring.add(nc["1"], b3)
        e3 = ring.sub(ring.sub(nc["3"], e2), b2)
        assert nc["2"] == e2 and nc["2'"] == ring.zero
        assert ring.sub(e2, e1) == ring.of_int(-1)
        assert ring.sub(e3, e2) == ring.sub(b1, b2)
        seen.append(omega)

    verdict = enumerate_reference(classes, budget=12, visit=visit)
    assert verdict.defined
    assert verdict.contains_zero is False
    assert verdict.distinct_class_count >= 2
    x = Chain(K, ring, K.sort_simplex(("1", "1'", "2", "2'", "3", "3'", "4", "4'")), 1, {
        ("1", "2"): ring.one, ("1'", "2"): ring.one,
        ("1'", "4'"): ring.one, ("1", "4'"): ring.one,
    })
    from matk.cochains import boundary

    assert boundary(x).is_zero()
    for ds_omega in seen:
        assert evaluate(ds_omega, x) == ring.one
    assert len(seen) == 2 ** 6


def test_enumeration_factors_each_coboundary_once(monkeypatch):
    """Every stage lift, class key and primitive of one fourfold enumeration
    reuses the factorization of its (K_J, p) coboundary: the coboundaries are
    factored exactly as often as there are distinct (J, p) pairs."""
    built, factored, pairs = [], [], set()

    class CountingSolver(exactalg.Solver):
        def __init__(self, A, ring, cols=None):
            built.append(A)
            super().__init__(A, ring, cols)

    solver = cochains.ReducedCohomology.solver

    def counting_solver(self, p):
        pairs.add((self.J, p))
        before = len(built)
        out = solver(self, p)
        factored.extend(built[before:])
        return out

    monkeypatch.setattr(exactalg, "Solver", CountingSolver)
    monkeypatch.setattr(cochains.ReducedCohomology, "solver", counting_solver)
    cochains._cached_cohomology.cache_clear()
    K = four_massey_complex()
    ring = GF(2)
    classes = tuple(
        class_in_slot(K, ring, (str(i), str(i) + "'"), 0, {(str(i),): ring.one})
        for i in range(1, 5)
    )
    verdict = enumerate_defining_systems(classes, budget=12)
    cochains._cached_cohomology.cache_clear()
    assert verdict.contains_zero is False
    assert pairs and len(factored) == len(pairs)


def test_verdict_json_round_trips_witness():
    ring = GF(2)
    verdict = enumerate_defining_systems(fig1_classes(ring))
    blob = verdict.to_json()
    assert blob["defined"] is True and blob["contains_zero"] is False
    K = fig1_complex()
    replay = DefiningSystem.from_json(blob["witness"]["defining_system"], K, ring)
    assert check_defining_system(replay) == []
    del blob["witness"]["defining_system"]["entries"][0]["k"]
    with pytest.raises(MissingField, match="'k'"):
        DefiningSystem.from_json(blob["witness"]["defining_system"], K, ring)


def _witness_blob():
    ring = GF(2)
    blob = enumerate_defining_systems(fig1_classes(ring)).to_json()
    return blob["witness"]["defining_system"], fig1_complex(), ring


def test_defining_system_reader_takes_string_indices():
    ds, K, ring = _witness_blob()
    for e in ds["entries"]:
        e["i"], e["k"] = str(e["i"]), str(e["k"])
    assert check_defining_system(DefiningSystem.from_json(ds, K, ring)) == []


@pytest.mark.parametrize("edit, error", [
    (lambda ds: ds["entries"][0].update(i="one"), MalformedInput),
    (lambda ds: ds["entries"][0].update(k=1.5), MalformedInput),
    (lambda ds: ds.update(entries=5), MalformedInput),
    (lambda ds: ds.update(classes="abc"), MalformedInput),
    (lambda ds: ds.update(classes={"0": ds["classes"][0]}), MalformedInput),
    (lambda ds: ds.update(classes=[[1, 2]]), MissingField),
    (lambda ds: ds.update(entries=[5]), MissingField),
], ids=["i-word", "k-float", "entries-int", "classes-string", "classes-object",
        "class-array", "entry-int"])
def test_defining_system_reader_rejects_wrong_shapes(edit, error):
    ds, K, ring = _witness_blob()
    edit(ds)
    with pytest.raises(error):
        DefiningSystem.from_json(ds, K, ring)


@pytest.mark.parametrize("field", ["classes", "entries"])
def test_defining_system_reader_names_a_missing_field(field):
    ds, K, ring = _witness_blob()
    del ds[field]
    with pytest.raises(MissingField, match=repr(field)):
        DefiningSystem.from_json(ds, K, ring)


def _triple_candidates(K):
    """Disjoint non-edge pairs usable as S0 slots for a triple product."""
    verts = K.vertices
    non_edges = [
        (u, v) for u, v in itertools.combinations(verts, 2)
        if not K.has_face((u, v))
    ]
    for trio in itertools.combinations(non_edges, 3):
        flat = [v for pair in trio for v in pair]
        if len(set(flat)) == 6:
            return trio
    return None


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(small_complexes(max_vertices=7), st.integers(0, 1))
def test_enumeration_agrees_with_exact_triple_decision(K, _seed):
    trio = _triple_candidates(K)
    assume(trio is not None)
    ring = GF(2)
    classes = tuple(
        class_in_slot(K, ring, pair, 0, {(pair[0],): ring.one}) for pair in trio
    )
    exact = triple_massey_decide(*classes)
    brute = enumerate_defining_systems(classes, budget=14)
    assert exact.defined == brute.defined
    if exact.defined and not brute.budget_exhausted:
        assert exact.contains_zero == brute.contains_zero


@settings(max_examples=40, deadline=None)
@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
def test_random_fig1_systems_have_cocycle_associates(c1, c2, c3):
    ds = fig1_system(ZZ, c1, c2, c3)
    omega = associated_cocycle(ds)
    assert coboundary(omega).is_zero()


def test_triple_coset_law():
    """Associated classes of two triple systems with the same representatives
    differ by an element of the indeterminacy subgroup."""
    from matk import exactalg
    from matk.cochains import cup_multiply

    ring = GF(3)
    K = fig1_complex()
    classes = fig1_classes(ring)
    a1, _, a3 = (c.representative for c in classes)
    H = reduced_cohomology(K, K.vertices, ring)
    H12 = reduced_cohomology(K, ("1", "2", "3", "4"), ring)
    H23 = reduced_cohomology(K, ("3", "4", "5", "6"), ring)
    gens = [cup_multiply(overline(a1), z) for z in H23.cocycle_basis(0)]
    gens += [cup_multiply(overline(z), a3) for z in H12.cocycle_basis(0)]
    verdict = enumerate_reference(classes)
    omegas = verdict.class_representatives
    base = omegas[0]
    # columns: the generators, then d: C^0 -> C^1
    row_of = {t: i for i, t in enumerate(H.simplices(1))}
    system = [{len(gens) + j: a for j, a in row.items()} for row in H.delta_matrix(0)]
    for k, g in enumerate(gens):
        for t, c in g.coeffs.items():
            system[row_of[t]][k] = c
    solver = exactalg.Solver(system, ring, len(gens) + len(H.simplices(0)))
    for omega in omegas[1:]:
        assert solver.solve(H.vector(omega - base)) is not None


def test_find_evaluating_cycle_returns_pairing_witness():
    K = joins_example_complex()
    omega = Cochain(K, ZZ, K.vertices, 1, {("1", "3"): -1, ("1", "7"): -1})
    x = find_evaluating_cycle(omega)
    assert x is not None
    assert evaluate(omega, x) != 0
