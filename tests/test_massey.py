import itertools

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from matk import cochains, exactalg
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
    verdict = enumerate_defining_systems(fig1_classes(ring))
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

    verdict = enumerate_defining_systems(classes, budget=12, visit=visit)
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
    """Every stage solve and class key of one fourfold enumeration reuses the
    factorization of its (K_J, p) coboundary."""
    factored, solves = [], []

    class CountingSolver(exactalg.Solver):
        def __init__(self, A, ring, cols=None):
            factored.append(A)  # kept alive, so ids stay distinct
            super().__init__(A, ring, cols)

        def _reduce(self, b):
            solves.append(b)
            return super()._reduce(b)

    monkeypatch.setattr(exactalg, "Solver", CountingSolver)
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
    assert len({id(A) for A in factored}) == len(factored)
    assert len(solves) > 10 * len(factored)


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
    verdict = enumerate_defining_systems(classes)
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
