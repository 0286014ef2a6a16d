import itertools
import json
import pathlib
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from matk import cochains, exactalg, massey
from matk.cochains import (
    AmbientMismatch,
    Chain,
    Cochain,
    coboundary,
    cochain_from_json,
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
    OverlappingSupports,
    RingNotFinite,
    associated_cocycle,
    check_defining_system,
    enumerate_defining_systems,
    find_evaluating_cycle,
    triple_massey_decide,
)
from matk.simplicial import MissingField

from helpers import (
    assert_witness_replays,
    count_lifts,
    cycle_complex,
    enumerate_reference,
    fig1_complex,
    flag_complex,
    four_massey_complex,
    graphs_on_six_vertices,
    joins_example_complex,
    octahedron,
    triple_reference,
    two_points,
    unit_class,
    walk,
)
from test_simplicial import small_complexes

RINGS = (ZZ, QQ, GF(2), GF(3))
FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


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


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(3)], ids=["Z", "Q", "F3"])
def test_twofold_product_with_the_unit_first_is_exact(ring):
    """The unit has p + |J| = -1, so the staircase sign of its product with
    a class is (-1)^-1: the int -1, never a float, over every ring.  Every
    coefficient of the witness is an int or a Fraction, and its JSON
    replays as a valid defining system with the same associated cocycle."""
    K = fig1_complex()
    a = fig1_classes(ring)[0]
    verdict = enumerate_defining_systems((unit_class(K, ring), a))
    assert verdict.defined is True and verdict.contains_zero is False
    ds = verdict.witness_system
    assert verdict.witness_cocycle == associated_cocycle(ds) == -a.representative
    values = [c for x in (*ds.entries.values(), verdict.witness_cocycle, verdict.witness_cycle)
              for c in x.coeffs.values()]
    values.append(evaluate(verdict.witness_cocycle, verdict.witness_cycle))
    assert all(type(c) in (int, Fraction) for c in values)
    blob = json.loads(json.dumps(verdict.to_json()))["witness"]
    replayed = DefiningSystem.from_json(blob["defining_system"], K, ring)
    assert check_defining_system(replayed) == []
    assert associated_cocycle(replayed) == \
        cochain_from_json(blob["associated_cocycle"], K, ring) == verdict.witness_cocycle


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
    for ring in (ZZ, QQ):
        with pytest.raises(RingNotFinite):
            enumerate_defining_systems(_massey4_fixture(ring))


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
    assert len(verdict.class_representatives) == p and verdict.indeterminacy_rank == 1
    for omega in verdict.class_representatives:
        assert any(H.are_cohomologous(omega, t) for t in targets)


# 8-vertex flag complexes whose fourfold products on the classes chi_1,
# chi_3, chi_5, chi_7 of the non-edges 12, 34, 56, 78 enumerate one class
# parameter: 2 branches over F2 and 3 over F3
FLAG_A = "13 17 18 23 26 28 35 38 45 46 48"
FLAG_B = "16 17 23 24 25 26 27 28 36 37 38 47 57 58"
FLAG_C = "16 17 24 28 35 36 37 38 45 46 47 67 68"  # not defined
FLAG_D = "14 17 18 24 26 27 35 37 38 45 47 67 68"  # non-trivial, p classes


def _flag_product(edges, ring):
    K = flag_complex(edges)
    return tuple(class_in_slot(K, ring, (str(v), str(v + 1)), 0, {(str(v),): ring.one})
                 for v in (1, 3, 5, 7))


@pytest.mark.parametrize("p", [2, 3])
def test_flag_d_fixture_is_the_flag_product(p):
    """fixtures/flag-d.json and its classes, which the CLI golden reads,
    are the flag complex of FLAG_D with chi_1, chi_3, chi_5 and chi_7."""
    fixture, product = _fixture_classes("flag-d", GF(p)), _flag_product(FLAG_D, GF(p))
    assert [c.representative for c in fixture] == [c.representative for c in product]


def test_budget_exhaustion_is_honest():
    verdict = enumerate_defining_systems(_flag_product(FLAG_A, GF(2)), budget=0)
    assert verdict.to_json() == {"defined": True, "contains_zero": None,
                                 "budget_exhausted": True}  # the zero branch completes


def test_budget_verdict_is_unknown_when_the_probe_fails():
    """Over F2 the parameter-free branch of B's fourfold product fails, yet
    the other branch completes: under budget the verdict cannot say "not
    defined"."""
    classes = _flag_product(FLAG_B, GF(2))
    verdict = enumerate_defining_systems(classes, budget=0)
    assert verdict.to_json() == {"defined": None, "contains_zero": None,
                                 "budget_exhausted": True}
    verdict = enumerate_defining_systems(classes)
    assert verdict.defined is True and verdict.distinct_class_count == 2


def _json(verdict):
    return json.dumps(verdict.to_json(), sort_keys=True)


def _zero_system(classes):
    """The walk's first system over no cocycles, each stage the particular
    primitive of its staircase, with its associated cochain, or None: it
    exists exactly when every constant residue of the decider's all-zero
    branch vanishes, and it is then the decider's witness."""
    base = DefiningSystem(classes, {})
    stages = massey._stages(base.n)
    return next(walk(base, stages, {s: [] for s in stages}), None)


def assert_matches_reference(classes, budget=20):
    """The coset decision and the exhaustive walk agree byte for byte.

    The walk's budget caps every stage's cocycles, the decider's only the
    enumerated class parameters, so the walk can stop where the decider
    decides.  Then the decider matches what the walk still knows: the one
    solve of ``triple_reference`` for n = 3, and for n >= 4 the probe's
    ``defined``, when its parameter-free branch completes.

    The decider's witness is the walk's first system when the zero system
    exists (``_zero_system``).  Otherwise it is the point of its first
    feasible branch, and the walk's first system may differ: every other
    field is compared byte for byte, and the witness replays."""
    fast = enumerate_defining_systems(classes, budget=budget)
    slow = enumerate_reference(classes, budget=budget)
    if slow.budget_exhausted and not fast.budget_exhausted:
        if len(classes) == 3:
            assert _json(fast) == _json(triple_reference(*classes))
        else:
            assert slow.defined is None or fast.defined is True
        return fast
    if fast.witness_system is not None and _zero_system(classes) is None:
        assert_witness_replays(fast)
        fast_blob, slow_blob = fast.to_json(), slow.to_json()
        del fast_blob["witness"], slow_blob["witness"]
        assert json.dumps(fast_blob, sort_keys=True) == json.dumps(slow_blob, sort_keys=True)
        return fast
    assert _json(fast) == _json(slow)
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


def _fixture_classes(stem, ring):
    """The classes of fixtures/<stem>-classes.json on fixtures/<stem>.json."""
    from matk.simplicial import complex_from_json

    K = complex_from_json(json.loads((FIXTURES / f"{stem}.json").read_text()))
    blobs = json.loads((FIXTURES / f"{stem}-classes.json").read_text())
    blobs = blobs["classes"] if isinstance(blobs, dict) else blobs
    return tuple(CohomologyClass(cochain_from_json(b, K, ring)) for b in blobs)


def _massey4_fixture(ring):
    return _fixture_classes("massey4", ring)


def test_staircase_builds_its_products_and_one_sum(monkeypatch):
    # the staircase of (1, 4) has three splits: it builds their three
    # products, the zero it starts from and one sum, with no negated copy
    # and no running sum per split
    ds, omega = _zero_system(_massey4_fixture(GF(2)))
    built = []  # every cochain comes from the constructor or from _trusted
    init, trusted = Cochain.__init__, Cochain._trusted.__func__

    def counting_init(self, *args):
        built.append("validated")
        init(self, *args)

    def counting_trusted(cls, *args):
        built.append("trusted")
        return trusted(cls, *args)

    monkeypatch.setattr(Cochain, "__init__", counting_init)
    monkeypatch.setattr(Cochain, "_trusted", classmethod(counting_trusted))
    assert ds.staircase(1, 4) == omega
    assert built == ["trusted"] * 5


def _nestohedral(kind, n, k, ring=GF(2)):
    from matk.nestohedra import nestohedron_massey_input

    return tuple(nestohedron_massey_input(kind, n, k, ring)[1])


@pytest.mark.parametrize("shift", [0, 1])
@pytest.mark.parametrize("make,branches", [
    (lambda: _massey4_fixture(GF(2)), 1),
    (lambda: _massey4_fixture(GF(3)), 1),
    (lambda: _nestohedral("permutahedron", 4, 4), 1),
    (lambda: _nestohedral("permutahedron", 5, 4), 1),
    (lambda: _nestohedral("stellohedron", 4, 4), 1),
    *[(lambda g=g, p=p: _flag_product(g, GF(p)), p)
      for g in (FLAG_B, FLAG_C, FLAG_D) for p in (2, 3)],
], ids=["massey4-F2", "massey4-F3", "permutahedron-4-4", "permutahedron-5-4",
        "stellohedron-4-4", "flag-B-F2", "flag-B-F3", "flag-C-F2", "flag-C-F3",
        "flag-D-F2", "flag-D-F3"])
def test_enumeration_matches_reference_on_benchmark_inputs(monkeypatch, make, branches, shift):
    """The massey benchmark's fourfold inputs walk one branch each; the flag
    complexes, which no benchmark job runs, walk p, so the memo shared by the
    branches and the count over several cosets are compared too."""
    classes = make()
    walked = []
    branch_coset = massey._branch_coset

    def counting(*args):
        walked.append(args)
        return branch_coset(*args)

    monkeypatch.setattr(massey, "_branch_coset", counting)
    assert_matches_reference(_shifted(classes, shift) if shift else classes)
    assert len(walked) == branches


@pytest.mark.parametrize("kind,p,shift", [
    ("permutahedron", 2, 0), ("permutahedron", 2, 1),
    ("stellohedron", 2, 0), ("stellohedron", 2, 1),
    ("permutahedron", 3, 2),
])
def test_fivefold_enumeration_matches_reference(kind, p, shift):
    """n = 5 is the first order whose enumerated stages form two blocks,
    [(1,2), (4,5)], so a product's memo key reads values from both of its
    factors.  Over F3 the reference walks 3^9 systems on the permutahedron
    and 3^11 on the stellohedron, some 7 s and 23 s, so F3 runs once."""
    classes = _nestohedral(kind, 5, 5, GF(p))
    assert_matches_reference(_shifted(classes, shift) if shift else classes)


@pytest.mark.parametrize("kind", ["permutahedron", "stellohedron"])
def test_fivefold_memo_gives_each_branch_what_a_fresh_memo_builds(kind):
    """The class sets of these inputs hide a stale product, so the memo is
    checked at the cochain level: every stage lift with its residue, and
    the associated cochain, read from the memo the branches share equal
    those built afresh for the branch."""
    classes = _nestohedral(kind, 5, 5)
    base = DefiningSystem(classes, {})
    stages = massey._stages(5)
    kernels = {s: reduced_cohomology(base.complex, base.J_block(*s), base.ring)
               .cocycle_basis(base.p_block(*s)) for s in stages}
    E = massey._enumerated_stages(5, {s: len(z) for s, z in kernels.items()})
    assert E == [(1, 2), (4, 5)]
    shared = {}

    def affine(t, memo):
        return ([massey._lifted(base, kernels, t, memo, s) for s in stages],
                massey._affine_staircase(base, kernels, t, memo, 1, 5))

    for choice in itertools.product((0, 1), repeat=sum(len(kernels[s]) for s in E)):
        values = iter(choice)
        t = {s: tuple(next(values) for _ in kernels[s]) for s in E}
        assert affine(t, shared) == affine(t, {})


@pytest.mark.parametrize("p", [2, 3, 5])
def test_enumeration_matches_reference_on_fig1(p):
    verdict = assert_matches_reference(fig1_classes(GF(p)))
    assert verdict.indeterminacy_rank == 1


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


def test_two_varying_factors_are_refused():
    """With no stage enumerated on massey4, stages (1,2) and (3,4) both keep
    their parameters, so split 2 of the associated cochain multiplies two
    varying factors: the cross term is refused, never dropped."""
    classes = _massey4_fixture(GF(2))
    base = DefiningSystem(classes, {})
    kernels = {s: reduced_cohomology(base.complex, base.J_block(*s), base.ring)
               .cocycle_basis(base.p_block(*s)) for s in massey._stages(4)}
    assert kernels[(1, 2)] and kernels[(3, 4)]
    with pytest.raises(massey.NonAffineSplit):
        massey._affine_staircase(base, kernels, {}, {}, 1, 4)



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
def s0_join_products(draw, n, primes=(2, 3, 5), neighbours=True):
    """n classes on the slots {i, i'} of a join of n copies of S0 with some
    cross pairs star-deleted, over F_p for p in ``primes``: each
    representative is c chi_v for a slot vertex v, shifted by a multiple of
    d(chi_empty).  With ``neighbours``, one deletion between each two
    neighbouring slots makes their product zero, so that most of the drawn
    Massey products are defined; without, only the fixture's deletions and
    the extra ones are made, which leaves most stage subcomplexes connected,
    with one cocycle each."""
    from matk.simplicial import join, star_delete

    ring = draw(st.sampled_from([GF(p) for p in primes]))
    K = two_points("1", "1'")
    for i in range(2, n + 1):
        K = join(K, two_points(str(i), f"{i}'"))
    cross = [(u, v) for u, v in itertools.combinations(K.vertices, 2)
             if u.rstrip("'") != v.rstrip("'")]
    neighbours = [draw(st.sampled_from([(u, v) for u in (str(i), f"{i}'")
                                        for v in (str(i + 1), f"{i + 1}'")]))
                  for i in range(1, n)] if neighbours else []
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


def _cocycle_count(classes) -> int:
    """The cocycles of every stage, all of which the reference walks."""
    base = DefiningSystem(classes, {})
    return sum(len(reduced_cohomology(base.complex, base.J_block(*s), base.ring)
                   .cocycle_basis(base.p_block(*s))) for s in massey._stages(base.n))


@settings(max_examples=30, deadline=None)
@given(s0_join_products(4, primes=(3,), neighbours=False))
def test_fourfold_verdicts_over_f3_match_the_walk_whole(classes):
    """Fourfold products over F3 whose stages have few cocycles, so that
    the walk within WALK_BUDGET decides them: the whole verdicts, class
    count, contains_zero and witness, not only the probe's ``defined``.
    The random products above exceed that budget on most F3 draws at
    n = 4; here most stage subcomplexes are connected, with one cocycle."""
    assume(_cocycle_count(classes) <= WALK_BUDGET[3])
    verdict = assert_matches_reference(classes, budget=WALK_BUDGET[3])
    assert not verdict.budget_exhausted


def _with_unit(row, ring):
    """A fourfold product on the massey4 fixture over ``ring``, one class
    per word of ``row``: "u" the unit, "k" the fixture's class k, and "zk"
    the zero class 2 d(chi_empty) on that class's slot.  A stage of the unit
    and one class has degree -1 and no cocycle, so over F5 the walk fits
    WALK_BUDGET.  Four classes of degree 0 cannot: each of the five stages
    has at least one cocycle, the constants."""
    a = _massey4_fixture(ring)
    K = a[0].complex

    def word(w):
        if w == "u":
            return unit_class(K, ring)
        if w.startswith("z"):
            J = a[int(w[1:])].J
            return CohomologyClass(Cochain(K, ring, J, 0, {(v,): ring.of_int(2) for v in J}))
        return a[int(w)]

    return tuple(map(word, row.split()))


@pytest.mark.parametrize("row", ["u z0 1 2", "u z1 2 3", "0 1 z2 u", "1 2 z3 u"])
@pytest.mark.parametrize("p", [3, 5])
def test_fourfold_verdicts_with_the_unit_match_the_walk_whole(row, p):
    classes = _with_unit(row, GF(p))
    assert _cocycle_count(classes) <= WALK_BUDGET[p]
    verdict = assert_matches_reference(classes, budget=WALK_BUDGET[p])
    assert verdict.defined and not verdict.budget_exhausted


@st.composite
def defining_systems(draw, n):
    """A valid defining system for ``s0_join_products(n)``: each stage the
    primitive of its staircase plus a drawn combination of its cocycles."""
    ds = DefiningSystem(draw(s0_join_products(n)), {})
    ring = ds.ring
    for i, k in massey._stages(n):
        H = reduced_cohomology(ds.complex, ds.J_block(i, k), ring)
        a = H.primitive(ds.staircase(i, k))
        assume(a is not None)
        Z = H.cocycle_basis(ds.p_block(i, k))
        coeffs = draw(st.lists(st.integers(0, ring.p - 1), min_size=len(Z), max_size=len(Z)))
        ds = ds.with_entry(i, k, cochains.combine(a, zip(coeffs, Z)))
    return ds


def _gauged(ds, i, k, c):
    """The gauge of ``enumerate_defining_systems``'s docstring: a_{i,k} +
    d(c), a_{i,l} - overline(c) a_{k+1,l} for k < l and a_{h,k} - a_{h,i-1} c
    for h < i, each from the entries of ``ds``."""
    n, out = ds.n, ds.with_entry(i, k, ds.a(i, k) + coboundary(c))
    for l in range(k + 1, n + 1):
        if (i, l) != (1, n):
            out = out.with_entry(i, l, ds.a(i, l) - cup_multiply(overline(c), ds.a(k + 1, l)))
    for h in range(1, i):
        if (h, k) != (1, n):
            out = out.with_entry(h, k, ds.a(h, k) - cup_multiply(ds.a(h, i - 1), c))
    return out


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 4]).flatmap(defining_systems), st.data())
def test_a_gauge_keeps_the_system_valid_and_its_class(ds, data):
    """Shifting a stage by d(c) and adjusting the entries further out gives
    a defining system whose associated cocycle is cohomologous, and equal
    when the stage is neither in the first row nor in the last column."""
    i, k = data.draw(st.sampled_from(massey._stages(ds.n)))
    ring, J, p = ds.ring, ds.J_block(i, k), ds.p_block(i, k)
    faces = reduced_cohomology(ds.complex, J, ring).simplices(p - 1)
    coeffs = data.draw(st.lists(st.integers(0, ring.p - 1), min_size=len(faces),
                                max_size=len(faces)))
    c = Cochain(ds.complex, ring, J, p - 1, dict(zip(faces, map(ring.of_int, coeffs))))
    gauged = _gauged(ds, i, k, c)
    assert check_defining_system(gauged) == []
    omega, moved = associated_cocycle(ds), associated_cocycle(gauged)
    assert reduced_cohomology(ds.complex, omega.J, ring).are_cohomologous(omega, moved)
    if 1 < i and k < ds.n:
        assert moved == omega


@pytest.mark.parametrize("make", [
    lambda: _massey4_fixture(GF(2)),
    lambda: _massey4_fixture(GF(3)),
    lambda: _nestohedral("permutahedron", 4, 4),
    lambda: _nestohedral("permutahedron", 5, 4),
    lambda: _nestohedral("stellohedron", 4, 4),
], ids=["massey4-F2", "massey4-F3", "permutahedron-4-4", "permutahedron-5-4",
        "stellohedron-4-4"])
def test_enumeration_walks_one_branch_over_class_bases(monkeypatch, make):
    """Each stage's parameters are a class basis: dim H-tilde^p(K_J)
    cocycles of the cocycle basis with independent class keys.  On these
    inputs that leaves no enumerated parameter, so one branch is decided;
    over the whole cocycle spaces there were 2 or 3."""
    classes = make()
    branches = []
    branch_coset = massey._branch_coset

    def counting(*args):
        branches.append(args)
        return branch_coset(*args)

    monkeypatch.setattr(massey, "_branch_coset", counting)
    enumerate_defining_systems(classes)
    assert len(branches) == 1
    base, sizes = DefiningSystem(classes, {}), []
    for s in massey._stages(4):
        H, p = reduced_cohomology(base.complex, base.J_block(*s), base.ring), base.p_block(*s)
        B = massey._class_basis(H, p)
        assert len(B) == H.group(p).free_rank
        assert all(b in H.cocycle_basis(p) for b in B)
        keys = [dict(enumerate(H.class_key(b))) for b in B]
        assert exactalg.Solver(keys, base.ring, len(keys[0]) if keys else 0).rank == len(B)
        sizes.append((len(B), len(H.cocycle_basis(p))))
    assert sum(b for b, _ in sizes) < sum(z for _, z in sizes)


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


_COUNTED = pytest.mark.parametrize("make,lifts,cups", [
    (lambda: _massey4_fixture(GF(2)), 6, 13),
    (lambda: _massey4_fixture(GF(3)), 6, 13),
    (lambda: _nestohedral("permutahedron", 4, 4), 5, 10),
], ids=["massey4-F2", "massey4-F3", "permutahedron-4-4"])


@_COUNTED
def test_enumeration_lifts_each_stage_once_per_inner_parameters(monkeypatch, make, lifts,
                                                                cups):
    """Every branch reads each stage's lift from one memo: the constant and
    each parameter's coefficient of the stage's staircase are lifted once per
    value of the enumerated stages strictly inside it.  Lifting every stage
    at every point made 60, 90 and 50 lifts here, and parameters over whole
    cocycle spaces, not class bases, 11, 13 and 10."""
    classes = make()
    calls = []
    lift = exactalg.Solver.lift

    def counting_lift(self, b):
        calls.append(b)
        return lift(self, b)

    monkeypatch.setattr(exactalg.Solver, "lift", counting_lift)
    verdict = enumerate_defining_systems(classes)
    assert verdict.contains_zero is False
    assert 0 < len(calls) <= lifts


@_COUNTED
def test_enumeration_multiplies_each_split_once_per_factor_values(monkeypatch, make, lifts,
                                                                  cups):
    """A staircase product is multiplied once per value of the enumerated
    stages inside its two factors, as a constant and one coefficient per
    parameter, and the witness is read off those products, not multiplied
    again.  Rebuilding the whole system at every unit vector made 65, 87
    and 57 here, parameters over whole cocycle spaces, not class bases, 39,
    46 and 35, and a witness walk after the enumeration 23, 23 and 20."""
    classes = make()
    calls = []
    cup = massey.cup_multiply

    def counting_cup(a, b):
        calls.append((a, b))
        return cup(a, b)

    monkeypatch.setattr(massey, "cup_multiply", counting_cup)
    verdict = enumerate_defining_systems(classes)
    assert verdict.contains_zero is False
    assert 0 < len(calls) <= cups


@pytest.mark.parametrize("shift", [0, 1])
@pytest.mark.parametrize("make,witness", [
    (lambda: _massey4_fixture(GF(2)), True),
    (lambda: _massey4_fixture(GF(3)), True),
    (lambda: _nestohedral("permutahedron", 4, 4), True),
    (lambda: _nestohedral("permutahedron", 5, 4), True),
    (lambda: _nestohedral("stellohedron", 4, 4), False),  # contains zero: no witness
    (lambda: _fixture_classes("fig1", ZZ), True),
    (lambda: _fixture_classes("truncated-octahedron", GF(3)), True),
], ids=["massey4-F2", "massey4-F3", "permutahedron-4-4", "permutahedron-5-4",
        "stellohedron-4-4", "fig1-Z", "truncated-octahedron-F3"])
def test_witness_is_the_walks_first_system(make, witness, shift):
    """Where the zero system exists (``_zero_system``), the witness read off
    the memo of the all-zero branch is the first system of the walk over
    the full cocycle bases, entry for entry, with its associated cocycle."""
    classes = make()
    classes = _shifted(classes, shift) if shift else classes
    verdict = enumerate_defining_systems(classes)
    if not witness:
        assert verdict.contains_zero is True and verdict.witness_system is None
        return
    assert verdict.contains_zero is False and _zero_system(classes) is not None
    base = DefiningSystem(classes, {})
    stages = massey._stages(base.n)
    kernels = {s: reduced_cohomology(base.complex, base.J_block(*s), base.ring)
               .cocycle_basis(base.p_block(*s)) for s in stages}
    ds, omega = next(walk(base, stages, kernels))
    assert verdict.witness_system.to_json() == ds.to_json()
    assert verdict.witness_cocycle == omega


@pytest.mark.parametrize("shift", [0, 1])
@pytest.mark.parametrize("p", [2, 3], ids=["flag-D-F2", "flag-D-F3"])
def test_witness_at_a_branch_point_replays(p, shift):
    """Where the zero system fails, the witness is the system at the point
    of the first feasible branch, and it replays."""
    classes = _flag_product(FLAG_D, GF(p))
    classes = _shifted(classes, shift) if shift else classes
    verdict = enumerate_defining_systems(classes)
    assert verdict.contains_zero is False and _zero_system(classes) is None
    assert_witness_replays(verdict)


@pytest.mark.parametrize("make", [
    lambda: _massey4_fixture(GF(2)),
    lambda: _massey4_fixture(GF(3)),
    lambda: _massey4_fixture(GF(5)),
    lambda: _fixture_classes("fig1", ZZ),
    lambda: _fixture_classes("truncated-octahedron", GF(3)),
    lambda: _nestohedral("permutahedron", 5, 4),
], ids=["massey4-F2", "massey4-F3", "massey4-F5", "fig1-Z", "truncated-octahedron-F3",
        "permutahedron-5-4"])
def test_evaluating_cycle_is_the_first_hit_of_the_cycle_basis(monkeypatch, make):
    """find_evaluating_cycle lifts cycle-basis vectors only up to the first
    that pairs nonzero with the cocycle, and returns that vector."""
    omega = enumerate_defining_systems(make()).witness_cocycle
    cochains._cached_cohomology.cache_clear()
    lifts = count_lifts(monkeypatch)
    x = find_evaluating_cycle(omega)
    monkeypatch.undo()
    basis = list(reduced_cohomology(omega.complex, omega.J, omega.ring).cycles(omega.p))
    hits = [i for i, y in enumerate(basis) if not omega.ring.is_zero(evaluate(omega, y))]
    assert hits and x == basis[hits[0]]
    assert len(lifts) == hits[0] + 1


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


def assert_matches_triple_reference(make):
    """Over Z and F2 the decider's JSON is the one solve's byte for byte,
    and over F2 the walk's too; ``make(ring)`` gives the classes."""
    for ring in (ZZ, GF(2)):
        classes = make(ring)
        assert _json(enumerate_defining_systems(classes)) == _json(triple_reference(*classes))
    assert_matches_reference(make(GF(2)), budget=14)


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(small_complexes(max_vertices=7), st.integers(0, 1))
def test_enumeration_agrees_with_exact_triple_decision(K, _seed):
    trio = _triple_candidates(K)
    assume(trio is not None)
    assert_matches_triple_reference(lambda ring: tuple(
        class_in_slot(K, ring, pair, 0, {(pair[0],): ring.one}) for pair in trio))


@pytest.mark.parametrize("shift", [1, 2])
def test_enumeration_agrees_with_exact_triple_decision_on_torsion(shift):
    """The rp2-join fixture's classes, shifted; the first is the class of
    order 2 on RP^2, so over Z the Hermite residual of the solve is used."""
    from matk.constructions import (canonical_defining_system_joins,
                                    construct_massey_complex, spec_from_json)

    spec = spec_from_json(json.loads((FIXTURES / "rp2-join.json").read_text()))
    K, _ = construct_massey_complex(spec)
    blobs = [cochains.cochain_to_json(c.representative)
             for c in canonical_defining_system_joins(spec, K).classes]
    assert_matches_triple_reference(lambda ring: _shifted(
        [CohomologyClass(cochain_from_json(b, K, ring)) for b in blobs], shift))


@pytest.mark.parametrize("ring", [ZZ, GF(2)], ids=["Z", "F2"])
def test_six_vertex_flag_sweep_agrees_with_triple_reference(ring):
    """The lowest-degree triple products: on the flag complex of each of the
    156 graphs on six vertices, every ordered triple of pairwise disjoint
    non-edges, each class the degree-0 indicator of its pair's first vertex.
    The decider agrees with ``triple_reference`` on ``defined`` and
    ``contains_zero``.  (Over F2 the walk of ``enumerate_reference`` agrees
    too, but takes about 5 s more, so it is left out.)"""
    graphs = graphs_on_six_vertices()
    assert len(graphs) == 156
    triples = 0
    for edges in graphs:
        K = flag_complex(edges, 6)
        non_edges = [e for e in itertools.combinations(K.vertices, 2) if not K.has_face(e)]
        for trio in itertools.permutations(non_edges, 3):
            if len({v for e in trio for v in e}) < 6:
                continue
            triples += 1
            classes = [class_in_slot(K, ring, e, 0, {e[:1]: ring.one}) for e in trio]
            verdict, reference = enumerate_defining_systems(classes), triple_reference(*classes)
            assert ((verdict.defined, verdict.contains_zero)
                    == (reference.defined, reference.contains_zero)), (edges, trio)
    assert triples == 1962


@settings(max_examples=40, deadline=None)
@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
def test_random_fig1_systems_have_cocycle_associates(c1, c2, c3):
    ds = fig1_system(ZZ, c1, c2, c3)
    omega = associated_cocycle(ds)
    assert coboundary(omega).is_zero()


def test_triple_coset_law():
    """Associated classes of two triple systems with the same representatives
    differ by an element of the indeterminacy subgroup."""
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
