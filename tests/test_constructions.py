import itertools
import json
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from matk.cochains import (
    Chain,
    Cochain,
    boundary,
    coboundary,
    evaluate,
    reduced_cohomology,
)
from matk import cochains, constructions, massey
from matk.cli import main
from matk.constructions import (
    DiagonalTouchesEdge,
    InvalidSpec,
    JoinMasseySpec,
    SupportContainsContractedEdge,
    ZeroClass,
    canonical_defining_system_joins,
    certify_join_nontrivial,
    compute_P_sets,
    construct_massey_complex,
    contract_edges,
    disjointify_defining_system,
    pullback_class,
    pullback_defining_system,
    pushforward_phi_star,
    spec_from_json,
    spec_to_json,
    witness_cycle,
)
from matk.exactalg import GF, ZZ
from matk.hochster import CohomologyClass, class_in_slot
from matk.massey import (
    DefiningSystem,
    associated_cocycle,
    check_defining_system,
    enumerate_defining_systems,
    triple_massey_decide,
)
from matk.simplicial import (
    SimplicialComplex,
    contract_edge,
    join,
    relabel,
    reorder_vertices,
    star_delete,
    stellar_subdivide,
)

from helpers import (
    assert_witness_replays,
    contraction_example_source,
    contraction_example_target,
    count_lifts,
    cycle_complex,
    delta,
    enumerate_reference,
    inner_edge_join_spec,
    joins_example_complex,
    phi_star_sign,
    reduced_betti,
    rp2_join_spec,
    rp2_six_vertices,
    simplex_boundary,
    two_points,
)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def joins_example_spec(ring=ZZ):
    K1 = two_points("1", "2")
    K2 = SimplicialComplex(["3", "4", "5", "6"], [["3", "4"], ["4", "5"], ["3", "5"], ["6"]])
    K3 = two_points("7", "8")
    return JoinMasseySpec(
        (K1, K2, K3),
        (
            Cochain.chi(K1, ring, ("1",), J=("1", "2")),
            Cochain(K2, ring, ("3", "4", "5", "6"), 0,
                    {("3",): ring.one, ("4",): ring.one, ("5",): ring.one}),
            Cochain.chi(K3, ring, ("7",), J=("7", "8")),
        ),
    )


# -- P sets -------------------------------------------------------------------

def test_p_set_of_triangle_plus_point():
    K2 = SimplicialComplex(["3", "4", "5", "6"], [["3", "4"], ["4", "5"], ["3", "5"], ["6"]])
    a2 = Cochain(K2, ZZ, K2.vertices, 0, {("3",): 1, ("4",): 1, ("5",): 1})
    P, survivors = compute_P_sets(K2, a2)
    assert P == (("4",), ("5",), ("6",))
    assert survivors == (("3",),)


def test_p_set_of_two_points():
    K = two_points()
    a = Cochain.chi(K, ZZ, ("1",), J=("1", "2"))
    P, survivors = compute_P_sets(K, a)
    assert P == (("2",),)
    assert survivors == (("1",),)


def test_p_set_zero_class_rejected():
    K = two_points()
    a = Cochain(K, ZZ, ("1", "2"), 0, {("1",): 1, ("2",): 1})  # a coboundary
    with pytest.raises(ZeroClass):
        compute_P_sets(K, a)


def test_p_set_vertex_choice_changes_deletion_count():
    K = simplex_boundary(["1", "2", "3", "4"])
    a2 = Cochain(K, ZZ, K.vertices, 2, {("1", "2", "3"): 1, ("2", "3", "4"): -1})
    order = [("1", "2", "3"), ("2", "3", "4")]
    P_few, surv_few = compute_P_sets(
        K, a2, vertex_choice={("1", "2", "3"): "1"}, support_order=order)
    assert P_few == (("2", "3", "4"),)
    assert surv_few == (("1", "2", "3"),)
    P_more, _ = compute_P_sets(
        K, a2,
        vertex_choice={("1", "2", "3"): "3", ("2", "3", "4"): "2"},
        support_order=order)
    assert set(P_more) == {("1", "2", "4"), ("1", "3", "4")}
    assert len(P_more) > len(P_few)
    # by default the distinguished vertex is the first one
    assert compute_P_sets(K, a2, support_order=order) == (P_few, surv_few)


# -- the join construction ----------------------------------------------------

def test_joins_example_deletion_list():
    spec = joins_example_spec()
    K, ledger = construct_massey_complex(spec)
    assert set(ledger.simplices()) == {
        ("1", "4"), ("1", "5"), ("1", "6"), ("3", "8"), ("4", "8"), ("5", "8")
    }
    assert K == joins_example_complex()


def test_join_construction_is_order_robust():
    spec = joins_example_spec()
    K, ledger = construct_massey_complex(spec)
    base = join(join(spec.factors[0], spec.factors[1]), spec.factors[2])
    for perm in itertools.permutations(ledger.simplices()):
        K2 = base
        for s in perm:
            K2 = star_delete(K2, s)
        assert K2 == K


def test_joins_canonical_system_matches_worked_values():
    spec = joins_example_spec()
    K, _ = construct_massey_complex(spec)
    ds = canonical_defining_system_joins(spec, K)
    assert check_defining_system(ds) == []
    assert ds.a(1, 2) == Cochain(K, ZZ, ("1", "2", "3", "4", "5", "6"), 0, {("1",): -1})
    assert ds.a(2, 3) == Cochain(K, ZZ, ("3", "4", "5", "6", "7", "8"), 0,
                                 {("3",): -1, ("4",): -1, ("5",): -1})
    omega = associated_cocycle(ds)
    assert omega == Cochain(K, ZZ, K.vertices, 1, {("1", "3"): -1, ("1", "7"): -1})
    assert omega.p + len(omega.J) + 1 == 10


def test_joins_alternate_system_gives_chi18():
    spec = joins_example_spec()
    K, _ = construct_massey_complex(spec)
    ds = canonical_defining_system_joins(spec, K)
    alt = Cochain(K, ZZ, ("3", "4", "5", "6", "7", "8"), 0,
                  {("6",): 1, ("7",): 1, ("8",): 1})
    ds_alt = ds.with_entry(2, 3, alt)
    assert check_defining_system(ds_alt) == []
    omega = associated_cocycle(ds_alt)
    assert omega == Cochain(K, ZZ, K.vertices, 1, {("1", "8"): 1})


def test_joins_example_full_subcomplex_shape():
    # restricting the constructed complex to the last six vertices leaves a
    # cone with apex 7 over the hollow triangle plus the two edges at 6
    from matk.simplicial import full_subcomplex

    K = joins_example_complex()
    sub = full_subcomplex(K, {"3", "4", "5", "6", "7", "8"})
    assert set(sub.facets) == {
        ("3", "4", "7"), ("3", "5", "7"), ("4", "5", "7"), ("6", "7"), ("6", "8")}


def test_joins_witness_cycle_and_pairing():
    spec = joins_example_spec()
    K, _ = construct_massey_complex(spec)
    x = witness_cycle(spec, K)
    expected_x = Chain(K, ZZ, K.vertices, 1,
                    {("1", "3"): 1, ("2", "3"): -1, ("2", "8"): 1, ("1", "8"): -1})
    assert x == expected_x or x == -expected_x
    ds = canonical_defining_system_joins(spec, K)
    omega = associated_cocycle(ds)
    assert evaluate(omega, x) in (1, -1)


def test_joins_certificate_and_f2_enumeration():
    spec = joins_example_spec()
    K, _ = construct_massey_complex(spec)
    cert = certify_join_nontrivial(spec, K)
    assert cert.method == "pairing"
    f2 = GF(2)
    spec2 = joins_example_spec(f2)
    K2, _ = construct_massey_complex(spec2)
    ds2 = canonical_defining_system_joins(spec2, K2)
    verdict = enumerate_defining_systems(ds2.classes)
    assert verdict.defined and verdict.contains_zero is False


def test_smallest_s0_instance_support_overlap():
    # three S0 factors; deletions at sigma1 ∪ sigma2' and sigma2 ∪ sigma3'
    factors = tuple(two_points(f"{i}", f"{i}'") for i in (1, 2, 3))
    spec = JoinMasseySpec(
        factors,
        tuple(Cochain.chi(Ki, ZZ, (f"{i}",), J=(f"{i}", f"{i}'"))
              for i, Ki in zip((1, 2, 3), factors)),
    )
    K, ledger = construct_massey_complex(spec)
    assert set(ledger.simplices()) == {("1", "2'"), ("2", "3'")}
    ds = canonical_defining_system_joins(spec, K)
    omega = associated_cocycle(ds)
    x = witness_cycle(spec, K)
    assert set(x.coeffs) == {("1", "2"), ("1'", "2"), ("1'", "3'"), ("1", "3'")}
    hits = set(omega.support) & set(x.coeffs)
    assert hits == {("1", "2")}
    assert evaluate(omega, x) in (1, -1)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_witness_cycles_of_random_specs_are_closed(data):
    n = data.draw(st.integers(2, 3))
    labels = iter("abcdefghijklmnopqrstuvwxyz")
    factors = []
    cochains = []
    for i in range(n):
        size = data.draw(st.integers(2, 3))
        verts = [next(labels) for _ in range(size)]
        Ki = SimplicialComplex(verts, [[v] for v in verts])  # disjoint points
        factors.append(Ki)
        cochains.append(Cochain.chi(Ki, ZZ, (verts[0],), J=verts))
    spec = JoinMasseySpec(tuple(factors), tuple(cochains))
    K, _ = construct_massey_complex(spec)
    x = witness_cycle(spec, K)
    assert boundary(x).is_zero()
    ds = canonical_defining_system_joins(spec, K)
    assert check_defining_system(ds) == []


def _drawn_factor(data, prefix, kinds):
    """Disjoint points, an m-cycle (m = 3..5) or the six-vertex RP², of the
    ``kinds`` allowed, on labels that start with prefix."""
    kind = data.draw(st.sampled_from(kinds))
    if kind == "rp2":
        return relabel(rp2_six_vertices(), {str(j): f"{prefix}{j}" for j in range(6)})
    size = data.draw(st.integers(2, 3) if kind == "points" else st.integers(3, 5))
    verts = [f"{prefix}{j}" for j in range(size)]
    if kind == "points":
        return SimplicialComplex(verts, [[v] for v in verts])
    return cycle_complex(size, verts)


def _drawn_join(data, ring, prefixes, kinds=("points", "cycle", "rp2")):
    """The canonical defining system of a drawn spec: one factor per prefix,
    each carrying a non-zero class drawn from its class basis (over Z, the
    cocycles of the cocycle basis that are no coboundary), in any degree.
    Its certificate must succeed: InvalidSpec when neither a pairing nor
    the F2 decision certifies it."""
    factors, cochains = [], []
    for prefix in prefixes:
        K = _drawn_factor(data, prefix, kinds)
        H = reduced_cohomology(K, K.vertices, ring)
        basis = [c for p in range(K.dim + 1) for c in massey._class_basis(H, p)
                 if not H.is_coboundary(c)]
        factors.append(K)
        cochains.append(data.draw(st.sampled_from(basis)))
    spec = JoinMasseySpec(tuple(factors), tuple(cochains))
    K, _ = construct_massey_complex(spec)
    ds = canonical_defining_system_joins(spec, K)
    assert certify_join_nontrivial(spec, K, ds).method in ("pairing", "enumeration-F2")
    return ds


@pytest.mark.parametrize("ring", [ZZ, GF(2)], ids=["Z", "F2"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_random_triple_joins_are_certified_and_decided_nontrivial(ring, data):
    """The paper's theorem at n = 3: a non-zero class on each factor, at
    every position."""
    ds = _drawn_join(data, ring, "abc")
    assert enumerate_defining_systems(ds.classes).contains_zero is False


@pytest.mark.parametrize("ring", [ZZ, GF(2)], ids=["Z", "F2"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_random_fourfold_joins_are_certified_and_decided_nontrivial(ring, data):
    """The paper's theorem at n = 4, on factors of points and cycles (RP²
    factors make stage complexes too large for tier-1 until the stages are
    Morse-reduced).  The decider needs a prime field at n = 4, so over Z it
    decides the mod-2 reduction of the classes."""
    ds = _drawn_join(data, ring, "abcd", kinds=("points", "cycle"))
    verdict = enumerate_defining_systems(tuple(
        CohomologyClass(constructions._as_ring(c.representative, GF(2))) for c in ds.classes))
    assert verdict.contains_zero is False
    assert_witness_replays(verdict)


@pytest.mark.parametrize("ring", [ZZ, GF(2)], ids=["Z", "F2"])
def test_witness_carries_the_join_sign_of_an_inner_edge_class(ring):
    # the terms of the witness that drop a vertex of sigma_4 pass the one
    # vertex left of the inner edge class's simplex: over Z a missing sign
    # leaves boundary coefficients +-2, a cycle mod 2 only
    spec = inner_edge_join_spec(ring)
    K, _ = construct_massey_complex(spec)
    x = witness_cycle(spec, K)
    assert x.ring == ring and boundary(x).is_zero()
    ds = canonical_defining_system_joins(spec, K)
    assert check_defining_system(ds) == []
    cert = certify_join_nontrivial(spec, K, ds)
    assert cert.method == "pairing" and cert.value in (ring.of_int(1), ring.of_int(-1))
    if ring == GF(2):  # the exact decider agrees with the certificate
        verdict = enumerate_defining_systems(ds.classes)
        assert verdict.defined and verdict.contains_zero is False


def test_rp2_spec_reproduces_worked_values():
    spec = rp2_join_spec()
    K, ledger = construct_massey_complex(spec)
    assert set(ledger.simplices()) == {("0", "1", "2", "7"), ("6", "9")}
    ds = canonical_defining_system_joins(spec, K)
    omega = associated_cocycle(ds)
    assert omega == Cochain(K, ZZ, K.vertices, 3,
                            {("0", "1", "2", "6"): -1, ("0", "1", "2", "8"): -1})
    assert omega.p + len(omega.J) + 1 == 14


def test_rp2_witness_falls_back_to_f2():
    spec = rp2_join_spec()
    K, _ = construct_massey_complex(spec)
    x = witness_cycle(spec, K)
    assert x.ring == GF(2)
    assert boundary(x).is_zero()
    cert = certify_join_nontrivial(spec, K)
    assert cert.method == "pairing"
    assert cert.value == 1


def test_pairing_cycle_is_the_first_hit_of_the_cycle_basis(monkeypatch):
    """``fixtures/rp2-join.json``'s first class is torsion over Z, and RP^2
    has no Z 2-cycle, so the search falls through to F2.  There it returns
    the first cycle of ``cycles`` that pairs nonzero and lifts no vector
    after it."""
    spec = spec_from_json(json.loads((FIXTURES / "rp2-join.json").read_text()))
    K, _ = construct_massey_complex(spec)
    a1 = constructions._on(K, spec.cochains[0])
    assert massey.find_evaluating_cycle(a1) is None
    cochains._cached_cohomology.cache_clear()
    lifts = count_lifts(monkeypatch)
    ring, (x,) = constructions._pairing_cycles([a1], ZZ)
    monkeypatch.undo()
    assert ring == GF(2)
    a1 = constructions._as_ring(a1, ring)
    basis = list(reduced_cohomology(K, a1.J, ring).cycles(a1.p))
    hits = [i for i, y in enumerate(basis) if not ring.is_zero(evaluate(a1, y))]
    assert hits and x == basis[hits[0]]
    assert len(lifts) == hits[0] + 1


@pytest.mark.parametrize("rp2_first", [True, False], ids=["rp2-first", "rp2-second"])
def test_product_with_a_torsion_class_is_paired_over_f2(rp2_first):
    """For n = 2 the witness is the product of pairing cycles for both
    classes, so both choose its ring: no Z cycle pairs with the RP^2 class,
    in either position."""
    rp2, S0 = rp2_six_vertices(), two_points("6", "7")
    factors = [(rp2, Cochain.chi(rp2, ZZ, ("0", "1", "2"), J=rp2.vertices)),
               (S0, Cochain.chi(S0, ZZ, ("6",), J=("6", "7")))]
    if not rp2_first:
        factors.reverse()
    spec = JoinMasseySpec(*zip(*factors))
    K, _ = construct_massey_complex(spec)
    x = witness_cycle(spec, K)
    assert x.ring == GF(2) and boundary(x).is_zero()
    cert = certify_join_nontrivial(spec, K)
    assert (cert.method, cert.value) == ("pairing", 1)


def rp2_last_spec():
    """``fixtures/rp2-join.json`` with the RP^2 factor moved last and its
    class written as chi_012 + d chi_01 + d chi_34, its support ordered 012,
    134, 015, 034.  The sweep from 134 deletes 034, a support simplex, and
    P_3 starts with it."""
    rp2 = rp2_six_vertices()
    J = rp2.vertices
    torsion = (Cochain.chi(rp2, ZZ, ("0", "1", "2"), J=J)
               + coboundary(Cochain.chi(rp2, ZZ, ("0", "1"), J=J))
               + coboundary(Cochain.chi(rp2, ZZ, ("3", "4"), J=J)))
    K1, K2 = two_points("6", "7"), two_points("8", "9")
    return JoinMasseySpec(
        (K1, K2, rp2),
        (Cochain.chi(K1, ZZ, ("6",), J=("6", "7")), Cochain.chi(K2, ZZ, ("8",), J=("8", "9")),
         torsion),
        support_order={2: [("0", "1", "2"), ("1", "3", "4"), ("0", "1", "5"), ("0", "3", "4")]})


def test_torsion_class_last_is_certified_through_another_deletion_simplex(tmp_path, capsys):
    """The witness through the first simplex of P_3, 034, pairs to zero:
    034 carries a_3 too, and its two terms cancel over Z and so over every
    field.  The witness through the next simplex, 124, pairs to -2, so the
    certificate needs neither a prime field nor the F2 enumeration, whose
    budget this product exhausts."""
    spec = rp2_last_spec()
    assert spec.P[2] == (("0", "3", "4"), ("1", "2", "4"), ("1", "3", "5"))
    K, _ = construct_massey_complex(spec)
    omega = associated_cocycle(canonical_defining_system_joins(spec, K))
    assert evaluate(omega, witness_cycle(spec, K)) == 0
    cert = certify_join_nontrivial(spec, K)
    assert (cert.method, cert.value, cert.cycle.ring) == ("pairing", -2, ZZ)
    assert boundary(cert.cycle).is_zero()
    assert {v for s in cert.cycle.support for v in s} >= {"1", "2", "4"}
    path = tmp_path / "rp2-last-join.json"
    path.write_text(json.dumps(spec_to_json(spec)))
    assert main(["construct-join", str(path), "--certify"]) == 0
    assert json.loads(capsys.readouterr().out)["certificate"]["evaluation"] == "-2"


def test_spec_json_round_trip():
    spec = joins_example_spec()
    blob = spec_to_json(spec)
    back = spec_from_json(blob)
    assert back.factors == spec.factors
    assert back.cochains == spec.cochains


def test_spec_resolves_its_choices_once(monkeypatch):
    spec = joins_example_spec()
    for K_i, a_i, support, P, survivors in zip(spec.factors, spec.cochains, spec.supports,
                                               spec.P, spec.survivors):
        assert support == a_i.support
        assert (P, survivors) == compute_P_sets(K_i, a_i)
    assert spec.P[1] == (("4",), ("5",), ("6",)) and spec.survivors[1] == (("3",),)

    def recomputed(*args, **kwargs):
        raise AssertionError("P sets recomputed after the spec was built")

    monkeypatch.setattr(constructions, "compute_P_sets", recomputed)
    K, _ = construct_massey_complex(spec)
    assert certify_join_nontrivial(spec, K).method == "pairing"


def test_the_ledger_lists_the_stages_i_major():
    factors = tuple(two_points(f"{i}", f"{i}'") for i in (1, 2, 3, 4))
    spec = JoinMasseySpec(factors, tuple(Cochain.chi(Ki, ZZ, (f"{i}",), J=(f"{i}", f"{i}'"))
                                         for i, Ki in zip((1, 2, 3, 4), factors)))
    _, ledger = construct_massey_complex(spec)
    assert [(i, k) for i, k, _ in ledger.deletions] == [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]
    assert ledger.simplices() == (("1", "2'"), ("1", "3'"), ("2", "3'"), ("2", "4'"),
                                  ("3", "4'"))


def test_support_order_is_resolved_into_the_spec():
    base = joins_example_spec()
    spec = JoinMasseySpec(base.factors, base.cochains,
                          support_order={1: [("5",), ("3",), ("4",)]})
    assert spec.supports[1] == (("5",), ("3",), ("4",))
    assert spec.P[1] == (("3",), ("4",), ("6",)) and spec.survivors[1] == (("5",),)
    K, ledger = construct_massey_complex(spec)
    assert check_defining_system(canonical_defining_system_joins(spec, K)) == []
    assert boundary(witness_cycle(spec, K)).is_zero()


@pytest.mark.parametrize("choice", [{("99", "98"): "99"}, {("6",): "6"}, {("1", "3"): "1"}])
def test_a_vertex_choice_must_name_a_support_simplex(choice):
    # ("6",) is a face of the second factor but not in its cochain's support
    base = joins_example_spec()
    with pytest.raises(InvalidSpec, match="no support simplex"):
        JoinMasseySpec(base.factors, base.cochains, vertex_choice=choice)


def test_a_class_on_a_proper_full_subcomplex_is_an_invalid_spec():
    # the third factor's class lives on J = {a0, a2}: P would be drawn from
    # all of its vertices, and the canonical system would leave K_J
    c, b = two_points("c0", "c1"), two_points("b0", "b1")
    a = SimplicialComplex(["a0", "a1", "a2"], [["a0"], ["a1"], ["a2"]])
    cochains = (Cochain.chi(c, GF(2), ("c0",), J=("c0", "c1")),
                Cochain.chi(b, GF(2), ("b0",), J=("b0", "b1")),
                Cochain.chi(a, GF(2), ("a0",), J=("a0", "a2")))
    with pytest.raises(InvalidSpec, match=r"factor 2 lives on J=\['a0', 'a2'\]"):
        JoinMasseySpec((c, b, a), cochains)


def test_a_spec_needs_two_factors():
    base = joins_example_spec()
    for n in (0, 1):
        with pytest.raises(InvalidSpec, match="at least two factors"):
            JoinMasseySpec(base.factors[:n], base.cochains[:n])


# -- contraction calculus -----------------------------------------------------

def phi_and_complexes():
    K = contraction_example_source()
    Khat, phi, ok = contract_edge(K, ("1", "4"), new_label="1h")
    return K, Khat, phi, ok


def target_spec(ring=ZZ):
    K1 = simplex_boundary(["1h", "2", "3"])
    K2 = two_points("5", "6")
    K3 = two_points("7", "8")
    return JoinMasseySpec(
        (K1, K2, K3),
        (
            Cochain.chi(K1, ring, ("1h", "3"), J=("1h", "2", "3")),
            Cochain.chi(K2, ring, ("5",), J=("5", "6")),
            Cochain.chi(K3, ring, ("7",), J=("7", "8")),
        ),
    )


def test_contraction_example_matches_join_construction():
    K, Khat, phi, ok = phi_and_complexes()
    assert ok
    assert Khat == contraction_example_target()
    spec = target_spec()
    built, ledger = construct_massey_complex(spec)
    assert built == Khat
    assert set(ledger.simplices()) == {("1h", "3", "6"), ("5", "8")}
    assert reduced_betti(K) == reduced_betti(Khat)
    assert phi.is_order_compatible() and phi.is_surjective()


def test_pullback_of_canonical_entry_is_minus_chi13():
    K, Khat, phi, _ = phi_and_complexes()
    spec = target_spec()
    ds_hat = canonical_defining_system_joins(spec, Khat)
    assert ds_hat.a(1, 2) == Cochain(Khat, ZZ, ("1h", "2", "3", "5", "6"), 1,
                                     {("1h", "3"): -1})
    ds = pullback_defining_system(phi, ds_hat)
    assert check_defining_system(ds) == []
    assert ds.a(1, 2) == Cochain(K, ZZ, ("1", "4", "2", "3", "5", "6"), 1,
                                 {("1", "3"): -1})
    # representative pullbacks: chi_{1h 3} has the single preimage {1,3}
    assert ds.classes[0].representative == Cochain(
        K, ZZ, ("1", "4", "2", "3"), 1, {("1", "3"): 1})


def test_pullback_of_path_alternative_entry():
    K, Khat, phi, _ = phi_and_complexes()
    spec = target_spec()
    ds_hat = canonical_defining_system_joins(spec, Khat)
    alt_hat = Cochain(Khat, ZZ, ("1h", "2", "3", "5", "6"), 1,
                      {("1h", "6"): 1, ("1h", "2"): 1, ("1h", "5"): 1})
    ds_hat_alt = ds_hat.with_entry(1, 2, alt_hat)
    assert check_defining_system(ds_hat_alt) == []
    ds_alt = pullback_defining_system(phi, ds_hat_alt)
    assert ds_alt.a(1, 2) == Cochain(
        K, ZZ, ("1", "4", "2", "3", "5", "6"), 1,
        {("1", "6"): 1, ("4", "6"): 1, ("2", "4"): 1, ("4", "5"): 1, ("1", "5"): 1})


def test_pullback_sign_is_needed_after_an_odd_class():
    # the contracted vertex 1b lies in J_1 and the class after it has p = 1,
    # so theta * theta-hat is -1 on entry (1,2): without it the pulled-back
    # staircase equation fails there
    K1, K3 = two_points("1", "2"), two_points("7", "8")
    K2 = cycle_complex(4, ["3", "4", "5", "6"])
    spec = JoinMasseySpec((K1, K2, K3), (
        Cochain.chi(K1, ZZ, ("1",), J=("1", "2")),
        Cochain.chi(K2, ZZ, ("3", "4"), J=K2.vertices),
        Cochain.chi(K3, ZZ, ("7",), J=("7", "8"))))
    Khat, _ = construct_massey_complex(spec)
    ds_hat = canonical_defining_system_joins(spec, Khat)
    order = ["1", "1b"] + list(Khat.vertices[1:])
    K = reorder_vertices(stellar_subdivide(Khat, ("1", "3"), "1b"), order)
    contracted, phi, ok = contract_edge(K, ("1", "1b"), new_label="1")
    assert ok and contracted == Khat
    ds = pullback_defining_system(phi, ds_hat)
    assert check_defining_system(ds) == []
    unsigned = constructions._pull(phi, ds_hat.a(1, 2), 1)
    assert ds.a(1, 2) == -unsigned and not unsigned.is_zero()


def test_identity_pullback_is_trivial():
    K = contraction_example_target()
    from matk.simplicial import VertexMap

    ident = VertexMap(K, K, {v: v for v in K.vertices})
    a = Cochain.chi(K, ZZ, ("1h", "3"), J=("1h", "2", "3"))
    assert pullback_class(ident, a) == a


def test_pullback_splits_over_a_filled_triangle():
    # a pentagon-like complex with one filled triangle; contracting the edge
    # {2,3} opposite the apex sends both {1,2} and {1,3} onto one target edge
    K = SimplicialComplex(
        ["1", "2", "3", "4", "5"],
        [["1", "2", "3"], ["3", "4"], ["4", "5"], ["5", "1"]],
    )
    Khat, phi, ok = contract_edge(K, ("2", "3"), new_label="2h")
    assert ok
    a_hat = Cochain.chi(Khat, ZZ, ("1", "2h"), J=Khat.vertices)
    a = pullback_class(phi, a_hat)
    assert a == Cochain(K, ZZ, K.vertices, 1, {("1", "2"): 1, ("1", "3"): 1})
    assert coboundary(a).is_zero()  # the two triangle terms cancel
    H = reduced_cohomology(K, K.vertices, ZZ)
    assert not H.is_coboundary(a)


def test_disjointify_recovers_the_pullback():
    K, Khat, phi, _ = phi_and_complexes()
    spec = target_spec()
    ds = pullback_defining_system(phi, canonical_defining_system_joins(spec, Khat))
    alt = Cochain(K, ZZ, ("1", "4", "2", "3", "5", "6"), 1,
                  {("1", "6"): 1, ("1", "4"): 1, ("1", "5"): 1})
    touched = ds.with_entry(1, 2, alt)
    assert check_defining_system(touched) == []
    clean = disjointify_defining_system(touched, ("1", "4"))
    assert check_defining_system(clean) == []
    for a in clean.entries.values():
        assert all(not {"1", "4"} <= set(s) for s in a.support)
    assert clean.a(1, 2) == Cochain(K, ZZ, ("1", "4", "2", "3", "5", "6"), 1,
                                    {("1", "3"): -1})
    H = reduced_cohomology(K, K.vertices, ZZ)
    assert H.are_cohomologous(associated_cocycle(clean), associated_cocycle(touched))


def test_disjointify_leaves_clean_systems_alone():
    K, Khat, phi, _ = phi_and_complexes()
    spec = target_spec()
    ds = pullback_defining_system(phi, canonical_defining_system_joins(spec, Khat))
    clean = disjointify_defining_system(ds, ("1", "4"))
    assert clean.entries == ds.entries


def test_diagonal_touching_edge_is_an_error():
    K, Khat, phi, _ = phi_and_complexes()
    classes = (
        class_in_slot(K, ZZ, ("1", "4", "2", "3"), 1, {("1", "4"): 1, ("1", "3"): 1}),
        class_in_slot(K, ZZ, ("5", "6"), 0, {("5",): 1}),
    )
    ds = DefiningSystem(classes, {})
    with pytest.raises(DiagonalTouchesEdge):
        disjointify_defining_system(ds, ("1", "4"))


def test_pushforward_of_pullback_and_sign():
    K, Khat, phi, _ = phi_and_complexes()
    spec = target_spec()
    ds_hat = canonical_defining_system_joins(spec, Khat)
    ds = pullback_defining_system(phi, ds_hat)
    sign = phi_star_sign(phi, ds, 1, 2)
    down = pushforward_phi_star(phi, ds.a(1, 2)).scale(sign)
    assert down == ds_hat.a(1, 2) or down == -ds_hat.a(1, 2)
    with pytest.raises(SupportContainsContractedEdge):
        pushforward_phi_star(phi, Cochain(K, ZZ, ("1", "4", "2", "3"), 1, {("1", "4"): 1}))


def test_pushforward_respects_coboundaries():
    K, Khat, phi, _ = phi_and_complexes()
    b = Cochain.chi(K, ZZ, ("2",), J=("1", "4", "2", "3", "5", "6"))
    db = coboundary(b)
    assert all(not {"1", "4"} <= set(s) for s in db.support)
    down = pushforward_phi_star(phi, db)
    H = reduced_cohomology(Khat, down.J, ZZ)
    assert H.is_coboundary(down)


def test_zero_pushforward():
    K, Khat, phi, _ = phi_and_complexes()
    z = Cochain.zero(K, ZZ, ("1", "4", "2", "3"), 1)
    assert pushforward_phi_star(phi, z).is_zero()


def test_downstairs_triple_product_nontrivial():
    K, _, _, _ = phi_and_complexes()
    a1 = class_in_slot(K, ZZ, ("1", "2", "3", "4"), 1, {("1", "3"): 1})
    a2 = class_in_slot(K, ZZ, ("5", "6"), 0, {("5",): 1})
    a3 = class_in_slot(K, ZZ, ("7", "8"), 0, {("7",): 1})
    verdict = triple_massey_decide(a1, a2, a3)
    assert verdict.defined and verdict.contains_zero is False


def test_naturality_containment():
    K, Khat, phi, _ = phi_and_complexes()
    ring = GF(2)
    spec = target_spec(ring)
    ds_hat = canonical_defining_system_joins(spec, Khat)
    up_verdict = enumerate_defining_systems(ds_hat.classes, budget=16)
    assert up_verdict.defined
    down_classes = tuple(
        CohomologyClass(pullback_class(phi, c.representative)) for c in ds_hat.classes
    )
    down_verdict = enumerate_reference(down_classes, budget=16)
    H = reduced_cohomology(K, K.sort_simplex("12345678"), ring)
    down_keys = set()
    for omega in down_verdict.class_representatives:
        down_keys.add(H.class_key(omega))
    # pulled-back upstairs systems land inside the downstairs Massey set
    pulled = pullback_defining_system(phi, ds_hat)
    omega = associated_cocycle(pulled)
    assert H.class_key(omega) in down_keys


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_disjointify_random_systems(data):
    K, Khat, phi, _ = phi_and_complexes()
    ring = data.draw(st.sampled_from([ZZ, GF(2), GF(3)]))
    spec = target_spec(ring)
    ds = pullback_defining_system(phi, canonical_defining_system_joins(spec, Khat))
    # perturb the (1,2) entry by cocycles whose supports may touch the edge
    H12 = reduced_cohomology(K, ds.J_block(1, 2), ring)
    basis = H12.cocycle_basis(1)
    entry = ds.a(1, 2)
    for z in basis:
        c = data.draw(st.integers(0, 2))
        if c:
            entry = entry + z.scale(ring.of_int(c))
    touched = ds.with_entry(1, 2, entry)
    assert check_defining_system(touched) == []
    clean = disjointify_defining_system(touched, ("1", "4"))
    assert check_defining_system(clean) == []
    for a in clean.entries.values():
        assert all(not {"1", "4"} <= set(s) for s in a.support)
    H = reduced_cohomology(K, K.vertices, ring)
    assert H.are_cohomologous(associated_cocycle(clean), associated_cocycle(touched))


def test_zero_pairing_witness_falls_back_to_f2_enumeration(monkeypatch):
    # a boundary pairs to zero with every cocycle, so the pairing proves
    # nothing and the certificate must come from the exact F2 enumeration
    spec = joins_example_spec()
    K, _ = construct_massey_complex(spec)

    def boundary_witness(spec, K):
        return boundary(delta(K, ZZ, ("1", "3", "7"), J=K.vertices))

    monkeypatch.setattr(constructions, "witness_cycle", boundary_witness)
    cert = certify_join_nontrivial(spec, K)
    assert cert.method == "enumeration-F2"
    assert cert.cycle is None and cert.value is None and cert.moves == 0
    assert cert.omega.ring == GF(2)
    assert cert.omega == Cochain(K, GF(2), K.vertices, 1, {("1", "3"): 1, ("1", "7"): 1})


def test_contract_edges_composite():
    K = contraction_example_source()
    Khat, phi, ok = contract_edges(K, [("1", "4")])
    assert ok
    assert len(Khat.vertices) == 7
    assert phi.is_order_compatible()
