#!/usr/bin/env python3
"""Regenerate the JSON fixtures in fixtures/.

    python3 scripts/generate_fixtures.py            # rewrite fixtures/
    python3 scripts/generate_fixtures.py --check    # compare, write nothing

Each fixture is rebuilt from its defining construction and sanity-checked
against the facts the test suite relies on before being written.  With
--check every fixture is rebuilt in memory and compared byte for byte with
the file in fixtures/; each file that differs (or is missing) is named on
stdout and the exit code is 1.
"""

import argparse
import itertools
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from matk.cochains import Cochain, cochain_to_json, reduced_cohomology
from matk.constructions import JoinMasseySpec, construct_massey_complex, spec_to_json
from matk.exactalg import ZZ, AbelianGroup
from matk.nestohedra import standard_polytope_complex
from matk.simplicial import (
    SimplicialComplex,
    complex_to_json,
    contract_edge,
    full_subcomplex,
    join,
    relabel,
    reorder_vertices,
    star_delete,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / "fixtures"


BUILT = {}  # fixture file name -> its text, filled by the builders below


def dump(name, obj):
    BUILT[name] = json.dumps(obj, sort_keys=True, indent=2) + "\n"


def two_points(a, b):
    return SimplicialComplex([a, b], [[a], [b]])


def class_blob(K, simplex, J):
    return cochain_to_json(Cochain.chi(K, ZZ, simplex, J=J))


def fig1():
    edges = [
        ["1", "4"], ["1", "5"], ["1", "6"], ["2", "4"], ["2", "5"], ["2", "6"],
        ["3", "5"], ["3", "6"], ["4", "6"],
    ]
    K = SimplicialComplex([str(i) for i in range(1, 7)], edges)
    H = reduced_cohomology(K, ("1", "2", "3", "4"), ZZ)
    assert H.group(1).is_trivial and H.group(0) == AbelianGroup(1)
    assert reduced_cohomology(K, ("3", "4", "5", "6"), ZZ).group(1).is_trivial
    for pair in (("1", "2"), ("3", "4"), ("5", "6")):
        assert not K.has_face(pair)
    dump("fig1.json", complex_to_json(K))
    classes = [
        class_blob(K, ("1",), ("1", "2")),
        class_blob(K, ("3",), ("3", "4")),
        class_blob(K, ("5",), ("5", "6")),
    ]
    dump("fig1-classes.json", classes)
    dump("fig1-two-classes.json", classes[:2])  # the README's `matk product` input


def joins_example():
    K1 = two_points("1", "2")
    K2 = SimplicialComplex(["3", "4", "5", "6"],
                           [["3", "4"], ["4", "5"], ["3", "5"], ["6"]])
    K3 = two_points("7", "8")
    spec = JoinMasseySpec(
        (K1, K2, K3),
        (
            Cochain.chi(K1, ZZ, ("1",), J=("1", "2")),
            Cochain(K2, ZZ, K2.vertices, 0, {("3",): 1, ("4",): 1, ("5",): 1}),
            Cochain.chi(K3, ZZ, ("7",), J=("7", "8")),
        ),
    )
    K, ledger = construct_massey_complex(spec)
    assert set(ledger.simplices()) == {
        ("1", "4"), ("1", "5"), ("1", "6"), ("3", "8"), ("4", "8"), ("5", "8")}
    dump("joins-example.json", spec_to_json(spec))


def rp2_join():
    facets = [
        [0, 1, 2], [0, 3, 4], [0, 4, 5], [0, 1, 5], [1, 3, 5],
        [1, 3, 4], [1, 2, 4], [2, 4, 5], [2, 3, 5], [0, 2, 3],
    ]
    K1 = SimplicialComplex([str(i) for i in range(6)],
                           [[str(v) for v in f] for f in facets])
    assert reduced_cohomology(K1, K1.vertices, ZZ).group(2) == AbelianGroup(0, (2,))
    dump("rp2.json", complex_to_json(K1))  # the C2 torsion of the zk-oracle golden
    K2 = two_points("6", "7")
    K3 = two_points("8", "9")
    spec = JoinMasseySpec(
        (K1, K2, K3),
        (
            Cochain.chi(K1, ZZ, ("0", "1", "2"), J=K1.vertices),
            Cochain.chi(K2, ZZ, ("6",), J=("6", "7")),
            Cochain.chi(K3, ZZ, ("8",), J=("8", "9")),
        ),
    )
    K, ledger = construct_massey_complex(spec)
    assert set(ledger.simplices()) == {("0", "1", "2", "7"), ("6", "9")}
    dump("rp2-join.json", spec_to_json(spec))


def four_massey():
    K = two_points("1", "1'")
    for i in ("2", "3", "4"):
        K = join(K, two_points(i, i + "'"))
    for e in (("1", "2'"), ("1", "3'"), ("2", "3'"), ("2", "4'"), ("3", "4'"),
              ("1'", "2'"), ("1'", "3'")):
        K = star_delete(K, e)
    dump("massey4.json", complex_to_json(K))
    dump("massey4-classes.json", [
        class_blob(K, (str(i),), (str(i), str(i) + "'")) for i in range(1, 5)
    ])


def contraction_example():
    K1 = SimplicialComplex(["1h", "2", "3"], [["1h", "2"], ["2", "3"], ["1h", "3"]])
    K2 = two_points("5", "6")
    K3 = two_points("7", "8")
    Khat = join(join(K1, K2), K3)
    Khat = star_delete(Khat, ("1h", "3", "6"))
    Khat = star_delete(Khat, ("5", "8"))
    restriction = SimplicialComplex(
        ["1", "4", "2", "3", "5", "6"],
        [["1", "3", "5"], ["1", "4", "5"], ["1", "4", "6"], ["2", "3", "5"],
         ["2", "4", "5"], ["2", "3", "6"], ["2", "4", "6"]],
    )
    verts = ["1", "4", "2", "3", "5", "6", "7", "8"]
    phi = {v: ("1h" if v in ("1", "4") else v) for v in verts}
    faces = []
    for size in range(1, 6):
        for s in itertools.combinations(verts, size):
            image = {phi[v] for v in s}
            inner = [v for v in s if v not in ("7", "8")]
            if Khat.has_face(image) and restriction.has_face(inner):
                faces.append(s)
    K = SimplicialComplex(verts, faces)
    contracted = contract_edge(K, ("1", "4"), new_label="1h")
    assert contracted.link_condition
    assert contracted.complex == Khat
    dump("contraction-source.json", complex_to_json(K))
    dump("contraction-target.json", complex_to_json(Khat))
    dump("contraction-map.json", {
        "source": complex_to_json(K),
        "assignment": phi,
    })
    dump("contraction-classes.json", [
        class_blob(Khat, ("1h", "3"), ("1h", "2", "3")),
        class_blob(Khat, ("5",), ("5", "6")),
        class_blob(Khat, ("7",), ("7", "8")),
    ])


def truncated_octahedron():
    perm = standard_polytope_complex("permutahedron", 3)
    figure = ["v{2,3,4}", "v{1,2,4}", "v{1,3,4}", "v{2}", "v{1,2}",
              "v{4}", "v{2,3}", "v{1,2,3}", "v{1}"]
    sub = full_subcomplex(perm, figure)
    sub = reorder_vertices(sub, figure)
    K = relabel(sub, {v: str(i + 1) for i, v in enumerate(figure)})
    # contracting {4,5} and the chain {7,8},{8,9} lands on a six-vertex graph
    step1 = contract_edge(K, ("4", "5"), new_label="4h")
    assert step1.link_condition
    step2 = contract_edge(step1.complex, ("7", "8"), new_label="5h")
    assert step2.link_condition
    step3 = contract_edge(step2.complex, ("5h", "9"), new_label="5h")
    assert step3.link_condition
    Khat = step3.complex
    assert len(Khat.vertices) == 6
    hexagon_edges = {("1", "2h"), ("3", "4h")}  # slot pairs must stay non-edges
    for u, w in (("1", "2"), ("3", "4h"), ("5h", "6")):
        assert not Khat.has_face((u, w))
    dump("truncated-octahedron.json", complex_to_json(K))
    dump("truncated-octahedron-classes.json", [
        class_blob(K, ("1",), ("1", "2")),
        class_blob(K, ("3",), ("3", "4", "5")),
        class_blob(K, ("6",), ("6", "7", "8", "9")),
    ])
    dump("truncated-octahedron-target.json", complex_to_json(Khat))


def flag_d():
    """The flag complex of an 8-vertex graph whose fourfold product of the
    classes chi_1, chi_3, chi_5, chi_7 is non-trivial over F2 and F3 while
    its all-zero defining system fails: the Massey witness is the point of
    a branch, not the memo's constants."""
    edges = {tuple(e) for e in "14 17 18 24 26 27 35 37 38 45 47 67 68".split()}
    labels = [str(v) for v in range(1, 9)]
    cliques = [S for size in range(1, 9) for S in itertools.combinations(labels, size)
               if all(e in edges for e in itertools.combinations(S, 2))]
    K = SimplicialComplex(labels, cliques)
    slots = [(str(v), str(v + 1)) for v in (1, 3, 5, 7)]
    for slot in slots:
        assert not K.has_face(slot)
    dump("flag-d.json", complex_to_json(K))
    dump("flag-d-classes.json", [class_blob(K, slot[:1], slot) for slot in slots])


def building_set_fixture():
    dump("stellohedron3-building-set.json", {
        "ground": 4,
        "sets": [[1], [2], [3], [4], [1, 2], [1, 3], [1, 4],
                 [1, 2, 3], [1, 2, 4], [1, 3, 4], [1, 2, 3, 4]],
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate the JSON fixtures.")
    parser.add_argument("--check", action="store_true",
                        help="compare the rebuilt fixtures with fixtures/ and write nothing")
    args = parser.parse_args(argv)
    fig1()
    joins_example()
    rp2_join()
    four_massey()
    contraction_example()
    truncated_octahedron()
    flag_d()
    building_set_fixture()
    if args.check:
        stale = [name for name, text in BUILT.items()
                 if not (OUT / name).is_file() or (OUT / name).read_bytes() != text.encode()]
        for name in stale:
            print(f"differs: fixtures/{name}")
        print(f"{len(BUILT) - len(stale)} of {len(BUILT)} fixtures match")
        return 1 if stale else 0
    OUT.mkdir(exist_ok=True)
    for name, text in BUILT.items():
        (OUT / name).write_text(text)
        print(f"wrote fixtures/{name}")
    print("done")
    return 0


if __name__ == "__main__":
    sys.exit(main())
