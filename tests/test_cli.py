import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from matk.cli import main
from matk.constructions import spec_to_json
from matk.errors import MatkError

from helpers import inner_edge_join_spec

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIX = ROOT / "fixtures"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_build_round_trip_is_bit_stable(capsys, tmp_path):
    code, out = run_cli(capsys, "build", str(FIX / "fig1.json"))
    assert code == 0
    blob = json.loads(out)
    again = tmp_path / "again.json"
    again.write_text(json.dumps(blob))
    code, out2 = run_cli(capsys, "build", str(again))
    assert code == 0
    assert out == out2


def test_subcomplex_command(capsys):
    code, blob = run_json(capsys, "subcomplex", str(FIX / "fig1.json"),
                          "--vertices", "1,2,3,4")
    assert code == 0
    assert blob["vertices"] == ["1", "2", "3", "4"]
    assert ["3"] in blob["facets"]


def test_homology_command(capsys):
    code, blob = run_json(capsys, "homology", str(FIX / "fig1.json"),
                          "--J", "1,2,3,4", "--ring", "Z")
    assert code == 0
    assert blob["reduced_cohomology"] == {"0": {"free_rank": 1, "torsion": []}}


def test_large_prime_modulus_answers_quickly(capsys):
    # primality of 10^18 + 3 by trial division took longer than any timeout
    start = time.perf_counter()
    code, blob = run_json(capsys, "homology", str(FIX / "fig1.json"),
                          "--ring", "F1000000000000000003")
    assert code == 0 and time.perf_counter() - start < 1
    assert blob["reduced_cohomology"]["1"]["free_rank"] == 4


def test_homology_defaults_to_whole_complex(capsys):
    code, blob = run_json(capsys, "homology", str(FIX / "fig1.json"), "--ring", "Q")
    assert code == 0
    assert blob["J"] == ["1", "2", "3", "4", "5", "6"]
    assert blob["reduced_cohomology"]["1"]["free_rank"] == 4  # 9 edges - 6 + 1


def test_hochster_reports_degree_three_classes(capsys):
    code, blob = run_json(capsys, "hochster", str(FIX / "fig1.json"), "--ring", "Z")
    assert code == 0
    total = {entry["degree"]: entry for entry in blob["total"]}
    assert total[3]["free_rank"] == 6
    slots = {(tuple(e["J"]), e["p"]): e["free_rank"] for e in blob["by_J"]}
    for pair in (("1", "2"), ("3", "4"), ("5", "6")):
        assert slots[(pair, 0)] == 1


def test_zk_oracle_agrees_with_hochster_totals(capsys):
    complexes = [path for path in sorted(FIX.glob("*.json"))
                 if "facets" in (blob := json.loads(path.read_text())) and len(blob["vertices"]) <= 12]
    assert len(complexes) == 8  # every complex fixture is within the oracle's cap
    for path in complexes:
        for ring in ("Z", "F2", "F3"):
            code1, hoch = run_json(capsys, "hochster", str(path), "--ring", ring)
            code2, oracle = run_json(capsys, "zk-oracle", str(path), "--ring", ring)
            assert code1 == code2 == 0
            assert hoch["total"] == oracle["total"], (path.name, ring)


def test_product_command(capsys, tmp_path):
    classes = json.loads((FIX / "fig1-classes.json").read_text())
    two = tmp_path / "two.json"
    two.write_text(json.dumps(classes[:2]))
    code, blob = run_json(capsys, "product", str(FIX / "fig1.json"),
                          "--classes", str(two), "--ring", "Z")
    assert code == 0
    assert blob["is_zero_class"] is True
    assert blob["total_degree"] == 6


def test_massey_verdict_on_fig1(capsys):
    code, blob = run_json(capsys, "massey", str(FIX / "fig1.json"),
                          "--classes", str(FIX / "fig1-classes.json"), "--ring", "Z")
    assert code == 0
    assert blob["defined"] is True
    assert blob["contains_zero"] is False
    assert blob["indeterminacy_rank"] == 1
    assert "witness" in blob


@pytest.mark.parametrize("ring", ["Z", "Q", "F2"])
@pytest.mark.parametrize("pair", [(0, 1), (0, 2)])
def test_twofold_massey_is_the_product(capsys, tmp_path, ring, pair):
    # a twofold Massey product is the cup product, decided over every ring
    two = tmp_path / "two.json"
    two.write_text(json.dumps([_fixture("fig1-classes.json")[i] for i in pair]))
    argv = [str(FIX / "fig1.json"), "--classes", str(two), "--ring", ring]
    code, product = run_json(capsys, "product", *argv)
    assert code == 0
    code, verdict = run_json(capsys, "massey", *argv)
    assert code == 0 and verdict["order"] == 2 and verdict["defined"] is True
    assert verdict["contains_zero"] == product["is_zero_class"]
    assert verdict["contains_zero"] is (pair == (0, 1))


UNIT = {"J": [], "p": -1, "terms": [{"simplex": [], "coeff": "1"}]}


@pytest.mark.parametrize("ring", ["Z", "F3", "Q"])
def test_twofold_massey_with_the_unit_first_is_exact(capsys, tmp_path, ring):
    # the unit has p + |J| = -1, so its staircase sign (-1)^(p + |J|) once
    # came out as the float -1.0: a coefficient "-1.0" over Z, "2.0" over
    # F3, and an internal error (exit 3) over Q
    two = tmp_path / "two.json"
    two.write_text(json.dumps([UNIT, _fixture("fig1-classes.json")[0]]))
    code, verdict = run_json(capsys, "massey", str(FIX / "fig1.json"), "--classes", str(two),
                             "--ring", ring)
    assert code == 0 and verdict["defined"] is True and verdict["contains_zero"] is False
    witness = verdict["witness"]
    cochains = [witness["associated_cocycle"], witness["evaluating_cycle"],
                *(e["cochain"] for e in witness["defining_system"]["entries"])]
    coeffs = [t["coeff"] for c in cochains for t in c["terms"]] + [witness["evaluation"]]
    assert not any("." in c for c in coeffs)


def test_massey_four_fold_needs_prime_field(capsys):
    code, blob = run_json(capsys, "massey", str(FIX / "massey4.json"),
                          "--classes", str(FIX / "massey4-classes.json"), "--ring", "Z")
    assert code == 1
    assert blob["error"]["type"] == "DomainError"
    code, blob = run_json(capsys, "massey", str(FIX / "massey4.json"),
                          "--classes", str(FIX / "massey4-classes.json"),
                          "--ring", "F2", "--order", "4")
    assert code == 0
    assert blob["defined"] is True and blob["contains_zero"] is False
    assert blob["distinct_class_count"] >= 2


def test_construct_join_with_certificate(capsys):
    code, blob = run_json(capsys, "construct-join", str(FIX / "joins-example.json"),
                          "--certify")
    assert code == 0
    deletions = {tuple(d["simplex"]) for d in blob["deletions"]}
    assert deletions == {
        ("1", "4"), ("1", "5"), ("1", "6"), ("3", "8"), ("4", "8"), ("5", "8")}
    assert blob["total_degree"] == 10
    assert blob["certificate"]["nontrivial"] is True
    assert blob["certificate"]["method"] == "pairing"


def test_construct_join_certifies_an_inner_edge_class(capsys, tmp_path):
    # a fourfold spec whose third factor carries a degree-1 class: its
    # witness needs the join's Koszul sign, without which it was refused
    spec = tmp_path / "inner-edge.json"
    spec.write_text(json.dumps(spec_to_json(inner_edge_join_spec())))
    code, blob = run_json(capsys, "construct-join", str(spec), "--certify")
    assert code == 0
    assert blob["certificate"]["nontrivial"] is True
    assert blob["certificate"]["method"] == "pairing"


def test_contract_command_and_link_flag(capsys):
    code, blob = run_json(capsys, "contract", str(FIX / "contraction-source.json"),
                          "--edge", "1,4", "--label", "1h",
                          "--require-link-condition")
    assert code == 0
    assert blob["link_condition"] is True
    assert blob["map"]["1"] == blob["map"]["4"] == "1h"
    target = json.loads((FIX / "contraction-target.json").read_text())
    assert blob["complex"] == target


def test_contract_rejects_failing_link_condition(capsys, tmp_path):
    hollow = tmp_path / "hollow.json"
    hollow.write_text(json.dumps(
        {"vertices": ["1", "2", "3"], "facets": [["1", "2"], ["2", "3"], ["1", "3"]]}))
    code, blob = run_json(capsys, "contract", str(hollow), "--edge", "2,3",
                          "--require-link-condition")
    assert code == 1
    assert "link condition" in blob["error"]["message"]


def test_stretch_command_pulls_classes_back(capsys):
    code, blob = run_json(capsys, "stretch", str(FIX / "contraction-target.json"),
                          "--map", str(FIX / "contraction-map.json"),
                          "--classes", str(FIX / "contraction-classes.json"),
                          "--ring", "Z")
    assert code == 0
    assert blob["valid"] is True and blob["link_condition"] is True
    assert all(not p["is_zero_class"] for p in blob["pullbacks"])


def test_nestohedron_command(capsys):
    code, blob = run_json(capsys, "nestohedron", "--kind", "permutahedron", "--dim", "3")
    assert code == 0
    assert len(blob["vertices"]) == 14


def test_nested_set_command(capsys):
    code, blob = run_json(capsys, "nested-set",
                          str(FIX / "stellohedron3-building-set.json"))
    assert code == 0
    assert len(blob["vertices"]) == 2 * 3 + 4  # stellohedron(3) vertex count


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["massey"])  # missing required arguments
    assert err.value.code == 2


def test_missing_file_is_a_domain_error(capsys):
    code, blob = run_json(capsys, "build", "no-such-file.json")
    assert code == 1
    assert blob["error"]["type"] == "FileNotFoundError"


@pytest.mark.parametrize("ring,coeff", [("F2", "1/2"), ("F3", "1/3"), ("Q", "1/0")])
def test_zero_denominator_is_a_domain_error(capsys, tmp_path, ring, coeff):
    classes = json.loads((FIX / "fig1-classes.json").read_text())[:2]
    classes[0]["terms"][0]["coeff"] = coeff
    path = tmp_path / "classes.json"
    path.write_text(json.dumps(classes))
    code, blob = run_json(capsys, "product", str(FIX / "fig1.json"),
                          "--classes", str(path), "--ring", ring)
    assert code == 1
    assert blob["error"]["type"] == "DivisionByZero"


def _drop(path, field, *, index=None):
    """The JSON fixture at path without one field (in its index-th item)."""
    blob = json.loads((FIX / path).read_text())
    del (blob if index is None else blob[index])[field]
    return blob


@pytest.mark.parametrize("argv,blob,field", [
    (["product", "fig1.json", "--classes"], _drop("fig1-classes.json", "terms", index=0),
     "terms"),
    (["product", "fig1.json", "--classes"], {"class": []}, "classes"),
    (["build"], _drop("fig1.json", "facets"), "facets"),
    (["nested-set"], _drop("stellohedron3-building-set.json", "sets"), "sets"),
    (["construct-join"], _drop("joins-example.json", "ring"), "ring"),
    (["stretch", "contraction-target.json", "--map"], _drop("contraction-map.json",
                                                              "assignment"), "assignment"),
])
def test_missing_json_field_is_a_typed_domain_error(capsys, tmp_path, argv, blob, field):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(blob))
    argv = [str(FIX / a) if a.endswith(".json") else a for a in argv]
    code, out = run_json(capsys, *argv, str(path))
    assert code == 1
    assert out["error"]["type"] == "MissingField"
    assert repr(field) in out["error"]["message"]


def test_internal_key_error_is_not_an_input_error(capsys, monkeypatch):
    from matk import hochster

    def broken(*args, **kwargs):
        raise KeyError("internal")

    monkeypatch.setattr(hochster, "hochster_decompose", broken)
    assert main(["hochster", str(FIX / "fig1.json")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("Traceback (most recent call last):")
    assert "KeyError: 'internal'" in captured.err


def test_out_into_missing_directory_fails_before_computing(capsys, monkeypatch, tmp_path):
    from matk import hochster

    calls = []
    monkeypatch.setattr(hochster, "hochster_decompose", lambda *a, **k: calls.append(a))
    target = tmp_path / "nodir" / "x.json"
    code, out = run_json(capsys, "hochster", str(FIX / "truncated-octahedron.json"),
                         "--out", str(target))
    assert code == 1
    assert out["error"]["type"] == "OutputDirectoryMissing"
    assert str(target) in out["error"]["message"]
    assert calls == []
    assert not target.parent.exists()


def test_out_flag_writes_stable_json(capsys, tmp_path):
    out = tmp_path / "res.json"
    code = main(["hochster", str(FIX / "fig1.json"), "--ring", "Z",
                 "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    first = out.read_text()
    code = main(["hochster", str(FIX / "fig1.json"), "--ring", "Z",
                 "--out", str(out)])
    assert code == 0
    assert out.read_text() == first


@pytest.mark.parametrize("name,argv", [
    ("fig1-hochster-Z.json", ["hochster", "fig1.json", "--ring", "Z"]),
    ("fig1-massey-Z.json", ["massey", "fig1.json", "--classes",
                            "fig1-classes.json", "--ring", "Z"]),
    ("nestohedron-permutahedron-3.json",
     ["nestohedron", "--kind", "permutahedron", "--dim", "3"]),
    ("joins-example-construct.json",
     ["construct-join", "joins-example.json", "--certify"]),
    # canonical solutions: a field witness from a cycle kernel, enumeration
    # witnesses from particular solutions plus kernels, and the Z residual
    ("truncated-octahedron-massey-F3.json",
     ["massey", "truncated-octahedron.json", "--classes",
      "truncated-octahedron-classes.json", "--ring", "F3"]),
    ("massey4-massey-F3.json", ["massey", "massey4.json", "--classes",
                                "massey4-classes.json", "--ring", "F3"]),
    ("rp2-join-construct.json", ["construct-join", "rp2-join.json", "--certify"]),
    ("massey4-massey-F5.json", ["massey", "massey4.json", "--classes",
                                "massey4-classes.json", "--ring", "F5"]),
    ("truncated-octahedron-zk-oracle-Z.json",
     ["zk-oracle", "truncated-octahedron.json", "--ring", "Z"]),
    ("truncated-octahedron-zk-oracle-F2.json",
     ["zk-oracle", "truncated-octahedron.json", "--ring", "F2"]),
    # the fourfold path the massey benchmark runs (appended to keep test ids)
    ("massey4-massey-F2.json", ["massey", "massey4.json", "--classes",
                                "massey4-classes.json", "--ring", "F2"]),
    # the cell-model oracle; rp2 carries C2 torsion in degree 9
    ("fig1-zk-oracle-Z.json", ["zk-oracle", "fig1.json", "--ring", "Z"]),
    ("fig1-zk-oracle-F2.json", ["zk-oracle", "fig1.json", "--ring", "F2"]),
    ("massey4-zk-oracle-Z.json", ["zk-oracle", "massey4.json", "--ring", "Z"]),
    ("contraction-source-zk-oracle-F3.json",
     ["zk-oracle", "contraction-source.json", "--ring", "F3"]),
    ("rp2-zk-oracle-Z.json", ["zk-oracle", "rp2.json", "--ring", "Z"]),
    # a fourfold witness at the point of a branch: the all-zero system fails
    ("flag-d-massey-F3.json", ["massey", "flag-d.json", "--classes",
                               "flag-d-classes.json", "--ring", "F3"]),
])
def test_golden_outputs(capsys, name, argv):
    argv = [str(FIX / a) if a.endswith(".json") else a for a in argv]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    golden = (GOLDEN / name).read_text()
    assert out == golden


def test_hochster_of_permutahedron3_matches_its_recorded_digest(capsys, tmp_path):
    """``matk hochster`` on the 14 vertices of permutahedron(3), 2^14
    subsets, byte for byte: the sha256 of its stdout as recorded before the
    component table and the domination memo replaced the flood fill and the
    per-subset domination scan."""
    code, out = run_cli(capsys, "nestohedron", "--kind", "permutahedron", "--dim", "3")
    assert code == 0
    path = tmp_path / "permutahedron-3.json"
    path.write_text(out)
    code, out = run_cli(capsys, "hochster", str(path))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "78e9c9248b9740eb309dc4cebe08d211c0f04daf092a7a018b0649253ae3e397"


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "matk.cli", "nestohedron", "--kind",
         "stellohedron", "--dim", "2"],
        capture_output=True, text=True, cwd=ROOT,
    )
    assert proc.returncode == 0
    assert len(json.loads(proc.stdout)["vertices"]) == 5


@pytest.mark.parametrize("argv", [
    ["hochster", "truncated-octahedron.json"],  # more than a pipe buffer: print fails
    ["build", "fig1.json"],  # a few lines: the flush fails
    ["build", "missing.json"],  # the error object's flush fails
], ids=["large", "small", "error"])
def test_closed_stdout_is_neither_bad_input_nor_a_crash(argv):
    argv = [str(FIX / a) if a.endswith(".json") else a for a in argv]
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader left: the child's first write to stdout fails
    try:
        proc = subprocess.run([sys.executable, "-m", "matk.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, cwd=ROOT)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr
    assert len(proc.stderr.splitlines()) <= 1


def test_internal_value_error_is_not_an_input_error(capsys, monkeypatch):
    from matk import hochster

    def broken(*args, **kwargs):
        raise ValueError("internal")

    monkeypatch.setattr(hochster, "hochster_decompose", broken)
    assert main(["hochster", str(FIX / "fig1.json")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "ValueError: internal" in captured.err


def test_stretch_reports_a_contraction_failing_the_link_condition(capsys, tmp_path):
    edge = tmp_path / "edge.json"
    edge.write_text(json.dumps({"vertices": ["a", "b"], "facets": [["a", "b"]]}))
    phi = tmp_path / "map.json"
    phi.write_text(json.dumps({
        "source": {"vertices": ["1", "2", "3"], "facets": [["1", "2"], ["2", "3"], ["1", "3"]]},
        "assignment": {"1": "a", "2": "b", "3": "b"},
    }))
    code, blob = run_json(capsys, "stretch", str(edge), "--map", str(phi))
    assert code == 0
    assert blob["valid"] is True and blob["problems"] == []
    assert blob["link_condition"] is False


# -- the error boundary: bad input is a MatkError or an unreadable file --------


def _subclass_names(cls):
    names = {cls.__name__}
    for sub in cls.__subclasses__():
        names |= _subclass_names(sub)
    return names


INPUT_ERRORS = (_subclass_names(MatkError) | _subclass_names(OSError)
                | {"UnicodeDecodeError", "JSONDecodeError"})


def _fixture(name):
    return json.loads((FIX / name).read_text())


def _bad_inputs(root):
    """Well-shaped input files carrying one malformed value each."""
    classes = _fixture("fig1-classes.json")[:2]
    blobs = {"empty": []}
    for name, coeff in (("coeff_x", "x"), ("coeff_123", "1/2/3"), ("coeff_1", 1),
                        ("coeff_null", None)):
        blobs[name] = json.loads(json.dumps(classes))
        blobs[name][0]["terms"][0]["coeff"] = coeff
    blobs["noncocycle"] = json.loads(json.dumps(classes))
    blobs["noncocycle"][0]["J"] = ["1", "4"]  # chi_1 on the edge {1,4}
    blobs["member_a"] = _fixture("stellohedron3-building-set.json")
    blobs["member_a"]["sets"][0] = ["a"]
    blobs["member_float"] = _fixture("stellohedron3-building-set.json")
    blobs["member_float"]["sets"][4] = [1.9, 2]  # not read as {1, 2}
    blobs["spec_x"] = _fixture("joins-example.json")
    blobs["spec_x"]["support_order"] = {"x": []}
    spec = _fixture("joins-example.json")
    for name, key, value in (("spec_factors_5", "factors", 5), ("spec_cochains_5", "cochains", 5),
                             ("spec_choice_5", "vertex_choice", 5),
                             ("spec_orders_list", "support_order", []),
                             ("spec_order_5", "support_order", {"0": 5}),
                             ("spec_order_7", "support_order", {"7": []}),
                             ("spec_extra_cochain", "cochains", spec["cochains"] * 2),
                             ("spec_few_cochains", "cochains", spec["cochains"][:-1]),
                             ("spec_ring_5", "ring", 5)):
        blobs[name] = {**spec, key: value}
    blobs["one"] = classes[:1]
    # JSON values of the wrong shape: a string is not read as a list of
    # characters, and a non-list is not a TypeError
    for name, key, value in (("vertices_12", "vertices", "12"), ("facets_5", "facets", 5),
                             ("facet_5", "facets", [5])):
        blobs[name] = {**_fixture("fig1.json"), key: value}
    for name, key, value in (("J_12", "J", "12"), ("p_x", "p", "x"), ("terms_x", "terms", "x")):
        blobs[name] = json.loads(json.dumps(classes))
        blobs[name][0][key] = value
    blobs["simplex_1"] = json.loads(json.dumps(classes))
    blobs["simplex_1"][0]["terms"][0]["simplex"] = "1"
    for name, key, value in (("sets_5", "sets", 5), ("member_5", "sets", [5]),
                             ("ground_x", "ground", "x")):
        blobs[name] = {**_fixture("stellohedron3-building-set.json"), key: value}
    # a vertex choice naming no support simplex, and JSON arrays where a
    # vertex label belongs
    blobs["spec_choice_99"] = {**spec, "vertex_choice": [{"simplex": ["99", "98"],
                                                          "vertex": "99"}]}
    blobs["simplex_nested"] = json.loads(json.dumps(classes))
    blobs["simplex_nested"][0]["terms"][0]["simplex"] = [["1"]]
    blobs["J_nested"] = json.loads(json.dumps(classes))
    blobs["J_nested"][0]["J"] = [["1"], "2"]
    blobs["spec_order_nested"] = {**spec, "support_order": {"1": [[["3"]], ["4"], ["5"]]}}
    blobs["spec_choice_nested"] = {**spec, "vertex_choice": [{"simplex": [["1"]],
                                                              "vertex": "1"}]}
    blobs["vertices_nested"] = {**_fixture("fig1.json"),
                                "vertices": [["1"], "2", "3", "4", "5", "6"]}
    blobs["map_target_list"] = _fixture("contraction-map.json")
    blobs["map_target_list"]["assignment"]["1"] = ["1h"]
    blobs["map_list"] = {**_fixture("contraction-map.json"), "assignment": ["1", "2"]}
    blobs["map_extra_key"] = _fixture("contraction-map.json")
    blobs["map_extra_key"]["assignment"]["zz"] = "1h"
    blobs["simplex_repeat"] = json.loads(json.dumps(classes))
    blobs["simplex_repeat"][0]["terms"][0]["simplex"] = ["1", "1"]
    blobs["terms_repeat"] = json.loads(json.dumps(classes))
    blobs["terms_repeat"][0]["terms"].append({"simplex": ["1"], "coeff": "5"})
    blobs["spec_empty_class"] = json.loads(json.dumps(spec))  # a degree -1 class
    blobs["spec_empty_class"]["cochains"][1] = {"J": [], "p": -1,
                                                "terms": [{"simplex": [], "coeff": "1"}]}
    blobs["spec_proper_J"] = {  # the last factor's class lives on J = {a0, a2}
        "ring": "F2",
        "factors": [{"vertices": [f"{x}{i}" for i in range(m)],
                     "facets": [[f"{x}{i}"] for i in range(m)]}
                    for x, m in (("c", 2), ("b", 2), ("a", 3))],
        "cochains": [{"J": J, "p": 0, "terms": [{"simplex": J[:1], "coeff": "1"}]}
                     for J in (["c0", "c1"], ["b0", "b1"], ["a0", "a2"])]}
    blobs["classes_5"] = 5
    blobs["ground_huge"] = {"ground": 10**12, "sets": [[1]]}
    blobs["classes_field_5"] = {"classes": 5}
    paths = {}
    for name, blob in blobs.items():
        paths[name] = root / f"{name}.json"
        paths[name].write_text(json.dumps(blob))
    paths["latin1"] = root / "latin1.json"
    paths["latin1"].write_bytes(b'{"vertices": ["\xe9"], "facets": []}')
    paths["dir"] = root
    return paths


@pytest.mark.parametrize("argv,error", [
    (["massey", "fig1.json", "--classes", "{empty}", "--ring", "F2"], "DomainError"),
    (["product", "fig1.json", "--classes", "{coeff_x}"], "MalformedInput"),
    (["product", "fig1.json", "--classes", "{coeff_123}", "--ring", "Q"], "MalformedInput"),
    (["product", "fig1.json", "--classes", "{noncocycle}"], "NotACocycle"),
    (["nested-set", "{member_a}"], "MalformedInput"),
    (["nested-set", "{member_float}"], "MalformedInput"),
    (["nestohedron", "--kind", "cube_truncation", "--dim", "3", "--pairs", "1,2,3"],
     "DomainError"),
    (["construct-join", "{spec_x}"], "MalformedInput"),
    (["hochster", "fig1.json", "--ring", "Fx"], "MalformedInput"),
    (["hochster", "fig1.json", "--ring", "X"], "MalformedInput"),
    (["hochster", "fig1.json", "--ring", "F4"], "NotPrime"),
    (["build", "{dir}"], "IsADirectoryError"),
    (["build", "{latin1}"], "UnicodeDecodeError"),
    (["contract", "fig1.json", "--edge", "1,1"], "EdgeNotInComplex"),
    (["hochster", "fig1.json", "--ring", "F3317044064679887385961983"], "ModulusTooLarge"),
    (["massey", "fig1.json", "--classes", "{one}"], "DomainError"),
    (["massey", "fig1.json", "--classes", "{empty}"], "DomainError"),
    (["build", "{vertices_12}"], "MalformedInput"),
    (["build", "{facets_5}"], "MalformedInput"),
    (["build", "{facet_5}"], "MalformedInput"),
    (["massey", "fig1.json", "--classes", "{J_12}"], "MalformedInput"),
    (["massey", "fig1.json", "--classes", "{p_x}"], "MalformedInput"),
    (["massey", "fig1.json", "--classes", "{terms_x}"], "MalformedInput"),
    (["massey", "fig1.json", "--classes", "{simplex_1}"], "MalformedInput"),
    (["nested-set", "{sets_5}"], "MalformedInput"),
    (["nested-set", "{member_5}"], "MalformedInput"),
    (["nested-set", "{ground_x}"], "MalformedInput"),
    (["construct-join", "{spec_factors_5}"], "MalformedInput"),
    (["construct-join", "{spec_cochains_5}"], "MalformedInput"),
    (["construct-join", "{spec_choice_5}"], "MalformedInput"),
    (["construct-join", "{spec_orders_list}"], "MalformedInput"),
    (["construct-join", "{spec_order_5}"], "MalformedInput"),
    (["construct-join", "{spec_order_7}"], "InvalidSpec"),
    (["construct-join", "{spec_extra_cochain}"], "InvalidSpec"),
    (["construct-join", "{spec_few_cochains}"], "InvalidSpec"),
    (["hochster", "fig1-classes.json"], "MissingField"),
    (["massey", "massey4.json", "--classes", "massey4-classes.json", "--ring", "F2",
      "--budget", "-1"], "DomainError"),
    (["nestohedron", "--kind", "permutahedron", "--dim", "-1"], "DomainError"),
    (["nestohedron", "--kind", "permutahedron", "--dim", "3", "--pairs", "1,2,3"],
     "DomainError"),
    (["nestohedron", "--kind", "stellohedron", "--dim", "3", "--pairs", "1,2,3"],
     "DomainError"),
    (["construct-join", "{spec_choice_99}"], "InvalidSpec"),
    (["massey", "fig1.json", "--classes", "{simplex_nested}", "--ring", "F2"], "MalformedInput"),
    (["massey", "fig1.json", "--classes", "{J_nested}", "--ring", "F2"], "MalformedInput"),
    (["construct-join", "{spec_order_nested}"], "MalformedInput"),
    (["construct-join", "{spec_choice_nested}"], "MalformedInput"),
    (["build", "{vertices_nested}"], "MalformedInput"),
    (["stretch", "contraction-target.json", "--map", "{map_target_list}"], "MalformedInput"),
    (["stretch", "contraction-target.json", "--map", "{map_list}"], "MalformedInput"),
    (["massey", "fig1.json", "--classes", "{classes_5}"], "MissingField"),
    (["massey", "fig1.json", "--classes", "{classes_field_5}"], "MalformedInput"),
    (["stretch", "contraction-target.json", "--map", "{map_extra_key}"], "SimplicialError"),
    (["product", "fig1.json", "--classes", "{simplex_repeat}"], "MalformedInput"),
    (["product", "fig1.json", "--classes", "{terms_repeat}"], "MalformedInput"),
    (["construct-join", "{spec_empty_class}"], "InvalidSpec"),
    (["product", "fig1.json", "--classes", "{coeff_1}"], "MalformedInput"),
    (["product", "fig1.json", "--classes", "{coeff_null}"], "MalformedInput"),
    (["construct-join", "{spec_ring_5}"], "MalformedInput"),
    (["nested-set", "{ground_huge}"], "MissingSingleton"),
    (["construct-join", "{spec_proper_J}", "--certify"], "InvalidSpec"),
])
def test_bad_input_is_a_typed_json_error(capsys, tmp_path, argv, error):
    paths = _bad_inputs(tmp_path)
    argv = [str(paths[a[1:-1]]) if a.startswith("{") else str(FIX / a) if a.endswith(".json")
            else a for a in argv]
    code, blob = run_json(capsys, *argv)
    assert code == 1
    assert blob["error"]["type"] == error
    assert error in INPUT_ERRORS
    if "--pairs" in argv:
        assert "1,2,3" in blob["error"]["message"]
    if argv[0] == "nestohedron" and "-1" in argv:
        assert "--dim -1" in blob["error"]["message"]
    if argv[0] == "massey" and error == "DomainError":
        expected = "--budget -1" if "--budget" in argv else "at least two classes"
        assert expected in blob["error"]["message"]
    names = {pathlib.Path(a).stem for a in argv}
    if names & {"simplex_nested", "J_nested", "spec_order_nested", "spec_choice_nested",
                "vertices_nested", "map_target_list"}:
        assert "is not a vertex label" in blob["error"]["message"]
    if "spec_choice_99" in names:
        assert "no support simplex" in blob["error"]["message"]
    if "map_extra_key" in names:
        assert "non-source vertices ['zz']" in blob["error"]["message"]
    if names & {"simplex_repeat", "terms_repeat"}:
        assert "repeats a vertex or an earlier term's simplex" in blob["error"]["message"]
    if "spec_empty_class" in names:
        assert "a degree -1 class" in blob["error"]["message"]
    if "spec_proper_J" in names:
        assert "factor 2 lives on J=['a0', 'a2']" in blob["error"]["message"]


def _run_quietly(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as err:  # argparse usage errors
            code = err.code
    return code, out.getvalue()


text = st.text(max_size=6)
rings = st.one_of(st.text(max_size=4),
                  st.sampled_from(["Z", "Q", "F2", "F3", "F4", "Fp:5", "Fp:x", "F", "F-2"]))
labels = st.one_of(text, st.sampled_from(["1", "4", "7", "", "1,4"]))


@st.composite
def malformed_runs(draw):
    """(argv, files): a CLI call with one malformed value in a flag or in
    a copy of a fixture that is otherwise well-shaped."""
    fig1 = str(FIX / "fig1.json")
    classes = _fixture("fig1-classes.json")[:2]
    kind = draw(st.sampled_from(["coeff", "ring", "label", "member", "pairs", "support",
                                 "classes", "dir"]))
    if kind == "coeff":
        classes[draw(st.integers(0, 1))]["terms"][0]["coeff"] = draw(st.one_of(
            text, st.sampled_from(["1/0", "1/2/3", "2/4", "-1", "1/3", " 5 "])))
        return ["product", fig1, "--classes", "{f}", "--ring", draw(rings)], {"f": classes}
    if kind == "ring":
        command = draw(st.sampled_from(["hochster", "homology", "massey"]))
        extra = ["--classes", str(FIX / "fig1-classes.json")] if command == "massey" else []
        return [command, fig1, *extra, "--ring", draw(rings)], {}
    if kind == "label":
        where = draw(st.sampled_from(["simplex", "J", "vertices", "edge"]))
        label = draw(labels)
        if where == "simplex":
            classes[0]["terms"][0]["simplex"] = [label]
        elif where == "J":
            classes[1]["J"] = [label, "4"]
        elif where == "vertices":
            return ["subcomplex", fig1, "--vertices", f"1,{label}"], {}
        else:
            return ["contract", fig1, "--edge", f"{label},4"], {}
        return ["product", fig1, "--classes", "{f}"], {"f": classes}
    if kind == "member":
        blob = _fixture("stellohedron3-building-set.json")
        i = draw(st.integers(0, len(blob["sets"]) - 1))
        j = draw(st.integers(0, len(blob["sets"][i]) - 1))
        blob["sets"][i][j] = draw(st.one_of(text, st.integers(-3, 8),
                                            st.sampled_from([1.5, 2.0, True, None])))
        return ["nested-set", "{f}"], {"f": blob}
    if kind == "pairs":
        pairs = draw(st.text(alphabet="0123,; x-", max_size=8))
        return ["nestohedron", "--kind", "cube_truncation", "--dim", "3", "--pairs", pairs], {}
    if kind == "support":
        spec = _fixture("joins-example.json")
        spec["support_order"] = {draw(text): []}
        return ["construct-join", "{f}"], {"f": spec}
    if kind == "classes":
        blob = draw(st.sampled_from([[], classes[:1], [dict(classes[0], J=["1", "4"])]]))
        return ["massey", fig1, "--classes", "{f}", "--ring", draw(rings)], {"f": blob}
    command = draw(st.sampled_from([["build", "{dir}"], ["massey", fig1, "--classes", "{dir}"]]))
    return command, {}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=200, deadline=None)
@given(malformed_runs())
def test_malformed_values_give_json_errors_never_tracebacks(fuzz_dir, run):
    argv, files = run
    paths = {"dir": str(fuzz_dir)}
    for name, blob in files.items():
        paths[name] = str(fuzz_dir / f"{name}.json")
        pathlib.Path(paths[name]).write_text(json.dumps(blob))
    argv = [paths[a[1:-1]] if a in ("{f}", "{dir}") else a for a in argv]
    code, out = _run_quietly(argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert json.loads(out)["error"]["type"] in INPUT_ERRORS
