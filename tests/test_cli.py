import json
import pathlib
import subprocess
import sys

import pytest

from matk.cli import main

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
    code1, hoch = run_json(capsys, "hochster", str(FIX / "fig1.json"), "--ring", "F2")
    code2, oracle = run_json(capsys, "zk-oracle", str(FIX / "fig1.json"), "--ring", "F2")
    assert code1 == code2 == 0
    assert hoch["total"] == oracle["total"]


def test_product_command(capsys, tmp_path):
    classes = json.load(open(FIX / "fig1-classes.json"))
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


def test_contract_command_and_link_flag(capsys):
    code, blob = run_json(capsys, "contract", str(FIX / "contraction-source.json"),
                          "--edge", "1,4", "--label", "1h",
                          "--require-link-condition")
    assert code == 0
    assert blob["link_condition"] is True
    assert blob["map"]["1"] == blob["map"]["4"] == "1h"
    target = json.load(open(FIX / "contraction-target.json"))
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
    with pytest.raises(KeyError):
        main(["hochster", str(FIX / "fig1.json")])
    assert capsys.readouterr().out == ""


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
])
def test_golden_outputs(capsys, name, argv):
    argv = [str(FIX / a) if a.endswith(".json") else a for a in argv]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    golden = (GOLDEN / name).read_text()
    assert out == golden


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "matk.cli", "nestohedron", "--kind",
         "stellohedron", "--dim", "2"],
        capture_output=True, text=True, cwd=ROOT,
    )
    assert proc.returncode == 0
    assert len(json.loads(proc.stdout)["vertices"]) == 5
