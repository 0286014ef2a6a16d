import importlib.util
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "generate_fixtures.py"


def test_fixtures_rebuild_byte_identically():
    proc = subprocess.run([sys.executable, str(SCRIPT), "--check"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "differs" not in proc.stdout


def test_check_names_each_stale_fixture_and_writes_nothing(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("generate_fixtures", SCRIPT)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    fixtures = tmp_path / "fixtures"
    shutil.copytree(ROOT / "fixtures", fixtures)
    (fixtures / "fig1.json").write_text("{}\n")
    (fixtures / "massey4.json").unlink()
    before = {p.name: p.read_bytes() for p in fixtures.iterdir()}
    gen.OUT = fixtures
    assert gen.main(["--check"]) == 1
    out = capsys.readouterr().out
    stale = {line.split()[-1] for line in out.splitlines() if line.startswith("differs")}
    assert stale == {"fixtures/fig1.json", "fixtures/massey4.json"}
    assert {p.name: p.read_bytes() for p in fixtures.iterdir()} == before
