"""The README's examples run as written: every `matk` line of its CLI block
exits 0, and its Python session prints what the README says it prints."""

import contextlib
import io
import pathlib
import re
import shlex

import pytest

from matk.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def _block(lang, after):
    """The first fenced ``lang`` block after the heading ``after``."""
    tail = README[README.index(after):]
    return re.search(rf"```{lang}\n(.*?)```", tail, re.S).group(1)


def _cli_lines():
    text = _block("sh", "## CLI").replace("\\\n", " ")
    return [" ".join(line.split()) for line in text.splitlines()
            if line.strip().startswith("matk ")]


def test_the_cli_block_is_found():
    assert len(_cli_lines()) >= 10


@pytest.mark.parametrize("line", _cli_lines())
def test_readme_cli_line_exits_zero(line, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    argv = shlex.split(line)
    assert main(argv[1:]) == 0, capsys.readouterr().out


def test_readme_python_session_prints_what_it_says(monkeypatch):
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_block("python", "A small worked session"), {})
    assert out.getvalue().splitlines() == ["Z^6", "True False 1"]
