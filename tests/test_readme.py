"""The README's examples, run: its excerpt of the drag report and its
Library snippet must keep matching what the code does."""

from __future__ import annotations

import re
import warnings
from pathlib import Path

import pytest

import pim
from pim.cli import CliConfig, run


def _readme(repo_root: Path) -> str:
    return (repo_root / "README.md").read_text(encoding="utf-8")


def _block(text: str, heading: str, lang: str) -> str:
    """The first fenced block of language lang after the heading."""
    section = text[text.index(f"\n{heading}\n") :]
    match = re.search(rf"^```{lang}\n(.*?)^```$", section, re.M | re.S)
    assert match, f"no ```{lang} block after {heading!r}"
    return match.group(1)


def test_drag_excerpt_lines_appear_in_order_in_the_report(repo_root: Path):
    lines = _block(_readme(repo_root), "## Example", "sh").splitlines()
    assert lines[0] == "$ pim analyze models/drag.pim"
    excerpt = [line for line in lines[1:] if line != "..."]
    assert len(excerpt) >= 5
    text = (repo_root / "models" / "drag.pim").read_text(encoding="utf-8")
    code, out, err = run(CliConfig(command="analyze", input_path="models/drag.pim"), text)
    assert (code, err) == (0, "")
    report = iter(out.splitlines())
    for line in excerpt:  # `in` on an iterator consumes it up to the match
        assert line in report, f"README line {line!r} is not in the report, in order"


def test_library_snippet_runs_from_the_repository_root(
    repo_root: Path, monkeypatch: pytest.MonkeyPatch, capsys
):
    snippet = _block(_readme(repo_root), "## Library", "python")
    monkeypatch.chdir(repo_root)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        exec(compile(snippet, "README.md", "exec"), {"__name__": "readme"})
    assert [str(w.message) for w in caught] == []  # e.g. a ResourceWarning for an open file
    out = capsys.readouterr().out
    assert out.startswith("{\n")
    assert '"d_eff": 2' in out


def test_readme_and_package_docstring_name_every_export(repo_root: Path):
    paragraph = _readme(repo_root).split("The package namespace, `pim.__all__`,")[1]
    paragraph = paragraph.split("\n\n")[0]
    assert [name for name in pim.__all__ if f"`{name}`" not in paragraph] == []
    assert [name for name in pim.__all__ if f"``{name}``" not in pim.__doc__] == []
