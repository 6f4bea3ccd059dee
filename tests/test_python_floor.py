"""The package parses under the oldest Python that pyproject.toml admits."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "pim").glob("*.py"))


def _floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    found = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.MULTILINE)
    assert found, "pyproject.toml declares no requires-python floor"
    return int(found[1]), int(found[2])


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_parses_at_the_declared_python_floor(path: Path):
    # catches syntax newer than the floor, such as PEP 695 generics or except*
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=_floor())
