"""Every third-party module the package imports is a declared dependency,
and the only declared runtime dependency is numpy."""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def imported_top_level_modules(package: Path) -> set[str]:
    """Return the top-level names of every absolute import under ``package``."""
    names = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                names.add(node.module.partition(".")[0])
    return names


def declared_dependencies() -> set[str]:
    """Return the distribution names in ``[project].dependencies``."""
    with (ROOT / "pyproject.toml").open("rb") as handle:
        project = tomllib.load(handle)["project"]
    return {
        re.match(r"[A-Za-z0-9._-]+", requirement).group().lower().replace("-", "_")
        for requirement in project["dependencies"]
    }


def test_runtime_imports_are_declared_dependencies():
    third_party = imported_top_level_modules(ROOT / "src" / "repro") - set(
        sys.stdlib_module_names
    ) - {"repro"}
    assert third_party <= declared_dependencies()


def test_runtime_depends_on_numpy_alone():
    assert declared_dependencies() == {"numpy"}
