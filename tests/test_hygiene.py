"""Every name a `pshlab` module imports is used in that module, and only
`field_grid` writes out the five-point neighbour slices."""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pshlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


# v[2:, 1:-1], v[:-2, 1:-1], v[1:-1, 2:] and v[1:-1, :-2], spaces allowed
NEIGHBOUR_SLICE = re.compile(
    r"\[\s*(?::-2|2:)\s*,\s*1:-1\s*\]|\[\s*1:-1\s*,\s*(?::-2|2:)\s*\]")


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_neighbour_slices_only_in_field_grid(path):
    hits = [n for n, line in enumerate(path.read_text().splitlines(), 1)
            if NEIGHBOUR_SLICE.search(line)]
    if path.name == "field_grid.py":
        assert hits, "field_grid.neighbour_sum no longer matches the pattern"
    else:
        assert hits == [], f"use field_grid.neighbour_sum (lines {hits})"
