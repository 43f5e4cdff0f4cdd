"""Every name a `pshlab` module imports is used in that module, and only
`field_grid` writes out the five-point neighbour slices, of 2-D arrays and
of row-major 1-D buffers."""

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
# the same offsets on a row-major buffer of row width w: z[2 * w:] and
# z[:n - 2 * w] (rows), z[w + 1:n - w + 1] and z[w - 1:n - w - 1] (columns)
FLAT_OFFSET = re.compile(
    r"\[\s*2\s*\*\s*\w+\s*:\s*\]|\[\s*:\s*(?:\w+\s*)?-\s*2\s*\*\s*\w+\s*\]"
    r"|\[\s*(\w+)\s*[-+]\s*1\s*:\s*\w+\s*-\s*\1\s*[-+]\s*1\s*\]")


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_neighbour_slices_only_in_field_grid(path):
    for pattern, helper in ((NEIGHBOUR_SLICE, "neighbour_sum"),
                            (FLAT_OFFSET, "five_point_flat")):
        hits = [n for n, line in enumerate(path.read_text().splitlines(), 1)
                if pattern.search(line)]
        if path.name == "field_grid.py":
            assert hits, f"field_grid.{helper} no longer matches the pattern"
        else:
            assert hits == [], f"use field_grid.{helper} (lines {hits})"
