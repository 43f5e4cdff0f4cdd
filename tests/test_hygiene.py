"""Every name a `pshlab` module imports is used in that module, only
`field_grid` writes out the five-point neighbour slices, of 2-D arrays and
of row-major 1-D buffers, no `EnvelopeResult` takes a literal as its
coincidence tolerance, the CLI solves envelopes by one route, the
lam-grid of a slice family is written once (`lam_nodes`), the readers
after the solve take the weight from the family they are given, the
ray's backend picks no leaf path, one CSV formatter writes every file, a
ray keeps no float cube over its t-grid, and no module imports scipy at
module level, so that the CLI's commands load it only where they need
it."""

import ast
import os
import re
import subprocess
import sys
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


def _is_rule_call(node):
    return isinstance(node, ast.Call) and getattr(
        node.func, "id", None) == "contact_tol"


def test_coincidence_tol_only_from_the_rule():
    """Every `EnvelopeResult(...)` call passes as `coincidence_tol` a call
    of the rule `contact_tol`, or a name its function assigns from one:
    no numeric literal, no formula of its own."""
    calls = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            rules = {t.id for a in ast.walk(fn) if isinstance(a, ast.Assign)
                     and _is_rule_call(a.value)
                     for t in a.targets if isinstance(t, ast.Name)}
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and getattr(
                        node.func, "id", None) == "EnvelopeResult":
                    [v] = [k.value for k in node.keywords
                           if k.arg == "coincidence_tol"]
                    calls.append((path.name, node.lineno, _is_rule_call(v)
                                  or getattr(v, "id", None) in rules))
    assert len(calls) >= 4
    assert [c for c in calls if not c[2]] == []


def test_cli_solves_envelopes_by_one_route():
    """In `cli`, only `_solve_envelopes` calls the family solvers, and no
    command builds its slice family any other way."""
    tree = ast.parse((SRC / "cli.py").read_text())
    callers = {}
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):   # f(...) or module.f(...)
                    name = getattr(node.func, "id",
                                   getattr(node.func, "attr", None))
                    callers.setdefault(name, set()).add(fn.name)
    assert callers["radial_envelopes"] == {"_solve_envelopes"}
    assert callers["grid_envelopes"] == {"_solve_envelopes"}


def _is_lam_node_rule(comp):
    """Whether a comprehension is `x * k / m for k in range(m)`."""
    gen = comp.generators[0]
    elt, it = comp.elt, gen.iter
    return (len(comp.generators) == 1 and isinstance(it, ast.Call)
            and getattr(it.func, "id", None) == "range" and len(it.args) == 1
            and isinstance(elt, ast.BinOp) and isinstance(elt.op, ast.Div)
            and ast.dump(elt.right) == ast.dump(it.args[0])
            and isinstance(elt.left, ast.BinOp)
            and isinstance(elt.left.op, ast.Mult)
            and getattr(elt.left.right, "id", None)
            == getattr(gen.target, "id", ""))


def test_lam_nodes_is_the_one_lam_grid():
    """The lam-grid c k / m, k < m, is written only in `lam_nodes`, and
    the pair-building family helpers are gone."""
    hits = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        in_rule = {id(node) for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef) and fn.name == "lam_nodes"
                   for node in ast.walk(fn)}
        hits += [(path.name, id(node) in in_rule) for node in ast.walk(tree)
                 if isinstance(node, (ast.ListComp, ast.GeneratorExp))
                 and _is_lam_node_rule(node)]
    assert hits == [("geodesic_legendre.py", True)]
    tree = ast.parse((SRC / "geodesic_legendre.py").read_text())
    defined = {node.name for node in tree.body
               if isinstance(node, ast.FunctionDef)}
    assert not defined & {"oracle_slices", "grid_slices"}


# parameters that carry a slice family, and with it its weight
FAMILY_PARAMS = {"ray", "leaf", "tmap", "results", "e"}


def test_readers_take_the_weight_from_the_family():
    """No public function of the readers after the solve takes a weight
    `p` next to a ray, leaf, tubular map, family or result, which holds
    it, and the one-leaf wrapper `trace_leaf` is gone."""
    both, defined = [], set()
    for name in ("foliation_tube", "geodesic_legendre", "ma_measure"):
        tree = ast.parse((SRC / f"{name}.py").read_text())
        for fn in tree.body:
            if isinstance(fn, ast.FunctionDef):
                defined.add(f"{name}.{fn.name}")
                params = {a.arg for a in fn.args.args + fn.args.kwonlyargs}
                if (not fn.name.startswith("_") and "p" in params
                        and params & FAMILY_PARAMS):
                    both.append(f"{name}.{fn.name}")
    assert both == []
    assert "foliation_tube.trace_leaves" in defined
    assert "foliation_tube.trace_leaf" not in defined


def test_backend_picks_no_leaf_path():
    """`foliation_tube` reads the ray's backend in `_probe_window` alone,
    which picks the slices that read a leaf's level; the weight picks the
    leaf's path (the closed form or the level's map)."""
    tree = ast.parse((SRC / "foliation_tube.py").read_text())
    readers = {fn.name for fn in ast.walk(tree)
               if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn)
               if isinstance(node, ast.Attribute) and node.attr == "backend"}
    assert readers == {"_probe_window"}


def test_one_csv_formatter():
    """The CSV cell format is written only in `field_grid` (its
    `write_csv`): every other module writes CSV through it."""
    hits = [p.name for p in sorted(SRC.glob("*.py"))
            if "%-24.17g" in p.read_text()]
    assert hits == ["field_grid.py"]


def test_ray_keeps_no_float_cube():
    """Once every reader has run on a ray, none of its attributes is a
    float array over the t-grid: u, H and the weak solution are derived
    from the kept uint16 argmax and never cached on the ray."""
    import numpy as np
    from pshlab.envelope_solver import radial_envelopes
    from pshlab.field_grid import build_grid
    from pshlab.geodesic_legendre import (
        assemble_geodesic, hamiltonian, hmae_residual, lam_nodes,
        legendre_slices, smooth_hamiltonian, weak_solution)
    from pshlab.potential_kit import builtin_potential
    ray = assemble_geodesic(radial_envelopes(
        builtin_potential("quartic"), lam_nodes(0.8, 6),
        build_grid(1, 32, 1.0)), 0.8, n_t=9)
    ray.u_values()
    ray.eval_u(ray.t_grid)
    for read in (hamiltonian, weak_solution, hmae_residual,
                 smooth_hamiltonian, lambda r: legendre_slices(r, [0.1])):
        read(ray)
    kept = {name: (v.dtype, v.shape) for name, v in vars(ray).items()
            if isinstance(v, np.ndarray) and v.ndim == 3}
    assert kept["_argmax"] == (np.uint16, (9, 32, 32))
    assert [name for name, (dtype, shape) in kept.items()
            if dtype.kind == "f" and shape[0] == 9] == []


def _module_level_imports(path):
    """Top names of the modules `path` imports outside any def or class."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_level_scipy_import(path):
    assert "scipy" not in _module_level_imports(path)


# Runs each command in a fresh interpreter through `cli.main`, then prints
# the scipy modules loaded: the CLI imports scipy only for the Reinhardt
# hull, which none of these configs reach.
CLI_RUNS = """
import sys
from pathlib import Path
from pshlab import cli
out = Path(sys.argv[1])
grid_weight = "[potential]\\npolyrad 1.0 1\\nreharm 0.25+0.1j 3\\n"
radial_weight = "[potential]\\npolyrad 1.0 1\\npolyrad 0.5 2\\n"
runs = {
    "flow": "backend = grid\\nresolution = 32\\nlambdas = 0.1,0.25\\n"
            + grid_weight,
    "envelope": "backend = grid\\nresolution = 32\\nlambda = 0.3\\n"
                + grid_weight,
    "geodesic": "backend = grid\\nresolution = 32\\nlambda_nodes = 4\\n"
                "t_count = 4\\nc = 0.3\\n" + grid_weight,
    "geodesic-oracle": "backend = oracle\\nresolution = 32\\n"
                       "lambda_nodes = 6\\nt_count = 6\\nc = 0.8\\n"
                       + radial_weight,
    "foliate-oracle": "backend = oracle\\nresolution = 32\\n"
                      "lambda_nodes = 8\\nlambdas = 0.2\\nanchor_rings = 1\\n"
                      "anchor_angles = 1\\nc = 0.36\\n" + radial_weight,
}
for name, text in runs.items():
    cfg = out / f"{name}.ini"
    cfg.write_text(text)
    command = name.split("-")[0]
    code = cli.main([command, "--config", str(cfg), "--out", str(out / name)])
    assert code == 0, (name, code)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_cli_commands_load_no_scipy(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run([sys.executable, "-c", CLI_RUNS, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[-2] == "[]"
