"""Grid obstacle solves: the cold ladder and the acceptance slice families.

    python bench/obstacle.py --src /path/to/parent/src --label exact-steps
    python bench/obstacle.py --src src --label inexact-steps --ref exact-steps

Ladder: one cold `grid_envelope` solve of the `flat` builtin weight at
lam = 0.25, tol 1e-10, on the radius-1 grid at 128/256/512 (the
perfbench ladder).  Families: the slice families the acceptance criteria
share, solved the way `geodesic_legendre.grid_slices` solves them, one
slice alive at a time:
  * C3: `flat`, lam = 0.8 k / 64, k < 64, 256^2, tol 1e-9;
  * C7/C8: `perturbed`, lam = 0.36 k / 72, k < 72, 512^2, tol 1e-9.

Per ladder solve and per family it records the wall time, the
finest-level active-set steps (`iterations` of the result; for a family
their sum, largest value and histogram over the slices), the steps over
all levels (one inner solve each; for a family the largest), the largest
Jacobi residual, the seconds inside the conjugate-gradient inner solve
`envelope_solver._cg` and the seconds outside it (`setup_s`: the rest of
`grid_envelope`, mostly the Laplace systems, the active-set updates and
certificates, then the obstacle and the boundary extraction), and the CG
iterations, split into loose ones (run towards a 2-norm bound above
2 tol) and certificate-level ones (towards 2 tol).  Every envelope and
coincidence set is kept in bench/_work/; once the tree labelled `--ref`
has been measured, each solve also records max |v - v_ref| over the disc
and whether its coincidence set equals the reference's (for a family:
the largest gap and how many slices match).
Results merge into BENCH_obstacle.json under `--label`, with the machine
they ran on; run both trees on one machine.
"""

import argparse
import inspect
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
WORK = HERE / "_work"
OUT = HERE.parent / "BENCH_obstacle.json"
LADDER = (128, 256, 512)
FAMILIES = {"C3": ("flat", 0.8, 64, 256), "C7_C8": ("perturbed", 0.36, 72, 512)}


class CountingMatrix:
    """Counts the products `mat @ x`: one per CG iteration, plus one for
    the starting residual."""

    def __init__(self, mat):
        self.mat, self.products = mat, 0

    def __matmul__(self, x):
        self.products += 1
        return self.mat @ x


class InnerSolveMeter:
    """Replaces `envelope_solver._cg` with a wrapper that adds its time
    and iterations to `stats`, and counts its calls (one per active-set
    step, over all levels) in `stats["steps"]`.  Handles both forms of the
    inner solve: a function `_cg(mat, b, x, atol)` solving to 2 tol, and a
    coroutine `_cg(mat, b, x)` sent one 2-norm bound after another."""

    def __init__(self, solver, tol):
        self.solver, self.tol, self.inner = solver, tol, solver._cg
        self.stats = {"cg_s": 0.0, "cg_loose": 0, "cg_certificate": 0,
                      "steps": 0}

    def add(self, atol, t0, mat, products):
        self.stats["cg_s"] += time.perf_counter() - t0
        kind = "cg_loose" if atol > 2.0 * self.tol * (1 + 1e-12) else "cg_certificate"
        self.stats[kind] += mat.products - products

    def coroutine(self, mat, b, x):
        self.stats["steps"] += 1
        mat = CountingMatrix(mat)
        t0 = time.perf_counter()
        gen = self.inner(mat, b, x)
        out = next(gen)
        self.stats["cg_s"] += time.perf_counter() - t0
        while True:
            atol = yield out
            t0, products = time.perf_counter(), mat.products
            out = gen.send(atol)
            self.add(atol, t0, mat, products)

    def function(self, mat, b, x, atol):
        self.stats["steps"] += 1
        mat = CountingMatrix(mat)
        t0 = time.perf_counter()
        try:
            return self.inner(mat, b, x, atol)
        finally:
            self.add(atol, t0, mat, 1)

    def __enter__(self):
        coroutine = inspect.isgeneratorfunction(self.inner)
        self.solver._cg = self.coroutine if coroutine else self.function
        return self.stats

    def __exit__(self, *exc):
        self.solver._cg = self.inner


def keep(label: str, ref: str, name: str, res, inside) -> dict:
    """Save one solve's envelope and coincidence set; compare with `ref`'s."""
    v = np.where(inside, res.envelope.values, 0.0)
    np.savez(WORK / f"{label}_{name}.npz", v=v, coincidence=res.coincidence)
    path = WORK / f"{ref}_{name}.npz"
    if label == ref or not path.exists():
        return {}
    with np.load(path) as other:
        return {"max_abs_dv": float(np.max(np.abs(v - other["v"]))),
                "coincidence_equal": bool(np.array_equal(
                    res.coincidence, other["coincidence"]))}


def ladder(label: str, ref: str) -> dict:
    from pshlab import envelope_solver
    from pshlab.field_grid import build_grid
    from pshlab.potential_kit import builtin_potential

    flat = builtin_potential("flat")
    out = {}
    for n in LADDER:
        grid = build_grid(1, n, 1.0)
        with InnerSolveMeter(envelope_solver, 1e-10) as stats:
            t0 = time.perf_counter()
            res = envelope_solver.grid_envelope(flat, 0.25, grid, tol=1e-10)
            wall = time.perf_counter() - t0
        all_levels = stats.pop("steps")
        row = {"wall_s": wall, "finest_level_steps": res.iterations,
               "steps_all_levels": all_levels,
               "residual": res.residual, "backend": res.backend, **stats,
               "setup_s": wall - stats["cg_s"]}
        cmp = keep(label, ref, f"ladder_{n}", res, grid.inside_mask())
        out[str(n)] = {**row, **{f"{k}_vs_{ref}": x for k, x in cmp.items()}}
    return out


def family(label: str, ref: str, key: str, name: str, c: float, m: int,
           n: int) -> dict:
    from pshlab import envelope_solver
    from pshlab.field_grid import build_grid
    from pshlab.potential_kit import builtin_potential

    p = builtin_potential(name)
    grid = build_grid(1, n, 1.0)
    inside = grid.inside_mask()
    steps, all_levels, residual, wall, gaps, equal = [], [], 0.0, 0.0, [], 0
    with InnerSolveMeter(envelope_solver, 1e-9) as stats:
        for k in range(m):
            before = stats["steps"]
            t0 = time.perf_counter()
            res = envelope_solver.grid_envelope(p, c * k / m, grid, tol=1e-9,
                                                require_psh=(k == 0))
            wall += time.perf_counter() - t0
            steps.append(res.iterations)
            all_levels.append(stats["steps"] - before)
            residual = max(residual, res.residual)
            cmp = keep(label, ref, f"{key}_{k}", res, inside)
            if cmp:
                gaps.append(cmp["max_abs_dv"])
                equal += cmp["coincidence_equal"]
    del stats["steps"]
    row = {"wall_s": wall, "finest_level_steps_sum": sum(steps),
           "finest_level_steps_max": max(steps),
           "finest_level_steps_hist": {str(s): steps.count(s)
                                       for s in sorted(set(steps))},
           "steps_all_levels_max": max(all_levels),
           "residual_max": residual, **stats,
           "cg_share": stats["cg_s"] / wall,
           "setup_s": wall - stats["cg_s"],
           "setup_share": 1.0 - stats["cg_s"] / wall}
    if gaps:
        row[f"max_abs_dv_vs_{ref}"] = max(gaps)
        row[f"coincidence_equal_vs_{ref}"] = f"{equal}/{m}"
    return row


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=HERE.parent / "src",
                    help="directory holding the pshlab package to measure")
    ap.add_argument("--label", required=True,
                    help="key of this tree's results, e.g. parent or change")
    ap.add_argument("--ref", default="parent",
                    help="label of the measured tree to compare solves with")
    args = ap.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    WORK.mkdir(exist_ok=True)
    run = {"ladder": ladder(args.label, args.ref)}
    for n, r in run["ladder"].items():
        print(f"{args.label} ladder {n}: {r['wall_s']:.3f} s, "
              f"{r['finest_level_steps']} finest-level steps "
              f"({r['steps_all_levels']} over all levels), CG "
              f"{r['cg_loose']} loose + {r['cg_certificate']} certificate, "
              f"residual {r['residual']:.2e}")
    run["families"] = {}
    for key, (name, c, m, n) in FAMILIES.items():
        r = family(args.label, args.ref, key, name, c, m, n)
        run["families"][key] = r
        print(f"{args.label} {key} family ({name} {n}^2 x {m}): "
              f"{r['wall_s']:.1f} s ({r['setup_share']:.0%} outside CG), "
              f"{r['finest_level_steps_sum']} finest-level steps (at most "
              f"{r['finest_level_steps_max']} per slice, "
              f"{r['steps_all_levels_max']} over all levels), CG "
              f"{r['cg_loose']} loose + {r['cg_certificate']} certificate")
    report = json.loads(OUT.read_text()) if OUT.exists() else {}
    report["workload"] = (
        "cold grid_envelope ladder (flat, lam 0.25, tol 1e-10, 128/256/512) "
        "and the C3 (flat 256^2 x 64, c 0.8) and C7/C8 (perturbed 512^2 x 72, "
        "c 0.36) slice families at tol 1e-9, grid radius 1")
    report.setdefault("runs", {})[args.label] = {
        "machine": {"python": platform.python_version(),
                    "numpy": np.__version__, "cpus": os.cpu_count(),
                    "platform": platform.platform()},
        **run,
    }
    OUT.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
