"""Grid obstacle solves: the cold ladder and the acceptance slice families.

    python bench/obstacle.py --src /path/to/parent/src --label csr-laplace
    python bench/obstacle.py --src src --label matrix-free --ref csr-laplace

Ladder: one cold `grid_envelope` solve of the `flat` builtin weight at
lam = 0.25, tol 1e-10, on the radius-1 grid at 128/256/512 (the
perfbench ladder).  Families: the slice families the acceptance criteria
share, one cold `grid_envelope` solve per node of `lam_nodes`, one slice
alive at a time:
  * C3: `flat`, lam = 0.8 k / 64, k < 64, 256^2, tol 1e-9;
  * C7/C8: `perturbed`, lam = 0.36 k / 72, k < 72, 512^2, tol 1e-9.

Per ladder solve and per family it records the wall time, the
finest-level active-set steps (`iterations` of the result; for a family
their sum, largest value and histogram over the slices), the steps over
all levels (one inner solve each; for a family the largest), the largest
Jacobi residual, the seconds inside the conjugate-gradient inner solve
`envelope_solver._cg` (the matrix-free one copies its box there) and the
seconds outside it (`setup_s`: the rest of `grid_envelope`, i.e. the CSR
Laplace systems of the trees that build them, the active-set updates and
certificates, then the obstacle and the boundary extraction), and the CG
iterations (see `InnerSolveMeter`), split into loose ones (run towards a
2-norm bound above 2 tol) and certificate-level ones (towards 2 tol).
Every envelope, coincidence set and finest-level step count is kept in
bench/_work/; once the tree labelled `--ref` has been measured, each
solve also records max |v - v_ref| over the disc and whether its
coincidence set and its finest-level steps equal the reference's (for a
family: the largest gap and how many slices match).
Results merge into BENCH_obstacle.json under `--label`, with the machine
they ran on; run both trees on one machine.
"""

import argparse
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
    """Counts the products `mat @ x` in `meter.applied`."""

    def __init__(self, mat, meter):
        self.mat, self.meter = mat, meter

    def __matmul__(self, x):
        self.meter.applied += 1
        return self.mat @ x


class InnerSolveMeter:
    """Replaces `envelope_solver._cg` with a wrapper that adds its time
    and iterations to `stats`, and counts its calls (one per active-set
    step, over all levels) in `stats["steps"]`.  The inner solve is a
    coroutine sent one 2-norm bound after another, and its iterations are
    its operator applications past the starting residual's: products of
    the CSR matrix of `_cg(mat, b, x)`, or calls of the five-point kernel
    `field_grid.five_point_flat` by the matrix-free `_cg(v, free)`."""

    def __init__(self, solver, tol):
        self.solver, self.tol, self.inner = solver, tol, solver._cg
        self.kernel = getattr(solver, "five_point_flat", None)
        self.applied = 0
        self.stats = {"cg_s": 0.0, "cg_loose": 0, "cg_certificate": 0,
                      "steps": 0}

    def counted_kernel(self, *args):
        self.applied += 1
        return self.kernel(*args)

    def coroutine(self, *args):
        self.stats["steps"] += 1
        if self.kernel is None:
            args = (CountingMatrix(args[0], self),) + args[1:]
        t0 = time.perf_counter()
        gen = self.inner(*args)
        out = next(gen)
        self.stats["cg_s"] += time.perf_counter() - t0
        while True:
            atol = yield out
            t0, applied = time.perf_counter(), self.applied
            out = gen.send(atol)
            self.stats["cg_s"] += time.perf_counter() - t0
            kind = "cg_loose" if atol > 2.0 * self.tol * (1 + 1e-12) else "cg_certificate"
            self.stats[kind] += self.applied - applied

    def __enter__(self):
        self.solver._cg = self.coroutine
        if self.kernel is not None:
            self.solver.five_point_flat = self.counted_kernel
        return self.stats

    def __exit__(self, *exc):
        self.solver._cg = self.inner
        if self.kernel is not None:
            self.solver.five_point_flat = self.kernel


def keep(label: str, ref: str, name: str, res, inside) -> dict:
    """Save one solve's envelope, coincidence set and finest-level steps;
    compare them with `ref`'s."""
    v = np.where(inside, res.envelope.values, 0.0)
    np.savez(WORK / f"{label}_{name}.npz", v=v, coincidence=res.coincidence,
             steps=res.iterations)
    path = WORK / f"{ref}_{name}.npz"
    if label == ref or not path.exists():
        return {}
    with np.load(path) as other:
        cmp = {"max_abs_dv": float(np.max(np.abs(v - other["v"]))),
               "coincidence_equal": bool(np.array_equal(
                   res.coincidence, other["coincidence"]))}
        if "steps" in other:
            cmp["steps_equal"] = bool(res.iterations == other["steps"])
        return cmp


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
    steps, all_levels, residual, wall, gaps = [], [], 0.0, 0.0, []
    equal = {"coincidence_equal": 0, "steps_equal": 0}
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
                for kind in equal:
                    equal[kind] += cmp.get(kind, 0)
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
        for kind, count in equal.items():
            row[f"{kind}_vs_{ref}"] = f"{count}/{m}"
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
