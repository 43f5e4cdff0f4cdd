"""Grid obstacle solves: the cold ladder and the acceptance slice families.

    python bench/obstacle.py --src src --label change
    python bench/obstacle.py --src /path/to/parent/src --label parent

Ladder: one cold `grid_envelope` solve of the `flat` builtin weight at
lam = 0.25, tol 1e-10, on the radius-1 grid at 128/256/512 (the
perfbench ladder).  Per resolution it records the wall time, the
`iterations` the result reports (solver steps or sweeps, whichever the
tree counts), the final Jacobi residual and, once a tree labelled
`parent` has been measured, max |v - v_parent| over the disc.  The
envelopes are kept as .npy files in bench/_work/ for that comparison.

Families: the slice families the acceptance criteria share, solved the
way each tree's `geodesic_legendre.grid_slices` solves them (each slice
warm-started from the previous envelope where `grid_envelope` still takes
`warm_start`), one slice alive at a time:
  * C3: `flat`, lam = 0.8 k / 64, k < 64, 256^2, tol 1e-9;
  * C7/C8: `perturbed`, lam = 0.36 k / 72, k < 72, 512^2, tol 1e-9.
Per family it records the wall time, the summed `iterations`, the largest
residual and, where the tree has the conjugate-gradient inner solve
`envelope_solver._cg`, the seconds spent inside it.  Results merge into
BENCH_obstacle.json under `--label`, with the machine they ran on; run
both trees on one machine.
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


def ladder(label: str) -> dict:
    from pshlab.envelope_solver import grid_envelope
    from pshlab.field_grid import build_grid
    from pshlab.potential_kit import builtin_potential

    flat = builtin_potential("flat")
    out = {}
    for n in LADDER:
        grid = build_grid(1, n, 1.0)
        t0 = time.perf_counter()
        res = grid_envelope(flat, 0.25, grid, tol=1e-10)
        wall = time.perf_counter() - t0
        v = np.where(grid.inside_mask(), res.envelope.values, 0.0)
        np.save(WORK / f"ladder_{label}_{n}.npy", v)
        row = {"wall_s": wall, "iterations": res.iterations,
               "residual": res.residual, "backend": res.backend}
        ref = WORK / f"ladder_parent_{n}.npy"
        if label != "parent" and ref.exists():
            row["max_abs_dv_vs_parent"] = float(np.max(np.abs(v - np.load(ref))))
        out[str(n)] = row
    return out


def family(name: str, c: float, m: int, n: int) -> dict:
    from pshlab import envelope_solver
    from pshlab.field_grid import build_grid
    from pshlab.potential_kit import builtin_potential

    p = builtin_potential(name)
    grid = build_grid(1, n, 1.0)
    warm_capable = "warm_start" in inspect.signature(
        envelope_solver.grid_envelope).parameters
    inner = getattr(envelope_solver, "_cg", None)
    cg_s = [0.0]
    if inner is not None:
        def timed_cg(*args, **kwargs):
            t = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                cg_s[0] += time.perf_counter() - t
        envelope_solver._cg = timed_cg
    iterations, residual, warm = 0, 0.0, None
    t0 = time.perf_counter()
    try:
        for k in range(m):
            kwargs = {"warm_start": warm} if warm_capable else {}
            res = envelope_solver.grid_envelope(p, c * k / m, grid, tol=1e-9,
                                                require_psh=(k == 0), **kwargs)
            iterations += res.iterations
            residual = max(residual, res.residual)
            if warm_capable:
                warm = np.array(res.envelope.values)
    finally:
        if inner is not None:
            envelope_solver._cg = inner
    wall = time.perf_counter() - t0
    row = {"wall_s": wall, "iterations_sum": iterations,
           "residual_max": residual, "warm_started": warm_capable}
    if inner is not None:
        row["cg_s"] = cg_s[0]
        row["cg_share"] = cg_s[0] / wall
    return row


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=HERE.parent / "src",
                    help="directory holding the pshlab package to measure")
    ap.add_argument("--label", required=True,
                    help="key of this tree's results, e.g. parent or change")
    args = ap.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    WORK.mkdir(exist_ok=True)
    run = {"ladder": ladder(args.label)}
    for n, r in run["ladder"].items():
        print(f"{args.label} ladder {n}: {r['wall_s']:.3f} s, "
              f"{r['iterations']} iterations, residual {r['residual']:.2e}")
    run["families"] = {}
    for key, (name, c, m, n) in FAMILIES.items():
        r = family(name, c, m, n)
        run["families"][key] = r
        print(f"{args.label} {key} family ({name} {n}^2 x {m}): "
              f"{r['wall_s']:.1f} s, {r['iterations_sum']} iterations")
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
