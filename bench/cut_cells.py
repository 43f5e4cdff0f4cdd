"""Cut-cell mass and moment sums at 128/256/512: wall time and work counts.

    python bench/cut_cells.py --src src --label change
    python bench/cut_cells.py --src /path/to/parent/src --label parent

Times `ma_measure.region_moments` (k_max = 4) on the equilibrium
complement of the `perturbed` builtin weight at lam = 0.2, the C6
configuration, at each resolution; the obstacle solve and the boundary
extraction run once per resolution, outside the timed region.  Per
resolution it records the median wall time over REPEATS calls, the
hot-cell count (cells within one cell of the refined boundary) and the
number of (edge, cell) pairs the cut cells are integrated over, as
`geometry.edge_cell_pairs` forms them.  A tree without that function
(the one before it) clipped every hot cell against the whole boundary,
so its count is hot cells x boundary edges.  The moments are stored in
full so that two trees can be compared for equal results.  Results merge
into BENCH_cut_cells.json under `--label`, with the machine they ran on;
run both trees on one machine.
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
RESOLUTIONS = (128, 256, 512)
LAM = 0.2
K_MAX = 4
REPEATS = 3
OUT = HERE.parent / "BENCH_cut_cells.json"


def pair_count(geometry, poly, lo, h, hot) -> int:
    if not hasattr(geometry, "edge_cell_pairs"):
        return int(hot.sum()) * len(poly)
    return len(geometry.edge_cell_pairs(poly, lo, h, np.nonzero(hot)[0])[0])


def measure(n: int) -> dict:
    from pshlab import geometry
    from pshlab.envelope_solver import extract_equilibrium, grid_envelope
    from pshlab.field_grid import build_grid
    from pshlab.ma_measure import _cells_near_polyline, region_moments
    from pshlab.potential_kit import builtin_potential

    p = builtin_potential("perturbed")
    grid = build_grid(1, n, 1.0)
    res = grid_envelope(p, LAM, grid, tol=1e-10)
    mask, poly = extract_equilibrium(res, refine=True)
    comp = ~mask & res.envelope.mask
    walls = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        moments, area = region_moments(p, grid, comp, poly, K_MAX)
        walls.append(time.perf_counter() - t0)
    hot = _cells_near_polyline(grid, poly)
    lo = grid.axis() - 0.5 * grid.h
    return {
        "wall_s_median": statistics.median(walls),
        "wall_s": walls,
        "boundary_vertices": len(poly),
        "hot_cells": int(hot.sum()),
        "edge_cell_pairs": pair_count(geometry, poly, lo, grid.h, hot),
        "moments": [[m.real.hex(), m.imag.hex()] for m in moments],
        "mass": float(moments[0].real),
        "max_moment_ratio": float(np.max(np.abs(moments[1:])) / moments[0].real),
        "lebesgue_area": area,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=HERE.parent / "src",
                    help="directory holding the pshlab package to measure")
    ap.add_argument("--label", required=True,
                    help="key of this tree's results, e.g. parent or change")
    args = ap.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    results = {str(n): measure(n) for n in RESOLUTIONS}
    for n, r in results.items():
        print(f"{args.label} {n}: {r['wall_s_median']:.3f} s, "
              f"{r['hot_cells']} hot cells, {r['edge_cell_pairs']} pairs, "
              f"mass {r['mass']!r}")
    report = json.loads(OUT.read_text()) if OUT.exists() else {}
    report["workload"] = (f"region_moments, k_max {K_MAX}, builtin perturbed, "
                          f"lam {LAM}, refined boundary, grid radius 1")
    report.setdefault("runs", {})[args.label] = {
        "machine": {"python": platform.python_version(),
                    "numpy": np.__version__, "cpus": os.cpu_count(),
                    "platform": platform.platform()},
        "resolutions": results,
    }
    OUT.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
