"""Ray emission and the simplicity check: wall time and work counts.

    python bench/emission.py --src src --label change
    python bench/emission.py --src /path/to/parent/src --label parent

Two measurements, each the median wall time over REPEATS calls:

* the CSV writer `field_grid.write_csv` (`cli._write_csv` on a tree
  without it) on three cases:
  - the three ray files of a `geodesic` command (`u.csv`,
    `hamiltonian.csv`, `truncated_pole_field.csv`) at 128^2 x 32 t on the
    oracle backend, with the quartic radial weight of the `geodesic-oracle`
    benchmark workload (q = 0.5);
  - the same three files at 96^2 x 32 t on the grid backend, 12 lambda
    nodes, with the general weight `polyrad 1.0 1` + `reharm 0.25+0.1j 3`;
  - an all-distinct random normal 32 x 16,384 array, the writer's worst
    case: no value repeats, so formatting each distinct value once saves
    nothing.
  Each ray is built once, outside the timed region.  The size, SHA-256
  and number of distinct bit patterns of each file are stored, so that
  two trees can be compared for equal bytes.
* `geometry.polyline_is_simple` on marching-squares contours of the star
  r = 0.6 + 0.1 cos(3 theta) at three grid resolutions (about 256, 1,024
  and 4,096 vertices), with the number of edge pairs whose orientations it
  evaluates: the `geometry.x_sweep` pairs, or n (n - 3) on a tree without
  that function, whose loop tested every edge against every non-adjacent
  edge.

Results merge into BENCH_emission.json under `--label`, with the machine
they ran on; run both trees on one machine.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
RAYS = {
    "oracle": ("command = geodesic\nbackend = oracle\nresolution = 128\n"
               "lambda_nodes = 16\nt_count = 32\nc = 0.8\n\n"
               "[potential]\npolyrad 1.0 1\npolyrad 0.5 2\n"),
    "grid": ("command = geodesic\nbackend = grid\nresolution = 96\n"
             "lambda_nodes = 12\nt_count = 32\nc = 0.8\n\n"
             "[potential]\npolyrad 1.0 1\nreharm 0.25+0.1j 3\n"),
}
DISTINCT_SHAPE = (32, 16384)
CONTOUR_RESOLUTIONS = (102, 404, 1614)
REPEATS = 5
OUT = HERE.parent / "BENCH_emission.json"


def median_wall(fn) -> tuple:
    walls = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls), walls


def ray_arrays(config: str) -> dict:
    from pshlab import cli
    from pshlab.geodesic_legendre import hamiltonian, weak_solution

    ray, _ = cli._build_ray(cli.parse_config(config))
    nt = len(ray.t_grid)
    return {"u.csv": ray.u_values().reshape(nt, -1),
            "hamiltonian.csv": hamiltonian(ray).values.reshape(nt, -1),
            "truncated_pole_field.csv": weak_solution(ray).values.reshape(nt, -1)}


def writer_cases() -> dict:
    from pshlab import cli, field_grid

    writer = getattr(field_grid, "write_csv", None) or getattr(cli, "_write_csv")
    cases = {name: ray_arrays(config) for name, config in RAYS.items()}
    rng = np.random.default_rng(0)
    cases["all-distinct"] = {"random.csv": rng.normal(size=DISTINCT_SHAPE)}
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case, arrays in cases.items():
            for name, arr in arrays.items():
                path = Path(tmp) / name
                med, walls = median_wall(lambda: writer(path, arr))
                data = path.read_bytes()
                out.setdefault(case, {})[name] = {
                    "wall_s_median": med, "wall_s": walls,
                    "shape": list(arr.shape), "mb": len(data) / 1e6,
                    "distinct_bit_patterns": int(np.unique(arr.view(np.uint64)).size),
                    "sha256": hashlib.sha256(data).hexdigest()}
    return out


def contours() -> dict:
    from pshlab import geometry

    out = {}
    for n in CONTOUR_RESOLUTIONS:
        ax = np.linspace(-1.0, 1.0, n)
        x, y = np.meshgrid(ax, ax, indexing="ij")
        f = np.hypot(x, y) - 0.1 * np.cos(3.0 * np.arctan2(y, x))
        (poly,) = geometry.marching_squares(f, 0.6, ax, ax)
        v = len(poly)
        if hasattr(geometry, "x_sweep"):
            pairs = int(geometry.x_sweep(poly)[1].sum())
        else:
            pairs = v * (v - 3)
        simple = geometry.polyline_is_simple(poly)
        med, walls = median_wall(lambda: geometry.polyline_is_simple(poly))
        out[str(v)] = {"resolution": n, "wall_s_median": med, "wall_s": walls,
                       "pairs_evaluated": pairs, "simple": bool(simple)}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=HERE.parent / "src",
                    help="directory holding the pshlab package to measure")
    ap.add_argument("--label", required=True,
                    help="key of this tree's results, e.g. parent or change")
    args = ap.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    files, polys = writer_cases(), contours()
    for case, results in files.items():
        for name, r in results.items():
            print(f"{args.label} {case} {name}: {r['wall_s_median']:.3f} s, "
                  f"{r['mb']:.2f} MB, {r['distinct_bit_patterns']} distinct")
    for v, r in polys.items():
        print(f"{args.label} contour {v}: {r['wall_s_median'] * 1e3:.2f} ms, "
              f"{r['pairs_evaluated']} pairs, simple {r['simple']}")
    report = json.loads(OUT.read_text()) if OUT.exists() else {}
    report["workload"] = ("write_csv on geodesic ray files (oracle backend, "
                          "128^2 x 32 t, polyrad 1.0 1 + polyrad 0.5 2, c 0.8, "
                          "16 lambda nodes; grid backend, 96^2 x 32 t, "
                          "polyrad 1.0 1 + reharm 0.25+0.1j 3, c 0.8, 12 "
                          "lambda nodes) and on a random normal 32 x 16384 "
                          "array; polyline_is_simple on star contours")
    report.setdefault("runs", {})[args.label] = {
        "machine": {"python": platform.python_version(),
                    "numpy": np.__version__, "cpus": os.cpu_count(),
                    "platform": platform.platform()},
        "writer": files,
        "polyline_is_simple": polys,
    }
    OUT.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
