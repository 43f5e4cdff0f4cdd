"""Ray stages: u, the Hamiltonian's finite-difference check, the conjugates.

    python bench/ray.py --src /path/to/parent/src --label parent \\
        --src src --label change --ref parent

Each `--src` (a directory holding the pshlab package) goes with the
`--label` given after it.  The trees are measured in turn within each of
ROUNDS rounds, so that they see the same host, each round of each tree in
a fresh interpreter with BLAS pinned to one thread as perfbench pins it.
Three rays:

  * `geodesic-oracle`: the ray of the benchmark workload's config
    (perfbench/workloads.py, `make_config("geodesic-oracle", SEED)`):
    quartic radial weight, oracle slices, 128^2, 16 lambda nodes, 32 t;
  * `flat-256`: the flat weight's oracle family, 256^2, 64 lambda nodes
    on [0, 0.8), 96 t (the oracle ray of acceptance criterion C3);
  * `perturbed-256`: the perturbed weight's grid family, 256^2, 64 nodes,
    tol 1e-9, 96 t (the ray of C4 and C5).

The slice families are built once per interpreter, outside the timed
region.  On a freshly assembled ray each round times, in this order,
`ray.u_values()` (the slice stack included), `hamiltonian(ray,
fd_check=True)` and `legendre_slices(ray, ray.lam_grid)`, and digests
(SHA-256) u, the argmax, H with its fd gap, and the conjugates, so that
two trees can be compared for equal bytes.

Memory is measured after the timed stages, so that tracing costs them
nothing: on a second fresh ray of each family the same three stages run
under tracemalloc, and each stage's peak is reported as MB above the
traced size at its start (`<stage>_peak_mb`).  Then one whole `geodesic`
command on the geodesic-oracle config runs once untraced and once traced
(`geodesic_command_peak_mb`, MB above the start).  Results merge into
BENCH_ray.json under each label (medians, and the samples), with the
machine they ran on; run all trees on one machine.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "perfbench"))
from run import THREAD_PINS  # noqa: E402
from workloads import make_config  # noqa: E402

OUT = HERE.parent / "BENCH_ray.json"
SEED = 901
ROUNDS = 5
STAGES = ("u_values", "hamiltonian", "legendre_slices")

CHILD_CODE = """
import hashlib, json, sys, tempfile, time, tracemalloc
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import numpy as np
from pshlab import cli
from pshlab.field_grid import build_grid
from pshlab import geodesic_legendre as gl
from pshlab.geodesic_legendre import (assemble_geodesic, hamiltonian,
                                      legendre_slices)
from pshlab.potential_kit import builtin_potential

cfg = cli.parse_config(sys.argv[2])
# parse_config stores the cutoff in cfg.c; older trees compute it on demand
c = cfg.cutoff() if hasattr(cfg, "cutoff") else cfg.c
grid = build_grid(1, 256, 1.0)
flat, perturbed = builtin_potential("flat"), builtin_potential("perturbed")
if hasattr(gl, "lam_nodes"):   # the ray keeps its family
    from pshlab.envelope_solver import grid_envelopes, radial_envelopes
    geo = cli._build_ray(cfg).results
    flat_family = radial_envelopes(flat, gl.lam_nodes(0.8, 64), grid)
    perturbed_family = grid_envelopes(perturbed, gl.lam_nodes(0.8, 64), grid,
                                      tol=1e-9)
else:   # an older tree's families are (lam, result) pairs
    geo = cli._build_ray(cfg)[1]
    flat_family = gl.oracle_slices(flat, 0.8, 64, grid)
    perturbed_family = gl.grid_slices(perturbed, 0.8, 64, grid, tol=1e-9)
families = {
    "geodesic-oracle": (geo, dict(c=c, n_t=cfg.t_count)),
    "flat-256": (flat_family, dict(c=0.8)),
    "perturbed-256": (perturbed_family, dict(c=0.8)),
}
out = {}
for name, (family, kwargs) in families.items():
    ray = assemble_geodesic(family, **kwargs)
    t0 = time.perf_counter()
    u = ray.u_values()
    t1 = time.perf_counter()
    H = hamiltonian(ray, fd_check=True)
    t2 = time.perf_counter()
    conj = legendre_slices(ray, ray.lam_grid)
    t3 = time.perf_counter()
    digest = lambda *parts: hashlib.sha256(b"".join(parts)).hexdigest()
    out[name] = {
        "shape": [len(ray.lam_grid), len(ray.t_grid),
                  *ray.spatial_grid.shape],
        "u_values": t1 - t0, "hamiltonian": t2 - t1,
        "legendre_slices": t3 - t2,
        "digest_u": digest(u.tobytes()),
        "digest_argmax": digest(ray.argmax_index().tobytes()),
        "digest_h": digest(H.values.tobytes(),
                           np.float64(H.max_fd_gap).tobytes()),
        "digest_conjugates": digest(*(f.values.tobytes() for f in conj)),
        "max_fd_gap": H.max_fd_gap}

def traced(fn):
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    got = fn()
    return got, (tracemalloc.get_traced_memory()[1] - base) / 1e6

tracemalloc.start()
for name, (family, kwargs) in families.items():
    ray = assemble_geodesic(family, **kwargs)
    u, out[name]["u_values_peak"] = traced(ray.u_values)
    H, out[name]["hamiltonian_peak"] = traced(
        lambda: hamiltonian(ray, fd_check=True))
    conj, out[name]["legendre_slices_peak"] = traced(
        lambda: legendre_slices(ray, ray.lam_grid))
    del ray, u, H, conj
with tempfile.TemporaryDirectory() as tmp:
    ini = Path(tmp) / "geodesic.ini"
    ini.write_text(sys.argv[2])
    argv = ["geodesic", "--config", str(ini), "--out"]
    assert cli.main(argv + [str(Path(tmp) / "warm")]) == 0
    code, peak = traced(lambda: cli.main(argv + [str(Path(tmp) / "out")]))
    assert code == 0
tracemalloc.stop()
print(json.dumps({"rays": out, "geodesic_command_peak": peak}))
"""

DIGESTS = ("digest_u", "digest_argmax", "digest_h", "digest_conjugates")


def child(src: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", CHILD_CODE, str(src),
         make_config("geodesic-oracle", SEED)],
        capture_output=True, text=True, timeout=1800, check=True,
        env={**os.environ, **THREAD_PINS})
    return json.loads(proc.stdout.splitlines()[-1])


def summary(rows: list) -> dict:
    out = {"shape_m_nt_ny_nx": rows[0]["shape"]}
    for stage in STAGES:
        out[f"{stage}_s"] = statistics.median(r[stage] for r in rows)
    for stage in STAGES:
        out[f"{stage}_peak_mb"] = statistics.median(r[f"{stage}_peak"]
                                                    for r in rows)
    out["stages_s"] = statistics.median(sum(r[s] for s in STAGES)
                                        for r in rows)
    for key in DIGESTS:
        out[key] = rows[0][key]
    out["max_fd_gap"] = rows[0]["max_fd_gap"]
    out["deterministic"] = all(r[k] == rows[0][k] for r in rows
                               for k in DIGESTS)
    for stage in STAGES:
        out[f"{stage}_s_samples"] = [r[stage] for r in rows]
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, action="append", required=True,
                    help="directory holding a pshlab package to measure")
    ap.add_argument("--label", action="append", required=True,
                    help="key of the preceding --src's results")
    ap.add_argument("--ref", default="parent",
                    help="label of the tree whose digests the others are "
                         "compared with")
    args = ap.parse_args()
    if len(args.src) != len(args.label):
        ap.error("give one --label per --src")
    rows = {label: [] for label in args.label}
    for _ in range(ROUNDS):
        for src, label in zip(args.src, args.label):
            rows[label].append(child(src.resolve()))

    report = json.loads(OUT.read_text()) if OUT.exists() else {}
    report["workload"] = (
        f"u_values, hamiltonian(fd_check=True) and legendre_slices(ray, "
        f"lam_grid) on the geodesic-oracle ray (seed {SEED}) and the flat "
        f"oracle and perturbed grid 256^2 x 64 x 96 rays, {ROUNDS} rounds "
        f"alternating the trees, one interpreter per round, medians; the "
        f"same stages' tracemalloc peaks on fresh rays after the timed "
        f"ones, and the traced peak of one geodesic command on the "
        f"geodesic-oracle config, in MB above the start")
    runs = report.setdefault("runs", {})
    for label in args.label:
        peaks = [r["geodesic_command_peak"] for r in rows[label]]
        runs[label] = {
            "machine": {"python": platform.python_version(),
                        "cpus": os.cpu_count(),
                        "platform": platform.platform()},
            "geodesic_command_peak_mb": statistics.median(peaks),
            "geodesic_command_peak_mb_samples": peaks,
            "rays": {name: summary([r["rays"][name] for r in rows[label]])
                     for name in rows[label][0]["rays"]}}
    ref = runs.get(args.ref, {}).get("rays", {})
    for label in args.label:
        for name, row in runs[label]["rays"].items():
            if label != args.ref and name in ref:
                row[f"digests_equal_{args.ref}"] = all(
                    row[k] == ref[name][k] for k in DIGESTS)
            print(f"{label} {name}: u {row['u_values_s']:.3f} s, "
                  f"hamiltonian {row['hamiltonian_s']:.3f} s, legendre "
                  f"{row['legendre_slices_s']:.3f} s, all "
                  f"{row['stages_s']:.3f} s, deterministic "
                  f"{row['deterministic']}; peaks "
                  + ", ".join(f"{row[f'{s}_peak_mb']:.1f}" for s in STAGES)
                  + " MB")
        print(f"{label} geodesic command: traced peak "
              f"{runs[label]['geodesic_command_peak_mb']:.2f} MB")
    OUT.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
