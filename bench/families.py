"""Slice families: one `radial_envelopes` / `grid_envelopes` call per family.

    python bench/families.py --src /path/to/parent/src --label parent \\
        --src src --label change --ref parent

Each `--src` (a directory holding the pshlab package) goes with the
`--label` given after it.  The trees are measured in turn within each of
ROUNDS rounds, so that they see the same host, each round of each tree in
a fresh interpreter with BLAS pinned to one thread as perfbench pins it.
Five families on `lam_nodes(c, m)`, lam = c k / m for k < m (an older
tree without `lam_nodes` builds them by its `oracle_slices` /
`grid_slices`):

  * `quartic-oracle-128x24`: the `foliate-oracle` workload's family
    (`polyrad 1.0 1` + `polyrad 0.5 2`, 128^2, c 0.36, 24 nodes);
  * `quartic-oracle-128x16`: the `geodesic-oracle` workload's family
    (the same weight, 128^2, c 0.8, 16 nodes);
  * `flat-oracle-256x64`: the flat weight's oracle family, 256^2, c 0.8,
    64 nodes (the oracle family of acceptance criterion C3);
  * `flat-grid-256x64` and `perturbed-grid-256x64`: the grid families,
    256^2, c 0.8, 64 nodes, tol 1e-9 (those of C3 and C4/C5).

Per round an oracle family is built ORACLE_REPS times and the median
wall time kept, a grid family once.  Every build is digested (SHA-256 of
each slice's lam, envelope and deficit values and masks, coincidence
set, boundary, coincidence tolerance, degeneracy, steps and residual),
so that two trees can be compared for equal bytes; the child's peak
resident memory is recorded once all its families are built.  Results
merge into BENCH_families.json under each label (medians, and the
samples), with the machine they ran on; run all trees on one machine.
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

OUT = HERE.parent / "BENCH_families.json"
ROUNDS = 5
ORACLE_REPS = 9

CHILD_CODE = """
import hashlib, json, resource, statistics, sys, time
sys.path.insert(0, sys.argv[1])
import numpy as np
from pshlab.field_grid import build_grid
from pshlab import geodesic_legendre as gl
from pshlab.potential_kit import Potential, builtin_potential

if hasattr(gl, "lam_nodes"):
    from pshlab.envelope_solver import grid_envelopes, radial_envelopes
    oracle_family = lambda p, c, m, g: radial_envelopes(p, gl.lam_nodes(c, m), g)
    grid_family = lambda p, c, m, g, tol: grid_envelopes(
        p, gl.lam_nodes(c, m), g, tol=tol)
else:   # an older tree's families are (lam, result) pairs
    oracle_family = lambda *a: [r for _, r in gl.oracle_slices(*a)]
    grid_family = lambda *a, tol: [r for _, r in gl.grid_slices(*a, tol=tol)]

quartic = Potential.from_lines(1, ["polyrad 1.0 1", "polyrad 0.5 2"])
flat, perturbed = builtin_potential("flat"), builtin_potential("perturbed")
g128, g256 = build_grid(1, 128, 1.0), build_grid(1, 256, 1.0)
families = {
    "quartic-oracle-128x24": lambda: oracle_family(quartic, 0.36, 24, g128),
    "quartic-oracle-128x16": lambda: oracle_family(quartic, 0.8, 16, g128),
    "flat-oracle-256x64": lambda: oracle_family(flat, 0.8, 64, g256),
    "flat-grid-256x64": lambda: grid_family(flat, 0.8, 64, g256, tol=1e-9),
    "perturbed-grid-256x64": lambda: grid_family(perturbed, 0.8, 64, g256,
                                                 tol=1e-9),
}


def digest(results):
    h = hashlib.sha256()
    for r in results:
        for arr in (r.envelope.values, r.envelope.mask, r.deficit.values,
                    r.deficit.mask, r.coincidence, r.boundary):
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(repr((float(r.lam), r.coincidence_tol, bool(r.degenerate),
                       r.iterations, r.residual)).encode())
    return h.hexdigest()


out = {}
for name, build in families.items():
    times, digests = [], set()
    for _ in range(int(sys.argv[2]) if "oracle" in name else 1):
        t0 = time.perf_counter()
        results = build()
        times.append(time.perf_counter() - t0)
        digests.add(digest(results))
        del results
    out[name] = {"wall_s": statistics.median(times),
                 "digests": sorted(digests)}
out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps(out))
"""


def child(src: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", CHILD_CODE, str(src), str(ORACLE_REPS)],
        capture_output=True, text=True, timeout=1800, check=True,
        env={**os.environ, **THREAD_PINS})
    return json.loads(proc.stdout.splitlines()[-1])


def summary(rows: list, name: str) -> dict:
    digests = {d for r in rows for d in r[name]["digests"]}
    return {"wall_s": statistics.median(r[name]["wall_s"] for r in rows),
            "digest": sorted(digests)[0], "deterministic": len(digests) == 1,
            "wall_s_samples": [r[name]["wall_s"] for r in rows]}


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
        f"radial_envelopes / grid_envelopes families (quartic oracle 128^2 x 24 "
        f"and x 16, flat oracle 256^2 x 64, flat and perturbed grid 256^2 "
        f"x 64 at tol 1e-9), {ROUNDS} rounds alternating the trees, one "
        f"interpreter per round, an oracle family's median of {ORACLE_REPS} "
        f"builds per round, medians over rounds")
    runs = report.setdefault("runs", {})
    for label in args.label:
        names = [k for k in rows[label][0] if k != "peak_rss_mb"]
        runs[label] = {
            "machine": {"python": platform.python_version(),
                        "cpus": os.cpu_count(),
                        "platform": platform.platform()},
            "peak_rss_mb": statistics.median(r["peak_rss_mb"]
                                             for r in rows[label]),
            "families": {name: summary(rows[label], name) for name in names}}
    ref = runs.get(args.ref, {}).get("families", {})
    for label in args.label:
        for name, row in runs[label]["families"].items():
            if label != args.ref and name in ref:
                row[f"digest_equal_{args.ref}"] = (
                    row["digest"] == ref[name]["digest"])
                row[f"wall_ratio_{args.ref}"] = (
                    row["wall_s"] / ref[name]["wall_s"])
            print(f"{label} {name}: {row['wall_s']:.4f} s, deterministic "
                  f"{row['deterministic']}, digest {row['digest'][:12]}")
    OUT.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
