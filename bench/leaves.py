"""Leaf tracing: wall time, samples and right-hand-side calls, radial and
sampled rays.

    python bench/leaves.py --src src --label change
    python bench/leaves.py --src /path/to/parent/src --label parent

Three anchor sets on radial oracle rays, each traced REPEATS times; the
median wall time is kept:

* 1 anchor: the first leaf anchor of the `foliate-oracle` benchmark
  command at seed 1 (its config comes from perfbench/workloads.py);
* 4 anchors: everything that command traces, its three leaf anchors and
  its 1 x 1 anchor net;
* 32 anchors: the polar net of acceptance criterion C13 (4 radii x 8
  angles) on C13's ray: quartic weight, c = 0.36, 72 slices, the t-range
  of the 512^2 grid.  The slices are built on a 64^2 grid, because the
  radial tracer reads only the lam grid, the t-range and the cutoff of
  the ray; the leaves are C13's.

and two on a sampled ray, where anchors are batched only with the anchors
of the same slice window (here each leaf anchor runs alone and each ring
of the net is one batch):

* sampled 1 anchor and sampled 10 anchors: the first leaf anchor, and
  all 2 leaf anchors plus the 2 x 4 net, of a general-weight grid-backend
  `foliate` command (SAMPLED_CONFIG: 96^2, 16 slices, `reharm`).

The leaf anchors come from the tree's `foliation_tube.level_anchor`, the
rule `foliate` and C13 use; a tree without it gets a copy of its older
rule.  A tree with `foliation_tube.trace_leaves` traces each set in one
call; a tree without it calls `trace_leaf` once per anchor.  `samples`
is the number of t-samples the set's leaves hold, summed over them (a
leaf traced by RK4 holds one more than the steps it took; sampled leaves
stop early, at their resolved radius, some before their first step).
`rhs_calls` counts, in a separate, untimed pass, the calls of the
right-hand side that `_rhs_factory` builds: one per RK4 stage and batch
(per leaf on a tree without batches), none for a leaf written in closed
form.  A SHA-256 of every leaf's `ambient` and `curve` bytes lets two
trees be compared for bitwise-equal leaves.

Results merge into BENCH_leaves.json under `--label`, with the machine
they ran on; run both trees on one machine.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REPEATS = 3
SEED = 1
C13_LEVELS = (0.06, 0.12, 0.2, 0.3)
OUT = HERE.parent / "BENCH_leaves.json"


SAMPLED_CONFIG = """command = foliate
backend = grid
resolution = 96
lambda_nodes = 16
lambdas = 0.12,0.22
anchor_rings = 2
anchor_angles = 4
c = 0.36
tol = 1e-9

[potential]
polyrad 1.0 1
reharm 0.25+0.1j 3
"""


def level_anchor(p, lam, slices, t_lo=-200.0):
    """The leaf anchor at level lam: the tree's own
    `foliation_tube.level_anchor`, or on an older tree without it a copy
    of the rule its `foliate` (t_lo -200) and C13 (t_lo -80) used, with
    scipy's Brent root of chi'(t) = lam in [t_lo, 0]."""
    from pshlab import foliation_tube
    from pshlab.envelope_solver import extract_equilibrium

    if hasattr(foliation_tube, "level_anchor"):
        return foliation_tube.level_anchor(p, lam, slices)
    if p.symmetry == "radial":
        from scipy.optimize import brentq
        t_s = brentq(lambda t: p.chi_prime(t) - lam, t_lo, 0.0)
        return float(np.exp(0.5 * t_s)) + 0j
    k = int(np.argmin([abs(l - lam) for l, _ in slices]))
    _, poly = extract_equilibrium(slices[k][1])
    j = int(np.argmin(np.abs(np.arctan2(poly[:, 1], poly[:, 0]))))
    return poly[j, 0] + 1j * poly[j, 1]


def foliate_anchors(text):
    """The ray and anchors of a `foliate` command, as `foliate` builds
    them."""
    from pshlab import cli
    from pshlab.foliation_tube import polar_anchor_net

    cfg = cli.parse_config(text)
    ray, slices = cli._build_ray(cfg)
    p = cfg.potential
    anchors = [level_anchor(p, lam, slices) for lam in cfg.lambdas or [cfg.lam]]
    rings = np.linspace(0.35, 0.85, cfg.anchor_rings) * max(
        abs(a) for a in anchors)
    net = polar_anchor_net(rings, cfg.anchor_angles)
    return ray, p, anchors + list(net.ravel())


def c13_anchors():
    from pshlab.field_grid import build_grid
    from pshlab.foliation_tube import polar_anchor_net
    from pshlab.geodesic_legendre import (assemble_geodesic, default_t_grid,
                                          oracle_slices)
    from pshlab.potential_kit import builtin_potential

    p = builtin_potential("quartic")
    ray = assemble_geodesic(
        oracle_slices(p, 0.36, 72, build_grid(1, 64, 1.0)),
        t_grid=default_t_grid(0.36, 72, grid=build_grid(1, 512, 1.0)),
        c=0.36)
    radii = [abs(level_anchor(p, lam, None, t_lo=-80.0)) for lam in C13_LEVELS]
    return ray, p, list(polar_anchor_net(radii, 8).ravel())


def trace(ray, p, anchors):
    from pshlab import foliation_tube as ft

    if hasattr(ft, "trace_leaves"):
        return ft.trace_leaves(ray, p, anchors)
    return [ft.trace_leaf(ray, p, z) for z in anchors]


def count_rhs(ray, p, anchors) -> int:
    from pshlab import foliation_tube as ft

    calls = [0]
    factory = ft._rhs_factory

    def counting_factory(*args, **kwargs):
        rhs, state = factory(*args, **kwargs)

        def counted(*a):
            calls[0] += 1
            return rhs(*a)
        return counted, state

    ft._rhs_factory = counting_factory
    try:
        trace(ray, p, anchors)
    finally:
        ft._rhs_factory = factory
    return calls[0]


def measure(ray, p, anchors) -> dict:
    walls = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        leaves = trace(ray, p, anchors)
        walls.append(time.perf_counter() - t0)
    digest = hashlib.sha256()
    for leaf in leaves:
        digest.update(leaf.ambient.tobytes())
        digest.update(leaf.curve.tobytes())
    return {"anchors": len(anchors),
            "samples": sum(len(leaf.t_samples) for leaf in leaves),
            "wall_s_median": statistics.median(walls),
            "wall_s": walls, "rhs_calls": count_rhs(ray, p, anchors),
            "sha256": digest.hexdigest()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=HERE.parent / "src",
                    help="directory holding the pshlab package to measure")
    ap.add_argument("--label", required=True,
                    help="key of this tree's results, e.g. parent or change")
    args = ap.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    sys.path.insert(0, str(HERE.parent / "perfbench"))
    from workloads import make_config

    ray, p, anchors = foliate_anchors(make_config("foliate-oracle", SEED))
    sampled = foliate_anchors(SAMPLED_CONFIG)
    sets = {"1": (ray, p, anchors[:1]), "4": (ray, p, anchors),
            "32": c13_anchors(), "sampled 1": (*sampled[:2], sampled[2][:1]),
            "sampled 10": sampled}
    results = {}
    for name, case in sets.items():
        results[name] = r = measure(*case)
        print(f"{args.label} {name} anchors: {r['wall_s_median']:.3f} s, "
              f"{r['samples']} samples, {r['rhs_calls']} rhs calls")
    report = json.loads(OUT.read_text()) if OUT.exists() else {}
    report["workload"] = (f"foliate-oracle seed {SEED} (1 and 4 anchors); "
                          "C13 net, quartic oracle ray c 0.36, 72 slices, "
                          "t-range of 512^2 (32 anchors); SAMPLED_CONFIG, "
                          "grid backend (sampled 1 and 10 anchors)")
    report.setdefault("runs", {})[args.label] = {
        "machine": {"python": platform.python_version(),
                    "numpy": np.__version__, "cpus": os.cpu_count(),
                    "platform": platform.platform()},
        "trace": results,
    }
    OUT.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
