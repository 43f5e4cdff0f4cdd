"""pshlab benchmark: one seeded CLI workload in a closed loop.

    python3 perfbench/run.py --workload flow-grid --seed 1 --seconds 40 --trace 0

One client runs one command at a time, in-process through `pshlab.cli.main`
on a config generated from the seed (see workloads.py).  `--seconds`
bounds the whole run, imports and set-up measurements included: the loop
stops when its next round would end past it.  The program is imported
from `src/` next to this directory.  BLAS/OpenMP pools are pinned to one
thread.

--trace 0 reports the end-to-end metrics: the median command wall time,
set-up time (import plus `parse_config` in a fresh interpreter, one after
each command, median), peak resident memory and bytes written per command.
--trace 1 runs the cold solver ladder, then alternates untraced and traced
commands and reports per-layer calls, self and total seconds per traced
command (see tracing.py), counts read from return values, failed checks
per command and the tracing overhead.

Every command's outputs are checked (checks.py) and digested; a command
that raises, exits nonzero or whose digest differs from the first one
counts as failed, and the loop goes on.  The last line of standard output
is the JSON result; a fuller report goes to perfbench/results/.
"""

import argparse
import gzip
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from checks import CHECKS, digest_and_bytes
from tracing import LAYERS, Instrumentation, SpanRecorder, aggregate, merge
from workloads import WORKLOADS, command_of, make_config

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
LADDER = (128, 256, 512)

# Functions whose calls / self_s / total_s are reported, chosen as the
# ones an optimisation is most likely to move; the full table of every
# traced function goes to the report file.
REPORTED = (
    "cli.main", "cli.run", "cli.parse_config",
    "field_grid.save_field",
    "potential_kit.validate_strict_psh", "potential_kit.Potential.value",
    "potential_kit.Potential.grad", "potential_kit.Potential.hessian",
    "potential_kit.Potential.chi_prime", "potential_kit.Potential.chi_second",
    "envelope_solver.grid_envelope", "envelope_solver.radial_envelope",
    "envelope_solver.extract_equilibrium",
    "geometry.clip_polygon_to_rect", "geometry.polyline_is_simple",
    "geometry.chain_segments", "geometry.marching_squares",
    "ma_measure.ma_mass", "ma_measure.boundary_mass",
    "geodesic_legendre.grid_slices", "geodesic_legendre.oracle_slices",
    "geodesic_legendre.assemble_geodesic",
    "geodesic_legendre.GeodesicRay.u_values",
    "geodesic_legendre.GeodesicRay.eval_u",
    "geodesic_legendre.hamiltonian", "geodesic_legendre.hmae_residual",
    "geodesic_legendre.weak_solution", "geodesic_legendre.certified_lambda",
    "geodesic_legendre.smooth_hamiltonian",
    "foliation_tube.trace_leaf", "foliation_tube.disc_area",
    "foliation_tube.build_tubular_map",
)
COUNTS = (
    "envelope_solver.grid_envelope.sweeps",
    "envelope_solver.grid_envelope.residual_max",
    "envelope_solver.grid_envelope.warm_share",
    "foliation_tube.trace_leaf.steps", "foliation_tube.trace_leaf.rhs_evals",
    "field_grid.save_field.bytes",
)


def per_layer_units() -> dict:
    """Every per-layer metric name -> unit, in report order."""
    units = {}
    for fn in REPORTED:
        units[f"{fn}.calls"] = "count"
        units[f"{fn}.self_s"] = "s"
        units[f"{fn}.total_s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    for name in COUNTS:
        units[name] = "count"
    units["envelope_solver.grid_envelope.residual_max"] = "1"
    units["envelope_solver.grid_envelope.warm_share"] = "ratio"
    units["field_grid.save_field.bytes"] = "bytes"
    units["trace.overhead_ratio"] = "ratio"
    for n in LADDER:
        units[f"ladder.n{n}.sweeps"] = "count"
        units[f"ladder.n{n}.s"] = "s"
    units["checks.failed"] = "count"
    return units


def import_cli():
    """Import pshlab.cli from src/ next to this directory, nowhere else."""
    if not (SRC / "pshlab" / "cli.py").is_file():
        raise SystemExit(f"benchmark: no program source at {SRC}")
    sys.path.insert(0, str(SRC))
    import pshlab.cli
    if Path(pshlab.cli.__file__).resolve().parent != (SRC / "pshlab").resolve():
        raise SystemExit(f"benchmark: pshlab imported from "
                         f"{pshlab.cli.__file__}, not from {SRC}")
    return pshlab.cli


SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from pshlab.cli import parse_config
with open(sys.argv[2], encoding="utf-8") as fh:
    parse_config(fh.read())
print(time.perf_counter() - t0)
"""


def measure_setup(cfg_path: Path) -> float:
    """Seconds of import plus parse_config in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), str(cfg_path)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


class Loop:
    """Closed loop of one command; collects CPU seconds, digests and
    checks."""

    def __init__(self, cli, workload: str, cfg_path: Path, work: Path):
        self.cli = cli
        self.command = command_of(workload)
        self.cfg_path = cfg_path
        self.work = work
        self.first_digest = None
        self.attempted = 0
        self.failed = 0
        self.checks = []
        self.cpu = []

    def once(self):
        """Run one command; returns (seconds, bytes written), or None on
        failure."""
        self.attempted += 1
        out = self.work / f"cmd{self.attempted:04d}"
        argv = [self.command, "--config", str(self.cfg_path), "--out", str(out)]
        t0 = time.perf_counter()
        c0 = time.process_time()
        try:
            code = self.cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = -1
        seconds = time.perf_counter() - t0
        self.cpu.append(time.process_time() - c0)
        try:
            if code != 0:
                raise RuntimeError(f"{self.command} exited with {code}")
            digest, nbytes = digest_and_bytes(out)
            if self.first_digest is None:
                self.first_digest = digest
            elif digest != self.first_digest:
                raise RuntimeError("output digest differs from the first "
                                   "command of this run")
            self.checks.extend(CHECKS[self.command](out))
        except (RuntimeError, OSError, KeyError, ValueError) as exc:
            print(f"command {self.attempted} failed: {exc}", file=sys.stderr)
            self.failed += 1
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return seconds, nbytes


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def machine_context() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "thread_pins": THREAD_PINS, "machine": platform.machine()}


def run_untraced(loop: Loop, deadline: float, cfg_path: Path) -> dict:
    """Rounds of one command and one set-up measurement until the next
    round would end past `deadline`, so that both see the same host."""
    times, sizes, setup = [], [], []
    while True:
        t0 = time.perf_counter()
        got = loop.once()
        if got is not None:
            times.append(got[0])
            sizes.append(got[1])
        setup.append(measure_setup(cfg_path))
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            break
    if not times:
        return {}, {}
    metrics = {
        "cmd_s": (statistics.median(times), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "out_mb": (statistics.median(sizes) / 1e6, "MB"),
    }
    detail = {"cmd_s_samples": times, "cmd_s_quartiles": quartiles(times),
              "cpu_s_samples": loop.cpu, "setup_s_samples": setup}
    return metrics, detail


def solver_ladder() -> dict:
    """Cold obstacle solves on the flat weight at lam = 0.25."""
    from pshlab.envelope_solver import grid_envelope
    from pshlab.field_grid import build_grid
    from pshlab.potential_kit import builtin_potential
    flat = builtin_potential("flat")
    out = {}
    for n in LADDER:
        t0 = time.perf_counter()
        res = grid_envelope(flat, 0.25, build_grid(1, n, 1.0), tol=1e-10)
        out[f"ladder.n{n}.s"] = time.perf_counter() - t0
        out[f"ladder.n{n}.sweeps"] = res.iterations
    return out


def run_traced(loop: Loop, deadline: float, spans_path: Path) -> dict:
    """The ladder, then rounds of one untraced and one traced command,
    spans written after each, until the next round would end past
    `deadline`.  Per-layer values are means over the traced commands run;
    the overhead compares only pairs in which both commands succeeded."""
    values = solver_ladder()
    rec = SpanRecorder()
    table = {}
    plain, traced = [], []
    with gzip.open(spans_path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write("id,parent,request,name,start_s,end_s\n")
        while True:
            t0 = time.perf_counter()
            got = loop.once()
            rec.request += 1
            with Instrumentation(rec):
                got_traced = loop.once()
            merge(table, aggregate(rec.drain(fh)))
            if got is not None and got_traced is not None:
                plain.append(got[0])
                traced.append(got_traced[0])
            now = time.perf_counter()
            if now + (now - t0) > deadline:
                break
    if not traced:
        return {}, {}

    n = rec.request
    for fn in REPORTED:
        row = table.get(fn, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for key, val in row.items():
            values[f"{fn}.{key}"] = val / n
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            row["self_s"] for name, row in table.items()
            if name.startswith(layer + ".")) / n
    counts = rec.counts
    ge_calls = table.get("envelope_solver.grid_envelope", {"calls": 0})["calls"]
    for name in COUNTS:
        values[name] = counts.get(name, 0.0) / n
    values["envelope_solver.grid_envelope.residual_max"] = counts.get(
        "envelope_solver.grid_envelope.residual_max", 0.0)
    values["envelope_solver.grid_envelope.warm_share"] = (
        counts.get("envelope_solver.grid_envelope.warm", 0.0) / ge_calls
        if ge_calls else 0.0)
    values["trace.overhead_ratio"] = (statistics.median(traced)
                                      / statistics.median(plain) - 1.0)
    values["checks.failed"] = (sum(not c.ok for c in loop.checks)
                               / loop.attempted)
    metrics = {name: (values.get(name, 0.0), unit)
               for name, unit in per_layer_units().items()}
    detail = {"untraced_cmd_s": plain, "traced_cmd_s": traced,
              "shares": shares(table), "functions": table}
    return metrics, detail


def shares(table: dict) -> dict:
    """Share of the traced command time spent in the layer groups the
    workload was chosen to stress or bypass."""
    def tot(name):
        return table.get(name, {}).get("total_s", 0.0)
    whole = tot("cli.main") or float("nan")
    layer_self = {layer: sum(r["self_s"] for k, r in table.items()
                             if k.startswith(layer + "."))
                  for layer in LAYERS}
    return {
        "cut_cells": tot("ma_measure.ma_mass") / whole,
        "grid_envelope": tot("envelope_solver.grid_envelope") / whole,
        "emission": (table.get("cli.run", {}).get("self_s", 0.0)
                     + tot("field_grid.save_field")) / whole,
        "trace_leaf": tot("foliation_tube.trace_leaf") / whole,
        "ray_and_legendre": sum(tot(f"geodesic_legendre.{f}") for f in (
            "GeodesicRay.u_values", "GeodesicRay.eval_u", "hamiltonian",
            "hmae_residual", "legendre_slices")) / whole,
        **{f"layer_self.{k}": v / whole for k, v in layer_self.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + args.seconds

    os.environ.update(THREAD_PINS)  # before numpy is first imported
    cli = import_cli()
    results = HERE / "results"
    work = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    results.mkdir(exist_ok=True)
    work.mkdir(parents=True, exist_ok=True)
    cfg_path = work / "config.ini"
    cfg_path.write_text(make_config(args.workload, args.seed), encoding="utf-8")
    loop = Loop(cli, args.workload, cfg_path, work)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            metrics, detail = run_traced(
                loop, deadline, results / f"spans-{tag}.csv.gz")
        else:
            metrics, detail = run_untraced(loop, deadline, cfg_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed_checks = [c for c in loop.checks if not c.ok]
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "config": make_config(args.workload, args.seed),
        "machine": machine_context(),
        "attempted": loop.attempted, "failed": loop.failed,
        "error_ratio": loop.failed / loop.attempted,
        "checks_run": len(loop.checks),
        "check_fail_ratio": (len(failed_checks) / len(loop.checks)
                             if loop.checks else float("nan")),
        "failed_checks": sorted({(c.name, c.value, c.tol)
                                 for c in failed_checks}),
        "metrics": {k: v for k, (v, _) in metrics.items()},
        **detail,
    }
    (results / f"{tag}.json").write_text(json.dumps(report, indent=1) + "\n",
                                         encoding="utf-8")
    if not metrics:
        print("benchmark: no command completed", file=sys.stderr)
        return 2
    for key in ("machine", "error_ratio", "check_fail_ratio",
                "failed_checks", "cmd_s_samples", "cmd_s_quartiles",
                "shares"):
        if key in report:
            print(f"{key}: {json.dumps(report[key])}")
    print(json.dumps({
        "correct": loop.failed == 0 and not failed_checks,
        "attempted": loop.attempted, "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
