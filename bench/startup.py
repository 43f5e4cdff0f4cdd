"""CLI start-up: import time, fresh-process wall time, peak memory, scipy.

    python bench/startup.py --src /path/to/parent/src --label parent \\
        --src src --label change --ref parent

Each `--src` (a directory holding the pshlab package) goes with the
`--label` given after it.  The trees are measured in turn within each of
ROUNDS rounds, so that they see the same host.  Per tree, round and
benchmark workload (perfbench/workloads.py, its config from
`make_config(workload, SEED)`), two fresh interpreters, BLAS pinned to
one thread as perfbench pins it:

  * set-up: perfbench's `SETUP_CODE` (import `pshlab.cli`, then
    `parse_config` of the config, timed inside the interpreter);
  * the workload's command through `pshlab.cli.main`: wall time from
    spawn to exit, import included; the child's peak resident memory and
    the number of scipy modules loaded once the command is done.

The output directory of every command is digested the way perfbench
digests it; each tree records whether its digests are the same in every
round and, once the tree labelled `--ref` has been measured (here or in
an earlier run), whether they equal the reference's.  Results merge into
BENCH_startup.json under each label (medians, and the samples), with the
machine they ran on; run all trees on one machine.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "perfbench"))
from checks import digest_and_bytes  # noqa: E402
from run import SETUP_CODE, THREAD_PINS  # noqa: E402
from workloads import WORKLOADS, command_of, make_config  # noqa: E402

WORK = HERE / "_work" / "startup"
OUT = HERE.parent / "BENCH_startup.json"
SEED = 901
ROUNDS = 7

RUN_CODE = """
import resource, sys
sys.path.insert(0, sys.argv[1])
from pshlab.cli import main
code = main(sys.argv[2:])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
      sum(m == "scipy" or m.startswith("scipy.") for m in sys.modules))
"""


def child(code: str, *args) -> tuple:
    """(wall seconds, words of standard output) of `python -c code args`."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, text=True, timeout=600,
                          check=True, env={**os.environ, **THREAD_PINS})
    return time.perf_counter() - t0, proc.stdout.split()


def measure(src: Path, workload: str, cfg: Path, out: Path) -> dict:
    setup = float(child(SETUP_CODE, src, cfg)[1][-1])
    wall, words = child(RUN_CODE, src, command_of(workload), "--config", cfg,
                        "--out", out)
    code, rss_kb, scipy_modules = map(int, words[-3:])
    if code != 0:
        raise SystemExit(f"{workload} on {src} exited with {code}")
    digest, nbytes = digest_and_bytes(out)
    shutil.rmtree(out)
    return {"setup_s": setup, "wall_s": wall, "peak_rss_mb": rss_kb / 1024.0,
            "scipy_modules": scipy_modules, "digest": digest,
            "out_bytes": nbytes}


def summary(rows: list) -> dict:
    digests = {r["digest"] for r in rows}
    out = {key: statistics.median(r[key] for r in rows)
           for key in ("setup_s", "wall_s", "peak_rss_mb")}
    return {**out, "scipy_modules": max(r["scipy_modules"] for r in rows),
            "out_bytes": rows[0]["out_bytes"], "digest": rows[0]["digest"],
            "deterministic": len(digests) == 1,
            "setup_s_samples": [r["setup_s"] for r in rows],
            "wall_s_samples": [r["wall_s"] for r in rows]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, action="append", required=True,
                    help="directory holding a pshlab package to measure")
    ap.add_argument("--label", action="append", required=True,
                    help="key of the preceding --src's results")
    ap.add_argument("--ref", default="parent",
                    help="label of the tree whose output digests the others "
                         "are compared with")
    args = ap.parse_args()
    if len(args.src) != len(args.label):
        ap.error("give one --label per --src")
    WORK.mkdir(parents=True, exist_ok=True)
    configs = {}
    for workload in WORKLOADS:
        configs[workload] = WORK / f"{workload}.ini"
        configs[workload].write_text(make_config(workload, SEED),
                                     encoding="utf-8")
    rows = {label: {w: [] for w in WORKLOADS} for label in args.label}
    for _ in range(ROUNDS):
        for src, label in zip(args.src, args.label):
            for workload, cfg in configs.items():
                rows[label][workload].append(measure(
                    src.resolve(), workload, cfg, WORK / f"{label}-out"))

    report = json.loads(OUT.read_text()) if OUT.exists() else {}
    report["workload"] = (
        f"fresh-process start-up and command of each perfbench workload "
        f"(seed {SEED}), {ROUNDS} rounds alternating the trees, medians")
    runs = report.setdefault("runs", {})
    for label in args.label:
        runs[label] = {
            "machine": {"python": platform.python_version(),
                        "cpus": os.cpu_count(),
                        "platform": platform.platform()},
            "workloads": {w: summary(r) for w, r in rows[label].items()}}
    ref = runs.get(args.ref, {}).get("workloads", {})
    for label in args.label:
        for workload, row in runs[label]["workloads"].items():
            if label != args.ref and workload in ref:
                row[f"digest_equal_{args.ref}"] = (
                    row["digest"] == ref[workload]["digest"])
            print(f"{label} {workload}: set-up {row['setup_s']:.3f} s, "
                  f"command {row['wall_s']:.3f} s, peak RSS "
                  f"{row['peak_rss_mb']:.1f} MB, {row['scipy_modules']} "
                  f"scipy modules, digest {row['digest'][:12]}")
    OUT.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
