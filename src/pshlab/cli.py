"""Batch front-end: config parsing, pipeline orchestration, and report
emission.  Outputs are data-only (CSV / key-value text / JSON); rendering
is external.

Commands
--------
envelope   one pole weight: envelope, deficit, coincidence set, boundary
flow       a weight sweep: boundary curves and the enclosed-mass table
geodesic   slice family -> ray, Hamiltonian, truncated-pole field, residuals
foliate    trace leaves, disc areas, tubular correspondence
verify     the acceptance suite, machine-readable pass/fail

Exit codes: 0 success, 1 config error, 2 numerical failure,
3 verification failure.  Identical configs produce bitwise-identical
outputs on the same platform (fixed float formatting, fixed orderings).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .field_grid import GridSpec, build_grid, save_field, write_csv
from .potential_kit import Potential, validate_strict_psh
from .envelope_solver import (MAX_STEPS, EnvelopeResult, extract_equilibrium,
                              grid_envelopes, lelong_check, radial_envelopes)
from .geodesic_legendre import (assemble_geodesic, certified_lambda,
                                hamiltonian, hmae_residual, weak_solution)
from .ma_measure import boundary_mass, ma_mass
from .foliation_tube import (build_tubular_map, disc_area, level_anchor,
                             polar_anchor_net, trace_leaves)


class ConfigError(ValueError):
    pass


_COMMANDS = ("envelope", "flow", "geodesic", "foliate", "verify")

_KEY_TYPES = {
    "command": str, "backend": str, "n": int, "resolution": int,
    "radius": float, "lambda": float, "lambdas": str,
    "c": float, "tol": float, "max_iters": int, "out": str,
    "t_count": int, "lambda_nodes": int, "anchor_rings": int,
    "anchor_angles": int,
}


@dataclass
class RunConfig:
    command: str = "envelope"
    backend: str = "auto"
    n: int = 1
    resolution: int = 256
    radius: float = 1.0
    lam: float = 0.25
    lambdas: list = field(default_factory=list)
    c: float | None = None
    tol: float = 1e-10
    max_iters: int = MAX_STEPS
    out: str = "pshlab_out"
    t_count: int = 96
    lambda_nodes: int = 64
    anchor_rings: int = 4
    anchor_angles: int = 8
    quick: bool = False
    potential: Potential = None
    defaults_used: list = field(default_factory=list)

    def grid(self) -> GridSpec:
        """Cartesian for n = 1, log-radial for n = 2: the one grid each
        backend runs on."""
        return build_grid(self.n, self.resolution, self.radius,
                          "cartesian" if self.n == 1 else "log-radial")

    def echo(self) -> dict:
        d = {"command": self.command, "backend": self.backend, "n": self.n,
             "resolution": self.resolution, "radius": self.radius,
             "style": self.grid().style, "lambda": self.lam,
             "lambdas": ",".join(f"{v:g}" for v in self.lambdas),
             "c": float("nan") if self.c is None else self.c,
             "tol": self.tol, "max_iters": self.max_iters,
             "t_count": self.t_count,
             "lambda_nodes": self.lambda_nodes,
             "defaults_used": ",".join(self.defaults_used)}
        return d


def parse_config(text: str) -> RunConfig:
    """Parse the key = value / [potential] format; every failure carries
    its line number."""
    cfg = RunConfig()
    seen = set()
    term_lines = []
    in_potential = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if line.lower() == "[potential]":
                in_potential = True
                continue
            raise ConfigError(f"line {lineno}: unknown section {line}")
        if in_potential:
            term_lines.append((lineno, line))
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in _KEY_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        seen.add(key)
        try:
            parsed = _KEY_TYPES[key](val)
        except ValueError:
            raise ConfigError(
                f"line {lineno}: cannot parse {key} = {val!r}") from None
        if key == "command":
            if parsed not in _COMMANDS:
                raise ConfigError(f"line {lineno}: unknown command {parsed!r}")
            cfg.command = parsed
        elif key == "lambda":
            if parsed < 0:
                raise ConfigError(f"line {lineno}: lambda must be >= 0")
            cfg.lam = parsed
        elif key == "lambdas":
            try:
                cfg.lambdas = [float(tok) for tok in parsed.split(",") if tok]
            except ValueError:
                raise ConfigError(f"line {lineno}: bad lambda list") from None
        elif key == "c":
            if parsed <= 0:
                raise ConfigError(f"line {lineno}: c must be positive")
            cfg.c = parsed
        elif key == "tol":
            if parsed <= 0:
                raise ConfigError(f"line {lineno}: tol must be positive")
            cfg.tol = parsed
        else:
            setattr(cfg, key, parsed)

    if not term_lines:
        raise ConfigError("missing [potential] section")
    first_ln = term_lines[0][0]
    try:
        cfg.potential = Potential.from_lines(
            cfg.n, [ln for _, ln in term_lines])
    except ValueError as exc:
        raise ConfigError(f"potential block (line {first_ln}+): {exc}") from None
    if cfg.potential.n != cfg.n:
        cfg.n = cfg.potential.n

    # defaults echoed to output metadata
    for key in ("c", "resolution", "tol", "lambda_nodes", "t_count"):
        if key not in seen:
            cfg.defaults_used.append(key)

    # validation that needs the assembled config; n = 2 takes no default c
    try:
        grid = cfg.grid()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if cfg.n == 1:
        p = cfg.potential
        cert = validate_strict_psh(p, grid)
        if not cert.valid:
            raise ConfigError(
                f"potential is not strictly plurisubharmonic on the grid "
                f"(min Hessian eigenvalue {cert.min_eig:.3g})")
        if cfg.c is None:   # 0.8 of the disc's enclosed mass
            if p.symmetry == "radial":
                mass = float(p.chi_prime(np.log(cfg.radius ** 2)))
            else:
                # enclosed mass of the disc from the boundary circulation
                th = np.linspace(0.0, 2 * np.pi, 2048, endpoint=False)
                r = 0.98 * cfg.radius
                circ = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
                mass = boundary_mass(p, circ)
            cfg.c = 0.8 * mass
    return cfg


# ---------------------------------------------------------------------------
# emission helpers
# ---------------------------------------------------------------------------

def _write_kv(path: Path, data: dict):
    path.write_text("".join(f"{k} = {v}\n" for k, v in data.items()), encoding="utf-8")


def _emit_envelope(res: EnvelopeResult, out: Path, cfg: RunConfig):
    out.mkdir(parents=True, exist_ok=True)
    save_field(res.envelope, out / "envelope.csv")
    save_field(res.deficit, out / "deficit.csv")
    write_csv(out / "coincidence.csv", res.coincidence.astype(int))
    write_csv(out / "boundary.csv", res.boundary, header="x,y")
    meta = cfg.echo()
    meta.update({"lambda": res.lam, "backend": res.backend,
                 "iterations": res.iterations,
                 "residual": f"{res.residual:.17g}",
                 "coincidence_tol": f"{res.coincidence_tol:.17g}",
                 "degenerate": int(res.degenerate)})
    _write_kv(out / "metadata.txt", meta)


def _solve_envelopes(cfg: RunConfig, lams) -> list:
    """The one route from a config to its envelopes at `lams`."""
    backend = cfg.backend
    p = cfg.potential
    if backend == "auto":
        backend = "grid" if p.symmetry == "general" else "oracle"
    if backend == "oracle":
        return radial_envelopes(p, lams, cfg.grid())
    # parse_config has certified the weight strictly psh on this grid
    return grid_envelopes(p, lams, cfg.grid(), tol=cfg.tol,
                          max_iters=cfg.max_iters, require_psh=False)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_envelope(cfg: RunConfig, out: Path) -> int:
    [res] = _solve_envelopes(cfg, [cfg.lam])
    _emit_envelope(res, out, cfg)
    rep = lelong_check(res) if cfg.lam > 0 and cfg.n == 1 else None
    if rep is not None:
        _write_kv(out / "pole_check.txt",
                  {"slope": f"{rep.slope:.17g}",
                   "intercept": f"{rep.intercept:.17g}",
                   "passed": int(rep.passed)})
    return 0


def _cmd_flow(cfg: RunConfig, out: Path) -> int:
    lams = cfg.lambdas
    if not lams:
        raise ConfigError("flow needs a nonempty `lambdas` list")
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    results = _solve_envelopes(cfg, lams)
    for i, (lam, res) in enumerate(zip(lams, results)):
        write_csv(out / f"boundary_{i:03d}.csv", res.boundary,
                  header=f"x,y lambda={lam:.17g}")
        if cfg.n == 1 and lam > 0 and not res.degenerate:
            mask, poly = extract_equilibrium(res, refine=True)
            comp = ~mask & res.envelope.mask
            m0 = ma_mass(cfg.potential, region_mask=comp, grid=res.grid,
                         polyline=poly)
            bm = boundary_mass(cfg.potential, poly)
        else:
            m0, bm = float("nan"), float("nan")
        rows.append([lam, m0, bm])
    write_csv(out / "masses.csv", np.asarray(rows),
              header="lambda,enclosed_mass,boundary_circulation")
    meta = cfg.echo()
    meta["lambda_certified"] = f"{certified_lambda(results):.17g}"
    _write_kv(out / "metadata.txt", meta)
    return 0


def _build_ray(cfg: RunConfig):
    m = cfg.lambda_nodes
    lams = [cfg.c * k / m for k in range(m)]
    slices = list(zip(lams, _solve_envelopes(cfg, lams)))
    ray = assemble_geodesic(slices, c=cfg.c, n_t=cfg.t_count)
    return ray, slices


def _cmd_geodesic(cfg: RunConfig, out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    ray, slices = _build_ray(cfg)
    sl_dir = out / "slices"
    sl_dir.mkdir(exist_ok=True)
    for k, fld in enumerate(ray.slices):
        save_field(fld, sl_dir / f"slice_{k:03d}.csv")
    u = ray.u_values()
    nt = len(ray.t_grid)
    write_csv(out / "u.csv", u.reshape(nt, -1))
    H = hamiltonian(ray)
    write_csv(out / "hamiltonian.csv", H.values.reshape(nt, -1))
    w = weak_solution(ray)
    write_csv(out / "truncated_pole_field.csv", w.values.reshape(nt, -1))
    resid = hmae_residual(ray, cfg.potential)
    meta = cfg.echo()
    meta.update({"t_max": f"{ray.t_max:.17g}",
                 "convexity_defect": f"{resid['convexity_defect']:.17g}",
                 "max_slice_residual": f"{resid['max_slice_residual']:.17g}",
                 "slope_consistency_gap": f"{H.max_fd_gap:.17g}",
                 "lambda_certified":
                     f"{certified_lambda([r for _, r in slices]):.17g}"})
    _write_kv(out / "metadata.txt", meta)
    return 0


def _cmd_foliate(cfg: RunConfig, out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    ray, slices = _build_ray(cfg)
    p = cfg.potential
    lams = cfg.lambdas or [cfg.lam]
    leaf_dir = out / "leaves"
    leaf_dir.mkdir(exist_ok=True)
    anchors = [level_anchor(p, lam, slices) for lam in lams]
    rings = np.linspace(0.35, 0.85, cfg.anchor_rings) * max(
        abs(a) for a in anchors)
    net = polar_anchor_net(rings, cfg.anchor_angles)
    leaves = trace_leaves(ray, p, anchors + list(net.ravel()))
    rows = []
    for i, (lam, leaf) in enumerate(zip(lams, leaves)):
        area = disc_area(leaf, p)
        arr = np.stack([leaf.t_samples, leaf.curve.real, leaf.curve.imag,
                        np.full(len(leaf.t_samples), leaf.lam_leaf)], axis=1)
        write_csv(leaf_dir / f"leaf_{i:03d}.csv", arr, header="t,re_z,im_z,H")
        rows.append([lam, leaf.lam_leaf, area, leaf.h_drift])
    write_csv(out / "areas.csv", np.asarray(rows),
              header="lambda_target,lambda_leaf,area,h_drift")
    tmap = build_tubular_map(ray, p, net, leaves=leaves[len(anchors):])
    flat_pairs = np.stack([tmap.u_points.ravel().real,
                           tmap.u_points.ravel().imag,
                           tmap.anchors.ravel().real,
                           tmap.anchors.ravel().imag], axis=1)
    write_csv(out / "tubular.csv", flat_pairs, header="re_u,im_u,re_T,im_T")
    meta = cfg.echo()
    # samples per leaf less one (its RK4 steps on a sampled ray), the
    # leaves/ files' then the net's: sampled leaves stop at their resolved
    # radius
    meta["leaf_steps"] = ",".join(str(len(leaf.t_samples) - 1)
                                  for leaf in leaves)
    _write_kv(out / "metadata.txt", meta)
    return 0


def _cmd_verify(cfg: RunConfig, out: Path) -> int:
    from .acceptance import AcceptanceContext, run_acceptance
    out.mkdir(parents=True, exist_ok=True)
    ctx = AcceptanceContext(quick=cfg.quick)
    lines = []

    def report(line):
        print(line)
        lines.append(line)

    results = run_acceptance(ctx, report=report)
    (out / "verify.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    payload = [{"id": r.cid, "title": r.title, "passed": r.passed,
                "details": r.details, "elapsed_s": round(r.elapsed, 2)}
               for r in results]
    (out / "verify.json").write_text(json.dumps(payload, indent=2) + "\n",
                                     encoding="utf-8")
    return 0 if all(r.passed for r in results) else 3


def run(cfg: RunConfig, out_dir: str | None = None) -> int:
    """Execute a validated config; returns the process exit code."""
    out = Path(out_dir or cfg.out)
    (out / "FAILED").unlink(missing_ok=True)   # a marker left by an earlier run
    try:
        if cfg.command in ("geodesic", "foliate"):   # refused before any solve
            if cfg.n != 1:
                raise ConfigError(f"{cfg.command} needs an n = 1 weight")
            for lv in cfg.lambdas + [cfg.lam]:
                if lv >= cfg.c:
                    raise ConfigError(
                        f"lambda exceeds cutoff: {lv} >= c = {cfg.c}")
        if cfg.command == "envelope":
            return _cmd_envelope(cfg, out)
        if cfg.command == "flow":
            return _cmd_flow(cfg, out)
        if cfg.command == "geodesic":
            return _cmd_geodesic(cfg, out)
        if cfg.command == "foliate":
            return _cmd_foliate(cfg, out)
        if cfg.command == "verify":
            return _cmd_verify(cfg, out)
        raise ConfigError(f"unknown command {cfg.command!r}")
    except ConfigError:
        raise
    except Exception as exc:  # numerical failure: flush a marker and re-raise
        out.mkdir(parents=True, exist_ok=True)
        (out / "FAILED").write_text(
            f"{cfg.command}: {type(exc).__name__}: {exc}\n", encoding="utf-8")
        raise


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pshlab",
        description="envelopes with logarithmic poles, equilibrium-set "
                    "flows, Legendre-dual geodesic rays, foliation discs")
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", required=True, help="key = value config "
                        "file with a [potential] section")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--quick", action="store_true",
                        help="verify: reduced resolutions (tolerances "
                        "unchanged; full-size criteria may fail)")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        cfg = parse_config(text)
        cfg.command = args.command
        if args.quick:
            cfg.quick = True
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        code = run(cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"numerical failure in {cfg.command}: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
