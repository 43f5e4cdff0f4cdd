"""The quantitative acceptance suite: every structural claim the toolkit
reproduces at desk scale, each with its pinned tolerance.

Criteria (tolerances are fixed here, not calibrated elsewhere):

 C1  radial oracle exactness: flat closed form to 1e-12, < 1 s
 C2  grid vs oracle at 256^2, tol 1e-10: sup error <= 5e-3, < 30 s each
 C3  conjugation involution: slice -> ray -> slice, <= 1e-8 (oracle),
     <= 5e-3 (grid backend), < 60 s
 C4  level-set identity: {deficit < 0} = {H0 < lam} within a one-node
     band for every lam node, flat and perturbed, 256^2
 C5  Hamiltonian consistency: |du/dt - argmax slope| <= dlam at all nodes
 C6  mean-value moments: perturbed, lam 0.2, 512^2: |M_k|/M_0 <= 1e-3
     for k = 1..4 and |M_0 - lam| <= 2e-3, < 120 s
 C7  disc areas: leaves at lam 0.1/0.2/0.3 on quartic and perturbed:
     |area - lam_leaf| <= 1e-2, Hamiltonian drift <= 1e-3 relative
 C8  leaf boundaries lie within 2h of the extracted equilibrium boundary
 C9  maximality: envelope Laplacian residual <= 10h off the contact set,
     all n=1 corpus potentials
 C10 monotonicity: exact coincidence-mask inclusion along a 16-weight sweep
 C11 regularized max: 20 seeded admissible pairs: C2 bound with slack 2h,
     exact equality regions, strict subharmonicity of the blend
 C12 ball gluing at s=0.01, w=1e-5: sigma = 3 sqrt(w/s), strictly psh on
     the disc, bitwise |z|^2 outside, achieved C2 below the bound chain
 C13 tubular pullback: 32-anchor first-order check on quartic <= 5e-2

The suite is shared by `pytest tests/test_acceptance.py` and the CLI
`verify` command; heavy intermediates (slice families, rays) are built
once per context and reused.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .field_grid import (ScalarField, build_grid, c2_norm, erode_mask,
                         gradient_sup, neighbour_sum)
from .potential_kit import (Potential, Term, builtin_potential,
                            field_min_density, glue_to_ball, normalize_chart,
                            regularized_max)
from .envelope_solver import (extract_equilibrium, grid_envelope,
                              grid_envelopes, maximality_residual,
                              radial_envelope, radial_envelopes)
from .geodesic_legendre import (assemble_geodesic, hamiltonian, lam_nodes,
                                legendre_slices)
from .ma_measure import reproducing_check
from .foliation_tube import (build_tubular_map, check_pullback, disc_area,
                             leaf_boundary, level_anchor, polar_anchor_net,
                             trace_leaves)


@dataclass
class CriterionResult:
    cid: str
    title: str
    passed: bool
    details: str
    elapsed: float

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{self.cid}] {tag} {self.title}: {self.details} " \
               f"({self.elapsed:.1f}s)"


class AcceptanceContext:
    """Shared grids, slice families and rays for the criteria.

    quick=True shrinks grids and slice counts for smoke runs (the CLI
    default `verify --quick`); the pinned tolerances stay untouched, so a
    quick run may legitimately fail criteria whose tolerances assume the
    full resolutions.
    """

    def __init__(self, quick: bool = False):
        self.quick = quick
        self.res_main = 128 if quick else 256
        self.res_fine = 192 if quick else 512
        self.m_main = 32 if quick else 64
        self.m_leaf = 36 if quick else 72
        self.n_steps = 512 if quick else 2048

    @cached_property
    def grid_main(self):
        return build_grid(1, self.res_main, 1.0)

    @cached_property
    def grid_fine(self):
        return build_grid(1, self.res_fine, 1.0)

    @cached_property
    def flat(self):
        return builtin_potential("flat")

    @cached_property
    def quartic(self):
        return builtin_potential("quartic")

    @cached_property
    def perturbed(self):
        return builtin_potential("perturbed")

    # -- slice families, each kept by its ray -----------------------------

    @cached_property
    def flat_oracle_ray(self):
        return assemble_geodesic(radial_envelopes(
            self.flat, lam_nodes(0.8, self.m_main), self.grid_main), 0.8)

    @cached_property
    def flat_grid_ray(self):
        return assemble_geodesic(grid_envelopes(
            self.flat, lam_nodes(0.8, self.m_main), self.grid_main,
            tol=1e-9), 0.8)

    @cached_property
    def perturbed_ray(self):
        return assemble_geodesic(grid_envelopes(
            self.perturbed, lam_nodes(0.8, self.m_main), self.grid_main,
            tol=1e-9), 0.8)

    @cached_property
    def quartic_leaf_ray(self):
        return assemble_geodesic(radial_envelopes(
            self.quartic, lam_nodes(0.36, self.m_leaf), self.grid_fine), 0.36)

    @cached_property
    def perturbed_leaf_ray(self):
        return assemble_geodesic(grid_envelopes(
            self.perturbed, lam_nodes(0.36, self.m_leaf), self.grid_fine,
            tol=1e-9), 0.36)

    # -- leaves ----------------------------------------------------------

    @cached_property
    def leaves(self):
        lams = (0.1, 0.2, 0.3)
        quartic = trace_leaves(
            self.quartic_leaf_ray,
            [level_anchor(lam, self.quartic_leaf_ray.results)
             for lam in lams], n_steps=self.n_steps)
        perturbed = trace_leaves(
            self.perturbed_leaf_ray,
            [level_anchor(lam, self.perturbed_leaf_ray.results)
             for lam in lams], n_steps=self.n_steps)
        return {(name, lam): leaf for lam, q, pt in zip(lams, quartic, perturbed)
                for name, leaf in (("quartic", q), ("perturbed", pt))}


def _result(cid, title, passed, details, t0):
    return CriterionResult(cid, title, bool(passed), details,
                           time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def criterion_1(ctx: AcceptanceContext) -> CriterionResult:
    t0 = time.perf_counter()
    worst = 0.0
    grid = ctx.grid_main
    rho = grid.rho()
    inside = grid.inside_mask()
    for lam in (0.1, 0.25, 0.5):
        res = radial_envelope(ctx.flat, lam, grid)
        flat_val = lam * (1.0 - math.log(lam))
        with np.errstate(divide="ignore"):
            logrho = np.where(rho > 0, np.log(np.where(rho > 0, rho, 1.0)), 0.0)
        exact = np.where(rho <= lam, flat_val, rho - lam * logrho)
        exact[grid.origin_index()] = flat_val
        worst = max(worst, float(np.max(np.abs(
            res.envelope.values - exact)[inside])))
        r_bd = np.hypot(res.boundary[:, 0], res.boundary[:, 1])
        worst = max(worst, float(np.max(np.abs(r_bd - math.sqrt(lam)))))
    el = time.perf_counter() - t0
    ok = worst <= 1e-12 and el < 1.0
    return _result("C1", "radial oracle exactness",
                   ok, f"max err {worst:.2e} (tol 1e-12)", t0)


def criterion_2(ctx: AcceptanceContext) -> CriterionResult:
    t0 = time.perf_counter()
    details = []
    ok = True
    for p in (ctx.flat, ctx.quartic):
        t1 = time.perf_counter()
        oracle = radial_envelope(p, 0.25, ctx.grid_main)
        num = grid_envelope(p, 0.25, ctx.grid_main, tol=1e-10)
        sup = oracle.envelope.sup_diff(num.envelope)
        dt = time.perf_counter() - t1
        ok &= sup <= 5e-3 and dt < 30.0
        details.append(f"{p.name}: sup {sup:.2e} in {dt:.1f}s")
    return _result("C2", "grid envelope vs oracle (5e-3, <30s)",
                   ok, "; ".join(details), t0)


def _roundtrip_error(ray):
    worst = 0.0
    back = legendre_slices(ray, ray.lam_grid)
    for fld, b in zip(ray.slices, back):
        m = fld.mask & b.mask
        worst = max(worst, float(np.max(np.abs(b.values - fld.values)[m])))
    return worst

def criterion_3(ctx: AcceptanceContext) -> CriterionResult:
    t0 = time.perf_counter()
    e_oracle = _roundtrip_error(ctx.flat_oracle_ray)
    e_grid = _roundtrip_error(ctx.flat_grid_ray)
    el = time.perf_counter() - t0
    ok = e_oracle <= 1e-8 and e_grid <= 5e-3 and el < 60.0
    return _result("C3", "conjugation involution (1e-8 / 5e-3, <60s)", ok,
                   f"oracle {e_oracle:.2e}, grid {e_grid:.2e}", t0)


def _level_set_bands(ray):
    """Worst band width (in nodes) between {deficit<0} and {H0<lam}.  The
    test is exact: every backend stores its deficit as exactly 0 on its
    coincidence set (`envelope_solver.contact_tol`)."""
    H = hamiltonian(ray, fd_check=False)
    h0 = H.h0.values
    worst = 0
    for lam, fld in zip(ray.lam_grid[1:], ray.slices[1:]):
        m1 = fld.mask & (fld.values < 0)
        m2 = fld.mask & (h0 < lam)
        diff = m1 ^ m2
        if not diff.any():
            continue
        # one-node band: every differing node touches the boundary of m1
        # (its interior dilation; rim nodes stay as they are)
        edge = m1 ^ erode_mask(m1)
        edge[1:-1, 1:-1] |= neighbour_sum(edge)
        if (diff & ~edge).any():
            worst = max(worst, 2)
        else:
            worst = max(worst, 1)
    return worst


def criterion_4(ctx: AcceptanceContext) -> CriterionResult:
    t0 = time.perf_counter()
    band_flat = _level_set_bands(ctx.flat_oracle_ray)
    band_pert = _level_set_bands(ctx.perturbed_ray)
    ok = band_flat <= 1 and band_pert <= 1
    return _result("C4", "level-set identity within one-node band", ok,
                   f"flat band {band_flat}, perturbed band {band_pert}", t0)


def criterion_5(ctx: AcceptanceContext) -> CriterionResult:
    t0 = time.perf_counter()
    gaps = {}
    for name, ray in (("flat-oracle", ctx.flat_oracle_ray),
                      ("flat-grid", ctx.flat_grid_ray),
                      ("perturbed", ctx.perturbed_ray)):
        H = hamiltonian(ray, fd_check=True)
        gaps[name] = H.max_fd_gap
    worst = max(gaps.values())
    dlam = ctx.flat_oracle_ray.d_lam
    ok = worst <= dlam
    det = ", ".join(f"{k} {v:.4f}" for k, v in gaps.items())
    return _result("C5", f"slope consistency <= dlam={dlam:.4f}", ok, det, t0)


def criterion_6(ctx: AcceptanceContext) -> CriterionResult:
    t0 = time.perf_counter()
    res = grid_envelope(ctx.perturbed, 0.2, ctx.grid_fine, tol=1e-10)
    rep = reproducing_check(res, k_max=4)
    ratios = rep.normalized_moments()
    mass_err = abs(rep.mass - 0.2)
    el = time.perf_counter() - t0
    ok = bool(np.all(ratios <= 1e-3) and mass_err <= 2e-3 and el < 120.0)
    return _result("C6", "mean-value moments (1e-3 / 2e-3, <120s)", ok,
                   f"|M0-lam| {mass_err:.2e}, max ratio {ratios.max():.2e}",
                   t0)


def criterion_7(ctx: AcceptanceContext) -> CriterionResult:
    t0 = time.perf_counter()
    ok = True
    worst_area, worst_drift = 0.0, 0.0
    for leaf in ctx.leaves.values():
        area = disc_area(leaf)
        a_err = abs(area - leaf.lam_leaf)
        drift = leaf.h_drift / leaf.lam_leaf
        worst_area = max(worst_area, a_err)
        worst_drift = max(worst_drift, drift)
        ok &= a_err <= 1e-2 and drift <= 1e-3
    return _result("C7", "disc areas (1e-2) and H drift (1e-3 rel)", ok,
                   f"max |area-lam| {worst_area:.2e}, max drift "
                   f"{worst_drift:.2e}", t0)


def criterion_8(ctx: AcceptanceContext) -> CriterionResult:
    t0 = time.perf_counter()
    ok = True
    worst = 0.0
    h = ctx.grid_fine.h
    for (name, lam), leaf in ctx.leaves.items():
        p = leaf.ray.potential
        bd = leaf_boundary(leaf)
        if name == "quartic":
            res = radial_envelope(p, leaf.lam_leaf, ctx.grid_fine)
        else:
            res = grid_envelope(p, leaf.lam_leaf, ctx.grid_fine, tol=1e-9)
        poly = extract_equilibrium(res)
        d = 0.0
        for pt in bd[:: max(1, len(bd) // 128)]:
            d = max(d, float(np.min(np.hypot(poly[:, 0] - pt[0],
                                             poly[:, 1] - pt[1]))))
        worst = max(worst, d)
        ok &= d <= 2.0 * h
    return _result("C8", f"leaf boundary on equilibrium boundary (2h="
                   f"{2*h:.2e})", ok, f"max distance {worst:.2e}", t0)


def criterion_9(ctx: AcceptanceContext) -> CriterionResult:
    t0 = time.perf_counter()
    worst = 0.0
    h = ctx.grid_main.h
    for p in (ctx.flat, ctx.quartic, ctx.perturbed):
        for res in grid_envelopes(p, (0.1, 0.25, 0.4), ctx.grid_main, tol=1e-10):
            worst = max(worst, maximality_residual(res))
    ok = worst <= 10.0 * h
    return _result("C9", f"maximality residual <= 10h={10*h:.2e}", ok,
                   f"max residual {worst:.2e}", t0)


def criterion_10(ctx: AcceptanceContext) -> CriterionResult:
    t0 = time.perf_counter()
    ok = True
    # grid backend, 16 weights from the flat family
    results = ctx.flat_grid_ray.results
    picks = results[::max(1, len(results) // 16)][:16]
    for r1, r2 in zip(picks[:-1], picks[1:]):
        ok &= bool(np.all(~r2.coincidence | r1.coincidence))
    # oracle backend, quartic
    sweep = radial_envelopes(ctx.quartic, np.linspace(0.0, 0.9, 16).tolist(),
                             ctx.grid_main)
    for r1, r2 in zip(sweep[:-1], sweep[1:]):
        ok &= bool(np.all(~r2.coincidence | r1.coincidence))
    return _result("C10", "equilibrium-set monotonicity (exact inclusion)",
                   ok, "16-weight sweeps, grid and oracle backends", t0)


def criterion_11(ctx: AcceptanceContext) -> CriterionResult:
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260808)
    grid = build_grid(1, 128 if ctx.quick else 192, 2.0)
    z = grid.nodes()
    rho = grid.rho()
    h = grid.h
    ok = True
    worst_slack = -np.inf
    for trial in range(20):
        ca = rng.uniform(0.6, 1.2)
        gb = rng.uniform(1.7, 2.3)
        eps_a = rng.uniform(-0.04, 0.04)
        eps_b = rng.uniform(-0.04, 0.04)
        m_a = rng.integers(2, 4)
        width = rng.uniform(0.12, 0.3)
        av = rho + ca + eps_a * (z ** m_a).real
        bv = gb * rho + eps_b * (z ** 3).real
        a = ScalarField(grid, av)
        b = ScalarField(grid, bv)
        try:
            u = regularized_max(a, b, width)
        except ValueError:
            ok = False
            continue
        # C2 bound with finite-difference norms, slack 2h
        lhs = c2_norm(u, b)
        diff_c2 = c2_norm(a, b)
        # C0 norm of the first partials of a - b
        grad_sup = gradient_sup(av - bv, grid.inside_mask(), h)
        rhs = width + diff_c2 + grad_sup ** 2 / width
        slack = lhs - rhs
        worst_slack = max(worst_slack, slack)
        ok &= lhs <= rhs + 2.0 * h
        d = av - bv
        ok &= bool(np.all((u.values == av)[(d >= width) & u.mask]))
        ok &= bool(np.all((u.values == bv)[(d <= -width) & u.mask]))
        mind, _ = field_min_density(u)
        ok &= mind > 0
    return _result("C11", "regularized max: bound, exact regions, psh", ok,
                   f"worst bound slack {worst_slack:.2e} (allow 2h="
                   f"{2*h:.2e})", t0)


def criterion_12(ctx: AcceptanceContext) -> CriterionResult:
    t0 = time.perf_counter()
    ok = True
    details = []
    for name, terms in (("flat", [Term("polyrad", 1.0, (1,))]),
                        ("cubic", [Term("polyrad", 1.0, (1,)),
                                   Term("reharm", 0.03, (3,))])):
        p = Potential(1, terms, name=name)
        chart = normalize_chart(p)
        glued, rep = glue_to_ball(chart, 0.01, 1e-5)
        ok &= abs(rep.sigma - 3.0 * math.sqrt(1e-5 / 0.01)) < 1e-15
        grid = build_grid(1, 512 if ctx.quick else 1024, 1.0)
        fld = glued.sample(grid)
        rho = grid.rho()
        outside = rho > rep.sigma ** 2
        ok &= bool(np.array_equal(fld.values[outside], rho[outside]))
        hess = glued.hessian(grid.nodes())
        min_eig = float(np.min(hess[grid.inside_mask()]))
        ok &= min_eig > 0
        fd_c2 = c2_norm(fld, ScalarField(grid, rho))
        ok &= rep.achieved_c2 < rep.bound_chain and fd_c2 < rep.bound_chain
        details.append(f"{name}: achieved {rep.achieved_c2:.3f} (fd {fd_c2:.3f})"
                       f" < bound {rep.bound_chain:.3f}, min eig {min_eig:.3f}")
    return _result("C12", "ball gluing at s=1e-2, w=1e-5", ok,
                   "; ".join(details), t0)


def criterion_13(ctx: AcceptanceContext) -> CriterionResult:
    t0 = time.perf_counter()
    ray = ctx.quartic_leaf_ray
    radii = [abs(level_anchor(l, ray.results))
             for l in (0.06, 0.12, 0.2, 0.3)]
    anchors = polar_anchor_net(radii, 8)
    tmap = build_tubular_map(ray, anchors)
    dev = check_pullback(tmap, ray)
    ok = dev <= 5e-2
    return _result("C13", "tubular pullback (32 anchors, 5e-2)", ok,
                   f"max relative deviation {dev:.2e}", t0)


CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
            criterion_11, criterion_12, criterion_13]


def run_acceptance(ctx: AcceptanceContext | None = None, report=print):
    """Run all criteria; returns the list of CriterionResult."""
    ctx = ctx or AcceptanceContext()
    results = []
    for crit in CRITERIA:
        res = crit(ctx)
        results.append(res)
        if report:
            report(res.line())
    return results
