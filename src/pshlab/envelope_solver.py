"""Envelopes of plurisubharmonic minorants below logarithmic-pole obstacles.

The object computed here is

    v  =  sup { psi subharmonic on the disc :  psi <= phi - lam * ln|z|^2 },

the largest psh minorant of the obstacle, together with its normalized
deficit a = v + lam*ln|z|^2 - phi (<= 0), the coincidence set {a = 0},
and the free boundary between them.

Two backends:

* radial / reinhardt oracle.  In log coordinates t = ln|z|^2 a radial psh
  function is a convex nondecreasing function of t, so the envelope is the
  largest convex nondecreasing minorant of g(t) = chi(t) - lam*t.  For a
  strictly psh radial weight chi is smooth and strictly convex, so the
  minorant is g flattened left of the unique root of chi'(t) = lam; the
  root is solved to machine precision, making this backend exact.  For
  n=2 Reinhardt weights the same reduction runs in (t1, t2); the monotone
  convex minorant is computed from the lower convex hull of the lifted
  samples (suffix-min prepass plus constant ghost extension enforce the
  slope constraints).

* grid obstacle solver (n=1).  The discrete envelope is the unique fixed
  point of  v = min(obstacle, four-neighbour mean)  with Dirichlet data
  v = obstacle on the rim and the origin node unconstrained (the obstacle
  sentinel is +inf there; the subharmonicity constraint still applies).
  The monotone Jacobi iteration converges to it from above; the default
  driver is a red-black projected SOR sweep, which has the same unique
  fixed point (per-node complementarity) and is deterministic and
  order-independent within each colour.  Termination is certified on the
  Jacobi residual  sup |v - min(obstacle, mean v)| < tol, so the returned
  field is a fixed point of the monotone iteration within tol regardless
  of the driver.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .field_grid import GridSpec, ScalarField, build_grid, erode_mask
from .geometry import (ensure_ccw, marching_squares, points_in_polygon,
                       polygon_area)
from .potential_kit import validate_strict_psh


@dataclass
class Obstacle:
    """Sampled obstacle phi - lam*ln|z|^2 with the unconstrained origin.

    `values` carries +inf at the origin node (pole weight lam > 0 makes the
    obstacle unbounded above there, i.e. no constraint); the ScalarField
    mask in `field` excludes that node so field invariants stay intact.
    """

    potential: object
    lam: float
    field: ScalarField
    values: np.ndarray

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("pole weight lam must be >= 0")


def build_obstacle(p, lam: float, grid: GridSpec) -> Obstacle:
    if grid.style != "cartesian" or grid.n != 1:
        raise ValueError("obstacles are sampled on n=1 cartesian grids")
    z = grid.nodes()
    rho = grid.rho()
    inside = grid.inside_mask()
    i0 = grid.origin_index()
    if lam == 0:
        vals = p.value(z)
    else:
        with np.errstate(divide="ignore"):
            vals = p.value(z) - lam * np.log(rho)
    raw = np.array(vals)
    if lam > 0:
        raw[i0] = np.inf
    mask = inside.copy()
    if lam > 0:
        mask[i0] = False
    fld = ScalarField(grid, np.where(mask, raw, 0.0), mask)
    if lam > 0 and not np.all(np.isfinite(raw[mask])):
        raise ValueError("obstacle has non-finite values off the origin")
    return Obstacle(potential=p, lam=lam, field=fld, values=raw)


@dataclass
class EnvelopeResult:
    """Envelope v, deficit a = v + lam*ln|z|^2 - phi, coincidence data.

    `deficit` masks out the origin when lam > 0 (a -> -inf there).  The
    boundary polyline is ordered, counter-clockwise, implicitly closed.
    """

    lam: float
    potential: object
    envelope: ScalarField
    deficit: ScalarField
    coincidence: np.ndarray
    boundary: np.ndarray
    backend: str
    tol: float
    coincidence_tol: float
    iterations: int = 0
    residual: float = 0.0
    degenerate: bool = False

    @property
    def grid(self) -> GridSpec:
        return self.envelope.grid


# ---------------------------------------------------------------------------
# monotone convex minorants in log coordinates
# ---------------------------------------------------------------------------

def convex_minorant_1d(t: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Largest convex nondecreasing minorant of samples g(t), evaluated at t.

    Lower convex hull by the monotone chain, then flattened left of its
    minimum (slope clamped to >= 0 towards -infinity).
    """
    t = np.asarray(t, dtype=float)
    g = np.asarray(g, dtype=float)
    hull = []  # indices of hull vertices
    for i in range(len(t)):
        while len(hull) >= 2:
            i0, i1 = hull[-2], hull[-1]
            # drop i1 if it lies above the chord i0 -> i
            if (g[i1] - g[i0]) * (t[i] - t[i0]) >= (g[i] - g[i0]) * (t[i1] - t[i0]):
                hull.pop()
            else:
                break
        hull.append(i)
    th, gh = t[hull], g[hull]
    vals = np.interp(t, th, gh)
    k = int(np.argmin(gh))
    return np.where(t < th[k], gh[k], vals)


def radial_envelope(p, lam: float, grid: GridSpec | None = None) -> EnvelopeResult:
    """Exact envelope for radial (n=1) and Reinhardt (n=2) weights.

    Radial: the minorant of g(t) = chi(t) - lam*t equals g for t >= t*,
    and the constant g(t*) below, with chi'(t*) = lam solved to machine
    precision; mapped back to z this is the envelope with coincidence set
    {|z|^2 >= e^{t*}}.  Reinhardt (n=2): monotone convex minorant of
    chi(t1,t2) - lam*lse(t1,t2) on the log box, computed from the lower
    convex hull of the lifted samples.
    """
    if lam < 0:
        raise ValueError("lam must be >= 0")
    sym = p.symmetry
    if sym == "general":
        raise ValueError("potential lacks radial/reinhardt symmetry: "
                         "use grid_envelope")
    if p.n == 2:
        return _reinhardt_envelope(p, lam, grid)

    if grid is None:
        grid = build_grid(1, 256, 1.0, "cartesian")
    if grid.n != 1 or grid.style != "cartesian":
        raise ValueError("radial oracle returns fields on n=1 cartesian grids")

    R2 = grid.radius ** 2
    rho = grid.rho()
    inside = grid.inside_mask()
    i0 = grid.origin_index()
    with np.errstate(divide="ignore"):
        s = np.log(rho)

    degenerate = False
    if lam == 0:
        v = np.asarray(p.value(grid.nodes()))
        a = np.zeros_like(v)
        coin = inside.copy()
        res = EnvelopeResult(lam=0.0, potential=p,
                             envelope=ScalarField(grid, np.where(inside, v, 0.0), inside),
                             deficit=ScalarField(grid, a, inside),
                             coincidence=coin, boundary=np.zeros((0, 2)),
                             backend="oracle", tol=0.0, coincidence_tol=1e-12)
        return res

    t_max = math.log(R2)
    mass_total = float(p.chi_prime(t_max))
    if lam >= mass_total:
        warnings.warn("pole weight >= enclosed mass of the disc: coincidence "
                      "set is empty inside; envelope degenerates at the rim")
        degenerate = True
        t_star = t_max
    else:
        lo = -200.0
        t_star = brentq(lambda t: p.chi_prime(t) - lam, lo, t_max,
                        xtol=1e-15, rtol=8.9e-16)
    flat_val = float(p.chi(t_star)) - lam * t_star

    with np.errstate(invalid="ignore"):
        outside = s >= t_star
    v = np.where(outside, p.chi(np.where(np.isfinite(s), s, 0.0))
                 - lam * np.where(np.isfinite(s), s, 0.0), flat_val)
    v[i0] = flat_val
    a = np.where(outside, 0.0, flat_val - (p.chi(np.where(np.isfinite(s), s, 0.0))
                                           - lam * np.where(np.isfinite(s), s, 0.0)))
    amask = inside.copy()
    amask[i0] = False
    coin = inside & outside
    r_star = math.exp(0.5 * t_star)
    k = max(128, int(2 * math.pi * r_star / grid.h) + 1)
    th = np.linspace(0.0, 2 * math.pi, k, endpoint=False)
    boundary = np.stack([r_star * np.cos(th), r_star * np.sin(th)], axis=1)
    return EnvelopeResult(lam=lam, potential=p,
                          envelope=ScalarField(grid, np.where(inside, v, 0.0), inside),
                          deficit=ScalarField(grid, np.where(amask, a, 0.0), amask),
                          coincidence=coin, boundary=boundary,
                          backend="oracle", tol=0.0, coincidence_tol=1e-12,
                          degenerate=degenerate)


def monotone_convex_minorant_2d(T1, T2, G, eval_pts=None):
    """Largest convex, componentwise-nondecreasing minorant of samples
    G(t1,t2) on a rectangular grid, evaluated at the grid itself.

    Suffix-min prepass makes the data monotone; constant ghost copies far
    in the decreasing directions force nonnegative slopes; the minorant is
    the maximum over lower faces of the convex hull of the lifted cloud.
    """
    from scipy.spatial import ConvexHull

    t1 = np.asarray(T1, dtype=float)
    t2 = np.asarray(T2, dtype=float)
    g = np.asarray(G, dtype=float)

    mono = g.copy()
    for i in range(mono.shape[0] - 2, -1, -1):
        mono[i, :] = np.minimum(mono[i, :], mono[i + 1, :])
    for j in range(mono.shape[1] - 2, -1, -1):
        mono[:, j] = np.minimum(mono[:, j], mono[:, j + 1])

    span = max(t1.max() - t1.min(), t2.max() - t2.min())
    L = 64.0 * span
    pts = [np.stack([t1.ravel(), t2.ravel(), mono.ravel()], axis=1)]
    pts.append(np.stack([t1[0, :] - L, t2[0, :], mono[0, :]], axis=1))
    pts.append(np.stack([t1[:, 0], t2[:, 0] - L, mono[:, 0]], axis=1))
    pts.append(np.array([[t1[0, 0] - L, t2[0, 0] - L, mono[0, 0]]]))
    cloud = np.vstack(pts)

    hull = ConvexHull(cloud)
    eqs = hull.equations  # a*x + b*y + c*z + d = 0, outward normals
    lower = eqs[eqs[:, 2] < -1e-12]
    # z = -(a x + b y + d)/c ; minorant = max over lower faces
    if eval_pts is None:
        ex, ey = t1.ravel(), t2.ravel()
    else:
        ex, ey = eval_pts
        ex, ey = np.asarray(ex).ravel(), np.asarray(ey).ravel()
    out = np.full(ex.shape, -np.inf)
    chunk = 2048
    a, b, c, dconst = lower[:, 0], lower[:, 1], lower[:, 2], lower[:, 3]
    for start in range(0, len(ex), chunk):
        sl = slice(start, start + chunk)
        planes = -(np.outer(ex[sl], a) + np.outer(ey[sl], b) + dconst) / c
        out[sl] = planes.max(axis=1)
    if eval_pts is None:
        return out.reshape(g.shape)
    return out


def _reinhardt_envelope(p, lam: float, grid: GridSpec | None) -> EnvelopeResult:
    if grid is None:
        grid = build_grid(2, 96, 1.0, "log-radial")
    if grid.n != 2 or grid.style != "log-radial":
        raise ValueError("reinhardt backend returns fields on n=2 log-radial grids")
    t = grid.t_axis()
    T1, T2 = np.meshgrid(t, t, indexing="ij")
    lse = np.logaddexp(T1, T2)
    chi = p.log_profile(T1, T2)
    inside = lse < math.log(grid.radius ** 2)
    obstacle = chi - lam * lse
    if lam == 0:
        env = chi.copy()
    else:
        env = monotone_convex_minorant_2d(T1, T2, obstacle)
        env = np.minimum(env, obstacle)
    a = env - obstacle
    ctol = 1e-9 if lam else 1e-12
    coin = inside & (a >= -ctol)
    a = np.where(coin, 0.0, a)   # the coincidence set is {a = 0}, exactly
    res = EnvelopeResult(lam=lam, potential=p,
                         envelope=ScalarField(grid, np.where(inside, env, 0.0), inside),
                         deficit=ScalarField(grid, np.where(inside, a, 0.0), inside),
                         coincidence=coin, boundary=np.zeros((0, 2)),
                         backend="oracle-reinhardt", tol=0.0,
                         coincidence_tol=ctol)
    res.boundary = extract_equilibrium(res)[1]
    return res


# ---------------------------------------------------------------------------
# grid obstacle solver (n = 1)
# ---------------------------------------------------------------------------

def _neighbour_mean(v):
    out = np.empty_like(v)
    out[1:-1, 1:-1] = 0.25 * (v[2:, 1:-1] + v[:-2, 1:-1]
                              + v[1:-1, 2:] + v[1:-1, :-2])
    out[0, :] = out[-1, :] = out[:, 0] = out[:, -1] = np.nan
    return out


def _jacobi_target(v, g, active, origin):
    m = _neighbour_mean(v)
    tgt = np.where(active, np.minimum(g, m), v)
    if origin is not None:
        tgt[origin] = m[origin]
    return tgt


def grid_envelope(p, lam: float, grid: GridSpec, tol: float = 1e-10,
                  max_iters: int = 500_000, scheme: str = "psor",
                  warm_start: np.ndarray | None = None,
                  check_every: int = 16,
                  require_psh: bool = True) -> EnvelopeResult:
    """Discrete largest-subharmonic-minorant solve on an n=1 cartesian grid.

    Returns the unique fixed point of v = min(obstacle, four-neighbour mean)
    with Dirichlet data v = obstacle on the rim of the disc and the origin
    node unconstrained.  scheme='psor' (default) runs red-black projected
    SOR and certifies the Jacobi residual below tol; scheme='jacobi' runs
    the literal monotone iteration.  Both are deterministic and independent
    of sweep order.  `warm_start` may carry a previous envelope (e.g. the
    neighbouring pole weight in a sweep); correctness is unaffected since
    the fixed point is unique and certified at exit.

    Raises SolverError when max_iters is exceeded (carrying the last
    residual); sets `degenerate` and warns when the coincidence set is
    empty in the interior.
    """
    if grid.n != 1 or grid.style != "cartesian":
        raise ValueError("grid_envelope runs on n=1 cartesian grids")
    if lam < 0:
        raise ValueError("lam must be >= 0")
    if require_psh:
        cert = validate_strict_psh(p, grid)
        if not cert.valid:
            raise ValueError(f"potential is not strictly psh on the grid "
                             f"(min eigenvalue {cert.min_eig:.3g})")

    obs = build_obstacle(p, lam, grid)
    g = obs.values
    inside = grid.inside_mask()
    interior = erode_mask(inside)
    active = interior.copy()
    origin = grid.origin_index() if lam > 0 else None
    if origin is not None and not active[origin]:
        raise ValueError("origin is not an interior node of this grid")

    if warm_start is not None:
        v = np.array(warm_start, dtype=float, copy=True)
        v[~inside] = 0.0
        fin = np.isfinite(g)
        v[fin] = np.minimum(v[fin], g[fin])
        v[inside & ~active] = g[inside & ~active]
    else:
        v = np.where(inside, np.where(np.isfinite(g), g, 0.0), 0.0)
        if origin is not None:
            nb = [(origin[0] + 1, origin[1]), (origin[0] - 1, origin[1]),
                  (origin[0], origin[1] + 1), (origin[0], origin[1] - 1)]
            v[origin] = max(v[idx] for idx in nb)

    gb = np.where(np.isfinite(g), g, np.inf)

    iters = 0
    residual = np.inf

    if scheme == "jacobi":
        while iters < max_iters:
            tgt = _jacobi_target(v, gb, active, origin)
            residual = float(np.max(np.abs(np.where(active, tgt - v, 0.0))))
            v = tgt
            iters += 1
            if residual < tol:
                break
    elif scheme == "psor":
        ii, jj = np.meshgrid(np.arange(grid.resolution),
                             np.arange(grid.resolution), indexing="ij")
        red = ((ii + jj) % 2 == 0) & active
        black = ((ii + jj) % 2 == 1) & active
        omega = 2.0 / (1.0 + math.sin(math.pi / grid.resolution))
        while iters < max_iters:
            for colour in (red, black):
                m = _neighbour_mean(v)
                cand = v + omega * (m - v)
                upd = np.minimum(gb, cand)
                if origin is not None and colour[origin]:
                    upd[origin] = cand[origin]
                v = np.where(colour, upd, v)
            iters += 1
            if iters == 1 or iters % check_every == 0 or iters >= max_iters:
                tgt = _jacobi_target(v, gb, active, origin)
                residual = float(np.max(np.abs(np.where(active, tgt - v, 0.0))))
                if residual < tol:
                    v = tgt  # one certified monotone step
                    break
    else:
        raise ValueError(f"unknown scheme {scheme!r}")

    if residual >= tol:
        raise SolverError(f"obstacle iteration did not reach tol={tol:g} in "
                          f"{max_iters} sweeps", residual=residual)

    rho = grid.rho()
    with np.errstate(divide="ignore"):
        logrho = np.log(rho)
    phi_vals = p.value(grid.nodes())
    a = v - phi_vals
    if lam > 0:
        a = a + lam * logrho
    amask = inside.copy()
    i0 = grid.origin_index()
    if lam > 0:
        amask[i0] = False
    ctol = max(10.0 * tol, 1e-14)
    coin = inside & amask & (a >= -ctol)
    a = np.where(coin, 0.0, a)   # the coincidence set is {a = 0}, exactly

    degenerate = False
    if lam > 0 and not (coin & interior).any():
        warnings.warn("empty coincidence set inside the disc: envelope "
                      "degenerates near the rim; no structural claims apply")
        degenerate = True

    res = EnvelopeResult(lam=lam, potential=p,
                         envelope=ScalarField(grid, np.where(inside, v, 0.0), inside),
                         deficit=ScalarField(grid, np.where(amask, a, 0.0), amask),
                         coincidence=coin, boundary=np.zeros((0, 2)),
                         backend=f"grid-{scheme}", tol=tol,
                         coincidence_tol=ctol, iterations=iters,
                         residual=residual, degenerate=degenerate)
    if lam > 0 and not degenerate:
        _, poly = extract_equilibrium(res)
        res.boundary = poly
    return res


class SolverError(RuntimeError):
    def __init__(self, msg, residual=None):
        super().__init__(msg)
        self.residual = residual


# ---------------------------------------------------------------------------
# equilibrium-set extraction and pole-weight check
# ---------------------------------------------------------------------------

def extract_equilibrium(result: EnvelopeResult, tol: float | None = None,
                        refine: bool = False):
    """Coincidence mask {a >= -tol} and its boundary polyline.

    The polyline is the marching-squares level curve a = -tol, oriented
    counter-clockwise: on cartesian grids its largest loop around the pole
    (implicitly closed), on log-radial grids its longest chain.
    With refine=True (cartesian only) it is relocated by the square-root
    vanishing of the deficit at the free boundary, sampled along rays from
    the pole (useful when the mass/moment integrals need a less biased
    boundary).  Empty complement (lam = 0) yields an empty polyline.
    """
    tol = result.coincidence_tol if tol is None else tol
    a = result.deficit
    grid = result.grid
    mask = result.envelope.mask & ((a.values >= -tol) | ~a.mask)
    if result.lam == 0:
        return mask, np.zeros((0, 2))
    cartesian = grid.style == "cartesian"
    ax = grid.axis() if cartesian else grid.t_axis()
    filled = np.where(a.mask, a.values, np.where(result.envelope.mask, -1e30, 0.0))
    chains = marching_squares(filled, -tol, ax, ax)
    if not cartesian:
        return mask, (ensure_ccw(max(chains, key=len)) if chains else np.zeros((0, 2)))

    loops = [c for c in chains if len(c) >= 8]
    if not loops:
        return mask, np.zeros((0, 2))
    containing = [c for c in loops
                  if points_in_polygon(np.zeros(1), np.zeros(1), c)[0]]
    poly0 = ensure_ccw(max(containing or loops, key=lambda c: abs(polygon_area(c))))
    if not refine:
        return mask, poly0
    return mask, _radial_refined_boundary(result, poly0)


def _radial_refined_boundary(result: EnvelopeResult, poly0: np.ndarray,
                             n_theta: int = 1024) -> np.ndarray:
    """Relocate the free boundary by the square-root law of the deficit.

    The deficit vanishes quadratically at the boundary, so sqrt(-a) is
    linear along each ray from the pole; a least-squares line through
    interior samples (at depths past the O(h) contact band, where the
    field is accurate) is extrapolated to its root.  This trades the
    O(h) contact-set bias of the level curve for an O(h^2)-level one,
    which the mass/moment integrals need."""
    from scipy.interpolate import RegularGridInterpolator
    from .geometry import resample_closed
    grid = result.grid
    a = result.deficit
    ax = grid.axis()
    h = grid.h
    q = resample_closed(ensure_ccw(poly0), n_theta)
    th_q = np.arctan2(q[:, 1], q[:, 0])
    r_q = np.hypot(q[:, 0], q[:, 1])
    order = np.argsort(th_q)
    th_s, r_s = th_q[order], r_q[order]
    th = np.linspace(-np.pi, np.pi, n_theta, endpoint=False)
    r0 = np.interp(th, th_s, r_s, period=2.0 * np.pi)

    filled = np.where(a.mask, a.values, 0.0)
    interp = RegularGridInterpolator((ax, ax), filled, method="linear",
                                     bounds_error=False, fill_value=0.0)
    depths = h * np.array([3.0, 4.5, 6.0, 7.5, 9.0])
    rr = r0[:, None] - depths[None, :]
    pts = np.stack([rr * np.cos(th)[:, None], rr * np.sin(th)[:, None]],
                   axis=-1)
    s = np.sqrt(np.maximum(-interp(pts.reshape(-1, 2)).reshape(rr.shape), 0.0))
    # per-ray least squares s ~ m*r + b, boundary at s = 0
    rbar = rr.mean(axis=1, keepdims=True)
    sbar = s.mean(axis=1, keepdims=True)
    cov = ((rr - rbar) * (s - sbar)).sum(axis=1)
    var = ((rr - rbar) ** 2).sum(axis=1)
    m = cov / var
    b = sbar[:, 0] - m * rbar[:, 0]
    good = (m < -1e-12) & np.all(s > 0, axis=1)
    r_fit = np.where(good, -b / np.where(good, m, 1.0), r0)
    r_fit = np.clip(r_fit, r0 - 2.0 * h, r0 + 2.0 * h)
    return np.stack([r_fit * np.cos(th), r_fit * np.sin(th)], axis=1)


def maximality_residual(result: EnvelopeResult, band_tol: float | None = None):
    """Sup of |discrete Laplacian of the envelope| over the strict region
    {v < obstacle - band_tol}: zero for the exact discrete envelope (the
    fixed point equals the neighbour mean off the contact set), so the
    value certifies both maximality and interior harmonicity."""
    grid = result.grid
    h = grid.h
    if band_tol is None:
        band_tol = max(10.0 * result.coincidence_tol, 50.0 * h * h)
    v = result.envelope.values
    lap = np.full_like(v, np.nan)
    lap[1:-1, 1:-1] = (v[2:, 1:-1] + v[:-2, 1:-1] + v[1:-1, 2:]
                       + v[1:-1, :-2] - 4.0 * v[1:-1, 1:-1]) / (h * h)
    strict = result.deficit.mask & (result.deficit.values < -band_tol)
    i0 = grid.origin_index()
    if result.lam > 0 and i0 is not None:
        strict[i0[0] - 1:i0[0] + 2, i0[1] - 1:i0[1] + 2] = False
    strict &= erode_mask(result.envelope.mask) & np.isfinite(lap)
    if not strict.any():
        return 0.0
    return float(np.max(np.abs(lap[strict])))


@dataclass
class LelongReport:
    slope: float
    intercept: float
    passed: bool
    n_nodes: int


def lelong_check(result: EnvelopeResult, tol: float = 1e-2,
                 annulus=(2.0, 6.0)) -> LelongReport:
    """Fit a ~ s*ln|z|^2 + const on the innermost masked annulus; the pole
    weight of the deficit must satisfy s >= lam - tol."""
    if result.grid.n != 1 or result.grid.style != "cartesian":
        raise ValueError("lelong_check runs on n=1 cartesian results")
    if result.lam == 0:
        return LelongReport(slope=0.0, intercept=0.0, passed=True, n_nodes=0)
    grid = result.grid
    rho = grid.rho()
    h = grid.h
    lo, hi = annulus
    ring = result.deficit.mask & (rho > (lo * h) ** 2) & (rho < (hi * h) ** 2)
    if ring.sum() < 8:
        raise ValueError("annulus too thin: raise the resolution")
    x = np.log(rho[ring])
    y = result.deficit.values[ring]
    A = np.stack([x, np.ones_like(x)], axis=1)
    sol, *_ = np.linalg.lstsq(A, y, rcond=None)
    slope, intercept = float(sol[0]), float(sol[1])
    return LelongReport(slope=slope, intercept=intercept,
                        passed=slope >= result.lam - tol,
                        n_nodes=int(ring.sum()))
