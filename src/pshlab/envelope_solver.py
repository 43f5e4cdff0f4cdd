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
  minorant is g flattened left of t* = ln `Potential.level_rho(lam)`,
  the root of chi'(t) = lam to rounding, making this backend exact.  For
  n=2 Reinhardt weights the same reduction runs in (t1, t2); the monotone
  convex minorant is computed from the lower convex hull of the lifted
  samples (suffix-min prepass plus constant ghost extension enforce the
  slope constraints).

* grid obstacle solver (n=1).  The discrete envelope is the unique fixed
  point of  v = min(obstacle, four-neighbour mean)  with Dirichlet data
  v = obstacle on the rim and the origin node unconstrained (the obstacle
  sentinel is +inf there; the subharmonicity constraint still applies).
  It is a linear complementarity problem with an M-matrix, solved exactly
  by the primal-dual active-set method, nested coarse to fine, with a
  matrix-free conjugate-gradient Laplace solve per step on the free nodes'
  bounding box.  Steps are inexact while the active set still moves: every
  step's CG stops at max(2 tol, FORCING |r0|_2), r0 the step's starting
  residual (a constant forcing term, Eisenstat & Walker 1996), and a loose
  step that leaves the set unchanged continues its CG to 2 tol before the
  level may end.  Termination is certified on the Jacobi residual
  sup |v - min(obstacle, mean v)| < tol, so the returned field is a fixed
  point of the monotone iteration within tol.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .field_grid import (GridSpec, ScalarField, bilinear, erode_mask,
                         five_point_flat, neighbour_sum, rounding_noise)
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
    phi: np.ndarray   # the weight at the nodes
    log_rho: np.ndarray   # ln|z|^2 at the nodes, -inf at the origin
    inside: np.ndarray   # the nodes inside the disc

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("pole weight lam must be >= 0")


def build_obstacle(p, lam: float, grid: GridSpec) -> Obstacle:
    return next(_obstacles(p, [lam], grid))


def _obstacles(p, lams, grid: GridSpec):
    """The obstacle at each lam in turn; z, |z|^2, the disc, the weight and
    ln|z|^2 are evaluated once, and each obstacle is phi - lam*ln|z|^2."""
    if grid.style != "cartesian" or grid.n != 1:
        raise ValueError("obstacles are sampled on n=1 cartesian grids")
    z = grid.nodes()
    rho = (z * z.conj()).real   # grid.rho() and inside_mask(), from these z
    inside = rho < grid.radius ** 2
    i0 = grid.origin_index()
    phi = p.value(z)
    with np.errstate(divide="ignore"):
        log_rho = np.log(rho)
    for lam in lams:
        raw = np.array(phi if lam == 0 else phi - lam * log_rho)
        mask = inside.copy()
        if lam > 0:
            raw[i0], mask[i0] = np.inf, False
        fld = ScalarField(grid, np.where(mask, raw, 0.0), mask)   # checks it finite
        yield Obstacle(potential=p, lam=lam, field=fld, values=raw, phi=phi,
                       log_rho=log_rho, inside=inside)


def contact_tol(tol: float, scale) -> float:
    """The one rule for "on the coincidence set": a deficit within
    max(10 tol, rounding noise of `scale`) of 0 cannot be told from 0, tol
    the accuracy a backend states for its envelope (0 where exact) and
    scale the size of the terms that cancel in the deficit."""
    return max(10.0 * tol, float(rounding_noise(scale)))


def strict_residual(v, deficit: ScalarField, ctol: float, keep) -> float:
    """Sup of |five-point Laplacian of v| over the strict region
    {deficit < -max(10 ctol, 50 h^2)} within `keep` (0 if it is empty):
    the contact rule's value ctol widened past the O(h) contact band of a
    sampled free boundary, the one band of the Laplacian certificates."""
    h = deficit.grid.h
    lap = np.full_like(v, np.nan)
    lap[1:-1, 1:-1] = (neighbour_sum(v) - 4.0 * v[1:-1, 1:-1]) / (h * h)
    keep = keep & deficit.mask & np.isfinite(lap) \
        & (deficit.values < -max(10.0 * ctol, 50.0 * h * h))
    return float(np.max(np.abs(lap[keep]), initial=0.0))


@dataclass
class EnvelopeResult:
    """Envelope v, deficit a = v + lam*ln|z|^2 - phi, coincidence data.

    `deficit` masks out the origin when lam > 0 (a -> -inf there).  The
    boundary polyline is ordered, counter-clockwise, implicitly closed.
    Each backend decides `coincidence` once, by the rule of `contact_tol`
    (the radial oracle: exactly |z|^2 >= rho*), and stores the deficit as
    exactly 0 on it and the rule's value as `coincidence_tol`; readers
    take the stored set, never a tolerance of their own.
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

def radial_envelope(p, lam: float, grid: GridSpec) -> EnvelopeResult:
    """Exact envelope for radial (n=1) and Reinhardt (n=2) weights.

    Radial: the minorant of g(t) = chi(t) - lam*t equals g for t >= t*,
    and the constant g(t*) below, t* = ln rho*, rho* = `p.level_rho(lam)`;
    mapped back to z this is the envelope with coincidence set
    {|z|^2 >= rho*}, and `boundary` the circle |z|^2 = rho* on 4k vertices
    (the grid's four-fold symmetry).  Reinhardt (n=2): monotone convex
    minorant of chi(t1,t2) - lam*lse(t1,t2) on the log box, computed from
    the lower convex hull of the lifted samples.
    """
    return radial_envelopes(p, [lam], grid)[0]


def radial_envelopes(p, lams, grid: GridSpec) -> list:
    """`radial_envelope` at each lam of `lams`; on n=1 grids |z|^2, the masks,
    s = ln|z|^2 and chi(s) once for the family, chi(s) - lam*s per lam."""
    if any(lam < 0 for lam in lams):
        raise ValueError("lam must be >= 0")
    if p.symmetry == "general":
        raise ValueError("potential lacks radial/reinhardt symmetry: "
                         "use grid_envelope")
    if p.n == 2:
        return [_reinhardt_envelope(p, lam, grid) for lam in lams]
    if grid.n != 1 or grid.style != "cartesian":
        raise ValueError("radial oracle returns fields on n=1 cartesian grids")
    R2 = grid.radius ** 2
    rho = grid.rho()
    inside = rho < R2   # grid.inside_mask(), without rebuilding rho
    i0 = grid.origin_index()
    amask = inside.copy()
    amask[i0] = False
    with np.errstate(divide="ignore"):
        s = np.log(rho)   # -inf at the origin only
    s0 = np.where(np.isfinite(s), s, 0.0)
    chi, mass = p.chi(s0), float(p.chi_prime(math.log(R2)))
    del rho   # its complex buffer, held through the family, raised peak RSS
    out = []
    for lam in lams:
        if lam == 0:   # the weight itself, in contact on the whole disc
            v = np.asarray(p.value(grid.nodes()))
            out.append(EnvelopeResult(
                lam=0.0, potential=p,
                envelope=ScalarField(grid, np.where(inside, v, 0.0), inside),
                deficit=ScalarField(grid, np.zeros_like(v), inside),
                coincidence=inside.copy(), boundary=np.zeros((0, 2)),
                backend="oracle", tol=0.0, coincidence_tol=contact_tol(0.0, 0.0)))
            continue
        degenerate = lam >= mass
        if degenerate:
            warnings.warn("pole weight >= enclosed mass of the disc: coincidence "
                          "set is empty inside; envelope degenerates at the rim")
        rho_star = R2 if degenerate else p.level_rho(lam)
        t_star = math.log(rho_star)
        flat_val = float(p.chi(t_star)) - lam * t_star
        outside = s >= t_star
        obstacle = chi - lam * s0
        v = np.where(outside, obstacle, flat_val)
        v[i0] = flat_val
        a = np.where(outside, 0.0, flat_val - obstacle)
        r_star = math.sqrt(rho_star)
        k = 4 * max(32, int(0.5 * math.pi * r_star / grid.h) + 1)
        th = np.linspace(0.0, 2 * math.pi, k, endpoint=False)
        out.append(EnvelopeResult(
            lam=lam, potential=p,
            envelope=ScalarField(grid, np.where(inside, v, 0.0), inside),
            deficit=ScalarField(grid, np.where(amask, a, 0.0), amask),
            coincidence=inside & outside,
            boundary=np.stack([r_star * np.cos(th), r_star * np.sin(th)], axis=1),
            backend="oracle", tol=0.0,
            coincidence_tol=contact_tol(0.0, abs(flat_val) + abs(lam * t_star)),
            degenerate=degenerate))
    return out


def monotone_convex_minorant_2d(T1, T2, G):
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
    ex, ey = t1.ravel(), t2.ravel()
    out = np.full(ex.shape, -np.inf)
    chunk = 2048
    a, b, c, dconst = lower[:, 0], lower[:, 1], lower[:, 2], lower[:, 3]
    for start in range(0, len(ex), chunk):
        sl = slice(start, start + chunk)
        planes = -(np.outer(ex[sl], a) + np.outer(ey[sl], b) + dconst) / c
        out[sl] = planes.max(axis=1)
    return out.reshape(g.shape)


# The accuracy of the hull minorant: on reinhardt2 at 96^2 log-radial the
# nodes on the hull have deficits in [-1e-9, -1e-12) on 8 nodes (lam 0.05)
# and 20 nodes (lam 0.2), and none in [-1e-6, -1e-9).  At lam = 0 the
# envelope is chi itself, exactly.
QHULL_TOL = 1e-10


def _reinhardt_envelope(p, lam: float, grid: GridSpec) -> EnvelopeResult:
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
    ctol = contact_tol(QHULL_TOL if lam else 0.0,
                       np.max(np.abs(chi[inside]) + lam * np.abs(lse[inside])))
    coin = inside & (a >= -ctol)
    a = np.where(coin, 0.0, a)   # the coincidence set is {a = 0}, exactly
    res = EnvelopeResult(lam=lam, potential=p,
                         envelope=ScalarField(grid, np.where(inside, env, 0.0), inside),
                         deficit=ScalarField(grid, np.where(inside, a, 0.0), inside),
                         coincidence=coin, boundary=np.zeros((0, 2)),
                         backend="oracle-reinhardt", tol=0.0,
                         coincidence_tol=ctol)
    res.boundary = extract_equilibrium(res)
    return res


# ---------------------------------------------------------------------------
# grid obstacle solver (n = 1)
# ---------------------------------------------------------------------------

def _neighbour_mean(v):
    out = np.empty_like(v)
    out[1:-1, 1:-1] = 0.25 * neighbour_sum(v)
    out[0, :] = out[-1, :] = out[:, 0] = out[:, -1] = np.nan
    return out


def _jacobi_target(v, g, active):
    return np.where(active, np.minimum(g, _neighbour_mean(v)), v)


def _jacobi_residual(v, g, interior):
    tgt = _jacobi_target(v, g, interior)
    return float(np.max(np.abs(np.where(interior, tgt - v, 0.0))))


def _cg(v, free):
    """Matrix-free conjugate gradients for the five-point Laplace equation
    on the free nodes of v, the others fixed: x is the free nodes' bounding
    box plus one ring (inside the array: free nodes are interior), copied
    row-major, and `five_point_flat` the operator.  A coroutine: it yields
    |r0|_2; each bound sent runs the Krylov sequence on until the residual
    is below it (or 10 iterations per free node in all), writes x back into
    v's free nodes and yields the residual.  Dots by einsum: threaded BLAS
    made a 256^2 solve take 7-33 s, not 0.3 s, on a busy 2-core host."""
    rows = np.flatnonzero(free.any(axis=1))
    cols = np.flatnonzero(free.any(axis=0))
    if len(rows) == 0:
        while True:
            yield 0.0
    box = np.s_[rows[0] - 1:rows[-1] + 2, cols[0] - 1:cols[-1] + 2]
    fbox, vbox = free[box], v[box]
    x, mask, w = vbox.flatten(), fbox.ravel().astype(float), fbox.shape[1]
    r, p, q, tmp = (np.empty_like(x) for _ in range(4))
    five_point_flat(x, w, mask, r, tmp)
    np.negative(r, out=r)
    p[:] = r
    rr = np.einsum("i,i", r, r)
    budget = 10 * np.count_nonzero(fbox)
    atol = yield math.sqrt(rr)
    while True:
        while budget and not rr < atol * atol:
            budget -= 1
            five_point_flat(p, w, mask, q, tmp)
            alpha = rr / np.einsum("i,i", p, q)
            x += np.multiply(p, alpha, out=tmp)
            r -= np.multiply(q, alpha, out=tmp)
            rr, rr_old = np.einsum("i,i", r, r), rr
            p *= rr / rr_old
            p += r
        np.copyto(vbox, x.reshape(fbox.shape), where=fbox)
        atol = yield math.sqrt(rr)


def _prolong(v):
    """Bilinear interpolation onto the twice-finer grid: fine node 2i is
    coarse node i, an odd fine node the mean of its two coarse neighbours
    along each axis, and the last (odd) row and column copy their
    neighbour."""
    rows = np.empty((2 * len(v), v.shape[1]))
    rows[::2], rows[-1] = v, v[-1]
    rows[1:-1:2] = 0.5 * (v[:-1] + v[1:])
    out = np.empty((len(rows), 2 * v.shape[1]))
    out[:, ::2], out[:, -1] = rows, rows[:, -1]
    out[:, 1:-1:2] = 0.5 * (rows[:, :-1] + rows[:, 1:])
    return out


def _inject(mask):
    return mask.repeat(2, axis=0).repeat(2, axis=1)


def _active_set_solve(g, inside, tol, max_iters):
    """Primal-dual active-set solve of v = min(g, mean4 v), nested coarse
    to fine; returns (v, steps at the finest level, Jacobi residual).
    Each finer level starts from the coarser v prolonged bilinearly and
    from the coarser active set injected; a node whose coarse parent was
    not interior is seeded by the coarsest level's rule g <= mean4 g."""
    levels = [(g, inside)]
    while len(g) % 4 == 0 and len(g) // 2 >= 16:
        g, inside = g[::2, ::2], inside[::2, ::2]
        levels.append((g, inside))
    steps, v = 0, None
    for g, inside in reversed(levels):
        interior = erode_mask(inside)
        seeded = g <= _neighbour_mean(g)
        if v is None:
            active = interior & seeded
            v = np.where(inside & np.isfinite(g), g, 0.0)
        else:
            active = (interior & np.isfinite(g)
                      & np.where(_inject(parent), _inject(active), seeded))
            v = _prolong(v)
        parent = interior
        for level_steps in itertools.count(1):
            if steps >= max_iters:
                raise SolverError(f"more than {max_iters} active-set steps",
                                  residual=_jacobi_residual(v, g, interior))
            steps += 1
            free = interior & ~active
            v = np.where(free, v, np.where(inside, g, 0.0))
            cg = _cg(v, free)
            stop = max(2.0 * tol, FORCING * next(cg))
            while True:
                cg.send(stop)
                update = interior & np.where(active, _neighbour_mean(v) >= v,
                                             v > g)
                if stop == 2.0 * tol or not np.array_equal(update, active):
                    break
                stop = 2.0 * tol   # the same step, solved to the certificate
            if np.array_equal(update, active):
                break
            active = update
    return v, level_steps, _jacobi_residual(v, g, interior)


FORCING = 0.1   # a loose step's CG stops at this share of its starting residual
MAX_STEPS = 100   # the tier-1 slice families take at most 30 over all levels


def grid_envelope(p, lam: float, grid: GridSpec, tol: float = 1e-10,
                  max_iters: int = MAX_STEPS,
                  require_psh: bool = True) -> EnvelopeResult:
    """Discrete largest-subharmonic-minorant solve on an n=1 cartesian grid.

    Returns the unique fixed point of v = min(obstacle g, four-neighbour
    mean) with Dirichlet data v = g on the rim of the disc and the origin
    node unconstrained, by the primal-dual active-set method (Hintermueller,
    Ito & Kunisch 2002): each step sets v = g on the active set, solves the
    5-point Laplace system on the free nodes by matrix-free conjugate
    gradients on their bounding box, keeps the active nodes with
    mean4(v) >= v and adds the free ones with v > g, until the set stops
    changing.  Every step's CG stops at max(2*tol, FORCING * the step's
    starting residual), and a loose step that leaves the set unchanged
    goes on with the same CG to 2*tol (a Jacobi residual below tol/2) and
    is re-checked, so only a step solved to 2*tol ends a level.  It starts cold from {g <= mean4 g} on the
    coarsest halving of the grid that stays even and >= 16; each finer
    level starts from the coarser v interpolated bilinearly and the
    coarser active set injected, the nodes whose coarse parent was not
    interior seeded by the same rule g <= mean4 g.  The exit is
    certified: Jacobi residual < tol.

    `max_iters` caps the steps over all levels; `iterations` counts the
    finest level's steps.  Past the cap or the certificate raises
    SolverError with the residual; an empty interior coincidence set warns
    (`degenerate`).
    """
    return grid_envelopes(p, [lam], grid, tol, max_iters, require_psh)[0]


def grid_envelopes(p, lams, grid: GridSpec, tol: float = 1e-10,
                   max_iters: int = MAX_STEPS,
                   require_psh: bool = True) -> list:
    """`grid_envelope` at each lam of `lams`, each a cold solve; the
    certificate, the weight, ln|z|^2 and the masks are evaluated once."""
    if grid.n != 1 or grid.style != "cartesian":
        raise ValueError("grid_envelope runs on n=1 cartesian grids")
    if any(lam < 0 for lam in lams):
        raise ValueError("lam must be >= 0")
    if require_psh:
        cert = validate_strict_psh(p, grid)
        if not cert.valid:
            raise ValueError(f"potential is not strictly psh on the grid "
                             f"(min eigenvalue {cert.min_eig:.3g})")
    out = []
    for obstacle in _obstacles(p, lams, grid):
        lam, g, inside = obstacle.lam, obstacle.values, obstacle.inside
        interior = erode_mask(inside)   # holds the origin: resolution >= 16
        v, iters, residual = _active_set_solve(g, inside, tol, max_iters)
        if not residual < tol:   # a nan residual fails too
            raise SolverError(f"obstacle solve did not reach tol={tol:g} "
                              f"({iters} steps)", residual=residual)
        a = v - obstacle.phi
        if lam > 0:
            a = a + lam * obstacle.log_rho
        amask = obstacle.field.mask   # inside, less the origin if lam > 0
        ctol = contact_tol(tol, np.max(np.abs(g[amask])))
        coin = inside & amask & (a >= -ctol)
        a = np.where(coin, 0.0, a)   # the coincidence set is {a = 0}, exactly

        degenerate = lam > 0 and not (coin & interior).any()
        if degenerate:
            warnings.warn("empty coincidence set inside the disc: envelope "
                          "degenerates near the rim; no structural claims apply")

        res = EnvelopeResult(lam=lam, potential=p,
                             envelope=ScalarField(grid, np.where(inside, v, 0.0), inside),
                             deficit=ScalarField(grid, np.where(amask, a, 0.0), amask),
                             coincidence=coin, boundary=np.zeros((0, 2)),
                             backend="grid-active-set", tol=tol,
                             coincidence_tol=ctol, iterations=iters,
                             residual=residual, degenerate=degenerate)
        if lam > 0 and not degenerate:
            res.boundary = extract_equilibrium(res)
        out.append(res)
    return out


class SolverError(RuntimeError):
    def __init__(self, msg, residual=None):
        super().__init__(msg)
        self.residual = residual


# ---------------------------------------------------------------------------
# equilibrium-set extraction and pole-weight check
# ---------------------------------------------------------------------------

def extract_equilibrium(result: EnvelopeResult, refine: bool = False):
    """The boundary polyline of the result's stored coincidence set
    (`result.coincidence`, see `contact_tol`).

    It is the marching-squares level curve a = -tol, tol the result's
    `coincidence_tol`, oriented counter-clockwise: on cartesian grids its
    largest loop around the pole (implicitly closed), on log-radial grids
    its longest chain.
    With refine=True (cartesian only) it is relocated by the square-root
    vanishing of the deficit at the free boundary, sampled along rays from
    the pole (useful when the mass/moment integrals need a less biased
    boundary); a grid solve's result already holds that level curve as
    its `boundary`, and it is refined from there; the radial oracle's
    exact circle is returned as it is.  Empty complement (lam = 0) yields
    an empty polyline.
    """
    tol = result.coincidence_tol
    a = result.deficit
    grid = result.grid
    if result.lam == 0:
        return np.zeros((0, 2))
    if refine and result.backend == "oracle":   # the exact circle
        return result.boundary
    if refine and result.backend == "grid-active-set" and len(result.boundary):
        return _radial_refined_boundary(result, result.boundary)
    cartesian = grid.style == "cartesian"
    ax = grid.axis() if cartesian else grid.t_axis()
    filled = np.where(a.mask, a.values, np.where(result.envelope.mask, -1e30, 0.0))
    chains = marching_squares(filled, -tol, ax, ax)
    if not cartesian:
        return ensure_ccw(max(chains, key=len)) if chains else np.zeros((0, 2))

    loops = [c for c in chains if len(c) >= 8]
    if not loops:
        return np.zeros((0, 2))
    containing = [c for c in loops
                  if points_in_polygon(np.zeros(1), np.zeros(1), c)[0]]
    poly0 = ensure_ccw(max(containing or loops, key=lambda c: abs(polygon_area(c))))
    if not refine:
        return poly0
    return _radial_refined_boundary(result, poly0)


def _radial_refined_boundary(result: EnvelopeResult,
                             poly0: np.ndarray) -> np.ndarray:
    """Relocate the free boundary by the square-root law of the deficit.

    The deficit vanishes quadratically at the boundary, so sqrt(-a) is
    linear along each ray from the pole; a least-squares line through
    interior samples (at depths past the O(h) contact band, where the
    field is accurate) is extrapolated to its root.  This trades the
    O(h) contact-set bias of the level curve for an O(h^2)-level one,
    which the mass/moment integrals need."""
    from .geometry import resample_closed
    grid = result.grid
    a = result.deficit
    ax = grid.axis()
    h = grid.h
    n_theta = 1024
    q = resample_closed(ensure_ccw(poly0), n_theta)
    th_q = np.arctan2(q[:, 1], q[:, 0])
    r_q = np.hypot(q[:, 0], q[:, 1])
    order = np.argsort(th_q)
    th_s, r_s = th_q[order], r_q[order]
    th = np.linspace(-np.pi, np.pi, n_theta, endpoint=False)
    r0 = np.interp(th, th_s, r_s, period=2.0 * np.pi)

    filled = np.where(a.mask, a.values, 0.0)
    depths = h * np.array([3.0, 4.5, 6.0, 7.5, 9.0])
    rr = r0[:, None] - depths[None, :]
    pts = np.stack([rr * np.cos(th)[:, None], rr * np.sin(th)[:, None]],
                   axis=-1)
    s = np.sqrt(np.maximum(-bilinear(ax, filled, pts, 0.0), 0.0))
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


def maximality_residual(result: EnvelopeResult):
    """`strict_residual` of the envelope at the result's `coincidence_tol`,
    off the nodes next to the pole: zero for the exact discrete envelope
    (the fixed point equals the neighbour mean off the contact set), so
    the value certifies both maximality and interior harmonicity."""
    keep = erode_mask(result.envelope.mask)
    i0 = result.grid.origin_index()
    if result.lam > 0 and i0 is not None:
        keep[i0[0] - 1:i0[0] + 2, i0[1] - 1:i0[1] + 2] = False
    return strict_residual(result.envelope.values, result.deficit,
                           result.coincidence_tol, keep)


@dataclass
class LelongReport:
    slope: float
    intercept: float
    passed: bool
    n_nodes: int


def lelong_check(result: EnvelopeResult,
                 annulus=(2.0, 6.0)) -> LelongReport:
    """Fit a ~ s*ln|z|^2 + const on the innermost masked annulus; the pole
    weight of the deficit must satisfy s >= lam - 1e-2."""
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
                        passed=slope >= result.lam - 1e-2,
                        n_nodes=int(ring.sum()))
