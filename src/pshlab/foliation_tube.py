"""Foliation discs of the degenerate ray, their areas, and the tubular
correspondence between the central fiber and the t = 0 slice.

The kernel line of the degenerate (1,1)-form of the lifted potential
Psi(z, w) = phi(wz) + u(wz, -ln|w|^2) gives dz/dw = -Psi_{w zbar}/Psi_{z zbar};
restricted to the ray w = e^{-t/2} and written in the ambient coordinate
x = wz the leaf ODE collapses, by the envelope structure of u, to

    dx/dt = (1/2) * conj(q_x) / ( q_lam * (phi + a)_{x xbar} - |q_x|^2 ),

where q(x, lam) = (d/dlam) a_lam(x) + t, everything evaluated at the
maximizing slope lam* (the Hamiltonian).  For radial weights this reduces
to dx/dt = -x/2: leaves are constant in the chart coordinate z = x e^{t/2}.

The Hamiltonian is constant along leaves; its t = 0 level curve through
the anchor is the S^1-orbit closure of the leaf's t = 0 endpoint, and the
disc area is the d^c-circulation of the weight along that curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .field_grid import bilinear, erode_mask, neighbour_sum
from .geodesic_legendre import (GeodesicRay, _bin_log_means,
                                plateau_threshold, pole_exclusion_radius,
                                rounding_noise, smooth_hamiltonian)
from .geometry import polyline_is_simple, resample_closed
from .ma_measure import boundary_mass


@dataclass
class Leaf:
    """One traced foliation disc (the real-ray section of it).

    curve holds the chart coordinate z(t) = x(t) e^{t/2}; ambient holds
    x(t).  lam_leaf is the Hamiltonian value at the anchor; h_drift the
    measured |H(x(t), t) - lam_leaf| sup along the trace; u_limit the
    extrapolated central-fiber coordinate.
    """

    anchor: complex
    t_samples: np.ndarray
    curve: np.ndarray
    ambient: np.ndarray
    lam_leaf: float
    h_drift: float
    u_limit: complex
    ray: GeodesicRay = field(repr=False)
    anchor_level: float = float("nan")


@dataclass
class TubularMap:
    """Sampled correspondence u (central fiber) -> T(u) (t = 0 anchor),
    with T(0) = 0.  anchors/u_points keep the (n_radii, n_angles) layout
    when the anchor set is a polar net (needed for differencing)."""

    u_points: np.ndarray
    anchors: np.ndarray


class LeafExit(RuntimeError):
    """A leaf left its resolved region, at `location`, from `anchor`."""

    def __init__(self, msg, location=None, anchor=None):
        at = "" if location is None else f" at {location:.5g}"
        of = "" if anchor is None else f" (leaf of anchor {anchor:.6g})"
        super().__init__(msg + at + of)
        self.location, self.anchor = location, anchor


LEAF_WINDOW = 8   # slices a sampled-slice leaf reads on each side of its level
ORBIT_BLOCK = 32   # rays per orbit read-out pass, to bound its memory
DERIVED_NODES = 4   # slices whose derivative splines a probe keeps
SAMPLED_STEPS = 2048   # RK4 steps over t_max on a sampled ray


# ---------------------------------------------------------------------------
# slice probes, sampled (spline) and radial (closed form): read(x) gives the
# slice values (n, window) at the points x (n,) of a batch of leaves; the
# spline probe's derivs(x, j), read only by the RK4 right-hand side, gives
# the Wirtinger gradients (3, n) of slices j[i] + 0..2 and the
# d^2/dz dzbar (2, n) of slices j[i] + 0..1
# ---------------------------------------------------------------------------
_NODES = np.arange(3)[:, None]


class _SplineProbe:
    """Bicubic access to a window of slice fields.  `noise` is the measured
    value noise of the splines (their ringing across the free-boundary
    kinks); `resolve_radius` is the pole-exclusion radius of the heaviest
    slice held, inside which the spline Laplacians are not resolved;
    `depth_bins` pushes the bracket past the O(h)-wide contact band the
    sampled slices carry along their free boundaries."""

    def __init__(self, ray: GeodesicRay, k_window):
        from scipy.interpolate import RectBivariateSpline
        grid = ray.spatial_grid
        ax = grid.axis()
        self.k_window = list(k_window)
        self.splines = []
        self.noise = 0.0
        for k in self.k_window:
            fld = ray.results[k].deficit
            vals = fld.masked_fill(np.nan)
            filled = np.where(np.isfinite(vals), vals, 0.0)
            i, j = i0 = grid.origin_index()
            if not fld.mask[i0]:
                window = filled[i - 1:i + 2, j - 1:j + 2]
                filled[i0] = neighbour_sum(window)[0, 0] / 4
            sp = RectBivariateSpline(ax, ax, filled, kx=3, ky=3)
            self.splines.append(sp)
            self.noise = max(self.noise, rounding_noise(
                np.max(np.abs(fld.values[fld.mask]), initial=0.0)),
                _plateau_ringing(sp, fld, ax))
        self.resolve_radius = pole_exclusion_radius(
            float(ray.lam_grid[self.k_window[-1]]), grid.h)
        self.r_max = grid.radius - 4.0 * grid.h
        self.depth_bins = min(int(math.ceil(3.0 * grid.h / ray.d_lam)), 4)
        # d/dx, d/dy, d2/dx2, d2/dy2 of slice k as splines of their own:
        # bitwise sp.ev(dx=..., dy=...), which re-derives the coefficients
        # of the whole grid at every evaluation
        self._derived = lru_cache(maxsize=DERIVED_NODES)(lambda k: tuple(
            self.splines[k].partial_derivative(*d)
            for d in ((1, 0), (0, 1), (2, 0), (0, 2))))

    def read(self, x):
        return np.array([sp.ev(x.real, x.imag) for sp in self.splines]).T

    def derivs(self, x, j):   # leaves sharing a bracket are read together
        grads = np.empty((3, len(x)), dtype=complex)
        laps = np.empty((2, len(x)))
        for jb in set(j.tolist()):
            i = np.nonzero(j == jb)[0]
            a, b = x.real[i], x.imag[i]
            for node in range(3):
                gx, gy, lx, ly = self._derived(jb + node)
                grads[node, i] = 0.5 * (gx(a, b, grid=False)
                                        - 1j * gy(a, b, grid=False))
                if node < 2:
                    laps[node, i] = 0.25 * (lx(a, b, grid=False)
                                            + ly(a, b, grid=False))
        return grads, laps


def _plateau_ringing(spline, fld, ax) -> float:
    """Largest |spline| between the nodes of the zero plateau next to the
    free boundary: the data there are exactly 0.0, so every reading off
    zero is the spline's ringing across the kink of the slice."""
    zero = fld.mask & (fld.values == 0.0)
    near = zero & ~erode_mask(~(fld.mask & ~zero), 2)
    cell = near[:-1, :-1] & zero[1:, :-1] & zero[:-1, 1:] & zero[1:, 1:]
    i, j = np.nonzero(cell)
    if i.size == 0:
        return 0.0
    h = ax[1] - ax[0]
    x, y = ax[i], ax[j]
    return max(float(np.max(np.abs(spline.ev(px, py))))
               for px, py in ((x + 0.5 * h, y + 0.5 * h),
                              (x + 0.5 * h, y), (x, y + 0.5 * h)))


class _RadialProbe:
    """Closed-form slice values for radial weights: inside the
    pole-weight-lam domain a = flat - chi(s) + lam s with s = ln|x|^2.
    The values are exact up to the rounding of the terms that cancel at
    the free boundary, which sets `noise`."""

    def __init__(self, ray: GeodesicRay):
        self.p = p = ray.potential
        self.lam = ray.lam_grid
        self.k_window = list(range(len(self.lam)))
        self.t_star = np.full(len(self.lam), -np.inf)
        self.flat = np.zeros(len(self.lam))
        for k, lam in enumerate(self.lam):
            if lam == 0:
                continue
            t = math.log(p.level_rho(lam))
            self.t_star[k] = t
            self.flat[k] = float(p.chi(t)) - lam * t
        fin = np.isfinite(self.t_star)
        self.noise = rounding_noise(np.max(
            np.abs(self.flat[fin]) + np.abs(self.lam[fin] * self.t_star[fin]),
            initial=0.0))
        self.depth_bins = 0

    def read(self, x):
        s = np.log((x * np.conj(x)).real)
        sc = s[:, None]
        return np.where(sc < self.t_star,
                        self.flat - self.p.chi(s)[:, None] + self.lam * sc, 0.0)


def _check(ok, msg, x, anchors):   # LeafExit for the first leaf not ok
    if not ok.all():
        i = int(np.argmin(ok))
        raise LeafExit(msg, location=complex(x[i]), anchor=complex(anchors[i]))


def _rhs_factory(ray: GeodesicRay, probe):
    """Right-hand side of the leaf equation for a batch of leaves read
    through one probe, and `state`, its slope root alone; each row gets
    the IEEE operations of a lone leaf."""
    p = ray.potential
    lam = ray.lam_grid[probe.k_window]
    if len(lam) < 3:
        raise ValueError("lam window too small for slope differencing")
    dl = np.diff(lam)
    mids = 0.5 * (lam[1:] + lam[:-1])
    nu = _bin_log_means(lam)
    neg_eps = -plateau_threshold(probe.noise, dl)
    nd = len(dl)
    cols = np.arange(nd)
    floor = 1 + probe.depth_bins
    # per bracket j, the tables its nodes j..j+2 need (the third node is
    # clamped, and unused, where j + 2 = nd)
    j = np.arange(nd - 1)
    j2 = np.minimum(j + 2, nd - 1)
    brackets = np.stack([
        nu[j], nu[j + 1], nu[j + 1] - nu[j], nu[j2] - nu[j + 1],
        0.5 * (nu[j2] - nu[j]), mids[j], mids[j + 1] - mids[j],
        lam[j], lam[j + 1] - lam[j], dl[j], dl[j + 1]])
    no_third = j + 2 >= nd
    real_monomials = getattr(p, "symmetry", "general") != "general"

    def state(x, t, anchors):   # t a scalar or one per point
        A = probe.read(x)
        rows = np.arange(len(x))
        D = (A[:, 1:] - A[:, :-1]) / dl
        neg = (D + np.reshape(t, (-1, 1))) < neg_eps
        on_plateau = D >= neg_eps
        j0 = np.argmax(neg, axis=1)
        crossing = neg[rows, j0]
        # the last plateau difference at or below j0
        jp = np.maximum.accumulate(np.where(on_plateau, cols, -1),
                                   axis=1)[rows, j0]
        # clear the kink-straddling difference at the plateau edge and
        # the degraded band above it
        kink = (j0 == 0) | on_plateau[rows, j0 - 1]
        j0 = j0 + kink
        deep = j0 < jp + floor
        j = np.minimum(np.where(crossing, np.maximum(j0, jp + floor), nd - 2),
                       nd - 2)
        forced = crossing & (kink | deep)
        nu0, nu1, dnu, dnu12, half02, m0, dmid = brackets[:7, j]
        d0, d1, d2 = np.take(D, rows * nd + j + _NODES, mode="clip")
        da, db = d0 + t, d1 + t
        q_lam = (d1 - d0) / dmid
        _check(q_lam < -1e-12, "degenerate slope curvature along the leaf",
               x, anchors)
        # root of the slope curve in ln(lam) at the exact bin log-means:
        # exact on the flat-weight curve; a one-Newton curvature refinement
        # absorbs the quadratic term when a third smooth bin is available
        # (d2 is read past the row where there is none, and unused)
        rise = db - da
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            g1 = rise / dnu
            root = nu0 - da / g1
            half_curv = 0.5 * (((d2 + t - db) / dnu12 - g1) / half02)
            for _ in range(2):
                r0 = root - nu0
                f = da + g1 * r0 + half_curv * r0 * (root - nu1)
                fp = g1 + half_curv * (root + root - nu0 - nu1)
                root = np.where(no_third[j] | (np.abs(fp) < 1e-30), root,
                                root - f / fp)
        sloped = np.abs(rise) > 1e-30
        try:   # math.exp, not np.exp: the vector exp is not libm's to the ulp
            lam_star = np.array([math.exp(r) if s else m for r, s, m
                                 in zip(root.tolist(), sloped.tolist(),
                                        m0.tolist())])
        except OverflowError:   # the largest sloped root passed ln(float max)
            _check(~sloped | (root != np.nanmax(root[sloped])),
                   "slope root overflows along the leaf", x, anchors)
        lam_star = np.minimum(np.maximum(lam_star, lam[1] * 1e-3), lam[-1])
        return lam_star, forced, j, q_lam

    def rhs(x, t, anchors):
        lam_star, forced, j, q_lam = state(x, t, anchors)
        # derivative data only where needed: nodes j..j+2 of the bracket,
        # which by construction sit on the smooth branch of the family
        (w0, w1, w2), (l0, l1) = probe.derivs(x, j)
        m0, dmid, lam0, dlam, dl0, dl1 = brackets[5:, j]
        w = (lam_star - m0) / dmid
        q_x = (1.0 - w) * ((w1 - w0) / dl0) + w * ((w2 - w1) / dl1)
        wn = (lam_star - lam0) / dlam
        a_lap = (1.0 - wn) * l0 + wn * l1
        # |q_x|^2 and complex monomials rounded as scalar, not vector, products
        phi_h = np.real(p.hessian(x)) if real_monomials else np.array(
            [complex(p.hessian(np.asarray(v))).real for v in x])
        denom = q_lam * (phi_h + a_lap) \
            - (q_x.real * q_x.real + q_x.imag * q_x.imag)
        _check(denom < -1e-12, "degenerate fiber metric along the leaf",
               x, anchors)
        return 0.5 * np.conj(q_x) / denom, lam_star, forced

    return rhs, state


def trace_leaves(ray: GeodesicRay, anchors,
                 n_steps: int | None = None) -> list:
    """The leaves through the t = 0 anchors along the real ray, sampled at
    n_steps + 1 evenly spaced t in [0, t_max]; one Leaf per anchor.

    On a radial oracle ray every leaf is the S^1-orbit disc's ray
    x(t) = z1 e^{-t/2}, so it is written in closed form, by default at
    the ray's own t-grid (n_steps = len(t_grid) - 1), and only its level
    is read off the closed-form slices.  Sampled rays are integrated by
    fixed-step RK4 (step t_max/n_steps) through bicubic splines of the
    slices around the anchor level and stop at the pole-exclusion radius
    of the heaviest one, inside which their log-pole Laplacians are not
    resolved; the chart limit is then extrapolated with the e^{-t} rate.
    Their leaves are limited by the splines' noise, not by the step (the
    level moves non-monotonically, by up to 2.3e-5, between 256 and 2048
    steps), so they keep `SAMPLED_STEPS`.  An explicit n_steps applies to
    every ray.  The plateau rule (`plateau_threshold`) at the noise of
    the data read (rounding, or the splines' measured ringing) splits the
    slope differences.  Anchors reading the same slices are traced as
    one complex vector, each leaf stopping on its own and bitwise the
    leaf of its anchor alone.  An anchor at 0 gives the constant leaf at
    0.  The drift of the Hamiltonian from lam_leaf along the trace is
    reported.  Raises ValueError naming an anchor whose level is not in
    (0, c), LeafExit naming a leaf that leaves the resolved region or
    degenerates."""
    anchors = [complex(z) for z in np.asarray(anchors, dtype=complex).ravel()]
    radial = ray.backend == "oracle"
    if n_steps is None:
        n_steps = len(ray.t_grid) - 1 if radial else SAMPLED_STEPS
    leaves = [None] * len(anchors)
    groups = {}
    for i, z1 in enumerate(anchors):
        if z1 == 0:
            zz, ts = np.zeros(9, dtype=complex), np.linspace(0.0, ray.t_max, 9)
            leaves[i] = Leaf(anchor=0j, t_samples=ts, curve=zz, ambient=zz,
                             lam_leaf=0.0, h_drift=0.0, u_limit=0j, ray=ray)
        elif radial:
            groups.setdefault(None, []).append(i)
        else:   # the slices within LEAF_WINDOW of the anchor level
            k0 = int(np.searchsorted(ray.lam_grid, _anchor_level(ray, z1)))
            groups.setdefault((max(0, k0 - LEAF_WINDOW), min(
                len(ray.lam_grid), k0 + LEAF_WINDOW + 1)), []).append(i)
    for window, idx in groups.items():
        probe = _RadialProbe(ray) if radial \
            else _SplineProbe(ray, range(*window))
        for i, leaf in zip(idx, _trace_batch(
                ray, probe, [anchors[i] for i in idx], n_steps)):
            leaves[i] = leaf
    return leaves


def level_anchor(lam: float, results) -> complex:
    """The t = 0 anchor of the leaf at pole weight lam on a slice family
    `results` of the weight p: sqrt(rho*), rho* = `p.level_rho(lam)`, for
    a radial p; otherwise the point at angle nearest 0 on the stored
    equilibrium boundary of the result whose weight is nearest lam.
    Raises ValueError, naming that weight, when its boundary is empty
    (lam = 0 or a degenerate slice)."""
    p = results[0].potential
    if p.symmetry == "radial":
        return complex(math.sqrt(p.level_rho(lam)))
    res = results[int(np.argmin([abs(r.lam - lam) for r in results]))]
    poly = res.boundary
    if not len(poly):
        raise ValueError(f"the slice at lam = {res.lam:.6g}, nearest "
                         f"{lam:.6g}, has no equilibrium boundary")
    j = int(np.argmin(np.abs(np.arctan2(poly[:, 1], poly[:, 0]))))
    return complex(poly[j, 0], poly[j, 1])


def _trace_batch(ray: GeodesicRay, probe, anchors, n_steps: int) -> list:
    rhs, state = _rhs_factory(ray, probe)
    z1 = np.asarray(anchors, dtype=complex)
    n = len(z1)
    try:
        levels = state(z1, 0.0, z1)[0]
    except LeafExit as exc:
        raise ValueError("anchor Hamiltonian outside (0, c): leaf not "
                         f"contained in the computed ray ({exc})") from None
    for level, z in zip(levels.tolist(), anchors):
        if not 0.0 < level < ray.cutoff:
            raise ValueError(f"anchor Hamiltonian {level:.4g} outside (0, c): "
                             f"leaf of anchor {z:.6g} not in the computed ray")
    if isinstance(probe, _RadialProbe):   # every (leaf, sample) in one read
        ts = np.linspace(0.0, ray.t_max, n_steps + 1)
        xs = z1[:, None] * np.exp(-0.5 * ts)
        lam_trace, forced_trace = state(xs.ravel(), np.tile(ts, n),
                                        np.repeat(z1, len(ts)))[:2]
        return [_finish_leaf(ray, complex(z), ts, x, lam, forced, float(level))
                for z, x, lam, forced, level in zip(
                    z1, xs, lam_trace.reshape(n, -1),
                    forced_trace.reshape(n, -1), levels)]
    dt = ray.t_max / n_steps
    xs = np.repeat(z1[:, None], n_steps + 1, axis=1)
    lam_trace = np.empty((n, n_steps))
    forced_trace = np.empty((n, n_steps), dtype=bool)
    steps = np.full(n, n_steps)
    live, x, t, ts = np.arange(n), z1, 0.0, [0.0]
    for k in range(n_steps):
        r = np.hypot(x.real, x.imag)     # = abs(x), rounded as libm's hypot
        if (done := r < probe.resolve_radius).any():
            steps[live[done]] = k
            live, x, r = live[~done], x[~done], r[~done]
            if live.size == 0:
                break
        za = z1[live]
        _check(~(r > probe.r_max), "leaf exited the resolved region", x, za)
        k1, lam_here, forced = rhs(x, t, za)
        k2 = rhs(x + 0.5 * dt * k1, t + 0.5 * dt, za)[0]
        k3 = rhs(x + 0.5 * dt * k2, t + 0.5 * dt, za)[0]
        k4 = rhs(x + dt * k3, t + dt, za)[0]
        x = x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
        ts.append(t)
        xs[live, k + 1] = x
        lam_trace[live, k] = lam_here
        forced_trace[live, k] = forced
    ts = np.asarray(ts)
    return [_finish_leaf(ray, complex(z1[i]), ts[:m + 1], xs[i, :m + 1].copy(),
                         lam_trace[i, :m], forced_trace[i, :m],
                         float(levels[i])) for i, m in enumerate(steps)]


def _finish_leaf(ray, z1, ts, xs, lam_trace, forced_trace, anchor_level):
    chart = xs * np.exp(0.5 * ts)
    # the Hamiltonian value of the leaf and its constancy defect, measured
    # where the crossing bracket is natural (detached from the plateau);
    # the early forced-extrapolation regime carries a small estimator bias
    # that would otherwise masquerade as drift
    natural = ~forced_trace
    if natural.sum() >= 16:
        vals = lam_trace[natural]
        lam_leaf = float(np.median(vals[len(vals) // 4:]))
        drift = float(np.max(np.abs(vals - lam_leaf)))
    else:
        lam_leaf = anchor_level
        drift = float(np.max(np.abs(lam_trace - lam_leaf))) if len(lam_trace) \
            else 0.0
    # central-fiber coordinate: chart limit with e^{-t} Richardson step
    if len(ts) > 32:
        t_end = ts[-1]
        j = int(np.searchsorted(ts, t_end - max(0.5, 0.1 * t_end)))
        zT, zP = chart[-1], chart[j]
        u_lim = zT + (zT - zP) / (math.exp(t_end - ts[j]) - 1.0)
    else:
        u_lim = chart[-1]
    return Leaf(anchor=z1, t_samples=ts, curve=chart, ambient=xs,
                lam_leaf=float(lam_leaf), h_drift=float(drift),
                u_limit=complex(u_lim), ray=ray, anchor_level=anchor_level)


def _anchor_level(ray: GeodesicRay, z1: complex) -> float:
    """Hamiltonian level of the anchor from the smooth t=0 field."""
    h0 = smooth_hamiltonian(ray)
    grid = ray.spatial_grid
    ax = grid.axis()
    i = np.clip(np.searchsorted(ax, z1.real) - 1, 0, len(ax) - 2)
    j = np.clip(np.searchsorted(ax, z1.imag) - 1, 0, len(ax) - 2)
    wx = (z1.real - ax[i]) / (ax[i + 1] - ax[i])
    wy = (z1.imag - ax[j]) / (ax[j + 1] - ax[j])
    v = h0.values
    return float((1 - wx) * (1 - wy) * v[i, j] + wx * (1 - wy) * v[i + 1, j]
                 + (1 - wx) * wy * v[i, j + 1] + wx * wy * v[i + 1, j + 1])


# ---------------------------------------------------------------------------
# disc boundary and area
# ---------------------------------------------------------------------------

def leaf_boundary(leaf: Leaf) -> np.ndarray:
    """S^1-orbit closure of the t = 0 endpoint, at 2048 angles: the level
    curve of the t = 0 Hamiltonian through the anchor (for a radial
    weight of the leaf's ray, exactly the circle through it)."""
    ray = leaf.ray
    n_points = 2048
    if leaf.anchor == 0:
        return np.zeros((0, 2))
    if ray.potential.symmetry == "radial":
        r = abs(leaf.anchor)
        th = np.linspace(0.0, 2 * math.pi, n_points, endpoint=False)
        return np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
    h0 = smooth_hamiltonian(ray)
    grid = ray.spatial_grid
    ax = grid.axis()
    vals = np.where(h0.mask, h0.values, ray.cutoff)
    # sampled-slice Hamiltonians carry sub-node jitter near the coincidence
    # edges; one four-neighbour averaging pass low-passes it before the
    # level is traced (O(h^2) bias, below the curve's own accuracy)
    sm = vals.copy()
    sm[1:-1, 1:-1] = 0.5 * vals[1:-1, 1:-1] + 0.125 * neighbour_sum(vals)
    vals = sm

    # the orbit encircles the pole once: read it off as a polar graph,
    # solving H0(r e^{i theta}) = lam_leaf along each ray (the crossing
    # closest to the anchor radius), which is closed and simple by
    # construction; a short circular moving average suppresses what is
    # left of the sub-node jitter
    th = np.linspace(0.0, 2.0 * math.pi, n_points, endpoint=False)
    rs = np.linspace(4.0 * grid.h, grid.radius - 6.0 * grid.h, 512)
    # libm's cos/sin, as the per-angle read-out had
    trig = np.array([(math.cos(a), math.sin(a)) for a in th])
    radii = np.empty(n_points)
    for b in range(0, n_points, ORBIT_BLOCK):
        cos, sin = trig[b:b + ORBIT_BLOCK].T[:, :, None]
        f = bilinear(ax, vals, np.stack([rs * cos, rs * sin], axis=-1),
                     ray.cutoff) - leaf.lam_leaf
        crossing = f[:, :-1] * f[:, 1:] <= 0
        if not crossing.any(axis=1).all():
            raise LeafExit("no closed orbit at the leaf level: boundary "
                           "reconstruction failed", anchor=leaf.anchor)
        with np.errstate(divide="ignore", invalid="ignore"):
            cross = rs[:-1] - f[:, :-1] * (rs[1:] - rs[:-1]) \
                / (f[:, 1:] - f[:, :-1])
        # the crossing closest to the anchor radius, first on ties and NaN
        gap = np.where(crossing, np.abs(cross - abs(leaf.anchor)), np.inf)
        radii[b:b + len(f)] = cross[np.arange(len(f)), np.argmin(gap, axis=1)]
    k = np.ones(5) / 5.0
    radii = np.convolve(np.concatenate([radii[-4:], radii, radii[:4]]),
                        k, "same")[4:-4]
    poly = np.stack([radii * np.cos(th), radii * np.sin(th)], axis=1)
    if not polyline_is_simple(resample_closed(poly, 256)):
        raise LeafExit("orbit curve self-intersects: leaf not closed under "
                       "the circle-orbit reconstruction", anchor=leaf.anchor)
    return poly


def disc_area(leaf: Leaf) -> float:
    """omega-area of the foliation disc through the leaf: the d^c
    circulation of the ray's weight along the S^1-orbit of the t = 0
    endpoint, the enclosed dd^c mass of that curve (0 at the pole)."""
    return boundary_mass(leaf.ray.potential, leaf_boundary(leaf))


# ---------------------------------------------------------------------------
# tubular correspondence
# ---------------------------------------------------------------------------

def build_tubular_map(ray: GeodesicRay, anchors, leaves=None) -> TubularMap:
    """Trace every anchor to the central fiber, in one batch, and assemble
    u -> anchor; `leaves`, when given, are the anchors' leaves (in ravel
    order), traced by the caller in a larger batch.

    anchors may be a flat complex sequence or an (n_radii, n_angles)
    complex array (polar net, preserved for differencing).  An anchor at
    0 maps to 0.  Two central-fiber points closer than a node spacing
    raise (leaves are disjoint)."""
    arr = np.asarray(anchors, dtype=complex)
    flat = arr.ravel()
    if leaves is None:
        leaves = trace_leaves(ray, flat)
    elif [leaf.anchor for leaf in leaves] != flat.tolist():
        raise ValueError("leaves are not those of the anchors in ravel order")
    us = np.array([leaf.u_limit for leaf in leaves], dtype=complex)
    nz = us[np.abs(flat) > 0]
    if len(nz) > 1:
        duv = np.abs(nz[:, None] - nz[None, :])
        np.fill_diagonal(duv, np.inf)
        if float(duv.min()) < ray.spatial_grid.h:
            raise ValueError("two leaves reached the same central-fiber "
                             "point within a node spacing: sampled "
                             "correspondence is not injective")
    return TubularMap(u_points=us.reshape(arr.shape), anchors=arr)


def polar_anchor_net(radii, n_angles: int) -> np.ndarray:
    th = np.linspace(0.0, 2 * math.pi, n_angles, endpoint=False)
    r = np.asarray(radii, dtype=float)
    return r[:, None] * np.exp(1j * th[None, :])


def check_pullback(tmap: TubularMap, ray: GeodesicRay) -> float:
    """Max relative deviation between the t = 0 form evaluated on pushed
    tangent pairs and the central-fiber form on the originals.

    Tangent pairs come from first-order differences along the polar net of
    anchors; the tolerance of the check therefore scales with the anchor
    spacing and is reported, not hidden.  The central-fiber density is
    closed-form for radial weights and fitted from the slice family's
    pole intercepts otherwise."""
    U = tmap.u_points
    Z = tmap.anchors
    if Z.ndim != 2 or Z.shape[0] < 2 or Z.shape[1] < 3:
        raise ValueError("anchor net too coarse for differencing: need a "
                         "polar net with >= 2 radii and >= 3 angles")
    nr, na = Z.shape
    p = ray.potential
    dens_N = _central_fiber_density(ray)

    worst = 0.0
    for i in range(nr - 1):
        for j in range(na):
            jn = (j + 1) % na
            du_r = U[i + 1, j] - U[i, j]
            du_t = U[i, jn] - U[i, j]
            dz_r = Z[i + 1, j] - Z[i, j]
            dz_t = Z[i, jn] - Z[i, j]
            area_u = (np.conj(du_r) * du_t).imag
            area_z = (np.conj(dz_r) * dz_t).imag
            if abs(area_u) < 1e-300:
                raise ValueError("degenerate tangent pair: anchors too coarse")
            lhs = float(p.density(np.asarray(Z[i, j]))) * area_z
            rhs = dens_N(U[i, j]) * area_u
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
    return worst


def _central_fiber_density(ray: GeodesicRay):
    """dd^c density of the central-fiber potential
    sup_lam (lam ln|u|^2 + b_lam), with b_lam the pole intercepts."""
    p = ray.potential
    if getattr(p, "symmetry", "general") == "radial":
        def dens(u):
            return float(p.density(np.asarray(u)))
        return dens

    lam = ray.lam_grid
    b = np.empty(len(lam))
    for k in range(len(lam)):
        b[k] = _pole_intercept_from_slice(ray.results[k].deficit, p, lam[k]) \
            if lam[k] > 0 else 0.0
    db = np.diff(b) / np.diff(lam)
    mids = 0.5 * (lam[1:] + lam[:-1])

    def dens(u):
        rho = (u * np.conj(u)).real
        s = math.log(float(rho))
        # stationarity: s + b'(mu) = 0
        vals = db + s
        if vals[0] <= 0:
            mu_idx = 0
        else:
            neg = vals < 0
            mu_idx = int(np.argmax(neg)) if neg.any() else len(vals) - 1
        j = min(max(mu_idx, 1), len(vals) - 1)
        d2b = (db[j] - db[j - 1]) / (mids[j] - mids[j - 1])
        if d2b >= -1e-12:
            raise ValueError("central-fiber intercepts not strictly concave; "
                             "cannot form the fiber density")
        hess = -1.0 / (float(rho) * d2b)
        return hess / math.pi

    return dens


def _pole_intercept_from_slice(fld, p, lam) -> float:
    grid = fld.grid
    rho = grid.rho()
    h = grid.h
    ring = fld.mask & (rho > (2 * h) ** 2) & (rho < (6 * h) ** 2)
    z = grid.nodes()
    phi0 = float(p.value(np.zeros((), dtype=complex)))
    corr = p.value(z[ring]) - phi0
    x = np.log(rho[ring])
    y = fld.values[ring] + corr - lam * x
    return float(np.mean(y))
