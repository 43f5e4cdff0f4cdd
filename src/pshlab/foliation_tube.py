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

import numpy as np
from scipy.interpolate import RectBivariateSpline

from .field_grid import erode_mask
from .geodesic_legendre import (GeodesicRay, plateau_threshold,
                                pole_exclusion_radius, rounding_noise,
                                smooth_hamiltonian)
from .geometry import polyline_is_simple, resample_closed
from .ma_measure import boundary_mass


@dataclass
class Leaf:
    """One traced foliation disc (the real-ray section of it).

    curve holds the chart coordinate z(t) = x(t) e^{t/2}; ambient holds
    x(t).  lam_leaf is the Hamiltonian value at the anchor; h_drift the
    measured |H(x(t), t) - lam_leaf| sup along the trace; u_limit the
    extrapolated central-fiber coordinate; area is filled by disc_area.
    """

    anchor: complex
    t_samples: np.ndarray
    curve: np.ndarray
    ambient: np.ndarray
    lam_leaf: float
    h_drift: float
    u_limit: complex
    ray: GeodesicRay = field(repr=False, default=None)
    area: float = float("nan")
    anchor_level: float = float("nan")


@dataclass
class TubularMap:
    """Sampled correspondence u (central fiber) -> T(u) (t = 0 anchor),
    with T(0) = 0.  anchors/u_points keep the (n_radii, n_angles) layout
    when the anchor set is a polar net (needed for differencing)."""

    u_points: np.ndarray
    anchors: np.ndarray
    lam_values: np.ndarray
    shape: tuple | None = None


class LeafExit(RuntimeError):
    def __init__(self, msg, location=None):
        super().__init__(msg)
        self.location = location


def _bin_log_means(lam):
    """ln of the geometric bin means: the exact abscissae at which the
    forward differences of a family sample the log of the pole weight."""
    lam = np.asarray(lam, dtype=float)
    lo, hi = lam[:-1], lam[1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        num = hi * (np.log(hi) - 1.0) - np.where(lo > 0,
                                                 lo * (np.log(lo) - 1.0), 0.0)
    return num / (hi - lo)


# ---------------------------------------------------------------------------
# slice probes: sampled (spline) and radial (closed form)
# ---------------------------------------------------------------------------

class _SplineProbe:
    """Bicubic access to a window of slice fields: values, Wirtinger
    gradient, and the quarter-Laplacian (= d^2/dz dzbar of the slice).

    Derivative evaluations are the expensive part of the trace, so
    value-only and full evaluations are offered separately.  `noise` is
    the measured value noise of the splines (their ringing across the
    free-boundary kinks); `resolve_radius` is the pole-exclusion radius of
    the heaviest slice held, inside which the spline Laplacians are not
    resolved."""

    def __init__(self, ray: GeodesicRay, k_window):
        grid = ray.spatial_grid
        ax = grid.axis()
        self.k_window = list(k_window)
        self.splines = {}
        self.noise = 0.0
        for k in self.k_window:
            fld = ray.slices[k]
            vals = fld.masked_fill(np.nan)
            filled = np.where(np.isfinite(vals), vals, 0.0)
            i0 = grid.origin_index()
            if not fld.mask[i0]:
                nb = [(i0[0] + 1, i0[1]), (i0[0] - 1, i0[1]),
                      (i0[0], i0[1] + 1), (i0[0], i0[1] - 1)]
                filled[i0] = np.mean([filled[j] for j in nb])
            sp = RectBivariateSpline(ax, ax, filled, kx=3, ky=3)
            self.splines[k] = sp
            self.noise = max(self.noise, rounding_noise(
                np.max(np.abs(fld.values[fld.mask]), initial=0.0)),
                _plateau_ringing(sp, fld, ax))
        self.resolve_radius = pole_exclusion_radius(
            float(ray.lam_grid[self.k_window[-1]]), grid.h)
        self.r_max = grid.radius - 4.0 * grid.h

    def eval_values(self, ks, x):
        return np.array([self.splines[k].ev(x.real, x.imag) for k in ks],
                        dtype=float)

    def eval_value(self, k, x):
        return self.splines[k].ev(x.real, x.imag)

    def eval_grad(self, k, x):
        sp = self.splines[k]
        ax_ = sp.ev(x.real, x.imag, dx=1)
        ay_ = sp.ev(x.real, x.imag, dy=1)
        return 0.5 * (ax_ - 1j * ay_)

    def eval_lap(self, k, x):
        sp = self.splines[k]
        axx = sp.ev(x.real, x.imag, dx=2)
        ayy = sp.ev(x.real, x.imag, dy=2)
        return 0.25 * (axx + ayy)

    def eval(self, k, x):
        return (self.eval_value(k, x), self.eval_grad(k, x),
                self.eval_lap(k, x))


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
    """Closed-form slice derivatives for radial weights: inside the
    pole-weight-lam domain a = flat - chi(s) + lam s with s = ln|x|^2.
    The values are exact up to the rounding of the terms that cancel at
    the free boundary, which sets `noise`."""

    def __init__(self, p, lam_grid):
        from scipy.optimize import brentq
        self.p = p
        self.lam = np.asarray(lam_grid, dtype=float)
        self.t_star = np.full(len(self.lam), -np.inf)
        self.flat = np.zeros(len(self.lam))
        for k, lam in enumerate(self.lam):
            if lam == 0:
                continue
            t = brentq(lambda s: p.chi_prime(s) - lam, -200.0, 80.0,
                       xtol=1e-15, rtol=8.9e-16)
            self.t_star[k] = t
            self.flat[k] = float(p.chi(t)) - lam * t
        fin = np.isfinite(self.t_star)
        self.noise = rounding_noise(np.max(
            np.abs(self.flat[fin]) + np.abs(self.lam[fin] * self.t_star[fin]),
            initial=0.0))
        self.resolve_radius = 0.0
        self.r_max = np.inf

    def eval_values(self, ks, x):
        ks = np.asarray(ks)
        s = float(np.log((x * np.conj(x)).real))
        chi = float(self.p.chi(s))
        inside = s < self.t_star[ks]
        return np.where(inside, self.flat[ks] - chi + self.lam[ks] * s, 0.0)

    def eval_value(self, k, x):
        lam = self.lam[k]
        rho = (x * np.conj(x)).real
        s = np.log(rho)
        if s >= self.t_star[k]:
            return 0.0
        return self.flat[k] - self.p.chi(s) + lam * s

    def eval_grad(self, k, x):
        lam = self.lam[k]
        s = np.log((x * np.conj(x)).real)
        if s >= self.t_star[k]:
            return 0.0 + 0.0j
        return (lam - self.p.chi_prime(s)) / x   # d/dz, dz s = 1/z

    def eval_lap(self, k, x):
        rho = (x * np.conj(x)).real
        s = np.log(rho)
        if s >= self.t_star[k]:
            return 0.0
        return -self.p.chi_second(s) / rho

    def eval(self, k, x):
        return (self.eval_value(k, x), self.eval_grad(k, x),
                self.eval_lap(k, x))


def _window_indices(ray: GeodesicRay, lam_center: float, half: int = 6):
    m = len(ray.lam_grid)
    k0 = int(np.searchsorted(ray.lam_grid, lam_center))
    lo = max(0, k0 - half)
    hi = min(m, k0 + half + 1)
    return list(range(lo, hi))


def _rhs_factory(ray: GeodesicRay, p, probe, k_window, depth_bins: int = 0):
    """depth_bins pushes the evaluation bracket past the coincidence
    plateau: sampled slices carry an O(h)-wide degraded band along their
    own free boundaries, and the bracket nodes must clear it.  The plateau
    is told apart by `plateau_threshold` at the probe's noise."""
    lam = ray.lam_grid[k_window]
    if len(lam) < 3:
        raise ValueError("lam window too small for slope differencing")
    dl = np.diff(lam)
    mids = 0.5 * (lam[1:] + lam[:-1])
    nu = _bin_log_means(lam)
    eps = plateau_threshold(probe.noise, dl)

    def state(x, t):
        xx = np.asarray(x)
        A = probe.eval_values(k_window, xx)
        D = (A[1:] - A[:-1]) / dl
        neg = (D + t) < -eps
        forced = False
        if not neg.any():
            j = len(D) - 2
        else:
            j0 = int(np.argmax(neg))
            on_plateau = D >= -eps
            plateau = np.nonzero(on_plateau[:j0 + 1])[0]
            jP = int(plateau[-1]) if plateau.size else -1
            # clear the kink-straddling difference at the plateau edge and
            # the degraded band above it
            if j0 == 0 or on_plateau[j0 - 1]:
                j0 += 1
                forced = True
            if j0 < jP + 1 + depth_bins:
                j0 = jP + 1 + depth_bins
                forced = True
            j = min(max(j0, 0), len(D) - 2)
        da, db = D[j] + t, D[j + 1] + t
        q_lam = (D[j + 1] - D[j]) / (mids[j + 1] - mids[j])
        if not (q_lam < -1e-12):
            raise LeafExit("degenerate slope curvature along the leaf",
                           location=complex(x))
        # root of the slope curve in ln(lam) at the exact bin log-means:
        # exact on the flat-weight curve; a one-Newton curvature refinement
        # absorbs the quadratic term when a third smooth bin is available
        if abs(db - da) > 1e-30:
            g1 = (db - da) / (nu[j + 1] - nu[j])
            root = nu[j] - da / g1
            if j + 2 < len(D):
                dc = D[j + 2] + t
                g2 = (dc - db) / (nu[j + 2] - nu[j + 1])
                curv = (g2 - g1) / (0.5 * (nu[j + 2] - nu[j]))
                for _ in range(2):
                    f = da + g1 * (root - nu[j]) \
                        + 0.5 * curv * (root - nu[j]) * (root - nu[j + 1])
                    fp = g1 + 0.5 * curv * (2 * root - nu[j] - nu[j + 1])
                    if abs(fp) < 1e-30:
                        break
                    root = root - f / fp
            lam_star = math.exp(root)
        else:
            lam_star = mids[j]
        lam_star = float(np.clip(lam_star, lam[1] * 1e-3, lam[-1]))
        # derivative data only where needed: nodes j..j+2 of the bracket,
        # which by construction sit on the smooth branch of the family
        W = [probe.eval_grad(k_window[j + i], xx) for i in range(3)]
        qx_a = (W[1] - W[0]) / dl[j]
        qx_b = (W[2] - W[1]) / dl[j + 1]
        w = (lam_star - mids[j]) / (mids[j + 1] - mids[j])
        q_x = (1.0 - w) * qx_a + w * qx_b
        L0 = probe.eval_lap(k_window[j], xx)
        L1 = probe.eval_lap(k_window[j + 1], xx)
        wn = (lam_star - lam[j]) / (lam[j + 1] - lam[j])
        a_lap = (1.0 - wn) * L0 + wn * L1
        return lam_star, q_x, q_lam, a_lap, forced

    def rhs(x, t):
        lam_star, q_x, q_lam, a_lap, forced = state(x, t)
        phi_h = complex(p.hessian(np.asarray(x, dtype=complex))).real
        denom = q_lam * (phi_h + a_lap) - (q_x * np.conj(q_x)).real
        if not (denom < -1e-12):
            raise LeafExit("degenerate fiber metric along the leaf",
                           location=complex(x))
        return 0.5 * np.conj(q_x) / denom, lam_star, forced

    return rhs, state


def trace_leaf(ray: GeodesicRay, p, z1: complex, n_steps: int = 2048,
               window: int = 8, depth_bins: int | None = None) -> Leaf:
    """Integrate the leaf through the t = 0 anchor z1 along the real ray.

    Fixed-step RK4 in t with step t_max/n_steps; radial oracle rays trace
    the full range with closed-form slices.  Sampled-slice rays are read
    through bicubic splines of a window of slices around the anchor level
    and stop at the resolution horizon, the pole-exclusion radius
    (`pole_exclusion_radius`) of the heaviest slice in the window: inside
    it the sampled log-pole Laplacians that enter the leaf equation are
    not resolved.  The chart limit is then extrapolated with the e^{-t}
    rate.

    The slope differences of the window are split into the zero plateau
    and the smooth branch by the plateau rule (`plateau_threshold`) at the
    value noise of the data read: rounding level for closed-form slices,
    the splines' ringing measured on the zero plateau next to the free
    boundary for sampled ones.  The threshold is fixed once per trace.

    The Hamiltonian value along the trace is recorded and its drift from
    lam_leaf reported.  Raises LeafExit if the leaf leaves the resolved
    region sideways or the fiber metric degenerates.
    """
    z1 = complex(z1)
    t_max = ray.t_max
    if z1 == 0:
        ts = np.linspace(0.0, t_max, 9)
        zz = np.zeros_like(ts, dtype=complex)
        return Leaf(anchor=0j, t_samples=ts, curve=zz, ambient=zz,
                    lam_leaf=0.0, h_drift=0.0, u_limit=0j, ray=ray)

    if getattr(p, "symmetry", "general") == "radial" \
            and ray.backend.startswith("oracle"):
        probe = _RadialProbe(p, ray.lam_grid)
        k_window = list(range(len(ray.lam_grid)))
        depth = 0 if depth_bins is None else depth_bins
    else:
        probe = _SplineProbe(ray, _window_indices(
            ray, _anchor_level(ray, z1), half=window))
        k_window = probe.k_window
        if depth_bins is None:
            # clear the O(h)-wide contact band of the sampled slices
            depth = int(math.ceil(3.0 * ray.spatial_grid.h / ray.d_lam))
            depth = min(depth, 4)
        else:
            depth = depth_bins
    rhs, state = _rhs_factory(ray, p, probe, k_window, depth_bins=depth)

    try:
        anchor_level, *_ = state(z1, 0.0)
    except LeafExit as exc:
        raise ValueError("anchor Hamiltonian outside (0, c): leaf not "
                         f"contained in the computed ray ({exc})") from None
    if not (0.0 < anchor_level < ray.cutoff):
        raise ValueError(f"anchor Hamiltonian {anchor_level:.4g} outside "
                         "(0, c): leaf not contained in the computed ray")

    dt = t_max / n_steps
    x = z1
    ts = [0.0]
    xs = [x]
    lam_trace = []
    forced_trace = []
    t = 0.0
    for k in range(n_steps):
        if abs(x) < probe.resolve_radius:
            break
        if abs(x) > probe.r_max:
            raise LeafExit(f"leaf exited the resolved region at {x:.5g}",
                           location=x)
        k1, lam_here, forced = rhs(x, t)
        lam_trace.append(lam_here)
        forced_trace.append(forced)
        k2, _, _ = rhs(x + 0.5 * dt * k1, t + 0.5 * dt)
        k3, _, _ = rhs(x + 0.5 * dt * k2, t + 0.5 * dt)
        k4, _, _ = rhs(x + dt * k3, t + dt)
        x = x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
        ts.append(t)
        xs.append(x)
    ts = np.asarray(ts)
    xs = np.asarray(xs, dtype=complex)
    chart = xs * np.exp(0.5 * ts)

    # the Hamiltonian value of the leaf and its constancy defect, measured
    # where the crossing bracket is natural (detached from the plateau);
    # the early forced-extrapolation regime carries a small estimator bias
    # that would otherwise masquerade as drift
    lam_trace = np.asarray(lam_trace)
    natural = ~np.asarray(forced_trace, dtype=bool)
    if natural.sum() >= 16:
        vals = lam_trace[natural]
        lam_leaf = float(np.median(vals[len(vals) // 4:]))
        drift = float(np.max(np.abs(vals - lam_leaf)))
    else:
        lam_leaf = float(anchor_level)
        drift = float(np.max(np.abs(lam_trace - lam_leaf))) if len(lam_trace) \
            else 0.0

    # central-fiber coordinate: chart limit with e^{-t} Richardson step
    if len(ts) > 32:
        t_end = ts[-1]
        span = max(0.5, 0.1 * t_end)
        j = int(np.searchsorted(ts, t_end - span))
        zT, zP = chart[-1], chart[j]
        dt_r = t_end - ts[j]
        u_lim = zT + (zT - zP) / (math.exp(dt_r) - 1.0)
    else:
        u_lim = chart[-1]
    return Leaf(anchor=z1, t_samples=ts, curve=chart, ambient=xs,
                lam_leaf=float(lam_leaf), h_drift=float(drift),
                u_limit=complex(u_lim), ray=ray,
                anchor_level=float(anchor_level))


def _anchor_level(ray: GeodesicRay, z1: complex) -> float:
    """Hamiltonian level of the anchor from the smooth t=0 field."""
    h0 = smooth_hamiltonian(ray, 0.0)
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

def leaf_boundary(leaf: Leaf, p=None, n_points: int = 2048) -> np.ndarray:
    """S^1-orbit closure of the t = 0 endpoint: the level curve of the
    t = 0 Hamiltonian through the anchor (for radial weights, exactly the
    circle through it)."""
    ray = leaf.ray
    if leaf.anchor == 0:
        return np.zeros((0, 2))
    if p is not None and getattr(p, "symmetry", "general") == "radial":
        r = abs(leaf.anchor)
        th = np.linspace(0.0, 2 * math.pi, n_points, endpoint=False)
        return np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
    h0 = smooth_hamiltonian(ray, 0.0)
    grid = ray.spatial_grid
    ax = grid.axis()
    vals = np.where(h0.mask, h0.values, ray.cutoff)
    # sampled-slice Hamiltonians carry sub-node jitter near the coincidence
    # edges; one four-neighbour averaging pass low-passes it before the
    # level is traced (O(h^2) bias, below the curve's own accuracy)
    if not ray.backend.startswith("oracle"):
        sm = vals.copy()
        sm[1:-1, 1:-1] = 0.5 * vals[1:-1, 1:-1] + 0.125 * (
            vals[2:, 1:-1] + vals[:-2, 1:-1] + vals[1:-1, 2:] + vals[1:-1, :-2])
        vals = sm

    # the orbit encircles the pole once: read it off as a polar graph,
    # solving H0(r e^{i theta}) = lam_leaf along each ray (the crossing
    # closest to the anchor radius), which is closed and simple by
    # construction; a short circular moving average suppresses what is
    # left of the sub-node jitter
    from scipy.interpolate import RegularGridInterpolator
    interp = RegularGridInterpolator((ax, ax), vals, method="linear",
                                     bounds_error=False, fill_value=ray.cutoff)
    th = np.linspace(0.0, 2.0 * math.pi, n_points, endpoint=False)
    r_lo, r_hi = 4.0 * grid.h, grid.radius - 6.0 * grid.h
    rs = np.linspace(r_lo, r_hi, 512)
    r_anchor = abs(leaf.anchor)
    radii = np.empty(n_points)
    for i, a in enumerate(th):
        pts = np.stack([rs * math.cos(a), rs * math.sin(a)], axis=1)
        f = interp(pts) - leaf.lam_leaf
        sign = f[:-1] * f[1:] <= 0
        idx = np.nonzero(sign)[0]
        if idx.size == 0:
            raise LeafExit("no closed orbit at the leaf level: boundary "
                           "reconstruction failed")
        cross = rs[idx] - f[idx] * (rs[idx + 1] - rs[idx]) \
            / (f[idx + 1] - f[idx])
        radii[i] = cross[np.argmin(np.abs(cross - r_anchor))]
    if not ray.backend.startswith("oracle"):
        k = np.ones(5) / 5.0
        radii = np.convolve(np.concatenate([radii[-4:], radii, radii[:4]]),
                            k, "same")[4:-4]
    poly = np.stack([radii * np.cos(th), radii * np.sin(th)], axis=1)
    if not polyline_is_simple(resample_closed(poly, 256)):
        raise LeafExit("orbit curve self-intersects: leaf not closed under "
                       "the circle-orbit reconstruction")
    return poly


def disc_area(leaf: Leaf, p) -> float:
    """omega-area of the foliation disc through the leaf: the d^c
    circulation of the weight along the S^1-orbit of the t = 0 endpoint,
    i.e. the enclosed dd^c mass of that curve."""
    if leaf.anchor == 0:
        return 0.0
    poly = leaf_boundary(leaf, p)
    if len(poly) == 0:
        raise LeafExit("leaf boundary is empty")
    area = boundary_mass(p, poly)
    leaf.area = area
    return area


# ---------------------------------------------------------------------------
# tubular correspondence
# ---------------------------------------------------------------------------

def build_tubular_map(ray: GeodesicRay, p, anchors) -> TubularMap:
    """Trace every anchor to the central fiber and assemble u -> anchor.

    anchors may be a flat complex sequence or an (n_radii, n_angles)
    complex array (polar net, preserved for differencing).  An anchor at
    0 maps to 0 without tracing.  Two central-fiber points closer than a
    node spacing raise (leaves are disjoint)."""
    arr = np.asarray(anchors, dtype=complex)
    shape = arr.shape if arr.ndim == 2 else None
    flat = arr.ravel()
    us = np.empty(flat.shape, dtype=complex)
    lams = np.empty(flat.shape)
    for i, z1 in enumerate(flat):
        if z1 == 0:
            us[i], lams[i] = 0j, 0.0
            continue
        leaf = trace_leaf(ray, p, z1)
        us[i] = leaf.u_limit
        lams[i] = leaf.lam_leaf
    h = ray.spatial_grid.h
    nz = us[np.abs(flat) > 0]
    if len(nz) > 1:
        duv = np.abs(nz[:, None] - nz[None, :])
        np.fill_diagonal(duv, np.inf)
        if float(duv.min()) < h:
            raise ValueError("two leaves reached the same central-fiber "
                             "point within a node spacing: sampled "
                             "correspondence is not injective")
    return TubularMap(u_points=us.reshape(arr.shape), anchors=arr,
                      lam_values=lams.reshape(arr.shape), shape=shape)


def polar_anchor_net(radii, n_angles: int) -> np.ndarray:
    th = np.linspace(0.0, 2 * math.pi, n_angles, endpoint=False)
    r = np.asarray(radii, dtype=float)
    return r[:, None] * np.exp(1j * th[None, :])


def check_pullback(tmap: TubularMap, ray: GeodesicRay, p) -> float:
    """Max relative deviation between the t = 0 form evaluated on pushed
    tangent pairs and the central-fiber form on the originals.

    Tangent pairs come from first-order differences along the polar net of
    anchors; the tolerance of the check therefore scales with the anchor
    spacing and is reported, not hidden.  The central-fiber density is
    closed-form for radial weights and fitted from the slice family's
    pole intercepts otherwise."""
    if tmap.shape is None or tmap.shape[0] < 2 or tmap.shape[1] < 3:
        raise ValueError("anchor net too coarse for differencing: need a "
                         "polar net with >= 2 radii and >= 3 angles")
    U = tmap.u_points
    Z = tmap.anchors
    nr, na = tmap.shape
    dens_N = _central_fiber_density(ray, p)

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


def _central_fiber_density(ray: GeodesicRay, p):
    """dd^c density of the central-fiber potential
    sup_lam (lam ln|u|^2 + b_lam), with b_lam the pole intercepts."""
    if getattr(p, "symmetry", "general") == "radial":
        def dens(u):
            return float(p.density(np.asarray(u)))
        return dens

    lam = ray.lam_grid
    b = np.empty(len(lam))
    for k in range(len(lam)):
        b[k] = _pole_intercept_from_slice(ray.slices[k], p, lam[k]) \
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
