"""Foliation discs of the degenerate ray, their areas, and the tubular
correspondence between the central fiber and the t = 0 slice.

In one variable the holomorphic discs of the S^1-invariant HMAE solution
come from the Riemann maps of the equilibrium domains D_lam = {a_lam < 0}
(Ross & Witt Nystrom, "The Hele-Shaw flow and moduli of holomorphic
discs", Compositio Math. 2015; "Harmonic discs of solutions to the
complex homogeneous Monge-Ampere equation", Publ. Math. IHES 2015).  With
F the Riemann map of the domain at the leaf's level (F(0) = 0,
F'(0) > 0), the leaf through z1 on its boundary is, along the real ray
w = e^{-t/2} and in the ambient coordinate x = wz,

    x(t) = F(w1 e^{-t/2}),   w1 = F^{-1}(z1),

and its central-fiber point is u = F'(0) w1.  For radial weights F is
the dilation w -> sqrt(rho*) w: leaves are constant in the chart
coordinate z = x e^{t/2}.

The Hamiltonian is constant along leaves; its t = 0 level curve through
the anchor is the S^1-orbit closure of the leaf's t = 0 endpoint, and the
disc area is the d^c-circulation of the weight along that curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .envelope_solver import extract_equilibrium
from .field_grid import bilinear, erode_mask, neighbour_sum, rounding_noise
from .geodesic_legendre import (GeodesicRay, _bin_log_means,
                                plateau_threshold, pole_exclusion_radius,
                                smooth_hamiltonian)
from .geometry import points_in_polygon, polyline_is_simple, resample_closed
from .ma_measure import boundary_mass


@dataclass
class Leaf:
    """One traced foliation disc (the real-ray section of it).

    curve holds the chart coordinate z(t) = x(t) e^{t/2}; ambient holds
    x(t).  lam_leaf is the Hamiltonian value at the anchor; h_drift the
    measured |H(x(t), t) - lam_leaf| sup along the trace; u_limit the
    central-fiber coordinate F'(0)·w₁.
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
    """A leaf that cannot be traced, at `location`, from `anchor`: its
    level read degenerates, its level's domain is not one closed curve
    around 0, or its map does not invert."""

    def __init__(self, msg, location=None, anchor=None):
        at = "" if location is None else f" at {location:.5g}"
        of = "" if anchor is None else f" (leaf of anchor {anchor:.6g})"
        super().__init__(msg + at + of)
        self.location, self.anchor = location, anchor


LEAF_WINDOW = 8   # slices a sampled-slice leaf reads on each side of its level
ORBIT_BLOCK = 32   # rays per orbit read-out pass, to bound its memory
MAP_DEGREE = 8   # degree of the exponent polynomial of a domain's map
NEWTON_STEPS = 32   # most Newton steps a map leaf's inversion may take


# ---------------------------------------------------------------------------
# slice probes, sampled (bilinear) and radial (closed form): read(x) gives the
# slice values (n, window) at the points x (n,) of a batch of leaves, from
# which `state` reads the level of each point
# ---------------------------------------------------------------------------
_NODES = np.arange(3)[:, None]


class _GridProbe:
    """Bilinear reads (`field_grid.bilinear`) of a window of stored slices,
    which are exactly 0.0 on their coincidence sets, so that `noise` is
    their rounding level, as for `smooth_hamiltonian`; `resolve_radius` is
    the pole-exclusion radius of the heaviest slice held, inside which its
    log pole is not resolved; `depth_bins` pushes the bracket past the
    O(h)-wide contact band the sampled slices carry along their free
    boundaries (3h), widened by the diagonal of the cell a read spans."""

    def __init__(self, ray: GeodesicRay, k_window):
        grid = ray.spatial_grid
        self.ax = grid.axis()
        self.k_window = list(k_window)
        self.values = []
        scale = 0.0
        for k in self.k_window:
            fld = ray.results[k].deficit
            filled = np.where(fld.mask, fld.values, 0.0)
            i, j = i0 = grid.origin_index()
            if not fld.mask[i0]:   # the pole node: its neighbours' mean
                window = filled[i - 1:i + 2, j - 1:j + 2]
                filled[i0] = neighbour_sum(window)[0, 0] / 4
            self.values.append(filled)
            scale = max(scale, np.max(np.abs(fld.values[fld.mask]), initial=0.0))
        self.noise = rounding_noise(scale)
        self.resolve_radius = pole_exclusion_radius(
            float(ray.lam_grid[self.k_window[-1]]), grid.h)
        self.depth_bins = min(int(math.ceil(
            (3.0 + math.sqrt(2.0)) * grid.h / ray.d_lam)), 4)

    def read(self, x):
        pts = np.stack([x.real, x.imag], axis=-1)
        return np.array([bilinear(self.ax, v, pts, 0.0)
                         for v in self.values]).T


class _RadialProbe:
    """Closed-form slice values for radial weights: inside the
    pole-weight-lam domain a = flat - chi(s) + lam s with s = ln|x|^2.
    The values are exact up to the rounding of the terms that cancel at
    the free boundary, which sets `noise`; they are resolved up to the
    pole."""

    resolve_radius = 0.0

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


def _level_reader(ray: GeodesicRay, probe):
    """`state(x, t, anchors)`: the Hamiltonian lam* at the points x and
    times t, read through one probe as the root of the slope curve, and
    whether its bracket was forced past the plateau; each row gets the
    IEEE operations of a lone point."""
    lam = ray.lam_grid[probe.k_window]
    if len(lam) < 3:
        raise ValueError("lam window too small for slope differencing")
    dl = np.diff(lam)
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
        0.5 * (nu[j2] - nu[j]), 0.5 * (lam[j + 1] + lam[j])])
    no_third = j + 2 >= nd

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
        nu0, nu1, dnu, dnu12, half02, m0 = brackets[:, j]
        d0, d1, d2 = np.take(D, rows * nd + j + _NODES, mode="clip")
        # a pure degeneracy test: the slope differences of a concave
        # family fall across the bracket; where they do not, the slope
        # curve has no crossing there to solve for
        _check(d1 < d0, "degenerate slope curvature along the leaf",
               x, anchors)
        da, db = d0 + t, d1 + t
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
                # fp = 0 would divide by zero: a pure degeneracy test
                root = np.where(no_third[j] | (fp == 0), root, root - f / fp)
        # a pure degeneracy test: a rise absorbed in t's rounding leaves
        # the secant without a root, and the bin's midpoint stands in
        sloped = rise != 0
        try:   # math.exp, not np.exp: the vector exp is not libm's to the ulp
            lam_star = np.array([math.exp(r) if s else m for r, s, m
                                 in zip(root.tolist(), sloped.tolist(),
                                        m0.tolist())])
        except OverflowError:   # the largest sloped root passed ln(float max)
            _check(~sloped | (root != np.nanmax(root[sloped])),
                   "slope root overflows along the leaf", x, anchors)
        # a root three decades below the window's second slice is no level
        # its slices hold: it reads 0, which no anchor level may be
        lam_star = np.where(lam_star < lam[1] * 1e-3, 0.0,
                            np.minimum(lam_star, lam[-1]))
        return lam_star, forced

    return state


# ---------------------------------------------------------------------------
# the inverse Riemann map of each level's domain
# ---------------------------------------------------------------------------

def _domain_map(res, anchor):
    """Coefficients c and scale s of the inverse Riemann map
    g(z) = z exp(H(z)), H(z) = sum_k c_k (z/s)^k of degree MAP_DEGREE, of
    the slice's equilibrium domain: Re H = -ln|z| on its refined boundary
    by least squares, with Im H(0) = 0, so that g(0) = 0, g'(0) > 0 and
    |g| = 1 on the boundary.  Raises LeafExit, naming the slice's lam and
    the anchor, when the domain is not bounded by one closed curve around
    0 inside the grid (it reaches the grid's rim, or leaves 0 outside)."""
    rim = res.deficit.mask & ~erode_mask(res.envelope.mask)
    if not len(res.boundary) or not res.coincidence[rim].all() \
            or not points_in_polygon(np.zeros(1), np.zeros(1), res.boundary)[0]:
        raise LeafExit(f"the domain at lam = {res.lam:.6g} is not one closed "
                       "curve around 0 inside the grid", anchor=anchor)
    bd = extract_equilibrium(res, refine=True)
    z = bd[:, 0] + 1j * bd[:, 1]
    s = float(np.max(np.abs(z)))
    powers = (z / s)[:, None] ** np.arange(MAP_DEGREE + 1)
    A = np.concatenate([powers.real, -powers.imag[:, 1:]], axis=1)
    sol = np.linalg.lstsq(A, -np.log(np.abs(z)), rcond=None)[0]
    c = sol[:MAP_DEGREE + 1] + 0j
    c[1:] += 1j * sol[MAP_DEGREE + 1:]
    return c, s


def _level_map(ray: GeodesicRay, level: float, fits: dict, anchor):
    """H and H' of the inverse map at `level`: the maps of the two nodes
    bracketing it, interpolated linearly in ln(lam) (exact on discs of
    the flat weight, where H = -ln(lam)/2).  A level outside the fitted
    nodes lam_1 .. lam_top is extrapolated from the nearest two by the
    same rule.  Fits are kept in `fits` by node."""
    lam = ray.lam_grid
    k = min(max(int(np.searchsorted(lam, level, "right")) - 1, 1), len(lam) - 2)
    for i in (k, k + 1):
        if i not in fits:
            fits[i] = _domain_map(ray.results[i], anchor)
    w = math.log(level / lam[k]) / math.log(lam[k + 1] / lam[k])
    terms = [(wk, c, npoly.polyder(c) / s, s)
             for wk, (c, s) in ((1.0 - w, fits[k]), (w, fits[k + 1]))]

    def H(x):
        return (sum(wk * npoly.polyval(x / s, c) for wk, c, _, s in terms),
                sum(wk * npoly.polyval(x / s, d) for wk, _, d, s in terms))
    return H


def _map_leaf(z1: complex, ts, H):
    """The leaf x(t) = F(w1 e^{-t/2}) of z1 at the times ts, and
    u = F'(0) w1, with F the inverse of g(x) = x exp(H(x)): Newton on
    g(x) = w1 e^{-t/2} from x = z1 e^{-t/2}, until every step is within
    8 ulps of its point."""
    h1, h0 = H(np.array([z1, 0j]))[0]
    w1 = z1 * np.exp(h1)
    target = w1 * np.exp(-0.5 * ts)
    x = z1 * np.exp(-0.5 * ts)
    for _ in range(NEWTON_STEPS):
        h, dh = H(x)
        e = np.exp(h)
        step = (x * e - target) / (e * (1.0 + x * dh))
        x = x - step
        if np.all(np.abs(step) <= 8 * np.finfo(float).eps * np.abs(x)):
            return x, complex(w1 * np.exp(-h0))
    raise LeafExit("the map does not invert along the leaf", anchor=z1)


def trace_leaves(ray: GeodesicRay, anchors,
                 n_steps: int | None = None) -> list:
    """The leaves through the t = 0 anchors along the real ray, sampled at
    n_steps + 1 evenly spaced t in [0, t_max] (by default the ray's own
    t-grid, n_steps = len(t_grid) - 1); one Leaf per anchor.

    The weight decides the path.  A leaf is x(t) = F(w1 e^{-t/2}), F the
    Riemann map of the equilibrium domain at the anchor's level and
    w1 = F^{-1}(z1), with central-fiber point u = F'(0) w1 (Ross & Witt
    Nystrom, Compositio Math. 2015; Publ. Math. IHES 2015).  For a radial
    weight F is a dilation, so the leaf is x(t) = z1 e^{-t/2} and u = z1
    in closed form.  For every other weight F^{-1} is fitted on the
    refined boundaries of the two slices bracketing the anchor level and
    interpolated in ln(lam) between them (`_level_map`); a level outside
    the fitted slices is extrapolated by the same rule.

    The ray decides how the level is read: off the closed-form slices on
    an oracle ray, off bilinear reads of the LEAF_WINDOW stored slices on
    each side of the anchor level on a grid ray, by the root of the slope
    curve, whose plateau rule (`plateau_threshold`) at the rounding noise
    of the data read splits the slope differences.  The anchor's level is read at t = 0; the level
    along the trace, at every sample outside the probe's resolve radius,
    gives lam_leaf and its drift.  Anchors reading the same slices are
    read as one vector, each leaf bitwise the leaf of its anchor alone.
    An anchor at 0 gives the constant leaf at 0.  Raises ValueError
    naming an anchor whose level is not in (0, c), LeafExit naming a
    leaf whose level read degenerates or whose slice domain is not one
    closed curve around 0 (naming its lam)."""
    anchors = [complex(z) for z in np.asarray(anchors, dtype=complex).ravel()]
    if n_steps is None:
        n_steps = len(ray.t_grid) - 1
    ts = np.linspace(0.0, ray.t_max, n_steps + 1)
    leaves = [None] * len(anchors)
    groups = {}
    for i, z1 in enumerate(anchors):
        if z1 == 0:
            zz, t0 = np.zeros(9, dtype=complex), np.linspace(0.0, ray.t_max, 9)
            leaves[i] = Leaf(anchor=0j, t_samples=t0, curve=zz, ambient=zz,
                             lam_leaf=0.0, h_drift=0.0, u_limit=0j, ray=ray)
        else:
            groups.setdefault(_probe_window(ray, z1), []).append(i)
    fits = {}
    for window, idx in groups.items():
        probe = _RadialProbe(ray) if window is None \
            else _GridProbe(ray, range(*window))
        for i, leaf in zip(idx, _trace_batch(
                ray, probe, [anchors[i] for i in idx], ts, fits)):
            leaves[i] = leaf
    return leaves


def _probe_window(ray: GeodesicRay, z1: complex):
    """The slices that read the level of z1's leaf: all of them, in closed
    form, on an oracle ray (None); on a grid ray the range of those
    within LEAF_WINDOW of the anchor level."""
    if ray.backend == "oracle":
        return None
    k0 = int(np.searchsorted(ray.lam_grid, _anchor_level(ray, z1)))
    return max(0, k0 - LEAF_WINDOW), min(len(ray.lam_grid),
                                         k0 + LEAF_WINDOW + 1)


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


def _trace_batch(ray: GeodesicRay, probe, anchors, ts, fits) -> list:
    state = _level_reader(ray, probe)
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
    if ray.potential.symmetry == "radial":   # F a dilation
        xs, us = z1[:, None] * np.exp(-0.5 * ts), anchors
    else:
        xs, us = np.empty((n, len(ts)), dtype=complex), []
        for i, (z, level) in enumerate(zip(anchors, levels.tolist())):
            xs[i], u = _map_leaf(z, ts, _level_map(ray, level, fits, z))
            us.append(u)
    # the level at every (leaf, sample) the probe resolves, in one read
    keep = np.abs(xs) >= probe.resolve_radius
    lam_trace, forced_trace = state(xs[keep], np.broadcast_to(ts, xs.shape)[
        keep], np.broadcast_to(z1[:, None], xs.shape)[keep])
    ends = np.cumsum(keep.sum(axis=1))[:-1]
    return [_finish_leaf(ray, complex(z), ts, x, lam, forced, float(level), u)
            for z, x, lam, forced, level, u in zip(
                z1, xs, np.split(lam_trace, ends),
                np.split(forced_trace, ends), levels, us)]


def _finish_leaf(ray, z1, ts, xs, lam_trace, forced_trace, anchor_level, u):
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
    return Leaf(anchor=z1, t_samples=ts, curve=xs * np.exp(0.5 * ts),
                ambient=xs, lam_leaf=float(lam_leaf), h_drift=float(drift),
                u_limit=complex(u), ray=ray, anchor_level=anchor_level)


def _anchor_level(ray: GeodesicRay, z1: complex) -> float:
    """Hamiltonian level of the anchor from the smooth t=0 field."""
    return float(bilinear(ray.spatial_grid.axis(),
                          smooth_hamiltonian(ray).values,
                          [z1.real, z1.imag], ray.cutoff))



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
