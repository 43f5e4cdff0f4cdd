"""Foliation discs and the tubular map.  The batched level read is
checked bitwise against a scalar per-point reference, radial leaves
against the scalar closed form, map leaves against the exact leaves of
disc domains and against the RK4 tracer of the leaf ODE, and the
vectorized orbit read-out of `leaf_boundary` against its per-angle loop;
the references are kept here."""

import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import RegularGridInterpolator
from scipy.optimize import brentq

from pshlab import geodesic_legendre
from pshlab.field_grid import (bilinear, build_grid, erode_mask,
                               rounding_noise)
from pshlab.potential_kit import Potential, Term
from pshlab.envelope_solver import (extract_equilibrium, grid_envelope,
                                    grid_envelopes, radial_envelope,
                                    radial_envelopes)
from pshlab.geodesic_legendre import (_bin_log_means, assemble_geodesic,
                                      lam_nodes, plateau_threshold,
                                      smooth_hamiltonian)
from pshlab.foliation_tube import (Leaf, LeafExit, _GridProbe, _RadialProbe,
                                   _anchor_level, _level_reader,
                                   build_tubular_map, check_pullback,
                                   disc_area, leaf_boundary, level_anchor,
                                   polar_anchor_net, trace_leaves)


@pytest.fixture(scope="module")
def quartic_ray(quartic):
    grid = build_grid(1, 192, 1.0)
    return assemble_geodesic(
        radial_envelopes(quartic, lam_nodes(0.45, 36), grid), 0.45)


def _anchor(quartic, lam):
    t_s = brentq(lambda t: quartic.chi_prime(t) - lam, -80.0, 0.0)
    return math.exp(0.5 * t_s) + 0j


def test_probe_level_and_envelope_circle_are_one_float(quartic):
    """The radial probe's t*, the oracle's circle and the leaf anchor all
    read the same rho* = level_rho(lam)."""
    lams = (0.0, 0.05, 0.2, 0.3)
    ray = assemble_geodesic(
        radial_envelopes(quartic, lams, build_grid(1, 64, 1.0)), 0.36)
    probe = _RadialProbe(ray)
    for k, lam in enumerate(lams[1:], start=1):
        rho = quartic.level_rho(lam)
        bd = ray.results[k].boundary
        assert probe.t_star[k] == math.log(rho)
        assert bd[0, 0] == math.sqrt(rho) == level_anchor(lam, ray.results)
        assert len(bd) % 4 == 0


def test_flat_leaves_constant(flat_ray_small):
    ray = flat_ray_small
    leaf = trace_leaves(ray, [0.35 + 0.2j], n_steps=512)[0]
    assert np.max(np.abs(leaf.curve - leaf.anchor)) < 1e-9
    assert abs(leaf.u_limit - leaf.anchor) < 1e-9


def test_leaf_through_origin_trivial(flat_ray_small):
    ray = flat_ray_small
    leaf = trace_leaves(ray, [0j])[0]
    assert np.all(leaf.curve == 0)
    assert leaf.lam_leaf == 0.0
    assert disc_area(leaf) == 0.0


def test_quartic_leaf_constant_chart_and_drift(quartic_ray, quartic):
    leaf = trace_leaves(quartic_ray, [_anchor(quartic, 0.3)], n_steps=1024)[0]
    assert np.max(np.abs(leaf.curve - leaf.anchor)) < 1e-8
    assert leaf.h_drift / leaf.lam_leaf < 1e-3
    assert abs(leaf.lam_leaf - 0.3) < 5e-3


def test_anchor_outside_ray_raises(quartic_ray):
    with pytest.raises(ValueError, match="outside"):
        trace_leaves(quartic_ray, [0.95 + 0j])


def test_radial_ambient_modulus_decreases(quartic_ray, quartic):
    leaf = trace_leaves(quartic_ray, [_anchor(quartic, 0.2)], n_steps=1024)[0]
    r = np.abs(leaf.ambient)
    assert np.all(np.diff(r) < 0)


def test_disc_area_radial(quartic_ray, quartic):
    leaf = trace_leaves(quartic_ray, [_anchor(quartic, 0.25)],
                        n_steps=1024)[0]
    area = disc_area(leaf)
    assert abs(area - 0.25) < 5e-3
    assert abs(area - leaf.lam_leaf) < 1e-3


def test_leaf_boundary_on_equilibrium(quartic_ray, quartic):
    grid = quartic_ray.spatial_grid
    leaf = trace_leaves(quartic_ray, [_anchor(quartic, 0.2)], n_steps=1024)[0]
    bd = leaf_boundary(leaf)
    from pshlab.envelope_solver import radial_envelope
    res = radial_envelope(quartic, leaf.lam_leaf, grid)
    poly = res.boundary
    worst = 0.0
    for pt in bd[::32]:
        worst = max(worst, float(np.min(np.hypot(poly[:, 0] - pt[0],
                                                 poly[:, 1] - pt[1]))))
    assert worst <= 2.0 * grid.h


def test_leaves_disjoint(quartic_ray, quartic):
    leaves = [trace_leaves(quartic_ray, [_anchor(quartic, lam) * ph],
                           n_steps=512)[0]
              for lam in (0.15, 0.3) for ph in (1.0, np.exp(1j))]
    n = len(leaves)
    for i in range(n):
        for j in range(i + 1, n):
            a, b = leaves[i], leaves[j]
            k = min(len(a.t_samples), len(b.t_samples))
            gap = np.min(np.abs(a.ambient[:k] - b.ambient[:k]))
            if abs(a.lam_leaf - b.lam_leaf) > 1e-6:
                assert gap > 0.0
            else:
                # same level, different phase: disjoint rays of one disc
                assert gap > 0.0


def test_perturbed_leaf(perturbed_ray_small, perturbed):
    grid = perturbed_ray_small.spatial_grid
    lams = [l for l, _ in zip(perturbed_ray_small.lam_grid,
                              perturbed_ray_small.slices)]
    res = None
    for lam, fld in zip(perturbed_ray_small.lam_grid,
                        perturbed_ray_small.slices):
        if abs(lam - 0.2) < 1e-9:
            break
    res = grid_envelope(perturbed, 0.2, grid, tol=1e-9)
    poly = extract_equilibrium(res)
    i = int(np.argmin(np.abs(np.arctan2(poly[:, 1], poly[:, 0]))))
    anchor = poly[i, 0] + 1j * poly[i, 1]
    leaf = trace_leaves(perturbed_ray_small, [anchor], n_steps=512)[0]
    area = disc_area(leaf)
    # coarse ray (128^2, 24 slices): machinery-level tolerances
    assert abs(area - leaf.lam_leaf) < 2e-2
    assert leaf.h_drift / leaf.lam_leaf < 2e-2


def test_perturbed_leaf_through_plateau_ringing(perturbed):
    # the spline slices ring across their free-boundary kinks; the leaf
    # tracer must read that ringing as plateau, not as slope curvature
    grid = build_grid(1, 192, 1.0)
    ray = assemble_geodesic(grid_envelopes(perturbed, lam_nodes(0.36, 36),
                                           grid, tol=1e-9), 0.36)
    k = int(np.argmin(np.abs(ray.lam_grid - 0.3)))
    poly = extract_equilibrium(ray.results[k])
    i = int(np.argmin(np.abs(np.arctan2(poly[:, 1], poly[:, 0]))))
    leaf = trace_leaves(ray, [poly[i, 0] + 1j * poly[i, 1]], n_steps=512)[0]
    area = disc_area(leaf)
    assert abs(area - leaf.lam_leaf) <= 1e-2
    assert leaf.h_drift / leaf.lam_leaf <= 1e-3


def test_tubular_map_flat_identity(flat_ray_small):
    ray = flat_ray_small
    net = polar_anchor_net([0.3, 0.45], 6)
    tmap = build_tubular_map(ray, net)
    assert np.max(np.abs(tmap.u_points - tmap.anchors)) < 1e-8
    assert tmap.u_points.shape == (2, 6)


def test_tubular_map_origin(flat_ray_small):
    ray = flat_ray_small
    tmap = build_tubular_map(ray, [0j, 0.3 + 0j])
    assert tmap.u_points[0] == 0j


def test_tubular_map_radial_rings(quartic_ray, quartic):
    radii = [abs(_anchor(quartic, l)) for l in (0.1, 0.2, 0.3)]
    tmap = build_tubular_map(ray=quartic_ray,
                             anchors=polar_anchor_net(radii, 6))
    r_u = np.abs(tmap.u_points)
    assert np.max(np.std(r_u, axis=1)) < 1e-9      # circles to circles
    assert np.all(np.diff(np.mean(r_u, axis=1)) > 0)   # monotone radius


def test_check_pullback_flat(flat_ray_small):
    ray = flat_ray_small
    tmap = build_tubular_map(ray, polar_anchor_net([0.3, 0.45, 0.6], 8))
    assert check_pullback(tmap, ray) < 1e-6


def test_check_pullback_quartic(quartic_ray, quartic):
    radii = [abs(_anchor(quartic, l)) for l in (0.08, 0.16, 0.24, 0.32)]
    tmap = build_tubular_map(quartic_ray, polar_anchor_net(radii, 8))
    assert check_pullback(tmap, quartic_ray) <= 5e-2


def test_check_pullback_sampled_ray(perturbed_ray_small):
    # a general weight: the central-fiber density is fitted from the
    # slices' pole intercepts; measured 0.0587 on this net
    tmap = build_tubular_map(perturbed_ray_small,
                             polar_anchor_net([0.3, 0.4, 0.5], 8))
    dev = check_pullback(tmap, perturbed_ray_small)
    assert np.isfinite(dev) and dev <= 0.1


def test_check_pullback_single_anchor_raises(flat_ray_small):
    ray = flat_ray_small
    tmap = build_tubular_map(ray, [0.3 + 0j])
    with pytest.raises(ValueError, match="coarse"):
        check_pullback(tmap, ray)


# ---------------------------------------------------------------------------
# reference: the scalar per-leaf tracer that `trace_leaves` replaced
# ---------------------------------------------------------------------------

class _ScalarRadialReads:
    """The radial probe's slice values at one point, through the scalar
    chi call."""

    def __init__(self, probe, p):
        self.probe, self.p = probe, p

    def eval_values(self, ks, x):
        pr = self.probe
        ks = np.asarray(ks)
        s = float(np.log((x * np.conj(x)).real))
        chi = float(self.p.chi(s))
        inside = s < pr.t_star[ks]
        return np.where(inside, pr.flat[ks] - chi + pr.lam[ks] * s, 0.0)


class _ReferenceSplineProbe:
    """Bicubic splines of a window of slice fields, for the RK4 reference:
    `noise` is their ringing across the free-boundary kinks, measured on
    the zero plateau next to them; inside `resolve_radius` their log-pole
    Laplacians are not resolved."""

    def __init__(self, ray, k_window):
        from scipy.interpolate import RectBivariateSpline
        grid = ray.spatial_grid
        ax = grid.axis()
        self.k_window = list(k_window)
        self.splines = []
        self.noise = 0.0
        for k in self.k_window:
            fld = ray.results[k].deficit
            filled = np.where(fld.mask, fld.values, 0.0)
            i, j = grid.origin_index()
            if not fld.mask[i, j]:
                filled[i, j] = (filled[i - 1, j] + filled[i + 1, j]
                                + filled[i, j - 1] + filled[i, j + 1]) / 4
            sp = RectBivariateSpline(ax, ax, filled, kx=3, ky=3)
            self.splines.append(sp)
            zero = fld.mask & (fld.values == 0.0)
            near = zero & ~erode_mask(~(fld.mask & ~zero), 2)
            ci, cj = np.nonzero(near[:-1, :-1] & zero[1:, :-1]
                                & zero[:-1, 1:] & zero[1:, 1:])
            ring = max((float(np.max(np.abs(sp.ev(ax[ci] + a, ax[cj] + b))))
                        for a, b in ((0.5 * grid.h, 0.5 * grid.h),
                                     (0.5 * grid.h, 0.0),
                                     (0.0, 0.5 * grid.h))), default=0.0)
            self.noise = max(self.noise, rounding_noise(np.max(
                np.abs(fld.values[fld.mask]), initial=0.0)), ring)
        self.resolve_radius = geodesic_legendre.pole_exclusion_radius(
            float(ray.lam_grid[self.k_window[-1]]), grid.h)


class _ScalarSplineReads:
    """The reference spline probe's slice reads at one point."""

    def __init__(self, probe):
        self.splines = dict(zip(probe.k_window, probe.splines))

    def eval_values(self, ks, x):
        return np.array([self.splines[k].ev(x.real, x.imag) for k in ks],
                        dtype=float)

    def eval_grad(self, k, x):
        sp = self.splines[k]
        return 0.5 * (sp.ev(x.real, x.imag, dx=1) - 1j * sp.ev(x.real, x.imag,
                                                                dy=1))

    def eval_lap(self, k, x):
        sp = self.splines[k]
        return 0.25 * (sp.ev(x.real, x.imag, dx=2) + sp.ev(x.real, x.imag,
                                                            dy=2))


class _ScalarGridReads:
    """The grid probe's bilinear slice reads at one point."""

    def __init__(self, probe):
        self.ax, self.values = probe.ax, dict(zip(probe.k_window,
                                                  probe.values))

    def eval_values(self, ks, x):
        return np.array([float(bilinear(self.ax, self.values[k],
                                        [x.real, x.imag], 0.0))
                         for k in ks])


def _reference_rhs_factory(ray, noise, reads, k_window, depth_bins):
    p = ray.potential
    lam = ray.lam_grid[k_window]
    dl = np.diff(lam)
    mids = 0.5 * (lam[1:] + lam[:-1])
    nu = _bin_log_means(lam)
    eps = plateau_threshold(noise, dl)

    def state(x, t):
        xx = np.asarray(x)
        A = reads.eval_values(k_window, xx)
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
            if j0 == 0 or on_plateau[j0 - 1]:
                j0 += 1
                forced = True
            if j0 < jP + 1 + depth_bins:
                j0 = jP + 1 + depth_bins
                forced = True
            j = min(max(j0, 0), len(D) - 2)
        da, db = D[j] + t, D[j + 1] + t
        q_lam = (D[j + 1] - D[j]) / (mids[j + 1] - mids[j])
        if not (D[j + 1] < D[j]):
            raise LeafExit("degenerate slope curvature along the leaf",
                           location=complex(x))
        if db - da != 0:
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
                    if fp == 0:
                        break
                    root = root - f / fp
            lam_star = math.exp(root)
        else:
            lam_star = mids[j]
        lam_star = 0.0 if lam_star < lam[1] * 1e-3 else min(lam_star, lam[-1])
        return lam_star, forced, j, q_lam

    def rhs(x, t):
        lam_star, forced, j, q_lam = state(x, t)
        xx = np.asarray(x)
        W = [reads.eval_grad(k_window[j + i], xx) for i in range(3)]
        qx_a = (W[1] - W[0]) / dl[j]
        qx_b = (W[2] - W[1]) / dl[j + 1]
        w = (lam_star - mids[j]) / (mids[j + 1] - mids[j])
        q_x = (1.0 - w) * qx_a + w * qx_b
        L0 = reads.eval_lap(k_window[j], xx)
        L1 = reads.eval_lap(k_window[j + 1], xx)
        wn = (lam_star - lam[j]) / (lam[j + 1] - lam[j])
        a_lap = (1.0 - wn) * L0 + wn * L1
        phi_h = complex(p.hessian(np.asarray(x, dtype=complex))).real
        denom = q_lam * (phi_h + a_lap) - (q_x * np.conj(q_x)).real
        if not (denom < -1e-12):
            raise LeafExit("degenerate fiber metric along the leaf",
                           location=complex(x))
        return 0.5 * np.conj(q_x) / denom, lam_star, forced

    return rhs, state


def _reference_trace_leaf(ray, z1, n_steps):
    """One leaf, on a radial oracle ray in closed form with its level read
    one sample at a time, otherwise by scalar RK4 of the leaf ODE, one
    right-hand side at a time, until the leaf enters the resolve radius
    (it must not leave the resolved disc r_max first), with its chart
    limit extrapolated by the e^{-t} rate."""
    z1 = complex(z1)
    t_max = ray.t_max
    if z1 == 0:
        ts = np.linspace(0.0, t_max, 9)
        zz = np.zeros_like(ts, dtype=complex)
        return Leaf(anchor=0j, t_samples=ts, curve=zz, ambient=zz,
                    lam_leaf=0.0, h_drift=0.0, u_limit=0j, ray=ray)
    radial = ray.backend == "oracle"
    if radial:
        probe = _RadialProbe(ray)
        reads = _ScalarRadialReads(probe, ray.potential)
        k_window = list(range(len(ray.lam_grid)))
        depth = 0
    else:
        m = len(ray.lam_grid)
        k0 = int(np.searchsorted(ray.lam_grid, _anchor_level(ray, z1)))
        probe = _ReferenceSplineProbe(ray, range(max(0, k0 - 8),
                                                 min(m, k0 + 9)))
        reads = _ScalarSplineReads(probe)
        k_window = probe.k_window
        depth = min(int(math.ceil(3.0 * ray.spatial_grid.h / ray.d_lam)), 4)
        r_max = ray.spatial_grid.radius - 4.0 * ray.spatial_grid.h
    rhs, state = _reference_rhs_factory(ray, probe.noise, reads, k_window,
                                        depth)
    anchor_level, *_ = state(z1, 0.0)
    assert 0.0 < anchor_level < ray.cutoff
    if radial:   # x(t) = z1 e^{-t/2}, its level read at every sample
        ts = np.linspace(0.0, t_max, n_steps + 1)
        xs = z1 * np.exp(-0.5 * ts)
        lam_trace, forced_trace = zip(*[state(x, t)[:2] for x, t
                                        in zip(xs.tolist(), ts.tolist())])
    else:
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
            assert not abs(x) > r_max
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
    if radial:
        u_lim = z1
    elif len(ts) > 32:
        t_end = ts[-1]
        span = max(0.5, 0.1 * t_end)
        j = int(np.searchsorted(ts, t_end - span))
        zT, zP = chart[-1], chart[j]
        u_lim = zT + (zT - zP) / (math.exp(t_end - ts[j]) - 1.0)
    else:
        u_lim = chart[-1]
    return Leaf(anchor=z1, t_samples=ts, curve=chart, ambient=xs,
                lam_leaf=float(lam_leaf), h_drift=float(drift),
                u_limit=complex(u_lim), ray=ray,
                anchor_level=float(anchor_level))


LEAF_FIELDS = ("ambient", "curve", "t_samples", "lam_leaf", "h_drift",
               "u_limit", "anchor_level")


def _assert_same_leaf(leaf, ref):
    for name in LEAF_FIELDS:
        a, b = np.asarray(getattr(leaf, name)), np.asarray(getattr(ref, name))
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


@pytest.fixture(scope="module")
def radial_rays(flat_ray_small, flat, quartic_ray, quartic):
    return {"flat": (flat_ray_small, flat, (0.003, 0.7)),
            "quartic": (quartic_ray, quartic, (0.003, 0.4))}


@settings(max_examples=12, deadline=None)
@given(name=st.sampled_from(["flat", "quartic"]),
       n_steps=st.integers(64, 256),
       spots=st.lists(st.tuples(st.floats(0.0, 1.0),
                                st.floats(0.0, 2 * math.pi)),
                      min_size=1, max_size=3))
def test_batched_radial_leaves_match_scalar_reference(radial_rays, name,
                                                      n_steps, spots):
    ray, p, (lo, hi) = radial_rays[name]
    # levels log-uniform, so that some fall below the first positive slice
    anchors = [_anchor(p, lo * (hi / lo) ** u) * complex(math.cos(a),
                                                         math.sin(a))
               for u, a in spots]
    for leaf, z1 in zip(trace_leaves(ray, anchors, n_steps=n_steps),
                        anchors):
        _assert_same_leaf(leaf, _reference_trace_leaf(ray, z1, n_steps))


def test_default_radial_leaf_takes_the_ray_t_grid(radial_rays):
    """By default a radial leaf is sampled at the ray's own t-grid."""
    for ray, p, _ in radial_rays.values():
        leaf = trace_leaves(ray, [_anchor(p, 0.1) * complex(0.6, 0.8)])[0]
        assert leaf.t_samples.tobytes() == ray.t_grid.tobytes()


def test_radial_leaf_anchored_on_the_free_boundary_keeps_its_level():
    """An anchor sits on the free boundary of its slice, where the t = 0
    bracket is forced and the leaf equation's rate reads -0.276, not
    -0.5; an RK4 step from there leaves this leaf's level by 1.9e-3 and
    its central-fiber point 2.5e-3 from the anchor."""
    p = Potential(1, [Term("polyrad", 1.0, (1,)),
                      Term("polyrad", 0.546265, (2,))])
    ray = assemble_geodesic(
        radial_envelopes(p, lam_nodes(0.36, 24), build_grid(1, 128, 1.0)), 0.36)
    z1 = level_anchor(0.317578, ray.results)
    leaf = trace_leaves(ray, [z1])[0]
    assert abs(leaf.lam_leaf - 0.317578) < 1e-4
    assert abs(leaf.u_limit - z1) <= 1e-12 * abs(z1)


def _equilibrium_anchor(results, lam, angle):
    k = int(np.argmin([abs(res.lam - lam) for res in results]))
    poly = extract_equilibrium(results[k])
    i = int(np.argmin(np.abs(np.angle(np.exp(
        1j * (np.arctan2(poly[:, 1], poly[:, 0]) - angle))))))
    return poly[i, 0] + 1j * poly[i, 1]


@pytest.fixture(scope="module")
def perturbed_anchors(perturbed_slices_small):
    # three slice windows, one of them shared by two anchors
    return [_equilibrium_anchor(perturbed_slices_small, lam, angle)
            for lam, angle in ((0.1, 0.0), (0.2, 0.0), (0.3, 2.0),
                               (0.2, 3.0))]


def test_level_anchor_on_a_general_weight(perturbed_slices_small,
                                         perturbed_anchors):
    """Off radial symmetry the anchor is the boundary point at angle
    nearest 0 of the nearest slice."""
    for lam, z in zip((0.1, 0.2), perturbed_anchors):
        assert level_anchor(lam, perturbed_slices_small) == z


def test_level_anchor_reads_the_stored_boundary(perturbed_slices_small):
    """On every lam > 0 slice the anchor off the stored boundary is
    bitwise the one read off a fresh `extract_equilibrium`; the lam = 0
    slice has no boundary, and the error names its weight."""
    results = perturbed_slices_small
    for res in results[1:]:
        poly = extract_equilibrium(res)
        j = int(np.argmin(np.abs(np.arctan2(poly[:, 1], poly[:, 0]))))
        assert level_anchor(res.lam, results) == \
            complex(poly[j, 0], poly[j, 1])
    with pytest.raises(ValueError, match="lam = 0,"):
        level_anchor(0.001, results)


@pytest.fixture(scope="module")
def complex_monomial_family():
    # a weight whose Hessian has complex monomials, which scalar and vector
    # complex products round differently
    p = Potential(1, [Term("polyrad", 1.0, (1,)),
                      Term("perturb", 0.08 + 0.05j, (2, 1))])
    return p, assemble_geodesic(grid_envelopes(
        p, lam_nodes(0.36, 12), build_grid(1, 64, 1.0), tol=1e-9), 0.36)


@pytest.mark.parametrize("case", ["perturbed", "complex"])
def test_batched_rhs_matches_scalar_rhs(case, perturbed_ray_small, perturbed,
                                        complex_monomial_family):
    """Level reads (`state`) at scattered points around a leaf level, one
    batch against the scalar reference point by point (points where the
    reference finds no bracket, or its slope root overflows, are left
    out)."""
    p, ray = (perturbed, perturbed_ray_small) if case == "perturbed" \
        else complex_monomial_family
    probe = _GridProbe(ray, range(0, 9))
    reads, depth, r_a = _ScalarGridReads(probe), min(int(math.ceil(
        (3.0 + math.sqrt(2.0)) * ray.spatial_grid.h / ray.d_lam)), 4), 0.4
    rng = np.random.default_rng(3)
    x = r_a * rng.uniform(0.7, 1.2, 300) * np.exp(2j * math.pi
                                                   * rng.random(300))
    t = 0.25 * ray.t_max
    ref = _reference_rhs_factory(ray, probe.noise, reads, probe.k_window,
                                 depth)[1]
    expected = {}
    for xi in x:
        try:
            expected[xi] = ref(xi, t)
        except (LeafExit, OverflowError):
            pass
    assert len(expected) >= 100
    pts = np.array(list(expected), dtype=complex)
    lam, forced = _level_reader(ray, probe)(pts, t, pts)
    for i, xi in enumerate(pts):
        assert expected[xi][:2] == (lam[i], forced[i])


@pytest.mark.parametrize("case", ["quartic", "perturbed"])
def test_leaves_independent_of_anchor_order(case, quartic_ray, quartic,
                                            perturbed_ray_small, perturbed,
                                            perturbed_anchors):
    if case == "quartic":
        ray, p = quartic_ray, quartic
        anchors = [_anchor(quartic, lam) * np.exp(1j * a)
                   for lam, a in ((0.1, 0.0), (0.2, 1.0), (0.3, 2.0),
                                  (0.35, 3.0))]
    else:
        ray, p, anchors = perturbed_ray_small, perturbed, perturbed_anchors
    order = list(range(len(anchors)))
    random.Random(7).shuffle(order)
    leaves = trace_leaves(ray, anchors, n_steps=96)
    shuffled = trace_leaves(ray, [anchors[i] for i in order], n_steps=96)
    for leaf, i in zip(shuffled, order):
        _assert_same_leaf(leaf, leaves[i])


def test_net_with_origin_traces_origin_trivially(quartic_ray, quartic):
    a, b = _anchor(quartic, 0.15), _anchor(quartic, 0.3) * 1j
    leaves = trace_leaves(quartic_ray, np.array([[0j, a], [b, 0j]]),
                          n_steps=64)
    assert [leaf.anchor for leaf in leaves] == [0j, a, b, 0j]
    for leaf in (leaves[0], leaves[3]):
        _assert_same_leaf(leaf, _reference_trace_leaf(quartic_ray, 0j, 64))
        assert leaf.u_limit == 0j and leaf.lam_leaf == 0.0
    _assert_same_leaf(leaves[1], _reference_trace_leaf(quartic_ray, a, 64))
    _assert_same_leaf(leaves[2], _reference_trace_leaf(quartic_ray, b, 64))


def test_outside_anchor_is_named(quartic_ray, quartic):
    import dataclasses
    with pytest.raises(ValueError,
                       match=r"outside \(0, c\).*anchor 0\.95\+0j"):
        trace_leaves(quartic_ray, [_anchor(quartic, 0.2), 0.95 + 0j])
    # a level above the cutoff is reported with its value
    low_c = dataclasses.replace(quartic_ray, cutoff=0.25)
    with pytest.raises(ValueError, match=r"anchor Hamiltonian 0\.3 outside "
                       r"\(0, c\): leaf of anchor 0\.\d+\+0j"):
        trace_leaves(low_c, [_anchor(quartic, 0.2), _anchor(quartic, 0.3)],
                     n_steps=16)


def test_tubular_map_checks_given_leaves(flat_ray_small):
    ray = flat_ray_small
    net = polar_anchor_net([0.3, 0.45], 3)
    leaves = trace_leaves(ray, net, n_steps=64)
    tmap = build_tubular_map(ray, net, leaves=leaves)
    assert tmap.u_points.ravel().tolist() == [leaf.u_limit for leaf in leaves]
    for wrong in (leaves[::-1], leaves[:-1]):
        with pytest.raises(ValueError, match="not those of the anchors"):
            build_tubular_map(ray, net, leaves=wrong)


@pytest.fixture(scope="module")
def flat_ray_rim(flat):
    # a disc of radius 0.8 with c = 0.8: the top slices have no interior
    # coincidence node, and the solver says so
    grid = build_grid(1, 64, 0.8)
    with pytest.warns(UserWarning, match="empty coincidence set"):
        results = grid_envelopes(flat, lam_nodes(0.8, 16), grid, tol=1e-9)
    return assemble_geodesic(results, 0.8)


def test_leaf_on_a_domain_reaching_the_rim_exits_naming_its_lam():
    """The slices bracketing the level of the anchor at 0.74 are those at
    lam 0.12 and 0.16, and the domain at 0.16 covers the grid disc: no
    map, and the exit names that lam and the anchor.  The anchor at 0.65
    brackets between 0.08 and 0.12 and is traced."""
    p = Potential(1, [Term("polyrad", 0.25, (1,)),
                      Term("reharm", 0.05, (3,))])
    with pytest.warns(UserWarning, match="empty coincidence set"):
        results = grid_envelopes(p, lam_nodes(0.24, 6),
                                 build_grid(1, 128, 0.8), tol=1e-9)
    ray = assemble_geodesic(results, 0.24)
    inside, past = 0.65 * np.exp(0.3j), 0.74 * np.exp(0.3j)
    with pytest.raises(LeafExit, match=r"the domain at lam = 0\.16 is not "
                       "one closed curve around 0") as exc:
        trace_leaves(ray, [inside, past], n_steps=64)
    assert exc.value.anchor == complex(past)
    assert trace_leaves(ray, [inside], n_steps=64)[0].anchor_level < 0.12


def test_smooth_hamiltonian_rim_roots_do_not_overflow(flat_ray_rim,
                                                     monkeypatch):
    # next to the rim some secant roots in ln(lam) pass ln(float max); they
    # are capped before np.exp, so no overflow warning, and every value is
    # bitwise what the uncapped exp gave (inf, clipped to the bin's edge)
    flat_ray_rim._smooth_h_cache = None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = smooth_hamiltonian(flat_ray_rim).values
    flat_ray_rim._smooth_h_cache = None
    monkeypatch.setattr(geodesic_legendre, "_LOG_MAX", np.inf)
    with np.errstate(over="ignore"):
        want = smooth_hamiltonian(flat_ray_rim).values
    flat_ray_rim._smooth_h_cache = None
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("anchor", [0.79 * np.exp(0.3j),
                                    0.795 * np.exp(0.6j)])
def test_rim_anchor_without_slope_root_is_outside(flat_ray_rim, anchor):
    # next to the rim the slope root in ln(lam) can overflow math.exp; at
    # t = 0 that is an anchor level the ray does not hold
    with pytest.raises(ValueError, match=r"outside \(0, c\).*leaf of anchor"):
        trace_leaves(flat_ray_rim, [anchor], n_steps=64)


# ---------------------------------------------------------------------------
# reference: the per-angle orbit read-out that `leaf_boundary` replaced
# ---------------------------------------------------------------------------

def _reference_orbit_radii(leaf, h0=None, n_points=2048):
    ray = leaf.ray
    h0 = smooth_hamiltonian(ray) if h0 is None else h0
    grid = ray.spatial_grid
    ax = grid.axis()
    vals = np.where(h0.mask, h0.values, ray.cutoff)
    sm = vals.copy()
    sm[1:-1, 1:-1] = 0.5 * vals[1:-1, 1:-1] + 0.125 * (
        vals[2:, 1:-1] + vals[:-2, 1:-1] + vals[1:-1, 2:] + vals[1:-1, :-2])
    vals = sm
    interp = RegularGridInterpolator((ax, ax), vals, method="linear",
                                     bounds_error=False, fill_value=ray.cutoff)
    th = np.linspace(0.0, 2.0 * math.pi, n_points, endpoint=False)
    rs = np.linspace(4.0 * grid.h, grid.radius - 6.0 * grid.h, 512)
    r_anchor = abs(leaf.anchor)
    radii = np.empty(n_points)
    for i, a in enumerate(th):
        pts = np.stack([rs * math.cos(a), rs * math.sin(a)], axis=1)
        f = interp(pts) - leaf.lam_leaf
        idx = np.nonzero(f[:-1] * f[1:] <= 0)[0]
        if idx.size == 0:
            raise LeafExit("no closed orbit at the leaf level: boundary "
                           "reconstruction failed")
        cross = rs[idx] - f[idx] * (rs[idx + 1] - rs[idx]) \
            / (f[idx + 1] - f[idx])
        radii[i] = cross[np.argmin(np.abs(cross - r_anchor))]
    k = np.ones(5) / 5.0
    radii = np.convolve(np.concatenate([radii[-4:], radii, radii[:4]]),
                        k, "same")[4:-4]
    return np.stack([radii * np.cos(th), radii * np.sin(th)], axis=1)


@pytest.mark.parametrize("case", ["perturbed-grid"])
def test_orbit_readout_matches_per_angle_loop(case, perturbed_ray_small,
                                              perturbed_anchors):
    leaf = trace_leaves(perturbed_ray_small, [perturbed_anchors[1]],
                        n_steps=64)[0]
    poly = leaf_boundary(leaf)
    ref = _reference_orbit_radii(leaf)
    assert poly.shape == ref.shape and poly.tobytes() == ref.tobytes()


def test_orbit_readout_without_crossing_raises(perturbed_ray_small):
    import dataclasses
    leaf = trace_leaves(perturbed_ray_small, [0.45 + 0j], n_steps=64)[0]
    above = dataclasses.replace(leaf, lam_leaf=10.0)
    with pytest.raises(LeafExit, match="no closed orbit"):
        _reference_orbit_radii(above)
    with pytest.raises(LeafExit, match="no closed orbit") as exc:
        leaf_boundary(above)
    assert exc.value.anchor == leaf.anchor


def test_orbit_readout_with_several_crossings_per_ray(perturbed_ray_small,
                                                      monkeypatch):
    # a t = 0 Hamiltonian that crosses the leaf level every 1/12 in radius,
    # so that every ray picks the crossing nearest the anchor radius
    import dataclasses
    from types import SimpleNamespace
    from pshlab import foliation_tube
    leaf = dataclasses.replace(trace_leaves(perturbed_ray_small, [0.45 + 0j],
                                            n_steps=16)[0], lam_leaf=0.2)
    grid = perturbed_ray_small.spatial_grid
    z = grid.nodes()
    h0 = SimpleNamespace(values=0.2 + 0.05 * np.sin(
        12 * math.pi * np.abs(z) + 0.3 * np.cos(np.angle(z))),
        mask=grid.inside_mask())
    monkeypatch.setattr(foliation_tube, "smooth_hamiltonian",
                        lambda ray: h0)
    poly = leaf_boundary(leaf)
    ref = _reference_orbit_radii(leaf, h0)
    assert poly.shape == ref.shape and poly.tobytes() == ref.tobytes()
    assert np.ptp(np.hypot(*poly.T)) < 0.05


def test_a_radial_weight_takes_the_closed_forms_on_a_grid_ray(flat):
    """The weight decides, not the backend: on a grid ray of the flat
    weight the anchor is sqrt(rho*), the leaf z1 e^{-t/2} with u = z1 and
    the orbit the exact circle."""
    ray = assemble_geodesic(grid_envelopes(
        flat, lam_nodes(0.8, 16), build_grid(1, 64, 1.0), tol=1e-9), 0.8)
    assert ray.backend == "grid-active-set"
    z1 = level_anchor(0.3, ray.results)
    assert z1 == complex(math.sqrt(flat.level_rho(0.3)))
    leaf = trace_leaves(ray, [z1], n_steps=64)[0]
    ts = np.linspace(0.0, ray.t_max, 65)
    assert leaf.ambient.tobytes() == (z1 * np.exp(-0.5 * ts)).tobytes()
    assert leaf.u_limit == z1
    th = np.linspace(0.0, 2 * math.pi, 2048, endpoint=False)
    circle = np.stack([z1.real * np.cos(th), z1.real * np.sin(th)], axis=1)
    assert leaf_boundary(leaf).tobytes() == circle.tobytes()


# ---------------------------------------------------------------------------
# map leaves against the exact leaves of disc domains and the RK4 leaves
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def perturbed_ray_256(perturbed):
    return assemble_geodesic(grid_envelopes(
        perturbed, lam_nodes(0.36, 72), build_grid(1, 256, 1.0), tol=1e-9),
        0.36)


def test_map_leaves_of_disc_domains_are_the_exact_leaves(perturbed_ray_256):
    """The builtin perturbed weight's equilibrium sets are the discs
    |z|^2 < lam, so the leaf of z1 is z1 e^{-t/2} and u = z1.  The map
    leaves of the three level anchors and of a 5 x 8 net keep within 3e-4
    of it over [0, t_max] (measured 1.7e-4), and u within 5e-4 of z1
    (measured 2.6e-4): the polylines' own error, never u = z1 bitwise."""
    ray = perturbed_ray_256
    anchors = [level_anchor(lam, ray.results) for lam in (0.1, 0.2, 0.3)]
    net = polar_anchor_net(np.linspace(0.15, 0.55, 5), 8)
    for leaf in trace_leaves(ray, anchors + list(net.ravel())):
        assert leaf.t_samples[-1] == ray.t_max
        exact = leaf.anchor * np.exp(-0.5 * leaf.t_samples)
        assert np.max(np.abs(leaf.ambient - exact)) <= 3e-4
        assert 0 < abs(leaf.u_limit - leaf.anchor) <= 5e-4


def test_map_leaf_follows_the_rk4_leaf_on_non_disc_domains():
    """On |z|^2 + 0.15 Re(z^2)|z|^2, whose sets are not discs, the map leaf
    keeps to the RK4 leaf of the leaf ODE over the range the RK4 leaf
    traces (measured 1.6e-4 and 7.7e-4), while the RK4 leaf itself is
    8.2e-4 and 2.0e-3 away from z1 e^{-t/2}."""
    p = Potential(1, [Term("polyrad", 1.0, (1,)),
                      Term("perturb", 0.15, (2, 1))])
    ray = assemble_geodesic(grid_envelopes(
        p, lam_nodes(0.36, 72), build_grid(1, 256, 1.0), tol=1e-9), 0.36)
    for lam, bound in ((0.1, 2e-4), (0.2, 8e-4)):
        z1 = level_anchor(lam, ray.results)
        ref = _reference_trace_leaf(ray, z1, 1024)
        leaf = trace_leaves(ray, [z1], n_steps=1024)[0]
        m = len(ref.t_samples)
        assert np.max(np.abs(leaf.t_samples[:m] - ref.t_samples)) < 1e-12
        assert np.max(np.abs(leaf.ambient[:m] - ref.ambient)) <= bound
        assert np.max(np.abs(ref.ambient - z1 * np.exp(
            -0.5 * ref.t_samples))) > 2 * bound


# ---------------------------------------------------------------------------
# the degeneracy tests of the level read, on a family read as given
# ---------------------------------------------------------------------------

class _FixedProbe:
    """Every point reads the slice values A on the lam grid 0, 1/4 .. 1."""
    noise, depth_bins, k_window = 0.0, 0, list(range(5))

    def __init__(self, A):
        self.A = np.asarray(A, dtype=float)

    def read(self, x):
        return np.tile(self.A, (len(x), 1))


def _read_level(A, t):
    from types import SimpleNamespace
    state = _level_reader(SimpleNamespace(lam_grid=np.arange(5) / 4.0),
                          _FixedProbe(A))
    x = np.array([0.5 + 0j])
    return state(x, t, x)


def test_level_read_exits_where_the_slope_differences_do_not_fall():
    """An affine family (slope differences -1, -1, -1, -1) has no crossing
    to solve for and exits; one ulp of fall in the bracket (D_2 = -1 -
    2^-51) is read, and its root, 2^51 bin widths below the bracket,
    reads 0: no level the slices hold."""
    with pytest.raises(LeafExit, match="degenerate slope curvature"):
        _read_level([0.0, -0.25, -0.5, -0.75, -1.0], 0.0)
    lam, forced = _read_level([0.0, -0.25, -0.5, -0.75 - 2.0 ** -53, -1.0],
                              0.0)
    assert lam.tolist() == [0.0] and forced.tolist() == [True]


def test_level_read_takes_the_bin_midpoint_where_t_absorbs_the_rise():
    """With no crossing the bracket is the top one; at t = 1024 the fall
    of 2^-50 between its differences (-1, -1 - 2^-50) rounds away in
    d + t: the secant has no root, and the midpoint of its bin stands
    in."""
    lam, forced = _read_level([0.0, -0.25, -0.5, -0.75, -1.0 - 2.0 ** -52],
                              1024.0)
    assert lam.tolist() == [0.625] and forced.tolist() == [False]
