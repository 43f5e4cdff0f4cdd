"""Foliation discs and the tubular map.  The batched leaf tracer is
checked bitwise against scalar per-leaf references (RK4 on sampled rays,
the closed form on radial oracle rays), and the vectorized orbit
read-out of `leaf_boundary` against its per-angle loop; the references
are kept here."""

import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import RegularGridInterpolator
from scipy.optimize import brentq

from pshlab import geodesic_legendre
from pshlab.field_grid import build_grid
from pshlab.potential_kit import Potential, Term
from pshlab.envelope_solver import (extract_equilibrium, grid_envelope,
                                    radial_envelope)
from pshlab.geodesic_legendre import (_bin_log_means, assemble_geodesic,
                                      grid_slices, oracle_slices,
                                      plateau_threshold, smooth_hamiltonian)
from pshlab.foliation_tube import (LEAF_WINDOW, Leaf, LeafExit,
                                   _RadialProbe, _SplineProbe, _anchor_level,
                                   _rhs_factory,
                                   build_tubular_map, check_pullback,
                                   disc_area, leaf_boundary, level_anchor,
                                   polar_anchor_net, trace_leaf, trace_leaves)


@pytest.fixture(scope="module")
def quartic_ray(quartic):
    grid = build_grid(1, 192, 1.0)
    return assemble_geodesic(oracle_slices(quartic, 0.45, 36, grid), c=0.45)


def _anchor(quartic, lam):
    t_s = brentq(lambda t: quartic.chi_prime(t) - lam, -80.0, 0.0)
    return math.exp(0.5 * t_s) + 0j


def test_probe_level_and_envelope_circle_are_one_float(quartic):
    """The radial probe's t*, the oracle's circle and the leaf anchor all
    read the same rho* = level_rho(lam)."""
    lams = (0.05, 0.2, 0.3)
    probe = _RadialProbe(quartic, lams)
    for k, lam in enumerate(lams):
        rho = quartic.level_rho(lam)
        bd = radial_envelope(quartic, lam, build_grid(1, 64, 1.0)).boundary
        assert probe.t_star[k] == math.log(rho)
        assert bd[0, 0] == math.sqrt(rho) == level_anchor(quartic, lam, None)
        assert len(bd) % 4 == 0


def test_flat_leaves_constant(flat_ray_small, flat):
    _, ray = flat_ray_small
    leaf = trace_leaf(ray, flat, 0.35 + 0.2j, n_steps=512)
    assert np.max(np.abs(leaf.curve - leaf.anchor)) < 1e-9
    assert abs(leaf.u_limit - leaf.anchor) < 1e-9


def test_leaf_through_origin_trivial(flat_ray_small, flat):
    _, ray = flat_ray_small
    leaf = trace_leaf(ray, flat, 0j)
    assert np.all(leaf.curve == 0)
    assert leaf.lam_leaf == 0.0
    assert disc_area(leaf, flat) == 0.0


def test_quartic_leaf_constant_chart_and_drift(quartic_ray, quartic):
    leaf = trace_leaf(quartic_ray, quartic, _anchor(quartic, 0.3),
                      n_steps=1024)
    assert np.max(np.abs(leaf.curve - leaf.anchor)) < 1e-8
    assert leaf.h_drift / leaf.lam_leaf < 1e-3
    assert abs(leaf.lam_leaf - 0.3) < 5e-3


def test_anchor_outside_ray_raises(quartic_ray, quartic):
    with pytest.raises(ValueError, match="outside"):
        trace_leaf(quartic_ray, quartic, 0.95 + 0j)


def test_radial_ambient_modulus_decreases(quartic_ray, quartic):
    leaf = trace_leaf(quartic_ray, quartic, _anchor(quartic, 0.2),
                      n_steps=1024)
    r = np.abs(leaf.ambient)
    assert np.all(np.diff(r) < 0)


def test_disc_area_radial(quartic_ray, quartic):
    leaf = trace_leaf(quartic_ray, quartic, _anchor(quartic, 0.25),
                      n_steps=1024)
    area = disc_area(leaf, quartic)
    assert abs(area - 0.25) < 5e-3
    assert abs(area - leaf.lam_leaf) < 1e-3


def test_leaf_boundary_on_equilibrium(quartic_ray, quartic):
    grid = quartic_ray.spatial_grid
    leaf = trace_leaf(quartic_ray, quartic, _anchor(quartic, 0.2),
                      n_steps=1024)
    bd = leaf_boundary(leaf, quartic)
    from pshlab.envelope_solver import radial_envelope
    res = radial_envelope(quartic, leaf.lam_leaf, grid)
    poly = res.boundary
    worst = 0.0
    for pt in bd[::32]:
        worst = max(worst, float(np.min(np.hypot(poly[:, 0] - pt[0],
                                                 poly[:, 1] - pt[1]))))
    assert worst <= 2.0 * grid.h


def test_leaves_disjoint(quartic_ray, quartic):
    leaves = [trace_leaf(quartic_ray, quartic, _anchor(quartic, lam) * ph,
                         n_steps=512)
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
    _, poly = extract_equilibrium(res)
    i = int(np.argmin(np.abs(np.arctan2(poly[:, 1], poly[:, 0]))))
    anchor = poly[i, 0] + 1j * poly[i, 1]
    leaf = trace_leaf(perturbed_ray_small, perturbed, anchor, n_steps=512)
    area = disc_area(leaf, perturbed)
    # coarse ray (128^2, 24 slices): machinery-level tolerances
    assert abs(area - leaf.lam_leaf) < 2e-2
    assert leaf.h_drift / leaf.lam_leaf < 2e-2


def test_perturbed_leaf_through_plateau_ringing(perturbed):
    # the spline slices ring across their free-boundary kinks; the leaf
    # tracer must read that ringing as plateau, not as slope curvature
    grid = build_grid(1, 192, 1.0)
    slices = grid_slices(perturbed, 0.36, 36, grid, tol=1e-9)
    ray = assemble_geodesic(slices, c=0.36)
    k = int(np.argmin([abs(lam - 0.3) for lam, _ in slices]))
    _, poly = extract_equilibrium(slices[k][1])
    i = int(np.argmin(np.abs(np.arctan2(poly[:, 1], poly[:, 0]))))
    leaf = trace_leaf(ray, perturbed, poly[i, 0] + 1j * poly[i, 1],
                      n_steps=512)
    area = disc_area(leaf, perturbed)
    assert abs(area - leaf.lam_leaf) <= 1e-2
    assert leaf.h_drift / leaf.lam_leaf <= 1e-3


def test_tubular_map_flat_identity(flat_ray_small, flat):
    _, ray = flat_ray_small
    net = polar_anchor_net([0.3, 0.45], 6)
    tmap = build_tubular_map(ray, flat, net)
    assert np.max(np.abs(tmap.u_points - tmap.anchors)) < 1e-8
    assert tmap.u_points.shape == (2, 6)


def test_tubular_map_origin(flat_ray_small, flat):
    _, ray = flat_ray_small
    tmap = build_tubular_map(ray, flat, [0j, 0.3 + 0j])
    assert tmap.u_points[0] == 0j


def test_tubular_map_radial_rings(quartic_ray, quartic):
    radii = [abs(_anchor(quartic, l)) for l in (0.1, 0.2, 0.3)]
    tmap = build_tubular_map(ray=quartic_ray, p=quartic,
                             anchors=polar_anchor_net(radii, 6))
    r_u = np.abs(tmap.u_points)
    assert np.max(np.std(r_u, axis=1)) < 1e-9      # circles to circles
    assert np.all(np.diff(np.mean(r_u, axis=1)) > 0)   # monotone radius


def test_check_pullback_flat(flat_ray_small, flat):
    _, ray = flat_ray_small
    tmap = build_tubular_map(ray, flat, polar_anchor_net([0.3, 0.45, 0.6], 8))
    assert check_pullback(tmap, ray, flat) < 1e-6


def test_check_pullback_quartic(quartic_ray, quartic):
    radii = [abs(_anchor(quartic, l)) for l in (0.08, 0.16, 0.24, 0.32)]
    tmap = build_tubular_map(quartic_ray, quartic, polar_anchor_net(radii, 8))
    assert check_pullback(tmap, quartic_ray, quartic) <= 5e-2


def test_check_pullback_sampled_ray(perturbed_ray_small, perturbed):
    # a general weight: the central-fiber density is fitted from the
    # slices' pole intercepts; measured 0.0587 on this net
    tmap = build_tubular_map(perturbed_ray_small, perturbed,
                             polar_anchor_net([0.3, 0.4, 0.5], 8))
    dev = check_pullback(tmap, perturbed_ray_small, perturbed)
    assert np.isfinite(dev) and dev <= 0.1


def test_check_pullback_single_anchor_raises(flat_ray_small, flat):
    _, ray = flat_ray_small
    tmap = build_tubular_map(ray, flat, [0.3 + 0j])
    with pytest.raises(ValueError, match="coarse"):
        check_pullback(tmap, ray, flat)


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


class _ScalarSplineReads:
    """The spline probe's slice reads at one point."""

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


def _reference_rhs_factory(ray, p, noise, reads, k_window, depth_bins):
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
        if not (q_lam < -1e-12):
            raise LeafExit("degenerate slope curvature along the leaf",
                           location=complex(x))
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


def _reference_trace_leaf(ray, p, z1, n_steps):
    """One leaf, on a radial oracle ray in closed form with its level read
    one sample at a time, otherwise by scalar RK4, one right-hand side at
    a time."""
    z1 = complex(z1)
    t_max = ray.t_max
    if z1 == 0:
        ts = np.linspace(0.0, t_max, 9)
        zz = np.zeros_like(ts, dtype=complex)
        return Leaf(anchor=0j, t_samples=ts, curve=zz, ambient=zz,
                    lam_leaf=0.0, h_drift=0.0, u_limit=0j, ray=ray)
    radial = p.symmetry == "radial" and ray.backend.startswith("oracle")
    if radial:
        probe = _RadialProbe(p, ray.lam_grid)
        reads = _ScalarRadialReads(probe, p)
        k_window = list(range(len(ray.lam_grid)))
        depth = 0
    else:
        m = len(ray.lam_grid)
        k0 = int(np.searchsorted(ray.lam_grid, _anchor_level(ray, z1)))
        probe = _SplineProbe(ray, range(max(0, k0 - 8), min(m, k0 + 9)))
        reads = _ScalarSplineReads(probe)
        k_window = probe.k_window
        depth = min(int(math.ceil(3.0 * ray.spatial_grid.h / ray.d_lam)), 4)
    rhs, state = _reference_rhs_factory(ray, p, probe.noise, reads, k_window,
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
            assert not abs(x) > probe.r_max
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
    if len(ts) > 32:
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
    return {"flat": (flat_ray_small[1], flat, (0.003, 0.7)),
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
    for leaf, z1 in zip(trace_leaves(ray, p, anchors, n_steps=n_steps),
                        anchors):
        _assert_same_leaf(leaf, _reference_trace_leaf(ray, p, z1, n_steps))


def test_default_radial_leaf_takes_the_ray_t_grid(radial_rays):
    """By default a radial leaf is sampled at the ray's own t-grid."""
    for ray, p, _ in radial_rays.values():
        leaf = trace_leaf(ray, p, _anchor(p, 0.1) * complex(0.6, 0.8))
        assert leaf.t_samples.tobytes() == ray.t_grid.tobytes()


def test_radial_leaf_anchored_on_the_free_boundary_keeps_its_level():
    """An anchor sits on the free boundary of its slice, where the t = 0
    bracket is forced and the leaf equation's rate reads -0.276, not
    -0.5; an RK4 step from there leaves this leaf's level by 1.9e-3 and
    its central-fiber point 2.5e-3 from the anchor."""
    p = Potential(1, [Term("polyrad", 1.0, (1,)),
                      Term("polyrad", 0.546265, (2,))])
    slices = oracle_slices(p, 0.36, 24, build_grid(1, 128, 1.0))
    ray = assemble_geodesic(slices, c=0.36)
    z1 = level_anchor(p, 0.317578, slices)
    leaf = trace_leaf(ray, p, z1)
    assert abs(leaf.lam_leaf - 0.317578) < 1e-4
    assert abs(leaf.u_limit - z1) <= 1e-12 * abs(z1)


def test_default_sampled_leaf_takes_the_sampled_steps(
        perturbed_ray_small, perturbed, perturbed_anchors):
    """A leaf on a sampled ray keeps SAMPLED_STEPS = 2048 by default."""
    z1 = perturbed_anchors[1]
    _assert_same_leaf(trace_leaf(perturbed_ray_small, perturbed, z1),
                      trace_leaf(perturbed_ray_small, perturbed, z1,
                                 n_steps=2048))


def _equilibrium_anchor(slices, lam, angle):
    k = int(np.argmin([abs(l - lam) for l, _ in slices]))
    _, poly = extract_equilibrium(slices[k][1])
    i = int(np.argmin(np.abs(np.angle(np.exp(
        1j * (np.arctan2(poly[:, 1], poly[:, 0]) - angle))))))
    return poly[i, 0] + 1j * poly[i, 1]


@pytest.fixture(scope="module")
def perturbed_anchors(perturbed_slices_small):
    # three slice windows, one of them shared by two anchors
    return [_equilibrium_anchor(perturbed_slices_small, lam, angle)
            for lam, angle in ((0.1, 0.0), (0.2, 0.0), (0.3, 2.0),
                               (0.2, 3.0))]


def test_level_anchor_on_a_general_weight(perturbed_slices_small, perturbed,
                                         perturbed_anchors):
    """Off radial symmetry the anchor is the boundary point at angle
    nearest 0 of the nearest slice."""
    for lam, z in zip((0.1, 0.2), perturbed_anchors):
        assert level_anchor(perturbed, lam, perturbed_slices_small) == z


def test_batched_perturbed_leaves_match_scalar_reference(
        perturbed_ray_small, perturbed, perturbed_anchors):
    ray = perturbed_ray_small
    m = len(ray.lam_grid)
    levels = [int(np.searchsorted(ray.lam_grid, _anchor_level(ray, z)))
              for z in perturbed_anchors]
    windows = {(max(0, k - LEAF_WINDOW), min(m, k + LEAF_WINDOW + 1))
               for k in levels}
    assert len(windows) == 3
    leaves = trace_leaves(ray, perturbed, perturbed_anchors, n_steps=128)
    # each leaf stops on its own at the resolution horizon
    assert len({len(leaf.t_samples) for leaf in leaves}) > 1
    assert all(len(leaf.t_samples) < 129 for leaf in leaves)
    for leaf, z1 in zip(leaves, perturbed_anchors):
        _assert_same_leaf(leaf, _reference_trace_leaf(ray, perturbed, z1, 128))


@pytest.fixture(scope="module")
def complex_monomial_family():
    # a weight whose Hessian has complex monomials, which scalar and vector
    # complex products round differently
    p = Potential(1, [Term("polyrad", 1.0, (1,)),
                      Term("perturb", 0.08 + 0.05j, (2, 1))])
    slices = grid_slices(p, 0.36, 12, build_grid(1, 64, 1.0), tol=1e-9)
    return p, slices, assemble_geodesic(slices, c=0.36)


def test_complex_monomial_weight_leaves_match_scalar_reference(
        complex_monomial_family):
    p, slices, ray = complex_monomial_family
    anchors = [_equilibrium_anchor(slices, lam, angle)
               for lam, angle in ((0.15, 0.5), (0.2, 2.5), (0.15, 4.0))]
    for leaf, z1 in zip(trace_leaves(ray, p, anchors, n_steps=64), anchors):
        _assert_same_leaf(leaf, _reference_trace_leaf(ray, p, z1, 64))


@pytest.mark.parametrize("case", ["perturbed", "complex"])
def test_batched_rhs_matches_scalar_rhs(case, perturbed_ray_small, perturbed,
                                        complex_monomial_family):
    """Right-hand sides at scattered points around a leaf level, one batch
    against the scalar reference point by point (points where the
    reference finds no bracket, or its slope root overflows, are left
    out)."""
    p, ray = (perturbed, perturbed_ray_small) if case == "perturbed" \
        else complex_monomial_family[::2]
    probe = _SplineProbe(ray, range(0, 9))
    reads, depth, r_a = _ScalarSplineReads(probe), min(int(math.ceil(
        3.0 * ray.spatial_grid.h / ray.d_lam)), 4), 0.4
    rng = np.random.default_rng(3)
    x = r_a * rng.uniform(0.7, 1.2, 300) * np.exp(2j * math.pi
                                                   * rng.random(300))
    t = 0.25 * ray.t_max
    ref = _reference_rhs_factory(ray, p, probe.noise, reads, probe.k_window,
                                 depth)[0]
    expected = {}
    for xi in x:
        try:
            expected[xi] = ref(xi, t)
        except (LeafExit, OverflowError):
            pass
    assert len(expected) >= 100
    pts = np.array(list(expected), dtype=complex)
    dx, lam, forced = _rhs_factory(ray, p, probe)[0](pts, t, pts)
    for i, xi in enumerate(pts):
        rdx, rlam, rforced = expected[xi]
        assert np.array([rdx], complex).tobytes() == dx[i:i + 1].tobytes()
        assert (rlam, rforced) == (lam[i], forced[i])


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
    leaves = trace_leaves(ray, p, anchors, n_steps=96)
    shuffled = trace_leaves(ray, p, [anchors[i] for i in order], n_steps=96)
    for leaf, i in zip(shuffled, order):
        _assert_same_leaf(leaf, leaves[i])


def test_net_with_origin_traces_origin_trivially(quartic_ray, quartic):
    a, b = _anchor(quartic, 0.15), _anchor(quartic, 0.3) * 1j
    leaves = trace_leaves(quartic_ray, quartic, np.array([[0j, a], [b, 0j]]),
                          n_steps=64)
    assert [leaf.anchor for leaf in leaves] == [0j, a, b, 0j]
    for leaf in (leaves[0], leaves[3]):
        _assert_same_leaf(leaf, _reference_trace_leaf(quartic_ray, quartic,
                                                      0j, 64))
        assert leaf.u_limit == 0j and leaf.lam_leaf == 0.0
    _assert_same_leaf(leaves[1], _reference_trace_leaf(quartic_ray, quartic,
                                                       a, 64))
    _assert_same_leaf(leaves[2], _reference_trace_leaf(quartic_ray, quartic,
                                                       b, 64))


def test_outside_anchor_is_named(quartic_ray, quartic):
    import dataclasses
    with pytest.raises(ValueError,
                       match=r"outside \(0, c\).*anchor 0\.95\+0j"):
        trace_leaves(quartic_ray, quartic, [_anchor(quartic, 0.2), 0.95 + 0j])
    # a level above the cutoff is reported with its value
    low_c = dataclasses.replace(quartic_ray, cutoff=0.25)
    with pytest.raises(ValueError, match=r"anchor Hamiltonian 0\.3 outside "
                       r"\(0, c\): leaf of anchor 0\.\d+\+0j"):
        trace_leaves(low_c, quartic, [_anchor(quartic, 0.2),
                                      _anchor(quartic, 0.3)], n_steps=16)


def test_tubular_map_checks_given_leaves(flat_ray_small, flat):
    _, ray = flat_ray_small
    net = polar_anchor_net([0.3, 0.45], 3)
    leaves = trace_leaves(ray, flat, net, n_steps=64)
    tmap = build_tubular_map(ray, flat, net, leaves=leaves)
    assert tmap.u_points.ravel().tolist() == [leaf.u_limit for leaf in leaves]
    for wrong in (leaves[::-1], leaves[:-1]):
        with pytest.raises(ValueError, match="not those of the anchors"):
            build_tubular_map(ray, flat, net, leaves=wrong)


@pytest.fixture(scope="module")
def flat_ray_rim(flat):
    # a disc of radius 0.8 with c = 0.8: levels below c reach past the
    # resolved radius r_max = 0.8 - 4h = 0.7; the top slices have no
    # interior coincidence node, and the solver says so
    grid = build_grid(1, 64, 0.8)
    with pytest.warns(UserWarning, match="empty coincidence set"):
        slices = grid_slices(flat, 0.8, 16, grid, tol=1e-9)
    return assemble_geodesic(slices, c=0.8)


def test_leaf_past_r_max_exits_naming_its_anchor(flat_ray_rim, flat):
    inside, past = 0.4 + 0j, 0.71 * np.exp(0.3j)
    assert abs(past) > flat_ray_rim.spatial_grid.radius \
        - 4.0 * flat_ray_rim.spatial_grid.h
    with pytest.raises(LeafExit, match="exited the resolved region") as exc:
        trace_leaves(flat_ray_rim, flat, [inside, past], n_steps=64)
    assert exc.value.anchor == complex(past)
    assert exc.value.location == complex(past)
    trace_leaves(flat_ray_rim, flat, [inside], n_steps=64)


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
def test_rim_anchor_without_slope_root_is_outside(flat_ray_rim, flat, anchor):
    # next to the rim the slope root in ln(lam) can overflow math.exp; at
    # t = 0 that is an anchor level the ray does not hold
    with pytest.raises(ValueError, match=r"outside \(0, c\).*leaf of anchor"):
        trace_leaves(flat_ray_rim, flat, [anchor], n_steps=64)


# ---------------------------------------------------------------------------
# reference: the per-angle orbit read-out that `leaf_boundary` replaced
# ---------------------------------------------------------------------------

def _reference_orbit_radii(leaf, h0=None, n_points=2048):
    ray = leaf.ray
    h0 = smooth_hamiltonian(ray) if h0 is None else h0
    grid = ray.spatial_grid
    ax = grid.axis()
    vals = np.where(h0.mask, h0.values, ray.cutoff)
    if not ray.backend.startswith("oracle"):
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
    if not ray.backend.startswith("oracle"):
        k = np.ones(5) / 5.0
        radii = np.convolve(np.concatenate([radii[-4:], radii, radii[:4]]),
                            k, "same")[4:-4]
    return np.stack([radii * np.cos(th), radii * np.sin(th)], axis=1)


@pytest.mark.parametrize("case", ["quartic-oracle", "perturbed-grid"])
def test_orbit_readout_matches_per_angle_loop(case, quartic_ray, quartic,
                                              perturbed_ray_small, perturbed,
                                              perturbed_anchors):
    if case == "quartic-oracle":
        # p=None takes the sampled read-out on an oracle ray (no smoothing)
        leaf = trace_leaf(quartic_ray, quartic, _anchor(quartic, 0.25),
                          n_steps=64)
        p = None
    else:
        leaf = trace_leaf(perturbed_ray_small, perturbed, perturbed_anchors[1],
                          n_steps=64)
        p = perturbed
    poly = leaf_boundary(leaf, p)
    ref = _reference_orbit_radii(leaf)
    assert poly.shape == ref.shape and poly.tobytes() == ref.tobytes()


def test_orbit_readout_without_crossing_raises(quartic_ray, quartic):
    import dataclasses
    leaf = trace_leaf(quartic_ray, quartic, _anchor(quartic, 0.25), n_steps=64)
    above = dataclasses.replace(leaf, lam_leaf=10.0)
    with pytest.raises(LeafExit, match="no closed orbit"):
        _reference_orbit_radii(above)
    with pytest.raises(LeafExit, match="no closed orbit") as exc:
        leaf_boundary(above, None)
    assert exc.value.anchor == leaf.anchor


def test_orbit_readout_with_several_crossings_per_ray(quartic_ray, quartic,
                                                      monkeypatch):
    # a t = 0 Hamiltonian that crosses the leaf level every 1/12 in radius,
    # so that every ray picks the crossing nearest the anchor radius
    import dataclasses
    from types import SimpleNamespace
    from pshlab import foliation_tube
    grid = quartic_ray.spatial_grid
    z = grid.nodes()
    h0 = SimpleNamespace(values=0.2 + 0.05 * np.sin(
        12 * math.pi * np.abs(z) + 0.3 * np.cos(np.angle(z))),
        mask=grid.inside_mask())
    monkeypatch.setattr(foliation_tube, "smooth_hamiltonian",
                        lambda ray: h0)
    leaf = dataclasses.replace(trace_leaf(quartic_ray, quartic, 0.45 + 0j,
                                          n_steps=16), lam_leaf=0.2)
    poly = leaf_boundary(leaf, None)
    ref = _reference_orbit_radii(leaf, h0)
    assert poly.shape == ref.shape and poly.tobytes() == ref.tobytes()
    assert np.ptp(np.hypot(*poly.T)) < 0.05
