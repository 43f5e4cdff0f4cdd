import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pshlab.field_grid import build_grid
from pshlab.potential_kit import Potential, Term, builtin_potential
from pshlab.envelope_solver import (extract_equilibrium, grid_envelope,
                                    radial_envelope)
from pshlab.ma_measure import (_cells_near_polyline, boundary_mass, ma_mass,
                               region_moments, reproducing_check)


def _circle(r, n=1024):
    th = np.linspace(-np.pi, np.pi, n, endpoint=False)
    return np.stack([r * np.cos(th), r * np.sin(th)], axis=1)


def test_radial_mass_exact(flat, quartic):
    assert ma_mass(flat, radius=0.5) == pytest.approx(0.25)
    assert ma_mass(quartic, radius=0.5) == pytest.approx(0.25 + 0.0625)


def test_grid_mass_flat_circle(grid128, flat):
    m = ma_mass(flat, grid=grid128, polyline=_circle(0.5))
    assert m == pytest.approx(0.25, abs=5e-5)


def test_pluriharmonic_addend_mass_invariance(grid128, flat, perturbed):
    poly = _circle(0.5)
    m1 = ma_mass(flat, grid=grid128, polyline=poly)
    m2 = ma_mass(perturbed, grid=grid128, polyline=poly)
    assert m1 == pytest.approx(m2, abs=1e-12)


def test_mass_additive_and_monotone(grid128, quartic):
    m_small = ma_mass(quartic, grid=grid128, polyline=_circle(0.3))
    m_big = ma_mass(quartic, grid=grid128, polyline=_circle(0.6))
    assert m_big > m_small
    # annulus + disc vs disc
    exact_s = ma_mass(quartic, radius=0.3)
    exact_b = ma_mass(quartic, radius=0.6)
    assert m_big - m_small == pytest.approx(exact_b - exact_s, abs=2e-4)


def test_mass_region_touching_rim_raises(grid128, flat):
    with pytest.raises(ValueError, match="boundary layer"):
        ma_mass(flat, grid=grid128, polyline=_circle(0.999))


def test_boundary_mass_circle(flat):
    # inscribed-polygon deficit is (2 pi / n)^2 / 6 relative
    assert boundary_mass(flat, _circle(0.5)) == pytest.approx(0.25, abs=2e-6)
    assert boundary_mass(flat, _circle(0.5, 4096)) == pytest.approx(
        0.25, abs=2e-7)


def test_boundary_mass_degenerate():
    flat = builtin_potential("flat")
    assert boundary_mass(flat, np.zeros((0, 2))) == 0.0
    assert boundary_mass(flat, np.array([[0.1, 0.1]])) == 0.0


def test_boundary_vs_cell_mass_on_equilibrium(grid128, perturbed):
    res = grid_envelope(perturbed, 0.2, grid128, tol=1e-9)
    poly = extract_equilibrium(res, refine=True)
    comp = ~res.coincidence & res.envelope.mask
    m_cells = ma_mass(perturbed, region_mask=comp, grid=grid128, polyline=poly)
    m_line = boundary_mass(perturbed, poly)
    assert abs(m_cells - m_line) <= 5.0 * grid128.h


def test_reproducing_flat(grid128, flat):
    res = radial_envelope(flat, 0.25, grid128)
    rep = reproducing_check(res, k_max=4)
    # the spec-level 2e-3 mass target is pinned at 512^2 in the acceptance
    # suite; this 128^2 smoke run carries twice the boundary bias
    assert rep.mass == pytest.approx(0.25, abs=5e-3)
    ratios = rep.normalized_moments()
    # rotational symmetry cancels the moments to machine precision except
    # for the clipped-cell quadrature of the highest order
    assert ratios[0] < 1e-12 and ratios[1] < 1e-12
    assert ratios.max() < 1e-3
    assert rep.lebesgue_area == pytest.approx(math.pi * 0.25, abs=1e-2)


def test_reproducing_perturbed(grid128, perturbed):
    res = grid_envelope(perturbed, 0.2, grid128, tol=1e-10)
    rep = reproducing_check(res, k_max=4)
    assert abs(rep.mass - 0.2) <= 5e-3
    assert rep.normalized_moments().max() <= 1e-3


def test_reproducing_hele_shaw_rate(grid128, flat, quartic):
    # enclosed mass equals the pole weight along the sweep
    for p in (flat, quartic):
        for lam in (0.1, 0.3, 0.5):
            res = radial_envelope(p, lam, grid128)
            rep = reproducing_check(res, k_max=0)
            assert rep.mass == pytest.approx(lam, abs=5e-3)


def test_reproducing_empty_raises(grid128, flat):
    res = radial_envelope(flat, 0.0, grid128)
    with pytest.raises(ValueError):
        reproducing_check(res)


def test_moments_deterministic(grid128, perturbed):
    res = grid_envelope(perturbed, 0.2, grid128, tol=1e-9)
    poly = extract_equilibrium(res, refine=True)
    comp = ~res.coincidence & res.envelope.mask
    m1, a1 = region_moments(perturbed, grid128, comp, poly, 3)
    m2, a2 = region_moments(perturbed, grid128, comp, poly, 3)
    assert np.array_equal(m1, m2) and a1 == a2


def test_mass_deterministic_on_refined_boundary(grid128, perturbed):
    res = grid_envelope(perturbed, 0.2, grid128, tol=1e-9)
    poly = extract_equilibrium(res, refine=True)
    comp = ~res.coincidence & res.envelope.mask
    m1 = ma_mass(perturbed, region_mask=comp, grid=grid128, polyline=poly)
    m2 = ma_mass(perturbed, region_mask=comp, grid=grid128, polyline=poly)
    assert m1 == m2


def _cells_near_polyline_loop(grid, poly):
    """Per-segment reference for the hot-cell raster."""
    ax, h, n = grid.axis(), grid.h, grid.resolution
    hot = np.zeros((n, n), dtype=bool)
    for (x0, y0), (x1, y1) in zip(poly, np.roll(poly, -1, axis=0)):
        steps = max(2, int(np.hypot(x1 - x0, y1 - y0) / (0.5 * h)) + 2)
        ts = np.linspace(0.0, 1.0, steps)
        ii = np.clip(np.round((x0 + ts * (x1 - x0) - ax[0]) / h).astype(int), 0, n - 1)
        jj = np.clip(np.round((y0 + ts * (y1 - y0) - ax[0]) / h).astype(int), 0, n - 1)
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                hot[np.clip(ii + di, 0, n - 1), np.clip(jj + dj, 0, n - 1)] = True
    return hot


@pytest.mark.parametrize("seed", range(4))
def test_hot_cells_match_per_segment_sampling(grid128, seed):
    rng = np.random.default_rng(seed)
    poly = rng.uniform(-1.1, 1.1, size=(int(rng.integers(3, 60)), 2))
    assert np.array_equal(_cells_near_polyline(grid128, poly),
                          _cells_near_polyline_loop(grid128, poly))


@settings(max_examples=40, deadline=None)
@given(q=st.floats(0.05, 1.0), n=st.integers(32, 128),
       share=st.floats(0.02, 0.9))
def test_radial_envelope_boundary_encloses_lam(q, n, share):
    """The equilibrium set of pole weight lam encloses dd^c mass lam: the
    circulation along the oracle's free boundary is within 2e-3 lam of lam
    (C6's mass bound 2e-3, taken relative to lam).  The boundary is an
    inscribed polygon of k >= 128 vertices, off by about (pi/k)^2 lam."""
    p = Potential(1, [Term("polyrad", 1.0, (1,)), Term("polyrad", q, (2,))])
    lam = share * float(p.chi_prime(0.0))
    res = radial_envelope(p, lam, build_grid(1, n, 1.0))
    assert abs(boundary_mass(p, res.boundary) - lam) <= 2e-3 * lam


@settings(max_examples=20, deadline=None)
@given(q=st.floats(0.05, 1.0), r=st.floats(0.0, 0.5),
       n=st.integers(32, 128).map(lambda k: 2 * k),
       rho=st.floats(0.02, 0.5))
def test_radial_moments_vanish(q, r, n, rho):
    """C6's bounds on the oracle's equilibrium complement, the stored
    coincidence set's complement bounded by the exact circle |z|^2 = rho:
    |M_k| / M_0 <= 1e-3 for k = 1..4 and |M_0 - lam| <= 2e-3."""
    p = Potential(1, [Term("polyrad", 1.0, (1,)), Term("polyrad", q, (2,)),
                      Term("polyrad", r, (3,))])
    lam = float(p.chi_prime(math.log(rho)))
    rep = reproducing_check(radial_envelope(p, lam, build_grid(1, n, 1.0)),
                            k_max=4)
    assert np.all(rep.normalized_moments() <= 1e-3)
    assert abs(rep.mass - lam) <= 2e-3
