"""Monge-Ampere masses, boundary circulations, and the mean-value moment
check on equilibrium complements.

With dd^c normalised so that dd^c ln|z|^2 is the unit Dirac mass, the
measure of a weight phi on a region of the plane is the integral of the
density phi_{z zbar} / pi.  Masses are integrated cell by cell: cells cut
by the region's boundary polyline contribute the exact area of their
overlap with the polygon, evaluated at the overlap's exact centroid
(both from edge line integrals over all cut cells in one vectorized
pass, `geometry.cell_coverage`), otherwise moment errors at the free
boundary would dominate the targets.  Sums run through
math.fsum in a fixed raster order: exact rounding makes symmetric
contributions cancel to machine precision and keeps outputs bitwise
deterministic.

The mean-value check integrates the holomorphic monomials z^k over the
equilibrium complement: the zeroth moment is the enclosed mass (equal to
the pole weight), and the normalised higher moments must vanish -- the
moment characterization of the equilibrium family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .envelope_solver import EnvelopeResult, extract_equilibrium
from .field_grid import erode_mask
from .geometry import cell_coverage, expand_ranges, points_in_polygon


@dataclass
class MeasureReport:
    """Region moments of the Monge-Ampere measure of a weight.

    moments[k] = integral of z^k over the region; mass = moments[0];
    lebesgue_area recorded alongside to keep the two volume notions
    (measure volume vs area) unambiguous.  Normalization: dd^c ln|z|^2
    has unit mass."""

    lam: float
    mass: float
    moments: np.ndarray
    lebesgue_area: float
    k_max: int

    def normalized_moments(self) -> np.ndarray:
        return np.abs(self.moments[1:]) / self.mass


def _cells_near_polyline(grid, poly):
    """Raster mask of cells within one cell of a polyline segment: every
    segment is sampled at spacing <= h/2 (as np.linspace would) and the
    sampled cells are dilated by one cell in 3x3."""
    ax, h, n = grid.axis(), grid.h, grid.resolution
    pts = np.asarray(poly, dtype=float)
    d = np.roll(pts, -1, axis=0) - pts
    steps = np.maximum(2, (np.hypot(d[:, 0], d[:, 1]) / (0.5 * h)).astype(int) + 2)
    seg, k = expand_ranges(np.zeros_like(steps), steps)
    ts = k * (1.0 / (steps[seg] - 1))
    ts[k == steps[seg] - 1] = 1.0
    samples = pts[seg] + ts[:, None] * d[seg]
    ii, jj = np.clip(np.round((samples - ax[0]) / h).astype(int), 0, n - 1).T
    hot = np.zeros((n, n), dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            hot[np.clip(ii + di, 0, n - 1), np.clip(jj + dj, 0, n - 1)] = True
    return hot


def _region_cells(grid, mask, poly):
    """Cell evaluation points and area weights of a region: full cells at
    their centre with area h^2, cut cells at the exact centroid of their
    overlap with the polygon, with its exact area."""
    ax = grid.axis()
    h = grid.h
    cell_area = h * h
    cut = poly is not None and len(poly) >= 3
    if cut:
        hot = _cells_near_polyline(grid, poly)
        x, y = np.meshgrid(ax, ax, indexing="ij")
        inside = points_in_polygon(x, y, poly)
        full = inside & ~hot
        if mask is not None:
            full &= mask
    else:
        hot = np.zeros((grid.resolution,) * 2, dtype=bool)
        full = mask.copy()
        inside = mask

    disc = grid.inside_mask()
    rim = disc & ~erode_mask(disc)
    if (full & rim).any() or (hot & rim & inside).any():
        raise ValueError("region touches the masked-out boundary layer of "
                         "the grid")

    xi, yi = np.nonzero(full)
    z = ax[xi] + 1j * ax[yi]
    w = np.full(len(xi), cell_area)
    if cut:
        area, cx, cy = cell_coverage(poly, ax - 0.5 * h, h, *np.nonzero(hot))
        covered = area > 0.0
        z = np.concatenate([z, cx[covered] + 1j * cy[covered]])
        w = np.concatenate([w, area[covered]])
    return z, w


def ma_mass(p, region_mask=None, grid=None, polyline=None,
            radius: float | None = None) -> float:
    """Monge-Ampere mass of p over a region.

    Radial weights with a disc region {|z| <= radius}: exact, the
    enclosed mass is chi'(ln radius^2).  Otherwise (n=1): cell sums of
    the closed-form density with exact cut cells along `polyline`; the
    region is `region_mask` or the polyline interior.  Regions touching
    the grid's masked-out rim are an error.
    """
    if radius is not None:
        if getattr(p, "symmetry", "general") != "radial":
            raise ValueError("radius shortcut requires a radial weight")
        return float(p.chi_prime(math.log(radius ** 2)))
    if p.n != 1:
        raise ValueError("grid masses are n=1 only")
    if grid is None:
        raise ValueError("grid required for sampled regions")
    z, w = _region_cells(grid, region_mask, polyline)
    dens = p.density(z)
    return float(math.fsum((dens * w).tolist()))


def region_moments(p, grid, region_mask, polyline, k_max: int):
    """Moments M_k = integral of z^k against the MA measure, k = 0..k_max,
    compensated fixed-order summation."""
    z, w = _region_cells(grid, region_mask, polyline)
    dens = p.density(z)
    base = dens * w
    moments = np.empty(k_max + 1, dtype=complex)
    area = math.fsum(w.tolist())
    for k in range(k_max + 1):
        vals = base * (z ** k if k else 1.0)
        moments[k] = complex(math.fsum(vals.real.tolist()),
                             math.fsum(vals.imag.tolist()))
    return moments, area


def reproducing_check(p, e: EnvelopeResult, k_max: int = 4) -> MeasureReport:
    """Moment report over the equilibrium complement B = {deficit < 0},
    bounded by the refined free boundary.

    M_0 is the enclosed mass (should equal the pole weight: the measure
    grows at the injection rate); |M_k|/M_0 for k >= 1 should vanish by
    the mean-value property of the complement.  Raises on an empty
    complement."""
    if e.grid.n != 1 or e.grid.style != "cartesian":
        raise ValueError("reproducing check runs on n=1 cartesian results")
    if e.lam == 0:
        raise ValueError("empty equilibrium complement at lam = 0")
    mask, poly = extract_equilibrium(e, refine=True)
    if len(poly) < 3:
        raise ValueError("empty or unresolved equilibrium complement")
    comp = ~mask & e.envelope.mask
    moments, area = region_moments(p, e.grid, comp, poly, k_max)
    return MeasureReport(lam=e.lam, mass=float(moments[0].real),
                         moments=moments, lebesgue_area=float(area),
                         k_max=k_max)


def boundary_mass(p, polyline: np.ndarray) -> float:
    """Circulation of d^c p along a closed polyline: the enclosed dd^c
    mass by the divergence identity; a cross-check for ma_mass.

    Polylines are implicitly closed (no repeated endpoint).  Degenerate
    (zero-length) polylines integrate to 0.
    """
    poly = np.asarray(polyline, dtype=float)
    if len(poly) < 3:
        return 0.0
    if np.allclose(poly[0], poly[-1]):
        poly = poly[:-1]
    nxt = np.roll(poly, -1, axis=0)
    mid = 0.5 * (poly + nxt)
    dx = nxt[:, 0] - poly[:, 0]
    dy = nxt[:, 1] - poly[:, 1]
    zmid = mid[:, 0] + 1j * mid[:, 1]
    gz = p.grad(zmid)
    fx, fy = 2.0 * gz.real, -2.0 * gz.imag
    terms = (fx * dy - fy * dx) / (4.0 * math.pi)
    return float(math.fsum(terms.tolist()))
