"""Planar geometry plumbing shared by the boundary-extraction and
mass/moment operations: marching-squares level curves with sub-grid
linear interpolation, segment chaining into ordered closed polylines,
the exact area and centroid of a polygon's overlap with many grid cells
in one vectorized pass of edge line integrals, shoelace areas, and an
even-odd point-in-polygon test.
"""

from __future__ import annotations

import numpy as np


def marching_squares(values: np.ndarray, level: float, x_axis, y_axis):
    """Segments of the `values = level` curve, sub-grid linear interpolation.

    values[i, j] is the sample at (x_axis[i], y_axis[j]).  Cells containing
    non-finite corners are skipped.  Returns an (n_seg, 2, 2) array.
    """
    v = values - level
    segs = []
    nx, ny = v.shape
    xa = np.asarray(x_axis)
    ya = np.asarray(y_axis)

    finite = np.isfinite(v)
    cell_ok = finite[:-1, :-1] & finite[1:, :-1] & finite[1:, 1:] & finite[:-1, 1:]
    neg = v < 0
    idx = np.nonzero(cell_ok & ~((neg[:-1, :-1] == neg[1:, :-1])
                                 & (neg[1:, :-1] == neg[1:, 1:])
                                 & (neg[1:, 1:] == neg[:-1, 1:])))

    def interp(p1, p2, f1, f2):
        # clamp off the cell corners: fields that are exactly level-valued
        # on one side otherwise put crossings from distinct edges at the
        # same node, which scrambles the segment chaining
        t = min(max(f1 / (f1 - f2), 1e-3), 1.0 - 1e-3)
        return (p1[0] + t * (p2[0] - p1[0]), p1[1] + t * (p2[1] - p1[1]))

    for i, j in zip(*idx):
        corners = [(xa[i], ya[j]), (xa[i + 1], ya[j]),
                   (xa[i + 1], ya[j + 1]), (xa[i], ya[j + 1])]
        fvals = [v[i, j], v[i + 1, j], v[i + 1, j + 1], v[i, j + 1]]
        pts = []
        for k in range(4):
            f1, f2 = fvals[k], fvals[(k + 1) % 4]
            if (f1 < 0) != (f2 < 0):
                pts.append(interp(corners[k], corners[(k + 1) % 4], f1, f2))
        if len(pts) == 2:
            segs.append((pts[0], pts[1]))
        elif len(pts) == 4:
            # saddle cell: split by the cell-centre sign
            centre = 0.25 * sum(fvals)
            if (centre < 0) == (fvals[0] < 0):
                segs.append((pts[0], pts[3]))
                segs.append((pts[1], pts[2]))
            else:
                segs.append((pts[0], pts[1]))
                segs.append((pts[2], pts[3]))
    if not segs:
        return np.zeros((0, 2, 2))
    return np.asarray(segs)


def chain_segments(segments: np.ndarray, tol: float) -> list:
    """Chain unordered segments into polylines by endpoint matching.

    Returns a list of (k, 2) vertex arrays; closed loops repeat no vertex
    (closure is implicit).  Greedy matching with tolerance `tol`.
    """
    if len(segments) == 0:
        return []
    segs = [(tuple(s[0]), tuple(s[1])) for s in segments]
    unused = set(range(len(segs)))

    def close(p, q):
        return abs(p[0] - q[0]) <= tol and abs(p[1] - q[1]) <= tol

    polylines = []
    while unused:
        i = unused.pop()
        chain = [segs[i][0], segs[i][1]]
        extended = True
        while extended:
            extended = False
            for j in list(unused):
                a, b = segs[j]
                if close(chain[-1], a):
                    chain.append(b)
                elif close(chain[-1], b):
                    chain.append(a)
                elif close(chain[0], a):
                    chain.insert(0, b)
                elif close(chain[0], b):
                    chain.insert(0, a)
                else:
                    continue
                unused.discard(j)
                extended = True
        if close(chain[0], chain[-1]) and len(chain) > 2:
            chain = chain[:-1]
        polylines.append(np.asarray(chain))
    return polylines


def polygon_area(poly: np.ndarray) -> float:
    """Signed shoelace area (positive for counter-clockwise)."""
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    return 0.5 * float(np.sum(x * yn - xn * y))


def ensure_ccw(poly: np.ndarray) -> np.ndarray:
    return poly if polygon_area(poly) >= 0 else poly[::-1].copy()


def expand_ranges(starts: np.ndarray, counts: np.ndarray):
    """(owner, value) of every element of the ranges starts[r] +
    arange(counts[r]), in order: its range r and its value."""
    owner = np.repeat(np.arange(len(counts)), counts)
    offset = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
    return owner, np.asarray(starts)[owner] + offset


def edge_cell_pairs(poly: np.ndarray, lo: np.ndarray, h: float, ci):
    """(edge, cell) index pairs: edge e (poly[e] to poly[e + 1]) with
    every listed cell whose column [lo[ci], lo[ci] + h] meets its x-range."""
    xa, xb = poly[:, 0], np.roll(poly[:, 0], -1)
    c_first = np.searchsorted(lo + h, np.minimum(xa, xb), side="right")
    c_end = np.searchsorted(lo, np.maximum(xa, xb), side="left")
    e, col = expand_ranges(c_first, c_end - c_first)
    order = np.argsort(ci, kind="stable")
    first = np.searchsorted(ci[order], col, side="left")
    last = np.searchsorted(ci[order], col, side="right")
    pair, k = expand_ranges(first, last - first)
    return e[pair], order[k]


def cell_coverage(poly: np.ndarray, lo: np.ndarray, h: float, ci, cj):
    """Area and centroid of the overlap of a closed polygon (either
    orientation) with each cell [lo[ci], lo[ci] + h] x [lo[cj], lo[cj] + h].

    No clipped polygon is built (the boundary-integral overlap of
    conservative remapping, Dukowicz & Kodis 1987).  By Green's theorem
    the area is -sum_e integral over e, x in [X0, X1], of
    (clamp(y, Y0, Y1) - Y0) dx, and the first moments use x (clamp - Y0)
    and (clamp^2 - Y0^2) / 2.  Each `edge_cell_pairs` pair (edges wholly
    above a cell add the full column height) is cut to the column and
    where y crosses Y0 and Y1: the clamp is linear on the three pieces, so
    Simpson's rule is exact, in cell-local coordinates.  Returns (area,
    cx, cy): the absolute area and the centroid (moments over the signed
    area, clamped into the cell against rounding in nearly empty cells;
    the cell centre where the area is 0).
    """
    lo = np.asarray(lo, dtype=float)
    ci, cj = np.asarray(ci, dtype=np.intp), np.asarray(cj, dtype=np.intp)
    a = np.asarray(poly, dtype=float)
    b = np.roll(a, -1, axis=0)
    e, cell = edge_cell_pairs(a, lo, h, ci)
    x0, y0 = lo[ci[cell]], lo[cj[cell]]
    ua, ub, va, vb = a[e, 0] - x0, b[e, 0] - x0, a[e, 1] - y0, b[e, 1] - y0
    keep = ub != ua  # vertical edges add nothing
    cell, ua, ub, va, vb = (v[keep] for v in (cell, ua, ub, va, vb))
    # cut to the column, exact on its sides, then where v crosses 0 and h
    us, ue = np.clip(ua, 0.0, h), np.clip(ub, 0.0, h)
    slope = (vb - va) / (ub - ua)
    vs, ve = va + (us - ua) * slope, vb + (ue - ub) * slope
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = np.clip(np.stack([-vs, h - vs]) / (ve - vs), 0.0, 1.0)
    knots = np.sort(np.nan_to_num(cross), axis=0)
    knots = np.pad(knots, ((1, 1), (0, 0)), constant_values=(0.0, 1.0))
    u = (1.0 - knots) * us + knots * ue
    c = np.clip((1.0 - knots) * vs + knots * ve, 0.0, h)
    u0, u1, c0, c1 = u[:-1], u[1:], c[:-1], c[1:]
    width = u1 - u0
    pieces = np.tile(cell, 3)

    def total(f):
        """Per-cell sum of the pieces' integrals, with Green's sign."""
        return -np.bincount(pieces, f.ravel(), minlength=len(ci))

    # Simpson's rule on each piece, written out for linear u and c
    area = total(0.5 * width * (c0 + c1))
    mx = total(width * (u0 * (2.0 * c0 + c1) + u1 * (c0 + 2.0 * c1)) / 6.0)
    my = total(width * (c0 * c0 + c0 * c1 + c1 * c1) / 6.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        centroid = np.clip(np.stack([mx, my]) / area, 0.0, h)
    cx, cy = np.where(area != 0.0, centroid, 0.5 * h)
    return np.abs(area), lo[ci] + cx, lo[cj] + cy


def points_in_polygon(px: np.ndarray, py: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Vectorized even-odd (ray casting) inclusion test."""
    x = np.asarray(px, dtype=float).ravel()
    y = np.asarray(py, dtype=float).ravel()
    inside = np.zeros(x.shape, dtype=bool)
    n = len(poly)
    xs, ys = poly[:, 0], poly[:, 1]
    for k in range(n):
        x1, y1 = xs[k], ys[k]
        x2, y2 = xs[(k + 1) % n], ys[(k + 1) % n]
        crosses = (y1 > y) != (y2 > y)
        if not crosses.any():
            continue
        xi = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
        inside ^= crosses & (x < xi)
    return inside.reshape(np.asarray(px).shape)


def polyline_is_simple(poly: np.ndarray, tol: float = 0.0) -> bool:
    """True when no two non-adjacent edges of the closed polyline intersect."""
    n = len(poly)
    if n < 4:
        return True
    p = np.asarray(poly, dtype=float)
    a = p
    b = np.roll(p, -1, axis=0)

    def orient(o, q, r):
        return ((q[..., 0] - o[..., 0]) * (r[..., 1] - o[..., 1])
                - (q[..., 1] - o[..., 1]) * (r[..., 0] - o[..., 0]))

    for i in range(n):
        js = np.arange(n)
        # skip self and the two adjacent edges
        ok = (js != i) & (js != (i - 1) % n) & (js != (i + 1) % n)
        js = js[ok]
        o1 = orient(a[i][None, :], b[i][None, :], a[js])
        o2 = orient(a[i][None, :], b[i][None, :], b[js])
        o3 = orient(a[js], b[js], np.broadcast_to(a[i], (len(js), 2)))
        o4 = orient(a[js], b[js], np.broadcast_to(b[i], (len(js), 2)))
        hit = (np.sign(o1) != np.sign(o2)) & (np.sign(o3) != np.sign(o4)) \
            & (np.abs(o1) > tol) & (np.abs(o2) > tol) \
            & (np.abs(o3) > tol) & (np.abs(o4) > tol)
        if hit.any():
            return False
    return True


def resample_closed(poly: np.ndarray, k: int) -> np.ndarray:
    """Arclength-uniform resampling of a closed polyline to k vertices."""
    p = np.asarray(poly, dtype=float)
    closed = np.vstack([p, p[:1]])
    seg = np.linalg.norm(np.diff(closed, axis=0), axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    total = s[-1]
    targets = np.linspace(0.0, total, k, endpoint=False)
    out = np.empty((k, 2))
    for d in range(2):
        out[:, d] = np.interp(targets, s, closed[:, d])
    return out
