"""Planar geometry plumbing shared by the boundary-extraction and
mass/moment operations: marching-squares level curves with sub-grid
linear interpolation, chained by grid-edge id into ordered polylines, the
exact area and centroid of a polygon's overlap with many grid cells in one
vectorized pass of edge line integrals, shoelace areas, a scanline even-odd
point-in-polygon test and an x-sweep check that a polyline is simple.
"""

from __future__ import annotations

import numpy as np

PAIR_BLOCK = 1 << 18  # edge pairs per pass of `polyline_is_simple`: bounds memory

# Oriented segments (from edge, to edge) of each cell case, with the
# corners below the level on their left.  Bit k of the case is set when
# corner k is below the level; corners run counter-clockwise from (i, j)
# and edge k joins corners k and k + 1 (bottom, right, top, left).  The
# saddles 5 and 10 are split by the cell-centre mean: row 1 when it has
# the sign of corner 0, cutting off corners 0 and 2, row 0 otherwise,
# cutting off corners 1 and 3.  -1 pads the cases with one segment.
_N = (-1, -1)
_CASES = [(_N, _N), ((0, 3), _N), ((1, 0), _N), ((1, 3), _N),
          ((2, 1), _N), ((0, 1), (2, 3)), ((2, 0), _N), ((2, 3), _N),
          ((3, 2), _N), ((0, 2), _N), ((1, 0), (3, 2)), ((1, 2), _N),
          ((3, 1), _N), ((0, 1), _N), ((3, 0), _N), (_N, _N)]
_SEGMENTS = np.array([_CASES, _CASES])
_SEGMENTS[1, 5] = ((0, 3), (2, 1))
_SEGMENTS[1, 10] = ((3, 0), (1, 2))


def marching_squares(values: np.ndarray, level: float, x_axis, y_axis) -> list:
    """Polylines of the `values = level` curve, chained by grid-edge id.

    values[i, j] is the sample at (x_axis[i], y_axis[j]).  Each crossed
    grid edge carries one vertex, the linear zero of values - level along
    it, taken from its lower-index node; cells with a non-finite corner are
    skipped.  The segments of each cell come from the case table above, so
    every edge id starts at most one segment and ends at most one, and the
    chaining follows them exactly.  Returns a list of (k, 2) vertex arrays,
    the region below the level on their left: closed loops repeat no
    vertex (closure is implicit), open chains end where the curve leaves
    the grid or the finite cells.  Saddles keep the table's split, which
    separates the two corners sharing the centre mean's sign: either split
    gives non-crossing curves, and the usual decider, joining them, would
    move every boundary through a saddle and the reference test with it.
    """
    v = np.asarray(values, dtype=float) - level
    xa = np.asarray(x_axis, dtype=float)
    ya = np.asarray(y_axis, dtype=float)
    nx, ny = v.shape
    neg = v < 0
    finite = np.isfinite(v)
    case = (neg[:-1, :-1] * 1 + neg[1:, :-1] * 2
            + neg[1:, 1:] * 4 + neg[:-1, 1:] * 8)
    ok = finite[:-1, :-1] & finite[1:, :-1] & finite[1:, 1:] & finite[:-1, 1:]
    i, j = np.nonzero(ok & (case != 0) & (case != 15))
    case = case[i, j]
    f0, f1, f2, f3 = v[i, j], v[i + 1, j], v[i + 1, j + 1], v[i, j + 1]
    centre = 0.25 * (((f0 + f1) + f2) + f3)
    seg = _SEGMENTS[((centre < 0) == (f0 < 0)).astype(np.intp), case]
    # edge ids: (i, j)-(i + 1, j) is i ny + j, (i, j)-(i, j + 1) follows
    n_x = (nx - 1) * ny
    edges = np.stack([i * ny + j, n_x + (i + 1) * (ny - 1) + j,
                      i * ny + j + 1, n_x + i * (ny - 1) + j], axis=1)
    cell, slot = np.nonzero(seg[..., 0] >= 0)
    src, dst = edges[cell, seg[cell, slot, 0]], edges[cell, seg[cell, slot, 1]]
    if len(src) == 0:
        return []

    ids, compact = np.unique(np.concatenate([src, dst]), return_inverse=True)
    along_x = ids < n_x
    ei = np.where(along_x, ids // ny, (ids - n_x) // (ny - 1))
    ej = np.where(along_x, ids % ny, (ids - n_x) % (ny - 1))
    ei2, ej2 = ei + along_x, ej + ~along_x
    g1, g2 = v[ei, ej], v[ei2, ej2]
    t = g1 / (g1 - g2)
    pts = np.stack([xa[ei] + t * (xa[ei2] - xa[ei]),
                    ya[ej] + t * (ya[ej2] - ya[ej])], axis=1)

    succ = np.full(len(ids), -1)
    succ[compact[:len(src)]] = compact[len(src):]
    heads = np.ones(len(ids), dtype=bool)
    heads[compact[len(src):]] = False
    succ = succ.tolist()
    seen = [False] * len(ids)
    chains = []
    # open chains from their heads, then the closed loops
    for k in np.nonzero(heads)[0].tolist() + list(range(len(ids))):
        chain = []
        while k >= 0 and not seen[k]:
            seen[k] = True
            chain.append(k)
            k = succ[k]
        if chain:
            chains.append(pts[chain])
    return chains


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
    """Even-odd inclusion test by scanlines: edge (x1, y1)-(x2, y2) crosses
    the rows y in [min(y1, y2), max(y1, y2)) at xi, and a point is inside
    when an odd number of its row's crossings lie strictly to its right."""
    x = np.asarray(px, dtype=float).ravel()
    rows, row = np.unique(np.asarray(py, dtype=float).ravel(), return_inverse=True)
    a = np.asarray(poly, dtype=float)
    b = np.roll(a, -1, axis=0)
    first = np.searchsorted(rows, np.minimum(a[:, 1], b[:, 1]))
    end = np.searchsorted(rows, np.maximum(a[:, 1], b[:, 1]))
    e, r = expand_ranges(first, np.maximum(end - first, 0))
    x1, y1, x2, y2 = a[e, 0], a[e, 1], b[e, 0], b[e, 1]
    xi = x1 + (rows[r] - y1) * (x2 - x1) / (y2 - y1)
    r, xi = r[~np.isnan(xi)], xi[~np.isnan(xi)]  # such edges never count
    # rank xi and x together, so that (row, rank) orders as one integer key
    rank = np.unique(np.concatenate([xi, x]), return_inverse=True)[1]
    m = len(rank) + 1
    keys = np.sort(r * m + rank[:len(xi)])
    right = (np.searchsorted(keys, row * m + m)
             - np.searchsorted(keys, row * m + rank[len(xi):], side="right"))
    return (right % 2 == 1).reshape(np.asarray(px).shape)


def x_sweep(poly: np.ndarray):
    """Edges of a closed polyline in order of smallest x and, in that order,
    the number of later edges whose smallest x is at most this one's largest
    x: every pair of edges whose x-ranges meet, counted once."""
    xa = np.asarray(poly, dtype=float)[:, 0]
    lo, hi = np.minimum(xa, np.roll(xa, -1)), np.maximum(xa, np.roll(xa, -1))
    order = np.argsort(lo, kind="stable")
    end = np.searchsorted(lo[order], hi[order], side="right")
    return order, np.maximum(end - np.arange(1, len(xa) + 1), 0)


def polyline_is_simple(poly: np.ndarray) -> bool:
    """True when no two non-adjacent edges of the closed polyline cross.
    Crossing edges overlap in x, so only the `x_sweep` pairs are tested,
    about PAIR_BLOCK at a time."""
    n = len(poly)
    if n < 4:
        return True
    a = np.asarray(poly, dtype=float)
    b = np.roll(a, -1, axis=0)

    def orient(o, q, r):
        return ((q[..., 0] - o[..., 0]) * (r[..., 1] - o[..., 1])
                - (q[..., 1] - o[..., 1]) * (r[..., 0] - o[..., 0]))

    order, count = x_sweep(a)
    total = np.cumsum(count)
    cuts = [0, *np.searchsorted(total, np.arange(PAIR_BLOCK, total[-1], PAIR_BLOCK)), n]
    for s0, s1 in zip(cuts, cuts[1:]):
        k, later = expand_ranges(np.arange(s0 + 1, s1 + 1), count[s0:s1])
        i, j = order[s0 + k], order[later]
        o1, o2 = orient(a[i], b[i], a[j]), orient(a[i], b[i], b[j])
        o3, o4 = orient(a[j], b[j], a[i]), orient(a[j], b[j], b[i])
        # strictly opposite signs: touching and collinear edges do not count,
        # nor do adjacent ones (their shared vertex orients to exactly 0)
        if np.any((np.sign(o1) * np.sign(o2) < 0) & (np.sign(o3) * np.sign(o4) < 0)):
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
