"""Property tests of `cell_coverage`, the cut-cell area/centroid pass,
against a small Sutherland-Hodgman clip kept here as the oracle, of
`marching_squares`, the level-curve routine, against the per-cell loop
with tolerance chaining that it replaced, and of `points_in_polygon` and
`polyline_is_simple` against the per-edge loops that they replaced."""

import math
from collections import Counter

import numpy as np
from hypothesis import given, settings, strategies as st

from pshlab import geometry
from pshlab.geometry import (cell_coverage, edge_cell_pairs, marching_squares,
                             points_in_polygon, polygon_area, polyline_is_simple,
                             x_sweep)

# Per cell, relative to h^2 (area) and h^3 (first moments), for edges up
# to one cell long: interpolating along an edge rounds in proportion to its
# length, so the bound scales with the longest edge measured in cells.
TOL = 1e-15


def _edge_cells(poly, h):
    return max(1.0, np.hypot(*(np.roll(poly, -1, axis=0) - poly).T).max() / h)


def _area_tol(poly, h):
    return TOL * h * h * _edge_cells(poly, h)


def _moment_tol(poly, h, area, c):
    """TOL in cell-local first moments, plus the rounding of the absolute
    centroid coordinate the routine returns."""
    return TOL * h ** 3 * _edge_cells(poly, h) + area * np.spacing(np.abs(c))


def _clip_to_box(pts, w):
    """Sutherland-Hodgman clip of a polygon (list of (x, y)) to [0, w]^2."""
    def clip(pts, inside, cut):
        out = []
        for k, cur in enumerate(pts):
            prev = pts[k - 1]
            if inside(cur):
                if not inside(prev):
                    out.append(cut(prev, cur))
                out.append(cur)
            elif inside(prev):
                out.append(cut(prev, cur))
        return out

    def x_at(c):
        return lambda p, q: (c, p[1] + (c - p[0]) / (q[0] - p[0]) * (q[1] - p[1]))

    def y_at(c):
        return lambda p, q: (p[0] + (c - p[1]) / (q[1] - p[1]) * (q[0] - p[0]), c)

    for inside, cut in ((lambda p: p[0] >= 0.0, x_at(0.0)),
                        (lambda p: p[0] <= w, x_at(w)),
                        (lambda p: p[1] >= 0.0, y_at(0.0)),
                        (lambda p: p[1] <= w, y_at(w))):
        pts = clip(pts, inside, cut)
        if not pts:
            break
    return pts


def _oracle(poly, x0, y0, w):
    """|area| and first moments (about the cell corner) of poly & cell."""
    pts = _clip_to_box([(x - x0, y - y0) for x, y in poly], w)
    if len(pts) < 3:
        return 0.0, 0.0, 0.0
    p = np.asarray(pts)
    x, y = p[:, 0], p[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    a = 0.5 * math.fsum(cross)
    s = 1.0 if a >= 0 else -1.0
    return (s * a, s * math.fsum((x + xn) * cross) / 6.0,
            s * math.fsum((y + yn) * cross) / 6.0)


@st.composite
def star_on_grid(draw):
    """A star-shaped polygon r(th) = r0 + sum of small harmonics, on a
    random square grid of cells covering it."""
    n_vert = draw(st.integers(8, 96))
    r0 = draw(st.floats(0.3, 0.8))
    amps = [draw(st.floats(-0.06, 0.06)) for _ in range(4)]
    phases = [draw(st.floats(0.0, 2 * math.pi)) for _ in range(4)]
    shift = (draw(st.floats(-0.1, 0.1)), draw(st.floats(-0.1, 0.1)))
    th = np.sort(draw(st.lists(st.floats(0.0, 2 * math.pi), min_size=n_vert,
                               max_size=n_vert, unique=True)))
    r = r0 + sum(a * np.cos((k + 1) * th + ph)
                 for k, (a, ph) in enumerate(zip(amps, phases)))
    poly = np.stack([shift[0] + r * np.cos(th), shift[1] + r * np.sin(th)], 1)
    h = draw(st.floats(0.02, 0.25))
    origin = -1.2 - (1.0 + draw(st.floats(0.0, 1.0))) * h
    lo = origin + h * np.arange(int(2.4 / h) + 5)
    return poly, lo, h


def _hot_cells(poly, lo, h):
    """Cells within one cell of a polygon edge (dense edge samples, 3x3)."""
    n = len(lo)
    nxt = np.roll(poly, -1, axis=0)
    t = np.linspace(0.0, 1.0, 64)[:, None, None]
    pts = (poly + t * (nxt - poly)).reshape(-1, 2)
    ij = np.floor((pts - lo[0]) / h).astype(int)
    hot = np.zeros((n, n), dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            hot[ij[:, 0] + di, ij[:, 1] + dj] = True
    return hot


def _coverage(poly, lo, h):
    ci, cj = np.nonzero(_hot_cells(poly, lo, h))
    return ci, cj, cell_coverage(poly, lo, h, ci, cj)


@settings(max_examples=40, deadline=None)
@given(star_on_grid())
def test_areas_and_centroids_lie_in_their_cells(case):
    poly, lo, h = case
    ci, cj, (area, cx, cy) = _coverage(poly, lo, h)
    assert np.all((area >= 0.0) & (area <= h * h + _area_tol(poly, h)))
    assert np.all((cx >= lo[ci]) & (cx <= lo[ci] + h))
    assert np.all((cy >= lo[cj]) & (cy <= lo[cj] + h))


@settings(max_examples=40, deadline=None)
@given(star_on_grid())
def test_cut_and_full_cells_tile_the_shoelace_area(case):
    poly, lo, h = case
    hot = _hot_cells(poly, lo, h)
    ci, cj = np.nonzero(hot)
    area = cell_coverage(poly, lo, h, ci, cj)[0]
    centre = lo + 0.5 * h
    x, y = np.meshgrid(centre, centre, indexing="ij")
    n_full = np.count_nonzero(points_in_polygon(x, y, poly) & ~hot)
    total = math.fsum(area) + n_full * h * h
    exact = abs(polygon_area(poly))
    assert abs(total - exact) <= 1e-13 * exact


@settings(max_examples=40, deadline=None)
@given(star_on_grid())
def test_orientation_free(case):
    poly, lo, h = case
    ci, cj, ccw = _coverage(poly, lo, h)
    cw = cell_coverage(poly[::-1], lo, h, ci, cj)
    assert np.all(np.abs(ccw[0] - cw[0]) <= _area_tol(poly, h))
    for c, c_rev in zip(ccw[1:], cw[1:]):
        # centroid shifts weighted by area: the error a mass would see
        assert np.all(ccw[0] * np.abs(c - c_rev)
                      <= 2 * _moment_tol(poly, h, ccw[0], c))


@settings(max_examples=30, deadline=None)
@given(star_on_grid(), st.randoms(use_true_random=False))
def test_matches_sutherland_hodgman(case, rnd):
    poly, lo, h = case
    ci, cj, (area, cx, cy) = _coverage(poly, lo, h)
    picks = rnd.sample(range(len(ci)), min(len(ci), 60))
    for k in picks:
        x0, y0 = lo[ci[k]], lo[cj[k]]
        a, mx, my = _oracle(poly, x0, y0, h)
        assert abs(area[k] - a) <= _area_tol(poly, h)
        # first moments about the cell corner: area times centroid
        assert abs(area[k] * (cx[k] - x0) - mx) <= _moment_tol(poly, h, area[k], cx[k])
        assert abs(area[k] * (cy[k] - y0) - my) <= _moment_tol(poly, h, area[k], cy[k])


@settings(max_examples=30, deadline=None)
@given(star_on_grid())
def test_edge_cell_pairs_are_the_overlapping_columns(case):
    """Each edge is paired once with each listed cell whose column meets
    its x-range in an interval of positive length, and with no other."""
    poly, lo, h = case
    ci = np.nonzero(_hot_cells(poly, lo, h))[0]
    e, cell = edge_cell_pairs(poly, lo, h, ci)
    xa, xb = poly[:, 0], np.roll(poly[:, 0], -1)
    want = {(i, k) for i in range(len(poly)) for k in range(len(ci))
            if lo[ci[k]] + h > min(xa[i], xb[i]) and lo[ci[k]] < max(xa[i], xb[i])}
    got = list(zip(e.tolist(), cell.tolist()))
    assert len(got) == len(set(got)) and set(got) == want


def test_cells_sorted_or_not_give_the_same_result():
    th = np.linspace(0.0, 2 * np.pi, 40, endpoint=False)
    poly = np.stack([0.5 * np.cos(th), 0.4 * np.sin(th)], axis=1)
    lo = -1.0 + 0.1 * np.arange(20)
    ci, cj = np.nonzero(_hot_cells(poly, lo, 0.1))
    perm = np.random.default_rng(0).permutation(len(ci))
    ref = cell_coverage(poly, lo, 0.1, ci, cj)
    got = cell_coverage(poly, lo, 0.1, ci[perm], cj[perm])
    for r, g in zip(ref, got):
        assert np.array_equal(r[perm], g)


def test_empty_and_full_cells():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    lo = np.array([-0.5, 0.0, 0.5, 1.0])
    area, cx, cy = cell_coverage(square, lo, 0.5, [0, 1, 2, 3], [1, 1, 2, 3])
    # outside, inside, inside, outside; empty cells report their centre
    assert np.array_equal(area, [0.0, 0.25, 0.25, 0.0])
    assert np.array_equal(cx, [-0.25, 0.25, 0.75, 1.25])
    assert np.array_equal(cy, [0.25, 0.25, 0.75, 1.25])


# ---------------------------------------------------------------------------
# marching squares
# ---------------------------------------------------------------------------

def _reference_segments(values, level, x_axis, y_axis):
    """The per-cell marching squares this routine replaced: each cell
    interpolates its own crossings, clamped 1e-3 off the corners."""
    v = values - level
    segs = []
    nx, ny = v.shape
    for i in range(nx - 1):
        for j in range(ny - 1):
            corners = [(x_axis[i], y_axis[j]), (x_axis[i + 1], y_axis[j]),
                       (x_axis[i + 1], y_axis[j + 1]), (x_axis[i], y_axis[j + 1])]
            fvals = [v[i, j], v[i + 1, j], v[i + 1, j + 1], v[i, j + 1]]
            if not all(np.isfinite(fvals)):
                continue
            pts = []
            for k in range(4):
                f1, f2 = fvals[k], fvals[(k + 1) % 4]
                if (f1 < 0) != (f2 < 0):
                    t = min(max(f1 / (f1 - f2), 1e-3), 1.0 - 1e-3)
                    p1, p2 = corners[k], corners[(k + 1) % 4]
                    pts.append((p1[0] + t * (p2[0] - p1[0]),
                                p1[1] + t * (p2[1] - p1[1])))
            if len(pts) == 2:
                segs.append((pts[0], pts[1]))
            elif len(pts) == 4:
                centre = 0.25 * sum(fvals)
                if (centre < 0) == (fvals[0] < 0):
                    segs += [(pts[0], pts[3]), (pts[1], pts[2])]
                else:
                    segs += [(pts[0], pts[1]), (pts[2], pts[3])]
    return segs


def _reference_chains(segs, tol):
    """Greedy chaining of unordered segments by endpoint distance."""
    unused = set(range(len(segs)))

    def close(p, q):
        return abs(p[0] - q[0]) <= tol and abs(p[1] - q[1]) <= tol

    chains = []
    while unused:
        a, b = segs[unused.pop()]
        chain = [a, b]
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
        chains.append(np.asarray(chain))
    return chains


@st.composite
def field_on_grid(draw):
    """A field on a random, unevenly spaced grid: a few plane waves, a
    saddle at the level in one cell, or plane waves rounded so that nodes
    sit exactly on the level; with up to three non-finite nodes."""
    nx, ny = draw(st.integers(3, 20)), draw(st.integers(3, 20))
    axes = []
    for n in (nx, ny):
        steps = [draw(st.floats(0.5, 1.5)) for _ in range(n - 1)]
        axes.append(draw(st.floats(-1.0, 1.0)) + 0.1 * np.concatenate(
            [[0.0], np.cumsum(steps)]))
    x, y = np.meshgrid(*axes, indexing="ij")
    f = np.zeros_like(x)
    for _ in range(draw(st.integers(1, 3))):
        kx, ky = draw(st.floats(-8.0, 8.0)), draw(st.floats(-8.0, 8.0))
        f += draw(st.floats(0.1, 1.0)) * np.cos(kx * x + ky * y
                                                 + draw(st.floats(0.0, 6.3)))
    level = draw(st.floats(-0.5, 0.5))
    kind = draw(st.sampled_from(["smooth", "saddle", "rounded"]))
    if kind == "saddle":
        # at a cell centre, at the level up to a small tilt, so that its
        # cell has four crossings and either centre sign
        i0, j0 = draw(st.integers(0, nx - 2)), draw(st.integers(0, ny - 2))
        x0, y0 = axes[0][i0:i0 + 2].mean(), axes[1][j0:j0 + 2].mean()
        f = draw(st.sampled_from([-1.0, 1.0])) * (x - x0) * (y - y0) \
            + draw(st.floats(0.0, 1e-4)) * f
        level = draw(st.floats(-1e-4, 1e-4))
    elif kind == "rounded":
        q = draw(st.sampled_from([2.0, 5.0, 10.0]))
        f, level = np.round(f * q) / q, np.round(level * q) / q
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, nx - 1)), draw(st.integers(0, ny - 1))
        f[i, j] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return f, level, axes[0], axes[1]


def _crossings(values, level, x_axis, y_axis):
    """{grid edge: its linear zero} over the crossed edges of cells with
    four finite corners, each from its lower-index node, and {edge: the
    number of such cells it borders}."""
    v = values - level
    nx, ny = v.shape
    ok = np.isfinite(v)
    ok = ok[:-1, :-1] & ok[1:, :-1] & ok[1:, 1:] & ok[:-1, 1:]
    cells = {}
    for i, j in zip(*np.nonzero(ok)):
        for e in ((i, j, i + 1, j), (i + 1, j, i + 1, j + 1),
                  (i, j + 1, i + 1, j + 1), (i, j, i, j + 1)):
            cells.setdefault(e, []).append((i, j))
    points = {}
    for (i, j, i2, j2) in cells:
        f1, f2 = v[i, j], v[i2, j2]
        if (f1 < 0) != (f2 < 0):
            t = f1 / (f1 - f2)
            points[(i, j, i2, j2)] = (x_axis[i] + t * (x_axis[i2] - x_axis[i]),
                                      y_axis[j] + t * (y_axis[j2] - y_axis[j]))
    return points, cells


@settings(max_examples=150, deadline=None)
@given(field_on_grid())
def test_contour_vertices_are_the_edge_crossings_once_each(case):
    """The vertices over all chains are, as a multiset and bitwise, the
    linear zeros of the crossed edges of cells with finite corners."""
    f, level, xa, ya = case
    points, _ = _crossings(f, level, xa, ya)
    chains = marching_squares(f, level, xa, ya)
    got = Counter(tuple(p) for c in chains for p in c.tolist())
    assert got == Counter(points.values())


@settings(max_examples=150, deadline=None)
@given(field_on_grid())
def test_contour_steps_stay_in_one_cell(case):
    """Consecutive vertices lie on edges of one cell with finite corners;
    a chain ending on an edge between two such cells closes on itself."""
    f, level, xa, ya = case
    points, cells = _crossings(f, level, xa, ya)
    edges_at = {}
    for e, p in points.items():
        edges_at.setdefault(p, []).append(e)

    def cells_of(p):
        return {c for e in edges_at[p] for c in cells[e]}

    for chain in marching_squares(f, level, xa, ya):
        pts = [tuple(p) for p in chain.tolist()]
        for p, q in zip(pts, pts[1:]):
            assert cells_of(p) & cells_of(q)
        if all(len(cells[e]) == 2 for e in edges_at[pts[-1]]):
            assert len(pts) >= 3 and cells_of(pts[-1]) & cells_of(pts[0])


@settings(max_examples=100, deadline=None)
@given(field_on_grid())
def test_contour_matches_tolerance_chaining(case):
    """Same chains as the per-cell routine with tolerance chaining, with
    every vertex within that routine's 1e-3 corner clamp."""
    f, level, xa, ya = case
    chains = marching_squares(f, level, xa, ya)
    tol = 1e-9 * (1 + max(abs(xa).max(), abs(ya).max()))
    ref = _reference_chains(_reference_segments(f, level, xa, ya), tol)
    assert sorted(map(len, chains)) == sorted(map(len, ref))
    if not chains:
        return
    spacing = max(np.diff(xa).max(), np.diff(ya).max())
    got, want = np.vstack(chains), np.vstack(ref)
    dist = np.hypot(*(got[:, None, :] - want[None, :, :]).transpose(2, 0, 1))
    assert dist.min(axis=1).max() <= 1e-3 * spacing * (1 + 1e-9)
    assert dist.min(axis=0).max() <= 1e-3 * spacing * (1 + 1e-9)


def test_contour_keeps_the_region_below_on_its_left():
    ax = np.linspace(-1.0, 1.0, 21)
    x, y = np.meshgrid(ax, ax, indexing="ij")
    bump = x * x + 0.5 * y * y
    (loop,) = marching_squares(bump, 0.3, ax, ax)
    assert polygon_area(loop) > 0.0
    (loop,) = marching_squares(-bump, -0.3, ax, ax)
    assert polygon_area(loop) < 0.0


# ---------------------------------------------------------------------------
# point in polygon and simplicity
# ---------------------------------------------------------------------------

def _points_in_polygon_reference(px, py, poly):
    """The per-edge even-odd loop that the scanline fill replaced."""
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


def _polyline_is_simple_reference(poly):
    """The O(n^2) loop that the x-sweep replaced: every edge against every
    non-adjacent edge."""
    n = len(poly)
    if n < 4:
        return True
    a = np.asarray(poly, dtype=float)
    b = np.roll(a, -1, axis=0)

    def orient(o, q, r):
        return ((q[..., 0] - o[..., 0]) * (r[..., 1] - o[..., 1])
                - (q[..., 1] - o[..., 1]) * (r[..., 0] - o[..., 0]))

    for i in range(n):
        js = np.arange(n)
        js = js[(js != i) & (js != (i - 1) % n) & (js != (i + 1) % n)]
        o1 = orient(a[i][None, :], b[i][None, :], a[js])
        o2 = orient(a[i][None, :], b[i][None, :], b[js])
        o3 = orient(a[js], b[js], np.broadcast_to(a[i], (len(js), 2)))
        o4 = orient(a[js], b[js], np.broadcast_to(b[i], (len(js), 2)))
        if ((np.sign(o1) * np.sign(o2) < 0) & (np.sign(o3) * np.sign(o4) < 0)).any():
            return False
    return True


@st.composite
def lattice_polyline(draw):
    """Vertices on a small integer lattice, so that collinear, touching and
    repeated vertices are common and every orientation is exact."""
    n = draw(st.integers(4, 64))
    side = draw(st.integers(2, 6))
    pts = draw(st.lists(st.tuples(st.integers(0, side), st.integers(0, side)),
                        min_size=n, max_size=n))
    return np.asarray(pts, dtype=float)


@st.composite
def star_polyline(draw):
    """A star polygon with 4-64 vertices, as generated or shuffled."""
    n = draw(st.integers(4, 64))
    th = np.sort(draw(st.lists(st.floats(0.0, 2 * math.pi), min_size=n,
                               max_size=n, unique=True)))
    r = draw(st.floats(0.2, 1.0)) + sum(
        draw(st.floats(-0.15, 0.15)) * np.cos((k + 1) * th + draw(st.floats(0, 6.3)))
        for k in range(3))
    poly = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
    if draw(st.booleans()):
        poly = poly[draw(st.permutations(range(n)))]
    return poly


@st.composite
def figure_eight(draw):
    """Lissajous figure-eights and bow-ties (one self-crossing each), with
    4-64 vertices, rotated and scaled."""
    n = draw(st.integers(4, 64))
    th = np.linspace(0.0, 2 * math.pi, n, endpoint=False) + draw(st.floats(0, 1))
    if draw(st.booleans()):
        pts = np.stack([np.sin(th), np.sin(th) * np.cos(th)], axis=1)
    else:
        pts = np.array([[-1.0, -1.0], [1.0, 1.0], [1.0, -1.0], [-1.0, 1.0]])
    phi = draw(st.floats(0.0, 2 * math.pi))
    rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
    return draw(st.floats(0.01, 100.0)) * pts @ rot


@st.composite
def with_nan(draw, polys):
    poly = np.array(draw(polys))
    for _ in range(draw(st.integers(1, 2))):
        poly[draw(st.integers(0, len(poly) - 1)), draw(st.integers(0, 1))] = np.nan
    return poly


POLYLINES = st.one_of(star_polyline(), figure_eight(), lattice_polyline(),
                      with_nan(star_polyline()), with_nan(lattice_polyline()))


@st.composite
def uneven_grid(draw, poly):
    """Query points on a random uneven grid around `poly`, with rows and
    columns also through every vertex coordinate."""
    axes = []
    for d in range(2):
        n = draw(st.integers(2, 24))
        steps = np.array([draw(st.floats(0.2, 1.8)) for _ in range(n)])
        ax = np.concatenate([-1.5 + 3.0 * np.cumsum(steps) / steps.sum(),
                             poly[:, d]])
        axes.append(np.unique(ax))
    return np.meshgrid(*axes, indexing="ij")


@settings(max_examples=80, deadline=None)
@given(st.one_of(star_polyline(), with_nan(star_polyline())), st.data())
def test_points_in_polygon_matches_per_edge_loop(poly, data):
    """Bitwise the same mask on star polygons (self-crossing when their
    vertices are shuffled, or with NaN vertices), with points on vertex
    rows and columns."""
    x, y = data.draw(uneven_grid(poly))
    got = points_in_polygon(x, y, poly)
    assert got.shape == x.shape
    assert np.array_equal(got, _points_in_polygon_reference(x, y, poly))


@settings(max_examples=300, deadline=None)
@given(POLYLINES)
def test_polyline_is_simple_matches_pairwise_loop(poly):
    assert polyline_is_simple(poly) == _polyline_is_simple_reference(poly)


@settings(max_examples=60, deadline=None)
@given(POLYLINES)
def test_polyline_is_simple_in_small_passes(poly):
    """The same answer when the x-sweep pairs are tested a few at a time."""
    want = _polyline_is_simple_reference(poly)
    old = geometry.PAIR_BLOCK
    try:
        geometry.PAIR_BLOCK = 7
        assert polyline_is_simple(poly) == want
    finally:
        geometry.PAIR_BLOCK = old


@settings(max_examples=60, deadline=None)
@given(POLYLINES)
def test_x_sweep_pairs_are_the_overlapping_x_ranges(poly):
    """Each pair of edges whose x-ranges meet is listed once, and no other."""
    order, count = x_sweep(poly)
    pairs = [frozenset((int(order[s]), int(order[t])))
             for s in range(len(poly)) for t in range(s + 1, s + 1 + count[s])]
    xa, xb = poly[:, 0], np.roll(poly[:, 0], -1)
    lo, hi = np.minimum(xa, xb), np.maximum(xa, xb)
    want = {frozenset((i, j)) for i in range(len(poly)) for j in range(i)
            if lo[i] <= hi[j] and lo[j] <= hi[i]}
    assert len(pairs) == len(set(pairs)) and want <= set(pairs)
    assert all(np.isnan(lo[list(p)]).any() for p in set(pairs) - want)


def test_large_circle_is_simple():
    th = np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)
    circle = np.stack([np.cos(th), np.sin(th)], axis=1)
    assert polyline_is_simple(circle)
    assert not polyline_is_simple(circle[np.r_[0:2048, 3072:4096, 2048:3072]])


def test_collinear_edges_apart_in_x_do_not_cross():
    """Four points on one line, rounded: the edges (p0, p1) and (p2, p3)
    have disjoint x-ranges, but the rounded orientations of the pairwise
    loop called them crossing."""
    line = [[-0.5552024814004579, -1.4557435122046773],
            [0.052970192901846236, -0.17800815116656288],
            [0.1693953364763352, 0.06659429341008971],
            [0.5449425279108049, 0.8555970659941357]]
    poly = np.array(line + [[0.0, 5.0]])
    assert not _polyline_is_simple_reference(poly)
    assert polyline_is_simple(poly)
