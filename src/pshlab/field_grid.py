"""Structured grids on disc/ball domains, finite-difference stencils, and
the C2-type seminorm used by the gluing estimates.

Conventions
-----------
* dd^c is normalised so that dd^c ln|z|^2 is the unit Dirac mass at the
  origin.  In one complex variable the density of dd^c f with respect to
  Lebesgue area is then (1/4pi) * Laplacian(f), so dd^c |z|^2 has constant
  density 1/pi and the disc {|z| <= r} encloses mass r^2.
* Cartesian grids place nodes at x_i = -R + i*h with h = 2R/resolution.
  For even resolutions the origin is a node (exactly, when R is dyadic).
* Stencils are second-order central differences.  A one-node layer at the
  rim of the masked-in region is dropped from every stencil output rather
  than one-sided-differenced: all estimates here are interior estimates.
  `neighbour_sum` is the one five-point neighbour pattern of the package,
  `five_point_flat` its row-major form: the solver's mean and CG operator,
  the Laplacians of its maximality and fiberwise-degeneracy certificates,
  the leaf read-out's smoothing pass and the level-set check's dilation.
  `gradient_sup` is the first-derivative term of `c2_norm`.
* `bilinear` reads a 2-D array between its nodes by the linear rule of
  scipy's RegularGridInterpolator (its `evaluate_linear_2d`), bitwise.
* log-radial grids store t = ln|z|^2 on a uniform grid with floor
  t_min = -40, a working proxy for -infinity: below it every radial
  obstacle with positive pole weight is slack.

Fields are immutable after construction (numpy write flags are cleared).
Stencil operations are pure functions of their inputs and independent of
evaluation order.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

LOG_RADIAL_FLOOR = -40.0

_STYLES = ("cartesian", "log-radial")


@dataclass(frozen=True)
class GridSpec:
    """Geometry of a structured grid over a disc (n=1) or ball (n=2) domain.

    resolution counts nodes per real axis; spacing is h = 2R/resolution.
    Cartesian grids for n complex dimensions hold resolution^(2n) nodes on
    [-R, R-h]^(2n); log-radial grids hold resolution^n nodes on a uniform
    box in t_i = ln|z_i|^2.
    """

    n: int
    resolution: int
    radius: float
    style: str = "cartesian"

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError(f"unsupported complex dimension n={self.n} (need 1 or 2)")
        if self.resolution < 16:
            raise ValueError(
                f"resolution {self.resolution} < 16: stencils would be meaningless")
        if not (self.radius > 0):
            raise ValueError(f"radius must be positive, got {self.radius}")
        if self.style not in _STYLES:
            raise ValueError(f"unknown grid style {self.style!r}")

    @property
    def h(self) -> float:
        """Node spacing 2R/resolution (cartesian axes)."""
        return 2.0 * self.radius / self.resolution

    @property
    def shape(self):
        if self.style == "cartesian":
            return (self.resolution,) * (2 * self.n)
        return (self.resolution,) * self.n

    # ---- coordinates -------------------------------------------------

    def axis(self) -> np.ndarray:
        """Cartesian node coordinates along one real axis."""
        return -self.radius + self.h * np.arange(self.resolution)

    def t_axis(self) -> np.ndarray:
        """log-radial node coordinates t = ln|z|^2."""
        return np.linspace(LOG_RADIAL_FLOOR, np.log(self.radius ** 2),
                           self.resolution)

    def nodes(self):
        """Complex node coordinates.

        n=1 cartesian: one (res, res) complex array, entry [i, j] at
        x_i + 1j*y_j.  n=2 cartesian: a pair of (res,)*4 arrays (z1, z2).
        log-radial grids have no complex embedding; use t_axis().
        """
        if self.style != "cartesian":
            raise ValueError("nodes() requires a cartesian grid")
        ax = self.axis()
        if self.n == 1:
            x, y = np.meshgrid(ax, ax, indexing="ij")
            return x + 1j * y
        x1, y1, x2, y2 = np.meshgrid(ax, ax, ax, ax, indexing="ij")
        return x1 + 1j * y1, x2 + 1j * y2

    def rho(self) -> np.ndarray:
        """Squared norm |z|^2 at the nodes."""
        if self.style == "cartesian":
            z = self.nodes()
            if self.n == 1:
                return (z * z.conj()).real
            z1, z2 = z
            return (z1 * z1.conj() + z2 * z2.conj()).real
        if self.n == 1:
            return np.exp(self.t_axis())
        t1, t2 = np.meshgrid(self.t_axis(), self.t_axis(), indexing="ij")
        return np.exp(t1) + np.exp(t2)

    def inside_mask(self) -> np.ndarray:
        """Boolean mask of nodes strictly inside the domain |z| < R."""
        return self.rho() < self.radius ** 2

    def origin_index(self):
        """Index of the node closest to z = 0 (exact for even res, dyadic R)."""
        if self.style != "cartesian":
            return None
        i0 = int(np.argmin(np.abs(self.axis())))
        return (i0,) * (2 * self.n)


def build_grid(n: int, resolution: int, radius: float,
               style: str = "cartesian") -> GridSpec:
    """Construct and validate a GridSpec.  See GridSpec for layout."""
    return GridSpec(n=n, resolution=resolution, radius=float(radius), style=style)


def erode_mask(mask: np.ndarray, times: int = 1) -> np.ndarray:
    """Shrink a boolean mask by one node along every array axis, `times` times."""
    out = mask
    for _ in range(times):
        nxt = out.copy()
        for ax in range(out.ndim):
            lo = np.roll(out, 1, axis=ax)
            hi = np.roll(out, -1, axis=ax)
            # roll wraps around; kill the wrapped lines
            sl = [slice(None)] * out.ndim
            sl[ax] = 0
            lo[tuple(sl)] = False
            sl[ax] = -1
            hi[tuple(sl)] = False
            nxt &= lo & hi
        out = nxt
    return out


@dataclass
class ScalarField:
    """Real values sampled on a GridSpec, with an inside-domain mask.

    Invariants: values.shape == mask.shape == grid.shape and values are
    finite at every masked-in node.  (Obstacle fields that carry an
    unconstrained sentinel at the origin keep that node masked out; the
    raw array is held by the obstacle object, not here.)
    """

    grid: GridSpec
    values: np.ndarray
    mask: np.ndarray = field(default=None)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if self.mask is None:
            self.mask = self.grid.inside_mask()
        msk = np.asarray(self.mask, dtype=bool)
        if vals.shape != self.grid.shape or msk.shape != vals.shape:
            raise ValueError(
                f"field shape {vals.shape} does not match grid {self.grid.shape}")
        if not np.all(np.isfinite(vals[msk])):
            raise ValueError("non-finite values at masked-in nodes")
        vals = vals.copy()
        msk = msk.copy()
        vals.setflags(write=False)
        msk.setflags(write=False)
        self.values = vals
        self.mask = msk

    def with_values(self, values) -> "ScalarField":
        return ScalarField(self.grid, values, self.mask)

    def masked_fill(self, fill: float) -> np.ndarray:
        out = np.array(self.values, copy=True)
        out[~self.mask] = fill
        return out

    def sup_diff(self, other: "ScalarField") -> float:
        if other.grid != self.grid:
            raise ValueError("grid mismatch")
        m = self.mask & other.mask
        return float(np.max(np.abs(self.values[m] - other.values[m])))


# ---------------------------------------------------------------------------
# stencils
# ---------------------------------------------------------------------------

def neighbour_sum(v: np.ndarray) -> np.ndarray:
    """Sum of the four axis neighbours of each interior node of a 2-D
    array, shape (n-2, m-2), added in the order +x, -x, +y, -y from the
    left.  On boolean arrays numpy's add is logical or, so it dilates."""
    return v[2:, 1:-1] + v[:-2, 1:-1] + v[1:-1, 2:] + v[1:-1, :-2]


def five_point_flat(z, w, mask, out, tmp):
    """out = mask (4 z - (z[i+w] + z[i-w] + z[i+1] + z[i-1])), z a 2-D array
    stored row-major, rows of width w, tmp scratch of its size.  Bitwise
    4 v[1:-1, 1:-1] - neighbour_sum(v) where mask is 1 (same sum order);
    mask must vanish on the rim and z be finite (column shifts wrap there)."""
    n = len(z)
    s = tmp[w:n - w]
    np.add(z[2 * w:], z[:n - 2 * w], out=s)
    s += z[w + 1:n - w + 1]
    s += z[w - 1:n - w - 1]
    np.multiply(z, 4.0, out=out)
    out[w:n - w] -= s
    out *= mask


def _central_first(values, axis, h):
    v = np.moveaxis(values, axis, 0)
    out = np.full_like(v, np.nan)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    return np.moveaxis(out, 0, axis)


def _central_second(values, axis, h):
    v = np.moveaxis(values, axis, 0)
    out = np.full_like(v, np.nan)
    out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (h * h)
    return np.moveaxis(out, 0, axis)


def _central_mixed(values, ax1, ax2, h):
    d1 = _central_first(values, ax1, h)
    return _central_first(d1, ax2, h)


def laplacian(f: ScalarField) -> ScalarField:
    """Discrete Laplacian over all real axes, boundary layer masked out."""
    if f.grid.style != "cartesian":
        raise ValueError("stencils require a cartesian grid")
    h = f.grid.h
    vals = f.values
    out = np.zeros_like(vals)
    for ax in range(vals.ndim):
        out = out + np.nan_to_num(_central_second(vals, ax, h), nan=np.nan)
    mask = erode_mask(f.mask)
    out = np.where(mask, out, np.nan)
    return ScalarField(f.grid, np.where(mask, out, 0.0), mask)


def ddc_component(f: ScalarField):
    """Density / components of dd^c f with respect to Lebesgue measure.

    n=1: returns one field, (1/4pi) * Laplacian(f), the density of dd^c f.
    n=2: returns the complex Hessian as four fields
    (H_11, H_22, Re H_12, Im H_12) with H_ab = d^2 f / dz_a dzbar_b.

    Nodes whose stencil would leave the masked-in region are masked out,
    never extrapolated.
    """
    if f.grid.style != "cartesian":
        raise ValueError("stencils require a cartesian grid")
    h = f.grid.h
    if f.grid.n == 1:
        lap = laplacian(f)
        dens = lap.values / (4.0 * np.pi)
        return ScalarField(f.grid, np.where(lap.mask, dens, 0.0), lap.mask)

    vals = f.values
    mask = erode_mask(f.mask)
    fxx = {ax: _central_second(vals, ax, h) for ax in range(4)}
    # axes: 0 = x1, 1 = y1, 2 = x2, 3 = y2
    h11 = 0.25 * (fxx[0] + fxx[1])
    h22 = 0.25 * (fxx[2] + fxx[3])
    fx1x2 = _central_mixed(vals, 0, 2, h)
    fy1y2 = _central_mixed(vals, 1, 3, h)
    fx1y2 = _central_mixed(vals, 0, 3, h)
    fy1x2 = _central_mixed(vals, 1, 2, h)
    h12re = 0.25 * (fx1x2 + fy1y2)
    h12im = 0.25 * (fx1y2 - fy1x2)
    mask = mask & np.isfinite(h11) & np.isfinite(h12re) & np.isfinite(h12im)
    pack = lambda a: ScalarField(f.grid, np.where(mask, a, 0.0), mask)
    return pack(h11), pack(h22), pack(h12re), pack(h12im)


def c2_norm(f: ScalarField, g: ScalarField) -> float:
    """Three-term C2 norm of f - g over the common masked-in region:

        sup |f-g|  +  sup max_i (|d_i (f-g)|)  +  sup max_ij (|d_i d_j (f-g)|)

    with first and second partials over all real coordinate directions,
    evaluated by central differences (the one- resp. two-node rim of the
    mask is dropped for the derivative sups).
    """
    if f.grid != g.grid:
        raise ValueError("c2_norm requires fields on the same grid")
    if f.grid.style != "cartesian":
        raise ValueError("c2_norm requires a cartesian grid")
    h = f.grid.h
    diff = f.values - g.values
    m0 = f.mask & g.mask
    if not m0.any():
        raise ValueError("empty common mask")
    term0 = float(np.max(np.abs(diff[m0])))

    m2 = erode_mask(m0, times=2)
    best2 = 0.0
    for ax in range(diff.ndim):
        d = _central_second(diff, ax, h)
        best2 = max(best2, float(np.max(np.abs(d[m2]))))
    for a1 in range(diff.ndim):
        for a2 in range(a1 + 1, diff.ndim):
            d = _central_mixed(diff, a1, a2, h)
            best2 = max(best2, float(np.max(np.abs(d[m2]))))
    return term0 + gradient_sup(diff, m0, h) + best2


def gradient_sup(values: np.ndarray, mask: np.ndarray, h: float) -> float:
    """sup over erode_mask(mask) of max_i |d_i values|, by central
    differences: the first-derivative term of `c2_norm`."""
    m1 = erode_mask(mask)
    best = 0.0
    for ax in range(values.ndim):
        d = _central_first(values, ax, h)
        best = max(best, float(np.max(np.abs(d[m1]))))
    return best


def rounding_noise(scale):
    """Value noise of data that are exact up to rounding: a few ulps of
    `scale`, the magnitude of the terms that make up a value (elementwise
    for an array of scales)."""
    return 4.0 * np.finfo(float).eps * np.maximum(1.0, scale)


def _cells(ax, x):
    """`np.searchsorted(ax[1:-1], x, "right")`.  Within a quarter cell of
    uniform, the guess from the spacing is at most one cell off, and one
    comparison with each edge (nan above: no x reaches it) corrects it."""
    n = len(ax)
    step = (ax[-1] - ax[0]) / (n - 1)
    if np.any(np.abs(ax - np.linspace(ax[0], ax[-1], n)) > 0.25 * step):
        return np.searchsorted(ax[1:-1], x, "right")
    i = np.nan_to_num(np.clip((x - ax[0]) / step, 0, n - 2), nan=n - 2).astype(int)
    edge = np.concatenate(([-np.inf], ax[1:-1], [np.nan]))
    i += x >= edge[i + 1]
    i -= x < edge[i]
    return i


def bilinear(ax, values, points, fill):
    """values[i, j], sampled at (ax[i], ax[j]), read bilinearly at `points`
    shaped (..., 2); `fill` off [ax[0], ax[-1]]^2, nan at nan points.
    Bitwise RegularGridInterpolator((ax, ax), values, method="linear",
    bounds_error=False, fill_value=fill): its cells, weights and sums."""
    x, y = xy = np.moveaxis(np.asarray(points, dtype=float), -1, 0)
    i, j = ij = _cells(ax, xy)   # clip(searchsorted(ax, xy, "right") - 1)
    tx, ty = (xy - ax[ij]) / np.diff(ax)[ij]
    sx, sy = 1 - tx, 1 - ty
    n = len(ax)
    k, v = i * n + j, values.ravel()   # v[k] is values[i, j]
    out = 0.0 + v[k] * sx * sy
    out += v[k + 1] * sx * ty
    out += v[k + n] * tx * sy
    out += v[k + n + 1] * tx * ty
    low = np.minimum(x, y)   # nan where x or y is
    outside = (low < ax[0]) | (np.maximum(x, y) > ax[-1])
    return np.where(outside & ~np.isnan(low), fill, out)


# ---------------------------------------------------------------------------
# serialization: header + row-major CSV, NaN encodes masked-out
# ---------------------------------------------------------------------------

CSV_BLOCK = 1 << 14
CSV_CELL = 25   # any `%.17g` of a double fits in 24 characters, then ","


def write_csv(path, array, header: str = "") -> None:
    """Write `array` (2-D, or one 1-D row) as CSV after each `header` line
    as a `# ` comment, each value v as `f"{v:.17g}"`: it round-trips every
    float, nan, inf and -0 included.  Given an open binary file for `path`,
    it appends, so one pass can write several files a row block at a time.

    Rows go out in blocks of at most `CSV_BLOCK` values (or one wider row),
    so memory does not grow with the file: 2^14 values, one row of a 128^2
    ray, keep a block's temporaries near 2 MB, below the ray's own arrays.
    A block formats each distinct value once, keyed by its bit pattern
    (floats; `%.17g` is a function of the bits, so -0 and 0 stay apart) or
    by value (ints), into fixed-width `%-24.17g,` cells, gathers them
    through the block's inverse index (one stable argsort and a mask of
    where the sorted keys change) and drops the padding.  Ray files repeat
    values heavily (pixels on one radius are bitwise equal); all-distinct
    data pays for the sort and the gather on top of the formatting.  The
    bytes do not depend on the block size."""
    arr = np.atleast_2d(np.asarray(array))
    keys = arr.view(f"u{arr.itemsize}") if arr.dtype.kind == "f" else arr
    rows, cols = arr.shape
    step = max(1, CSV_BLOCK // max(cols, 1))
    with nullcontext(path) if hasattr(path, "write") else Path(path).open("wb") as fh:
        fh.write("".join(f"# {line}\n" for line in header.splitlines())
                 .encode("utf-8"))
        for r0 in range(0, rows, step):
            block = keys[r0:r0 + step]
            order = np.argsort(block, axis=None, kind="stable")
            srt = block.ravel()[order]
            first = np.ones(srt.size, bool)
            np.not_equal(srt[1:], srt[:-1], out=first[1:])
            uniq = srt[first]
            inv = np.empty(srt.size, np.intp)
            inv[order] = np.cumsum(first) - 1
            text = (("%-24.17g," * uniq.size)
                    % tuple(uniq.view(arr.dtype).tolist())).encode("ascii")
            cells = np.frombuffer(text, f"S{CSV_CELL}")
            lines = np.full((len(block), cols * CSV_CELL + 1), ord("\n"),
                            np.uint8)
            lines[:, :-1] = np.take(cells, inv.reshape(block.shape)).view(
                np.uint8)
            lines[:, -2:-1] = ord(" ")   # each row's last comma, if it has one
            fh.write(lines[lines != ord(" ")])


def save_field(f: ScalarField, path) -> None:
    g = f.grid
    write_csv(path, f.masked_fill(np.nan).reshape(g.shape[0], -1),
              f"pshlab-field v1\nn={g.n} resolution={g.resolution} "
              f"radius={g.radius!r} style={g.style}")


def load_field(path) -> ScalarField:
    path = Path(path)
    meta = {}
    rows = []
    with path.open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for tok in line[1:].split():
                    if "=" in tok:
                        k, v = tok.split("=", 1)
                        meta[k] = v
                continue
            rows.append([float(tok) for tok in line.split(",")])
    grid = GridSpec(n=int(meta["n"]), resolution=int(meta["resolution"]),
                    radius=float(meta["radius"]), style=meta["style"])
    vals = np.asarray(rows, dtype=float).reshape(grid.shape)
    mask = np.isfinite(vals)
    return ScalarField(grid, np.where(mask, vals, 0.0), mask)
