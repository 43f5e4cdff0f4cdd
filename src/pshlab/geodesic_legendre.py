"""S^1-invariant weak geodesic rays assembled from envelope slices by
Legendre duality, with the Hamiltonian and degenerate-Monge-Ampere
diagnostics.

The invariance kills the disc variable: with t = -ln|tau|^2 the geodesic
potential is

    u(x, t) = sup_lam { a_lam(x) + lam * t },        t in [0, T_max],

the convex conjugate (in t) of the slice family a_lam = deficit of the
envelope at pole weight lam.  Conversely

    alpha_lam(x) = inf_t { u(x, t) - lam * t }

must reproduce the slices (involution of convex conjugation).  Both
directions are computed exactly on the piecewise-linear-in-lam model:
the conjugate minimizes over the breakpoints of u(x, .), not over a
sampled t-grid, so the round trip is limited only by concavity defects
of the input family.  u and the conjugates' candidates are read off a
per-pixel table of the breakpoints t_k = (a_k - a_{k+1}) / dlam_k (the
idea of Lucet's linear-time Legendre transform, Numer. Algorithms 16
(1997)), bitwise equal to the m-fold max per t that they replace.

The Hamiltonian is the t-slope H(x,t) = argmax lam (ties broken upward,
the right slope of the convex function u(x, .)); it is nondecreasing in
t, vanishes exactly where the maximizer is the zero slice (the pole
locus), and satisfies {a_lam < 0} = {H_0 < lam} on the lam-grid by
construction of the argmax.  A refined crossing solve on the slope
differences gives a smooth Hamiltonian field off the lam-grid, used by
the foliation tracer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .field_grid import CSV_BLOCK, GridSpec, ScalarField, rounding_noise
from .envelope_solver import strict_residual

_NEG_FILL = -1e300
_LOG_MAX = math.log(np.finfo(float).max)   # the largest x with finite exp(x)


@dataclass
class GeodesicRay:
    """Slice family {a_lam}, its conjugate potential u(x,t), and grids.

    results[k] is the EnvelopeResult at lam_grid[k] of the weight phi
    (`potential`), and slices[k] its deficit field; cutoff c bounds the
    lam-grid from above.  u(x, .) is piecewise linear with breakpoints
    t_k(x) = (a_k - a_{k+1}) / dlam_k; the argmax at any increasing list of
    t is read off the table of them (`_read`), and u off the argmax.  Only
    the uint16 argmax on the t-grid is kept (a cache that a ray
    `dataclasses.replace`d onto another family does not carry).
    """

    spatial_grid: GridSpec
    lam_grid: np.ndarray
    t_grid: np.ndarray
    results: list
    cutoff: float
    _stack: np.ndarray = field(default=None, repr=False, init=False)
    _argmax: np.ndarray = field(default=None, repr=False, init=False)
    _smooth_h_cache: ScalarField = field(default=None, repr=False, init=False)

    @property
    def slices(self) -> list:
        return [res.deficit for res in self.results]

    @property
    def backend(self) -> str:
        return self.results[0].backend

    @property
    def potential(self):
        return self.results[0].potential

    @property
    def t_max(self) -> float:
        return float(self.t_grid[-1])

    @property
    def d_lam(self) -> float:
        return float(self.lam_grid[1] - self.lam_grid[0])

    def slice_stack(self) -> np.ndarray:
        """(m, ny, nx) array of slice values, masked nodes at a large
        negative fill (the pole column)."""
        if self._stack is None:
            self._stack = np.stack([s.masked_fill(_NEG_FILL) for s in self.slices])
            self._stack.setflags(write=False)
        return self._stack

    def u_values(self) -> np.ndarray:   # derived afresh, not kept
        arg = self.argmax_index()
        return self._u_rows(arg.reshape(len(arg), -1),
                            self.t_grid).reshape(arg.shape)

    def argmax_index(self) -> np.ndarray:
        if self._argmax is None:
            self._argmax = self._read(self.t_grid).reshape(
                (len(self.t_grid),) + self.spatial_grid.shape)
        return self._argmax

    def _u_rows(self, arg, T, cols=slice(None)):
        """u = a_arg + lam_arg t, (n, P), from the argmax rows `arg` (n, P)
        of the pixels `cols`, row i at T[i] (one t, or one per pixel)."""
        A = self.slice_stack().reshape(len(self.lam_grid), -1)[:, cols]
        u, idx, flat = np.empty(arg.shape), np.arange(A.shape[1]), A.ravel()
        for i, k in enumerate(arg):
            k = k.astype(np.intp)
            u[i] = flat[k * len(idx) + idx]
            u[i] += self.lam_grid[k] * T[i]
        return u

    def eval_u(self, t):
        """u(., t) for scalar t >= 0, or the (len(t), ny, nx) stack for an
        increasing array of such t: the sup over the slice family, read off
        the breakpoint table."""
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        if ts[0] < 0 or np.any(np.diff(ts) < 0):
            raise ValueError("t must be nonnegative and increasing")
        u = self._u_rows(self._read(ts), ts).reshape(
            ts.shape + self.spatial_grid.shape)
        return u if np.ndim(t) else u[0]

    def mask(self) -> np.ndarray:
        return self.results[0].deficit.mask

    def _table(self):
        """The breakpoint table, flattened over pixels: the breakpoints
        (m-1, N); which of them are exact ties a_k == a_{k+1}; the pixels
        whose breakpoints are not finite and nondecreasing (a family that
        is not its own upper concave hull there, such as the pole with
        its fill); and max_k |a_k| per pixel, the scale of the rounding.
        Built afresh for each reader: kept, it would outweigh the argmax."""
        A = self.slice_stack().reshape(len(self.lam_grid), -1)
        t_br = A[:-1] - A[1:]
        tie = t_br == 0
        with np.errstate(invalid="ignore", over="ignore"):
            t_br /= np.diff(self.lam_grid)[:, None]
        hull = np.isfinite(t_br).all(axis=0) \
            & np.all(t_br[1:] >= t_br[:-1], axis=0)
        return t_br, tie, ~hull, np.maximum(A.max(axis=0), -A.min(axis=0))

    def _margin(self, scale, t_hi: float):
        """Per pixel, the distance from a breakpoint t_k beyond which the
        rounded values a_j + lam_j t, t in [0, t_hi], lie on the side of
        it that t_k says: the plateau rule at the rounding noise of the
        scale S = max_k |a_k| + lam_top t_hi and the narrowest lam bin.
        Each rounded value is off by at most eps S and the rounded t_k by
        at most 3 eps S / dlam_k, so the rounded difference of slices k+1
        and k differs from dlam_k (t - t_k) by under 5 eps S, less than
        the 8 eps S the rule allows.  Closer, a pixel is read by the
        exact max."""
        noise = rounding_noise(scale + self.lam_grid[-1] * t_hi)
        return plateau_threshold(noise, np.min(np.diff(self.lam_grid),
                                               initial=np.inf))

    def _read(self, ts, table=None):
        """The argmax (uint16, ties to the upper slice), (len(ts), N), at the
        increasing t values `ts` >= 0; `table` is `_table()`, or built here.

        Where the breakpoints are nondecreasing the argmax at t is
        #{k : t_k <= t}: a searchsorted of each breakpoint into `ts`, a
        difference table and a cumulative sum over t.  That is the max of
        the rounded values when no t lies within `_margin` of a breakpoint
        other than an exact tie (which never lowers a_k + lam_k t, t >= 0);
        other pixels keep the exact per-t max (`_upper_max`)."""
        A = self.slice_stack().reshape(len(self.lam_grid), -1)
        n, N = len(ts), A.shape[1]
        # kept array first: the table, freed after, leaves no hole under it
        counts = np.zeros((n + 1) * N, np.uint16)
        t_br, tie, exact, scale = self._table() if table is None else table
        mrg = self._margin(scale, float(ts[-1]))
        cols = np.arange(N)
        pad = np.concatenate(([-np.inf], ts, [np.inf]))
        for k in range(len(t_br)):
            pos = np.searchsorted(ts, t_br[k])       # t_k <= ts[i] iff i >= pos
            exact = exact | (~tie[k] & ((pad[pos + 1] - t_br[k] <= mrg)
                                        | (t_br[k] - pad[pos] <= mrg)))
            counts[pos * N + cols] += 1              # pixels are distinct in a row
        del table, t_br, tie                         # free the breakpoints
        arg = counts.reshape(n + 1, N)[:n]
        for i in range(1, n):
            arg[i] += arg[i - 1]
        ex = np.flatnonzero(exact)
        if ex.size:
            arg[:, ex] = _upper_max(A[:, ex], self.lam_grid,
                                    np.broadcast_to(ts[:, None], (n, ex.size)))
        return arg


def _upper_max(A, lam, T):
    """The exact per-t argmax (uint16, ties to the upper slice), (n, P), of
    a_k + lam_k t over the rows of A (m, P) at the t values T (n, P)."""
    arg = np.empty(T.shape, np.uint16)
    for i, t in enumerate(T):
        arg[i] = len(A) - 1 - np.argmax((A + lam[:, None] * t)[::-1], axis=0)
    return arg


def lam_nodes(c: float, m: int) -> list:
    """The lam-grid of an m-slice family below the cutoff c: c k / m,
    k = 0, ..., m - 1."""
    return [c * k / m for k in range(m)]


def default_t_grid(c: float, m: int, grid: GridSpec | None = None,
                   n_t: int = 96) -> np.ndarray:
    """[0, T_max] long enough that every conjugating infimum is attained
    interiorly: 2 beyond ln(c/lam_1) (lam_1 the first positive node), the
    range must also cover the pole-adjacent nodes, whose minimizing t
    grows like ln(lam/|z|^2): 2 beyond ln(c/rho_min), rho_min the least
    positive |z|^2 of a node inside the grid's domain (h^2 on an n = 1
    cartesian grid, far less on a log-radial one)."""
    lam1 = c / m
    t_max = math.log(c / lam1) + 2.0
    if grid is not None:
        rho = grid.rho()
        rho_min = float(np.min(rho[(rho > 0) & (rho < grid.radius ** 2)]))
        t_max = max(t_max, math.log(c / rho_min) + 2.0)
    return np.linspace(0.0, t_max, n_t)


def assemble_geodesic(results, c: float, t_grid=None,
                      n_t: int = 96) -> GeodesicRay:
    """Assemble the ray u(x,t) = max_k (a_k(x) + lam_k t) from a slice
    family: EnvelopeResults with strictly increasing lam in [0, c), as
    `radial_envelopes` / `grid_envelopes` return them on `lam_nodes`.

    The deficits must be pointwise nonincreasing in lam (monotonicity of
    the envelopes); a violation beyond 1e-7 raises, naming the offending
    pair.  The ray keeps the results.
    """
    lam_arr = np.array([res.lam for res in results], dtype=float)
    if len(lam_arr) < 1 or np.any(np.diff(lam_arr) <= 0):
        raise ValueError("lam grid must be strictly increasing")
    if lam_arr[-1] >= c or lam_arr[0] != 0.0:
        raise ValueError("lam grid must start at 0 and stay below the cutoff c")

    fields = [res.deficit for res in results]
    grid = fields[0].grid
    for k in range(len(fields) - 1):
        lo, hi = fields[k], fields[k + 1]
        if hi.grid != grid:
            raise ValueError("slices live on different grids")
        m = lo.mask & hi.mask
        gap = float(np.max(hi.values[m] - lo.values[m])) if m.any() else 0.0
        if gap > 1e-7:
            raise ValueError(
                f"slice family is not monotone: a[lam={lam_arr[k]:.6g}] < "
                f"a[lam={lam_arr[k + 1]:.6g}] by {gap:.3g} somewhere")

    if t_grid is None:
        t_grid = default_t_grid(c, len(lam_arr), grid=grid, n_t=n_t)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid[0] != 0.0 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t grid must start at 0 and increase")
    return GeodesicRay(spatial_grid=grid, lam_grid=lam_arr, t_grid=t_grid,
                       results=results, cutoff=float(c))


# ---------------------------------------------------------------------------
# exact conjugation
# ---------------------------------------------------------------------------

def legendre_slices(ray: GeodesicRay, lams) -> list:
    """alpha_lam(x) = min over t in [0, T_max] of (u(x,t) - lam t), exact on
    the piecewise-linear model: the minimum is scanned over the breakpoint
    set of u(x, .) plus the endpoints.  u at the endpoints is read off the
    breakpoint table; at a breakpoint t_k inside (0, T_max) it is the larger
    of the two slices meeting there, the max over the family wherever the
    neighbouring breakpoints lie beyond `GeodesicRay._margin`; other pixels
    take the exact max.  Returns a list of ScalarFields matching `lams`."""
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    if np.any(lams < 0) or np.any(lams >= ray.cutoff):
        raise ValueError(f"lam outside [0, {ray.cutoff}): {lams}")
    table = ray._table()
    t_br, _, exact, scale = table
    m = len(ray.lam_grid)
    A = ray.slice_stack().reshape(m, -1)
    lam = ray.lam_grid
    t_lo, t_hi = 0.0, ray.t_max

    T = np.empty((m + 1,) + t_br.shape[1:])
    T[0] = t_lo
    T[1:m] = np.clip(np.nan_to_num(t_br, nan=t_lo, posinf=t_hi, neginf=t_lo),
                     t_lo, t_hi)
    T[m] = t_hi
    U = np.empty_like(T)
    ends = np.array([t_lo, t_hi])
    U[[0, m]] = ray._u_rows(ray._read(ends, table), ends)
    U[1:m] = np.maximum(A[:-1] + lam[:-1, None] * T[1:m],
                        A[1:] + lam[1:, None] * T[1:m])
    inner = (t_br > t_lo) & (t_br < t_hi)
    U[1:m] = np.where(inner, U[1:m], np.where(t_br <= t_lo, U[0], U[m]))
    close = np.zeros(A.shape, bool)
    close[1:-1] = np.diff(t_br, axis=0) <= ray._margin(scale, t_hi)
    exact = exact | np.any(inner & (close[:-1] | close[1:]), axis=0)
    ex = np.flatnonzero(exact)
    if ex.size:
        U[:, ex] = ray._u_rows(_upper_max(A[:, ex], lam, T[:, ex]),
                               T[:, ex], ex)

    out = []
    base_mask = ray.mask()
    shape = ray.spatial_grid.shape
    buf = np.empty_like(T)
    for lq in lams:
        np.multiply(T, lq, out=buf)
        np.subtract(U, buf, out=buf)             # U - lq * T
        conj = buf.min(axis=0).reshape(shape)
        vals = np.where(base_mask, conj, 0.0)
        out.append(ScalarField(ray.spatial_grid, vals, base_mask))
    return out


# ---------------------------------------------------------------------------
# Hamiltonian
# ---------------------------------------------------------------------------

@dataclass
class HamiltonianField:
    """t-slope of the ray: values[i] = H(., t_i), h0 = H(., 0).

    H >= 0; H = 0 exactly where the argmax slice index is 0 (the pole
    locus in the zero-slice coincidence region)."""

    t_grid: np.ndarray
    values: np.ndarray
    h0: ScalarField
    max_fd_gap: float = float("nan")


def hamiltonian(ray: GeodesicRay, fd_check: bool = True) -> HamiltonianField:
    """H = lam_grid[argmax], the right slope of u(x, .), plus an optional
    cross-check against small-step finite differences of the exact u.

    The reported gap max |du/dt - H| uses one-sided steps at the ends of
    the t-grid and centered steps inside; for a convex piecewise-linear
    u the gap is bounded by the local slope spread, at most one lam bin
    away from a breakpoint."""
    arg = ray.argmax_index()
    H = np.take(ray.lam_grid, arg, out=np.empty(arg.shape))   # intp copy freed above H
    h0 = ScalarField(ray.spatial_grid,
                     np.where(ray.mask(), H[0], 0.0), ray.mask())
    return HamiltonianField(t_grid=ray.t_grid, values=H, h0=h0, max_fd_gap=(
        t_blocks(ray, fd_check=True)[1] if fd_check else float("nan")))


def plateau_threshold(noise: float, dl):
    """The plateau rule, shared by every reader of slope differences.

    A slope difference D_k = (a_{k+1} - a_k) / dlam_k counts as still on
    the zero plateau of the family while D_k >= -eps_k, with

        eps_k = 2 * noise / dlam_k,

    the largest difference two readings of an exact zero can show when
    each is off by at most `noise` in value.  The noise is that of the
    data being read: rounding level for stored slices (exactly 0.0 on the
    coincidence set) and for closed-form slices, the measured
    interpolation ringing for spline-sampled slices."""
    return 2.0 * np.asarray(noise, dtype=float) / np.asarray(dl, dtype=float)


def pole_exclusion_radius(lam: float, h: float) -> float:
    """The pole-exclusion rule: the radius around the pole inside which
    the sampled log-pole Laplacian of a slice at weight lam is unresolved.

    At m nodes from the pole the five-point stencil error of lam ln|z|^2
    is about lam * 2 / (m^4 h^2); it stays under the 10h residual budget
    for m >= (2 lam / (10 h^3))^(1/4), taken with a 1.3 margin and at
    least two nodes."""
    m = max(2.0, (2.0 * lam / (10.0 * h ** 3)) ** 0.25 * 1.3)
    return m * h


def smooth_hamiltonian(ray: GeodesicRay) -> ScalarField:
    """Off-grid t = 0 Hamiltonian by solving  d/dlam a_lam(x) = 0  on the
    midpoint slope grid of the slice family.

    The slope differences D_k = (a_{k+1} - a_k)/dlam sit at midpoints
    lam_{k+1/2} and decrease in k (concavity).  The crossing of D = 0 is
    located by linear interpolation through the first two points past the
    plateau, which recovers the square-root touch of the deficit at the
    free boundary without the half-bin bias of a floor argmax.  The
    plateau is told apart by `plateau_threshold` at the rounding noise of
    the stored slices.  Values clamp to [0, lam_top]."""
    if ray._smooth_h_cache is not None:
        return ray._smooth_h_cache
    vals = np.zeros(ray.spatial_grid.shape)
    if len(ray.lam_grid) >= 2:
        A = ray.slice_stack()
        lam = ray.lam_grid
        D = (A[1:] - A[:-1]) / (lam[1:] - lam[:-1])[:, None, None]
        scale = max(float(np.max(np.abs(s.values[s.mask]), initial=0.0))
                    for s in ray.slices)
        vals = _slope_crossing(D, lam, 0.0, rounding_noise(scale))
    msk = ray.mask()
    out = ScalarField(ray.spatial_grid, np.where(msk, vals, 0.0), msk)
    ray._smooth_h_cache = out
    return out


def _bin_log_means(lam):
    """ln of the geometric bin means: the exact abscissae at which the
    forward differences of a family sample the log of the pole weight."""
    lam = np.asarray(lam, dtype=float)
    lo, hi = lam[:-1], lam[1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        num = hi * (np.log(hi) - 1.0) - np.where(lo > 0,
                                                 lo * (np.log(lo) - 1.0), 0.0)
    return num / (hi - lo)


def _slope_crossing(D, lam, t, noise):
    """Solve D(mu) = -t along axis 0 by a two-point secant, vectorized
    over trailing axes; D[k] is the forward difference of the family over
    the bin [lam_k, lam_{k+1}], read from slices with value noise `noise`.

    The secant runs in ln(mu) with each difference pinned at the exact
    log-mean of its bin, which makes the flat-weight slope curve (linear
    in ln mu) solve exactly.  A difference is on the zero plateau by the
    plateau rule (`plateau_threshold(noise, dlam)`).  When the first
    difference below -t sits right past the plateau it straddles the free-
    boundary kink; the root is then read off the next two smooth-branch
    differences and clipped to the kink bin, removing the O(dlam) bias."""
    lam = np.asarray(lam, dtype=float)
    lam_top = lam[-1]
    mids = 0.5 * (lam[1:] + lam[:-1])
    nm = D.shape[0]
    eps = plateau_threshold(noise, np.diff(lam))
    neg = D + t < -eps.reshape((nm,) + (1,) * (D.ndim - 1))
    first = np.where(neg.any(axis=0), neg.argmax(axis=0), nm)
    flat = first.ravel()
    Df = D.reshape(nm, -1)
    res = np.full(flat.shape, lam_top)
    nu = _bin_log_means(lam)

    def secant(ja, jb, sel, lo, hi):
        da = Df[ja, sel] + t
        db = Df[jb, sel] + t
        denom = db - da
        good = denom != 0   # pure degeneracy: equal differences, no secant
        est = np.where(good, nu[ja] - da * (nu[jb] - nu[ja])
                       / np.where(good, denom, 1.0), np.log(0.5 * (lo + hi)))
        # exp would overflow past ln(float max); clip takes such roots to hi
        return np.clip(np.exp(np.minimum(est, _LOG_MAX)), lo, hi)

    for j0 in range(nm):
        sel = np.nonzero(flat == j0)[0]
        if sel.size == 0:
            continue
        plateau = Df[j0 - 1, sel] >= -eps[j0 - 1] if j0 else \
            np.ones(sel.shape, dtype=bool)
        if j0 + 2 < nm:
            ks = sel[plateau]
            if ks.size:
                # a bracket from lam_0 = 0 needs no floor: only nu is logged
                res[ks] = secant(j0 + 1, j0 + 2, ks, lam[j0], lam[j0 + 1])
            sm = sel[~plateau]
            if sm.size:
                res[sm] = secant(max(j0 - 1, 0), j0, sm,
                                 mids[max(j0 - 1, 0)], mids[j0])
        else:
            ja = max(j0 - 1, 0)
            res[sel] = secant(ja, min(ja + 1, nm - 1), sel,
                              mids[max(j0 - 1, 0)], lam_top)
    return res.reshape(D.shape[1:])


# ---------------------------------------------------------------------------
# weak solution and residual diagnostics
# ---------------------------------------------------------------------------

@dataclass
class WeakSolution:
    t_grid: np.ndarray
    values: np.ndarray          # NaN where not claimed
    claimed: np.ndarray
    cutoff: float


def weak_solution(ray: GeodesicRay) -> WeakSolution:
    """Phi_w(x,t) = u(x,t) - c t, c the ray's cutoff, on the region where
    the maximizing slope stays below the top lam node; outside that region
    the sup formula is not claimed and the field carries NaN."""
    vals, claimed = weak_rows(ray, slice(None), ray.argmax_index(),
                              ray.u_values())
    return WeakSolution(t_grid=ray.t_grid, values=vals, claimed=claimed,
                        cutoff=float(ray.cutoff))


def weak_rows(ray: GeodesicRay, rows, arg, u):
    """`weak_solution`'s (values, claimed) at t-grid `rows`, from arg, u."""
    claimed = (arg < len(ray.lam_grid) - 1) & ray.mask().reshape(arg.shape[1:])
    ct = (ray.cutoff * ray.t_grid[rows]).reshape((-1,) + (1,) * (u.ndim - 1))
    return np.subtract(u, ct, where=claimed,
                       out=np.full(u.shape, np.nan)), claimed


def hmae_residual(ray: GeodesicRay) -> dict:
    """Degeneracy diagnostics of the ray.

    (i) convexity defect: most negative second difference of u in t
    (nonnegative up to rounding, u being a max of affine functions);
    (ii) per slice, the `strict_residual` of phi + a_lam, excluding the
    disc of radius `pole_exclusion_radius(lam, h)` where the log stencil
    is unresolved.  Its contact tolerance is 0, as a ray's slices carry no
    solver tolerance, so the strict region is {a_lam < -50 h^2}.
    Slice harmonicity off the coincidence set is the fiberwise degeneracy
    of the ray.
    """
    return {**slice_residuals(ray), "convexity_defect": t_blocks(ray)[0]}


def slice_residuals(ray: GeodesicRay) -> dict:
    """Part (ii) of `hmae_residual`: each slice's residual, and the max."""
    grid = ray.spatial_grid
    if grid.n != 1 or grid.style != "cartesian":
        raise ValueError("residual diagnostics run on n=1 cartesian rays")
    phi_vals = ray.potential.value(grid.nodes())
    rho = grid.rho()
    residuals = [0.0 if lam == 0 else strict_residual(
        phi_vals + fld.masked_fill(np.nan), fld, 0.0,
        rho > pole_exclusion_radius(lam, grid.h) ** 2)
        for lam, fld in zip(ray.lam_grid, ray.slices)]
    return {"slice_residuals": np.asarray(residuals),
            "max_slice_residual": float(np.max(residuals)) if residuals else 0.0}


def t_blocks(ray: GeodesicRay, fd_check: bool = False, emit=None):
    """The one block route over the t-grid: row blocks of at most `CSV_BLOCK`
    values (as `write_csv` groups rows), each handed flat to `emit(rows,
    argmax, u)`.  Returns `hmae_residual`'s convexity defect (0 if only
    `fd_check` is asked for) and, with `fd_check`, `hamiltonian`'s fd gap."""
    t, n, msk = ray.t_grid, len(ray.t_grid), ray.mask().ravel()
    arg_t, gap = ray.argmax_index().reshape(n, -1), float("nan")
    if fd_check:
        delta = min(1e-3, 0.25 * float(np.min(np.diff(t))))
        # one read at t_0 < t_0 + delta < t_1 - delta < ... < t_last
        ts = np.column_stack((t - delta, t + delta)).ravel()
        ts[0], ts[-1] = t[0], t[-1]
        steps = np.full(n, 2 * delta)
        steps[[0, -1]] = delta                      # one-sided at the ends
        arg_q, gap = ray._read(ts), 0.0
    lows, prev = [np.inf], np.empty((0, msk.size))
    size = max(1, CSV_BLOCK // msk.size)
    for i0 in range(0, n, size):
        rows, fd = slice(i0, i0 + size), slice(2 * i0, 2 * (i0 + size))
        arg = arg_t[rows]
        if fd_check:
            q = ray._u_rows(arg_q[fd], ts[fd])
            du = (q[1::2] - q[::2]) / steps[rows, None]
            gap = max(gap, float(np.max(np.abs(du - ray.lam_grid[arg])[:, msk])))
        if emit is None and fd_check:
            continue
        u = ray._u_rows(arg, t[rows])
        ext = np.concatenate((prev, u))   # u[i0 - 2], u[i0 - 1], the block
        # in place, in the rounding order of u[2:] - 2 u[1:-1] + u[:-2]
        d2 = -2.0 * ext[1:-1]
        d2 += ext[2:]
        d2 += ext[:-2]
        lows.append(np.min(d2, where=msk, initial=np.inf))
        prev = ext[-2:]
        if emit is not None:
            emit(rows, arg, u)
    return max(0.0, -float(np.min(lows))), gap


def certified_lambda(results) -> float:
    """Largest pole weight among the results whose equilibrium boundary is
    a simple closed interior curve and whose pole-weight fit passes; a
    working proxy for the validity radius of the structural claims (never
    more than that)."""
    from .envelope_solver import lelong_check
    from .geometry import polyline_is_simple
    best = 0.0
    for res in results or []:
        if res.lam == 0 or res.grid.n != 1 or res.grid.style != "cartesian":
            continue
        grid = res.grid
        try:
            ok = lelong_check(res).passed
        except ValueError:
            ok = False
        poly = res.boundary
        interior = len(poly) >= 8 and np.all(
            np.hypot(poly[:, 0], poly[:, 1]) < grid.radius - 2 * grid.h)
        if ok and interior and polyline_is_simple(poly):
            best = max(best, res.lam)
    return best
