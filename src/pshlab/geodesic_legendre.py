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

from .field_grid import GridSpec, ScalarField, rounding_noise
from .envelope_solver import (EnvelopeResult, grid_envelopes,
                              radial_envelopes, strict_residual)

_NEG_FILL = -1e300
_LOG_MAX = math.log(np.finfo(float).max)   # the largest x with finite exp(x)


@dataclass
class GeodesicRay:
    """Slice family {a_lam}, its conjugate potential u(x,t), and grids.

    slices[k] is the deficit field at lam_grid[k]; cutoff c bounds the
    lam-grid from above.  u(x, .) is piecewise linear with breakpoints
    t_k(x) = (a_k - a_{k+1}) / dlam_k; u and its argmax at any increasing
    list of t are read off the table of them (`_read`), and on the t-grid
    kept as (n_t, ny, nx) arrays once asked for.
    """

    spatial_grid: GridSpec
    lam_grid: np.ndarray
    t_grid: np.ndarray
    slices: list
    cutoff: float
    backend: str = ""
    _stack: np.ndarray = field(default=None, repr=False)
    _u: np.ndarray = field(default=None, repr=False)
    _argmax: np.ndarray = field(default=None, repr=False)

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

    def u_values(self) -> np.ndarray:
        self._materialize()
        return self._u

    def argmax_index(self) -> np.ndarray:
        self._materialize()
        return self._argmax

    def _materialize(self):
        if self._u is not None:
            return
        shape = (len(self.t_grid),) + self.spatial_grid.shape
        arg, u = self._read(self.t_grid)
        self._argmax, self._u = arg.reshape(shape), u.reshape(shape)

    def eval_u(self, t):
        """u(., t) for scalar t >= 0, or the (len(t), ny, nx) stack for an
        increasing array of such t: the sup over the slice family, read off
        the breakpoint table."""
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        if ts[0] < 0 or np.any(np.diff(ts) < 0):
            raise ValueError("t must be nonnegative and increasing")
        u = self._read(ts)[1].reshape(ts.shape + self.spatial_grid.shape)
        return u if np.ndim(t) else u[0]

    def mask(self) -> np.ndarray:
        return self.slices[0].mask

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
        """(argmax as uint16, ties to the upper slice; u = a_arg + lam_arg t)
        at the increasing t values `ts` >= 0, each (len(ts), N); `table` is
        `_table()`, built here if not given.

        Where the breakpoints are nondecreasing the argmax at t is
        #{k : t_k <= t}: a searchsorted of each breakpoint into `ts`, a
        difference table and a cumulative sum over t.  That is the max of
        the rounded values when no t lies within `_margin` of a breakpoint
        other than an exact tie (which never lowers a_k + lam_k t, t >= 0);
        other pixels keep the exact per-t max (`_upper_max`)."""
        A = self.slice_stack().reshape(len(self.lam_grid), -1)
        n, N = len(ts), A.shape[1]
        # kept arrays first: the table, freed after, leaves no hole under them
        counts, u = np.zeros((n + 1) * N, np.uint16), np.empty((n, N))
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
        flat = A.ravel()
        for i in range(n):
            if i:
                arg[i] += arg[i - 1]
            k = arg[i].astype(np.intp)
            u[i] = flat[k * N + cols]
            u[i] += self.lam_grid[k] * ts[i]
        ex = np.flatnonzero(exact)
        if ex.size:
            arg[:, ex], u[:, ex] = _upper_max(
                A[:, ex], self.lam_grid, np.broadcast_to(ts[:, None], (n, ex.size)))
        return arg, u


def _upper_max(A, lam, T):
    """The exact per-t max of a_k + lam_k t over the rows of A (m, P), at
    the t values T (n, P) of each column: (argmax as uint16, ties to the
    upper slice; max), each (n, P)."""
    m, P = A.shape
    arg = np.empty(T.shape, np.uint16)
    u = np.empty(T.shape)
    cols = np.arange(P)
    for i, t in enumerate(T):
        vals = A + lam[:, None] * t
        arg[i] = m - 1 - np.argmax(vals[::-1], axis=0)
        u[i] = vals[arg[i], cols]
    return arg, u


def default_t_grid(c: float, m: int, grid: GridSpec | None = None,
                   n_t: int = 96) -> np.ndarray:
    """[0, T_max] long enough that every conjugating infimum is attained
    interiorly: 2 beyond ln(c/lam_1) (lam_1 the first positive node), the
    range must also cover the pole-adjacent nodes, whose minimizing t
    grows like ln(lam/|z|^2); the closest masked-in node sits at |z| = h."""
    lam1 = c / m
    t_max = math.log(c / lam1) + 2.0
    if grid is not None:
        t_max = max(t_max, math.log(c / grid.h ** 2) + 2.0)
    return np.linspace(0.0, t_max, n_t)


def assemble_geodesic(slices, t_grid=None, c: float | None = None,
                      n_t: int = 96) -> GeodesicRay:
    """Assemble the ray u(x,t) = max_k (a_k(x) + lam_k t) from envelope slices.

    `slices` is a list of (lam, EnvelopeResult-or-ScalarField) with strictly
    increasing lam in [0, c); the family must be pointwise nonincreasing in
    lam (monotonicity of the envelopes); a violation beyond 1e-7 raises,
    naming the offending pair.
    """
    lam_list = []
    fields = []
    backend = ""
    for lam, item in slices:
        lam_list.append(float(lam))
        if isinstance(item, EnvelopeResult):
            fields.append(item.deficit)
            backend = item.backend
        else:
            fields.append(item)
    lam_arr = np.asarray(lam_list)
    if len(lam_arr) < 1 or np.any(np.diff(lam_arr) <= 0):
        raise ValueError("lam grid must be strictly increasing")
    if c is None:
        c = float(lam_arr[-1] + (lam_arr[1] - lam_arr[0] if len(lam_arr) > 1 else 0.1))
    if lam_arr[-1] >= c or lam_arr[0] != 0.0:
        raise ValueError("lam grid must start at 0 and stay below the cutoff c")

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
                       slices=fields, cutoff=float(c), backend=backend)


def oracle_slices(p, c: float, m: int, grid: GridSpec):
    """Closed-form slice family for a radial weight: (lam, EnvelopeResult)
    pairs on the lam-grid {k c / m}, by one `radial_envelopes` call."""
    lams = [c * k / m for k in range(m)]
    return list(zip(lams, radial_envelopes(p, lams, grid)))


def grid_slices(p, c: float, m: int, grid: GridSpec, tol: float = 1e-9):
    """Solver slice family on the same lam-grid, by one `grid_envelopes`
    call: cold nested solves, the weight checked for strict psh once."""
    lams = [c * k / m for k in range(m)]
    return list(zip(lams, grid_envelopes(p, lams, grid, tol=tol)))


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
    U[[0, m]] = ray._read(np.array([t_lo, t_hi]), table)[1]
    U[1:m] = np.maximum(A[:-1] + lam[:-1, None] * T[1:m],
                        A[1:] + lam[1:, None] * T[1:m])
    inner = (t_br > t_lo) & (t_br < t_hi)
    U[1:m] = np.where(inner, U[1:m], np.where(t_br <= t_lo, U[0], U[m]))
    close = np.zeros(A.shape, bool)
    close[1:-1] = np.diff(t_br, axis=0) <= ray._margin(scale, t_hi)
    exact = exact | np.any(inner & (close[:-1] | close[1:]), axis=0)
    ex = np.flatnonzero(exact)
    if ex.size:
        U[:, ex] = _upper_max(A[:, ex], lam, T[:, ex])[1]

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
    gap = float("nan")
    if fd_check:
        t = ray.t_grid
        delta = min(1e-3, 0.25 * float(np.min(np.diff(t))))
        gap = 0.0
        msk = ray.mask()
        # one read at t_0 < t_0 + delta < t_1 - delta < ... < t_last
        ts = np.column_stack((t - delta, t + delta)).ravel()
        ts[0], ts[-1] = t[0], t[-1]
        q = ray.eval_u(ts)
        for i in range(len(t)):
            step = delta if i in (0, len(t) - 1) else 2 * delta
            du = (q[2 * i + 1] - q[2 * i]) / step
            gap = max(gap, float(np.max(np.abs(du - H[i])[msk])))
    return HamiltonianField(t_grid=ray.t_grid, values=H, h0=h0,
                            max_fd_gap=gap)


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
    cache = getattr(ray, "_smooth_h_cache", None)
    if cache is not None:
        return cache
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
        good = np.abs(denom) > 1e-30
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
                res[ks] = secant(j0 + 1, j0 + 2, ks,
                                 max(lam[j0], 1e-300), lam[j0 + 1])
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
    u = ray.u_values()
    claimed = (ray.argmax_index() < len(ray.lam_grid) - 1) & ray.mask()
    vals = np.subtract(u, ray.cutoff * ray.t_grid[:, None, None], where=claimed,
                       out=np.full(u.shape, np.nan))   # one stack, not two
    return WeakSolution(t_grid=ray.t_grid, values=vals, claimed=claimed,
                        cutoff=float(ray.cutoff))


def hmae_residual(ray: GeodesicRay, p) -> dict:
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
    grid = ray.spatial_grid
    if grid.n != 1 or grid.style != "cartesian":
        raise ValueError("residual diagnostics run on n=1 cartesian rays")

    u = ray.u_values()
    # in place, in the rounding order of u[2:] - 2 u[1:-1] + u[:-2]
    d2 = -2.0 * u[1:-1]
    d2 += u[2:]
    d2 += u[:-2]
    defect = max(0.0, -float(np.min(d2, where=ray.mask(), initial=np.inf)))

    phi_vals = p.value(grid.nodes())
    rho = grid.rho()
    residuals = [0.0 if lam == 0 else strict_residual(
        phi_vals + fld.masked_fill(np.nan), fld, 0.0,
        rho > pole_exclusion_radius(lam, grid.h) ** 2)
        for lam, fld in zip(ray.lam_grid, ray.slices)]
    return {"convexity_defect": defect,
            "slice_residuals": np.asarray(residuals),
            "max_slice_residual": float(np.max(residuals)) if residuals else 0.0}


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
