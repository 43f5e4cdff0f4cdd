import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pshlab.envelope_solver import grid_envelope, radial_envelope
from pshlab.field_grid import GridSpec, ScalarField, build_grid
from pshlab.geodesic_legendre import (GeodesicRay, assemble_geodesic,
                                      certified_lambda, grid_slices,
                                      hamiltonian, hmae_residual,
                                      legendre_slices, oracle_slices,
                                      rounding_noise, smooth_hamiltonian,
                                      weak_solution)
from pshlab.potential_kit import Potential, Term


# ---------------------------------------------------------------------------
# slice families: one evaluation of the lam-independent fields, bitwise the
# single-lam envelopes
# ---------------------------------------------------------------------------

def _assert_same_envelope(fam, one, solver_fields=False):
    assert fam.lam == one.lam and fam.backend == one.backend
    for f, o in ((fam.envelope, one.envelope), (fam.deficit, one.deficit)):
        assert np.array_equal(f.values, o.values)
        assert np.array_equal(f.mask, o.mask)
    assert np.array_equal(fam.coincidence, one.coincidence)
    assert np.array_equal(fam.boundary, one.boundary)
    assert fam.coincidence_tol == one.coincidence_tol
    assert fam.degenerate == one.degenerate
    if solver_fields:
        assert fam.iterations == one.iterations
        assert fam.residual == one.residual


def test_oracle_slices_are_the_single_lam_envelopes_bitwise(quartic):
    """Every slice of `oracle_slices` is bitwise `radial_envelope` at its
    lam, lam = 0 and a degenerate lam (>= 2, the quartic's disc mass)
    included, and the degenerate slice still warns."""
    grid = build_grid(1, 64, 1.0)
    with pytest.warns(UserWarning, match="enclosed mass"):
        slices = oracle_slices(quartic, 2.5, 5, grid)   # lam 0, 0.5, ..., 2
    assert [lam for lam, _ in slices] == [0.0, 0.5, 1.0, 1.5, 2.0]
    for lam, res in slices[:-1]:
        _assert_same_envelope(res, radial_envelope(quartic, lam, grid))
    with pytest.warns(UserWarning, match="enclosed mass"):
        one = radial_envelope(quartic, 2.0, grid)
    assert one.degenerate
    _assert_same_envelope(slices[-1][1], one)


def test_grid_slices_are_the_single_lam_solves_bitwise(perturbed):
    """Every slice of `grid_slices` (64^2, three lam) is bitwise the cold
    `grid_envelope` solve at its lam, steps and residual included."""
    grid = build_grid(1, 64, 1.0)
    slices = grid_slices(perturbed, 0.45, 3, grid, tol=1e-9)
    for lam, res in slices:
        _assert_same_envelope(res, grid_envelope(perturbed, lam, grid, tol=1e-9),
                              solver_fields=True)


def test_oracle_slices_evaluate_the_grid_once(quartic, monkeypatch):
    """|z|^2 and chi(ln|z|^2) on the whole grid are evaluated once per
    family, not once per slice."""
    grid = build_grid(1, 64, 1.0)
    calls = {"rho": 0, "chi": 0}
    rho, chi = GridSpec.rho, type(quartic).chi

    def counted_rho(self):
        calls["rho"] += 1
        return rho(self)

    def counted_chi(self, t):
        calls["chi"] += np.shape(t) == grid.shape
        return chi(self, t)

    monkeypatch.setattr(GridSpec, "rho", counted_rho)
    monkeypatch.setattr(type(quartic), "chi", counted_chi)
    assert len(oracle_slices(quartic, 0.8, 12, grid)) == 12
    assert calls == {"rho": 1, "chi": 1}


# ---------------------------------------------------------------------------
# references: the m-fold maxima the breakpoint table replaced
# ---------------------------------------------------------------------------

def _reference_materialize(ray):
    """(argmax, u) on the t-grid by the per-t max over the whole family,
    ties to the upper slice."""
    A = ray.slice_stack()
    m = len(ray.lam_grid)
    nt = len(ray.t_grid)
    u = np.empty((nt,) + A.shape[1:], dtype=float)
    arg = np.empty((nt,) + A.shape[1:], dtype=np.uint16)
    for i, t in enumerate(ray.t_grid):
        vals = A + ray.lam_grid[:, None, None] * t
        rev = vals[::-1]
        idx_rev = np.argmax(rev, axis=0)
        arg[i] = (m - 1 - idx_rev).astype(np.uint16)
        u[i] = np.take_along_axis(vals, arg[i][None, ...].astype(int),
                                  axis=0)[0]
    return arg, u


def _reference_eval_u(ray, t):
    A = ray.slice_stack()
    vals = A + ray.lam_grid[:, None, None] * float(t)
    return vals.max(axis=0)


def _reference_fd_gap(ray):
    H = ray.lam_grid[_reference_materialize(ray)[0].astype(int)]
    delta = min(1e-3, 0.25 * float(np.min(np.diff(ray.t_grid))))
    gap = 0.0
    msk = ray.mask()
    for i, t in enumerate(ray.t_grid):
        if i == 0:
            du = (_reference_eval_u(ray, t + delta)
                  - _reference_eval_u(ray, t)) / delta
        elif i == len(ray.t_grid) - 1:
            du = (_reference_eval_u(ray, t)
                  - _reference_eval_u(ray, t - delta)) / delta
        else:
            du = (_reference_eval_u(ray, t + delta)
                  - _reference_eval_u(ray, t - delta)) / (2 * delta)
        gap = max(gap, float(np.max(np.abs(du - H[i])[msk])))
    return gap


def _reference_legendre(ray, lams):
    """The candidate loop: u at every breakpoint and endpoint by the max
    over the whole family, then the min over the candidates."""
    A = ray.slice_stack()
    m, ny, nx = A.shape
    lam = ray.lam_grid
    t_lo, t_hi = 0.0, ray.t_max
    dl = lam[1:] - lam[:-1]
    with np.errstate(invalid="ignore", over="ignore"):
        t_br = (A[:-1] - A[1:]) / dl[:, None, None]
    t_br = np.clip(np.nan_to_num(t_br, nan=t_lo, posinf=t_hi, neginf=t_lo),
                   t_lo, t_hi)
    U = np.empty((m + 1, ny, nx))
    T = np.empty((m + 1, ny, nx))
    T[0] = t_lo
    T[1:m] = t_br
    T[m] = t_hi
    for j in range(m + 1):
        vals = A + lam[:, None, None] * T[j][None, ...]
        U[j] = vals.max(axis=0)
    return [np.where(ray.mask(), (U - lq * T).min(axis=0), 0.0)
            for lq in np.atleast_1d(np.asarray(lams, dtype=float))]


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


@st.composite
def _families(draw):
    """A slice family on a small grid, nonincreasing in lam, each pixel
    concave with a zero plateau of random length, plus: pixels with
    collinear slopes (three slices meeting at one breakpoint), pixels
    whose slopes are shuffled (not concave), pixels masked out in every
    slice or above some slice (the -1e300 fill), the pole's pattern (only
    slice 0 finite), random magnitudes; and a t-grid holding some of the
    breakpoints exactly and some a few ulps off."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.sampled_from([16, 19]))
    m = draw(st.integers(2, 12))
    dyadic = draw(st.booleans())
    grid = build_grid(1, n, 1.0)
    N = n * n
    if dyadic:      # exact values: every breakpoint is an exact tie candidate
        lam = np.arange(m) / 8.0
        s = rng.integers(0, 6, size=(m - 1, N)) / 4.0
    else:
        lam = np.concatenate(([0.0], np.cumsum(rng.uniform(0.02, 0.2, m - 1))))
        s = rng.exponential(size=(m - 1, N)) * 10.0 ** rng.uniform(-3, 3)
    s = np.sort(s, axis=0)
    plateau = rng.integers(0, m, size=N)
    s[np.arange(m - 1)[:, None] < plateau[None, :]] = 0.0
    if m > 2:
        col = rng.random(N) < 0.2
        k = rng.integers(0, m - 2, size=N)
        s[k[col] + 1, col] = s[k[col], col]
    shuffle = rng.random(N) < 0.1
    s[:, shuffle] = rng.permuted(s[:, shuffle], axis=0)
    a = np.zeros((m, N))
    for k in range(m - 1):
        a[k + 1] = a[k] - (lam[k + 1] - lam[k]) * s[k]
    mask = np.ones((m, N), bool)
    top = rng.integers(1, m + 1, size=N)
    cut = rng.random(N) < 0.15
    mask[:, cut] = np.arange(m)[:, None] < top[cut][None, :]
    mask[:, rng.random(N) < 0.1] = False
    mask[1:, rng.integers(N)] = False
    fields = [(lam[k], ScalarField(grid, a[k].reshape(n, n), mask[k].reshape(n, n)))
              for k in range(m)]
    c = lam[-1] + 0.1
    with np.errstate(divide="ignore", invalid="ignore"):
        t_br = (a[:-1] - a[1:]) / np.diff(lam)[:, None]
    t_br = t_br[np.isfinite(t_br) & (t_br > 0) & (t_br < 1e3)]
    picks = rng.choice(t_br, size=min(t_br.size, 6), replace=False) \
        if t_br.size else np.zeros(0)
    ulps = rng.integers(-3, 4, size=picks.size) * np.spacing(picks)
    picks = np.concatenate((picks, picks + ulps))
    t_max = max(1.0, float(np.max(t_br, initial=0.0)) * 1.5)
    t = np.unique(np.concatenate(([0.0], rng.uniform(0.0, t_max, 10), picks)))
    return assemble_geodesic(fields, t_grid=t, c=c), picks


@settings(max_examples=100, deadline=None)
@given(fam=_families())
def test_breakpoint_table_bitwise_reference(fam):
    """The breakpoint table's argmax, u, eval_u, fd gap and conjugates are
    bitwise the m-fold maxima it replaced, at zero-plateau ties, filled
    and non-concave pixels, collinear slopes and t on a breakpoint."""
    ray, picks = fam
    arg, u = _reference_materialize(ray)
    assert np.array_equal(ray.argmax_index(), arg)
    assert np.array_equal(_bits(ray.u_values()), _bits(u))
    ts = np.unique(np.concatenate(([0.0, ray.t_max], picks)))
    stack = ray.eval_u(ts)
    for t, row in zip(ts, stack):
        ref = _reference_eval_u(ray, t)
        assert np.array_equal(_bits(ray.eval_u(t)), _bits(ref))
        assert np.array_equal(_bits(row), _bits(ref))
    gap = hamiltonian(ray, fd_check=True).max_fd_gap
    assert np.array_equal(_bits(gap), _bits(_reference_fd_gap(ray)))
    lams = np.concatenate((ray.lam_grid, [0.5 * ray.cutoff]))
    for got, ref in zip(legendre_slices(ray, lams),
                        _reference_legendre(ray, lams)):
        assert np.array_equal(_bits(got.values), _bits(ref))


def test_traced_methods_stay_in_the_class_body():
    """The benchmark's tracer rebinds these by name in the class dict."""
    assert "u_values" in vars(GeodesicRay)
    assert "eval_u" in vars(GeodesicRay)


def test_eval_u_rejects_negative_or_decreasing_t(flat_ray_small):
    _, ray = flat_ray_small
    with pytest.raises(ValueError, match="nonnegative and increasing"):
        ray.eval_u(-0.5)
    with pytest.raises(ValueError, match="nonnegative and increasing"):
        ray.eval_u(np.array([1.0, 0.5]))


def test_breakpoint_table_bitwise_oracle_and_grid(flat_ray_small,
                                                  perturbed_ray_small):
    for ray in (flat_ray_small[1], perturbed_ray_small):
        arg, u = _reference_materialize(ray)
        assert np.array_equal(ray.argmax_index(), arg)
        assert np.array_equal(_bits(ray.u_values()), _bits(u))
        assert np.array_equal(
            _bits(hamiltonian(ray, fd_check=True).max_fd_gap),
            _bits(_reference_fd_gap(ray)))
        for got, ref in zip(legendre_slices(ray, ray.lam_grid),
                            _reference_legendre(ray, ray.lam_grid)):
            assert np.array_equal(_bits(got.values), _bits(ref))


def _roundtrip(slices, ray):
    worst = 0.0
    back = legendre_slices(ray, ray.lam_grid)
    for (lam, res), b in zip(slices, back):
        fld = res.deficit if hasattr(res, "deficit") else res
        m = fld.mask & b.mask
        worst = max(worst, float(np.max(np.abs(b.values - fld.values)[m])))
    return worst


def test_assemble_flat_closed_form(flat_ray_small, grid128):
    slices, ray = flat_ray_small
    rho = grid128.rho()
    msk = ray.mask()
    u = ray.u_values()
    c = ray.cutoff
    worst = 0.0
    for i, t in enumerate(ray.t_grid[::8]):
        claim = (rho * np.exp(t) <= 0.9 * c) & msk
        exact = rho * (np.exp(t) - 1.0)
        worst = max(worst, float(np.max(np.abs(
            u[8 * i] - exact)[claim])))
    # sup over the slice family is below the continuum by O(dlam)
    assert worst <= 2.5 * ray.d_lam


def test_u_at_zero_vanishes(flat_ray_small):
    _, ray = flat_ray_small
    u0 = ray.u_values()[0]
    assert np.max(np.abs(u0[ray.mask()])) == 0.0


def test_single_slice_ray_trivial(grid128, flat):
    from pshlab.envelope_solver import radial_envelope
    res = radial_envelope(flat, 0.0, grid128)
    ray = assemble_geodesic([(0.0, res)], c=0.1)
    assert np.max(np.abs(ray.u_values()[:, ray.mask()])) == 0.0
    rep = hmae_residual(ray, flat)
    assert rep["convexity_defect"] == 0.0
    assert rep["max_slice_residual"] == 0.0


def test_non_monotone_family_raises(grid128, flat):
    from pshlab.envelope_solver import radial_envelope
    r0 = radial_envelope(flat, 0.0, grid128)
    r1 = radial_envelope(flat, 0.2, grid128)
    with pytest.raises(ValueError, match="monotone.*0.2"):
        assemble_geodesic([(0.0, ScalarField(grid128, r1.deficit.masked_fill(0.0),
                                             r1.deficit.mask)),
                           (0.2, ScalarField(grid128, np.zeros(grid128.shape),
                                             r1.deficit.mask))], c=0.4)


def test_involution_oracle(flat_ray_small):
    slices, ray = flat_ray_small
    assert _roundtrip(slices, ray) <= 1e-8


@settings(max_examples=12, deadline=None)
@given(q=st.floats(0.05, 1.0), c=st.floats(0.2, 0.9), m=st.integers(2, 24),
       n=st.sampled_from([32, 48, 64]), n_t=st.integers(8, 48))
def test_involution_oracle_property(q, c, m, n, n_t):
    """On random radial weights |z|^2 + q |z|^4 and oracle lam-grids the
    conjugate of the ray reproduces every slice within C3's 1e-8."""
    p = Potential(1, [Term("polyrad", 1.0, (1,)), Term("polyrad", q, (2,))])
    slices = oracle_slices(p, c, m, build_grid(1, n, 1.0))
    ray = assemble_geodesic(slices, c=c, n_t=n_t)
    assert _roundtrip(slices, ray) <= 1e-8


def test_involution_grid(perturbed_slices_small, perturbed_ray_small):
    assert _roundtrip(perturbed_slices_small, perturbed_ray_small) <= 5e-3


def test_legendre_flat_closed_form(flat_ray_small, grid128):
    _, ray = flat_ray_small
    lam = 0.25
    out = legendre_slices(ray, [lam])[0]
    rho = grid128.rho()
    with np.errstate(divide="ignore"):
        logrho = np.where(rho > 0, np.log(np.where(rho > 0, rho, 1.0)), 0.0)
    exact = np.where(rho < lam, lam * (1 - math.log(lam) + logrho) - rho, 0.0)
    sel = out.mask & (rho > 4 * grid128.h ** 2)
    assert np.max(np.abs(out.values - exact)[sel]) <= 2.5 * ray.d_lam


def test_legendre_lam_zero(flat_ray_small):
    _, ray = flat_ray_small
    out = legendre_slices(ray, [0.0])[0]
    assert np.max(np.abs(out.values[out.mask])) <= 1e-12


def test_legendre_out_of_range(flat_ray_small):
    _, ray = flat_ray_small
    with pytest.raises(ValueError, match="lam outside"):
        legendre_slices(ray, [ray.cutoff])


def test_hamiltonian_flat(flat_ray_small, grid128):
    _, ray = flat_ray_small
    H = hamiltonian(ray, fd_check=True)
    rho = grid128.rho()
    msk = ray.mask()
    # H0 is the lam-grid floor of rho
    sel = msk & (rho < 0.7 * ray.cutoff)
    assert np.max((H.h0.values - rho)[sel]) <= 1e-12
    assert np.max((rho - H.h0.values)[sel]) <= ray.d_lam + 1e-12
    assert H.max_fd_gap <= ray.d_lam
    assert np.min(H.values) >= 0.0
    # nondecreasing in t
    assert np.min(np.diff(H.values, axis=0)[:, msk]) >= 0.0


def test_hamiltonian_zero_locus(flat_ray_small, grid128):
    _, ray = flat_ray_small
    H = hamiltonian(ray, fd_check=False)
    arg = ray.argmax_index()
    assert np.array_equal(H.values == 0.0, arg == 0)
    i0 = grid128.origin_index()
    assert np.all(H.values[:, i0[0], i0[1]] == 0.0)


@settings(max_examples=12, deadline=None)
@given(q=st.floats(0.05, 1.0), c=st.floats(0.2, 0.9), m=st.integers(2, 16),
       n=st.sampled_from([32, 48, 64]), n_t=st.integers(8, 48))
def test_oracle_ray_monotone_convex_in_t(q, c, m, n, n_t):
    """On random radial weights |z|^2 + q |z|^4 and oracle lam-grids, u is
    nondecreasing and convex in t and its argmax nondecreasing in t, up to
    rounding noise; H >= 0, with H = 0 exactly where the argmax is slice 0."""
    p = Potential(1, [Term("polyrad", 1.0, (1,)), Term("polyrad", q, (2,))])
    ray = assemble_geodesic(oracle_slices(p, c, m, build_grid(1, n, 1.0)),
                            c=c, n_t=n_t)
    msk = ray.mask()
    t, lam = ray.t_grid, ray.lam_grid
    u = ray.u_values()[:, msk]
    arg = ray.argmax_index()[:, msk].astype(int)
    A = ray.slice_stack()[:, msk]
    # every u value is one product and one sum of terms at most this large
    noise = rounding_noise(np.max(np.abs(A[A > -1e299])) + c * ray.t_max)
    du = np.diff(u, axis=0)
    assert np.min(du) >= -2.0 * noise
    dt = np.diff(t)[:, None]
    assert np.min(np.diff(du / dt, axis=0)) >= -4.0 * noise / np.min(dt)
    # where the argmax falls, the earlier slice still ties the max
    i, j = np.nonzero(np.diff(arg, axis=0) < 0)
    k = arg[i, j]
    assert np.all(u[i + 1, j] - (A[k, j] + lam[k] * t[i + 1]) <= 2.0 * noise)
    H = hamiltonian(ray, fd_check=False).values[:, msk]
    assert np.min(H) >= 0.0
    assert np.array_equal(H == 0.0, arg == 0)


def test_smooth_hamiltonian_flat_exact(flat_ray_small, grid128):
    _, ray = flat_ray_small
    h0 = smooth_hamiltonian(ray)
    rho = grid128.rho()
    sel = ray.mask() & (rho < 0.7 * ray.cutoff) & (rho > 0.02)
    assert np.max(np.abs(h0.values - rho)[sel]) < 1e-10


def test_level_set_identity(flat_ray_small):
    slices, ray = flat_ray_small
    H = hamiltonian(ray, fd_check=False)
    for k, (lam, res) in enumerate(slices):
        if k == 0:
            continue
        m1 = res.deficit.mask & (res.deficit.values < -res.coincidence_tol)
        m2 = res.deficit.mask & (H.h0.values < lam)
        assert np.array_equal(m1, m2)


def test_weak_solution_flat(flat_ray_small, grid128):
    _, ray = flat_ray_small
    w = weak_solution(ray)
    rho = grid128.rho()
    msk = ray.mask()
    # boundary value zero where the zero slice coincides
    assert np.nanmax(np.abs(w.values[0][msk & (rho > 1e-6)])) == 0.0
    c = ray.cutoff
    worst = 0.0
    for i, t in enumerate(ray.t_grid):
        claim = w.claimed[i] & (rho * np.exp(t) < 0.9 * c) & (rho > 0.02)
        if not claim.any():
            continue
        exact = rho * (np.exp(t) - 1.0) - c * t
        worst = max(worst, float(np.max(np.abs(w.values[i] - exact)[claim])))
    assert worst <= 2.5 * ray.d_lam
    # slope towards the pole weight: decreasing in t near the top
    d_end = w.values[-1] - w.values[-2]
    sel = w.claimed[-1] & w.claimed[-2]
    assert np.max(d_end[sel]) < 0.0


def test_hmae_residual_flat(flat_ray_small, flat, grid128):
    _, ray = flat_ray_small
    rep = hmae_residual(ray, flat)
    assert rep["convexity_defect"] <= 1e-12
    assert rep["max_slice_residual"] <= 10.0 * grid128.h


def test_hmae_residual_perturbed(perturbed_ray_small, perturbed, grid128):
    rep = hmae_residual(perturbed_ray_small, perturbed)
    assert rep["convexity_defect"] <= 1e-10
    assert rep["max_slice_residual"] <= 10.0 * grid128.h
    # bitwise the defect of the second difference formed out of place
    u = perturbed_ray_small.u_values()
    d2 = u[2:] - 2.0 * u[1:-1] + u[:-2]
    assert rep["convexity_defect"] == max(
        0.0, -float(np.min(d2[:, perturbed_ray_small.mask()])))


def test_certified_lambda(perturbed_slices_small):
    results = [r for _, r in perturbed_slices_small]
    best = certified_lambda(results)
    assert 0.1 < best < 0.45
