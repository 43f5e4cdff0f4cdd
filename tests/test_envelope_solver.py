import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq
from scipy.sparse import csr_array
from scipy.sparse.linalg import spsolve

from pshlab.field_grid import build_grid
from pshlab.potential_kit import Potential, Term, builtin_potential
from pshlab.envelope_solver import (SolverError, build_obstacle,
                                    extract_equilibrium, grid_envelope,
                                    lelong_check, maximality_residual,
                                    radial_envelope)
from pshlab.geometry import polyline_is_simple


# ---------------------------------------------------------------------------
# radial oracle
# ---------------------------------------------------------------------------

def test_flat_closed_form(grid128, flat):
    lam = 0.25
    res = radial_envelope(flat, lam, grid128)
    rho = grid128.rho()
    inside = grid128.inside_mask()
    with np.errstate(divide="ignore"):
        logrho = np.where(rho > 0, np.log(np.where(rho > 0, rho, 1.0)), 0.0)
    exact = np.where(rho <= lam, lam * (1 - math.log(lam)),
                     rho - lam * logrho)
    exact[grid128.origin_index()] = lam * (1 - math.log(lam))
    assert np.max(np.abs(res.envelope.values - exact)[inside]) < 1e-13
    assert np.all(res.coincidence[inside] == (rho >= lam)[inside])


def test_flat_lam_zero(grid128, flat):
    res = radial_envelope(flat, 0.0, grid128)
    inside = grid128.inside_mask()
    assert np.array_equal(res.envelope.values[inside],
                          flat.sample(grid128).values[inside])
    assert np.all(res.coincidence[inside])
    assert len(res.boundary) == 0


def test_quartic_boundary_radius(grid128, quartic):
    # coincidence boundary where the enclosed mass r^2 + r^4 reaches lam
    lam = 0.5
    res = radial_envelope(quartic, lam, grid128)
    r_exact = math.sqrt(brentq(lambda r2: r2 + r2 ** 2 - lam, 0.0, 1.0))
    r_bd = np.hypot(res.boundary[:, 0], res.boundary[:, 1])
    assert np.max(np.abs(r_bd - r_exact)) < 1e-12


def test_radial_requires_symmetry(grid128, perturbed):
    with pytest.raises(ValueError, match="grid_envelope"):
        radial_envelope(perturbed, 0.2, grid128)


def test_radial_degenerate_weight_warns(grid128, flat):
    with pytest.warns(UserWarning):
        res = radial_envelope(flat, 1.5, grid128)  # mass of the disc is 1
    assert res.degenerate


# ---------------------------------------------------------------------------
# reinhardt backend (n = 2)
# ---------------------------------------------------------------------------

def test_reinhardt_flat_matches_radial_reduction():
    p = Potential(2, [Term("ball", 1.0, (1,))])
    g = build_grid(2, 64, 1.0, "log-radial")
    lam = 0.25
    res = radial_envelope(p, lam, g)
    t = g.t_axis()
    T1, T2 = np.meshgrid(t, t, indexing="ij")
    s = np.logaddexp(T1, T2)
    exact = np.where(s <= math.log(lam), lam * (1 - math.log(lam)),
                     np.exp(s) - lam * s)
    # sampled-hull discretization is O(dt^2) with dt = 41/64 here
    err = np.abs(res.envelope.values - exact)[res.envelope.mask]
    assert err.max() < 3e-3
    # the discrete hull minorizes the samples but majorizes the continuum
    assert np.min((res.envelope.values - exact)[res.envelope.mask]) > -1e-9


def test_reinhardt2_monotone_and_bounded():
    p = builtin_potential("reinhardt2")
    g = build_grid(2, 48, 1.0, "log-radial")
    r1 = radial_envelope(p, 0.3, g)
    r2 = radial_envelope(p, 0.5, g)
    m = r1.envelope.mask
    assert np.max(r1.deficit.values[m]) <= 1e-9
    assert np.all(r1.deficit.values[m] >= r2.deficit.values[m] - 1e-9)
    assert np.all(~r2.coincidence | r1.coincidence)


def test_deficit_exactly_zero_on_coincidence(grid128, perturbed):
    # the coincidence set is {a = 0}; rounding-level deficits left on it
    # would decide the argmax ties of the geodesic ray against the slice
    results = [grid_envelope(perturbed, lam, grid128, tol=1e-9)
               for lam in (0.1, 0.3)]
    g2 = build_grid(2, 48, 1.0, "log-radial")
    p2 = builtin_potential("reinhardt2")
    results += [radial_envelope(p2, lam, g2) for lam in (0.1, 0.2, 0.3)]
    for res in results:
        on = res.coincidence & res.deficit.mask
        assert on.any()
        assert np.all(res.deficit.values[on] == 0.0)


# ---------------------------------------------------------------------------
# grid solver
# ---------------------------------------------------------------------------

def test_grid_matches_oracle_flat(grid128, flat):
    oracle = radial_envelope(flat, 0.25, grid128)
    num = grid_envelope(flat, 0.25, grid128, tol=1e-10)
    assert oracle.envelope.sup_diff(num.envelope) < 5e-3


def test_grid_lam_zero_single_sweep(grid128, flat):
    res = grid_envelope(flat, 0.0, grid128, tol=1e-10)
    assert res.iterations <= 2
    inside = grid128.inside_mask()
    assert np.array_equal(res.envelope.values[inside],
                          flat.sample(grid128).values[inside])


@pytest.mark.parametrize("n", [128, 192, 256])
def test_grid_lam_zero_one_finest_step(flat, n):
    # g = |z|^2 is subharmonic, so the whole interior is the coincidence
    # set: the nested start must seed every node active, the new rim-side
    # nodes of each finer level included
    res = grid_envelope(flat, 0.0, build_grid(1, n, 1.0), tol=1e-10)
    assert res.iterations == 1


def test_prolong_bilinear():
    from pshlab.envelope_solver import _prolong
    rng = np.random.default_rng(7)
    v = rng.standard_normal((12, 10))
    fine = _prolong(v)
    assert fine.shape == (24, 20)
    assert np.array_equal(fine[::2, ::2], v)   # even nodes bitwise
    # an affine field is reproduced at every fine node but the last (odd)
    # row and column, which copy their neighbour
    i, j = np.meshgrid(np.arange(12), np.arange(10), indexing="ij")
    I, J = np.meshgrid(np.arange(24) / 2, np.arange(20) / 2, indexing="ij")
    affine = lambda a, b: 0.7 - 1.3 * a + 2.1 * b
    err = np.abs(_prolong(affine(i, j)) - affine(I, J))[:-1, :-1]
    assert np.max(err) < 1e-13
    assert np.array_equal(fine[-1], fine[-2])
    assert np.array_equal(fine[:, -1], fine[:, -2])


def _reference_laplace_system(v, free):
    """The CSR system the active-set steps were solved on before the
    matrix-free kernel: 4I - adjacency on the free nodes (ravel order) and
    its right-hand side, the sum of each free node's fixed neighbours in
    v.  Free nodes are interior, so no stencil leaves the array."""
    idx = np.flatnonzero(free)
    num = np.full(free.size, -1)
    num[idx] = np.arange(len(idx))
    nb = idx + np.array([[0], [1], [-1], [free.shape[1]], [-free.shape[1]]])
    k, i = np.nonzero(num[nb] >= 0)   # k = 0 is the node itself
    mat = csr_array((np.where(k == 0, 4.0, -1.0), (i, num[nb[k, i]])),
                    shape=(len(idx), len(idx)))
    return mat, np.where(free, 0.0, v).ravel()[nb].sum(axis=0)


def _check_matrix_free_step(v, free):
    # the matrix-free CG, run to a tight bound, against a direct solve of
    # the CSR system; the fixed nodes of v stay bitwise as they were
    from pshlab.envelope_solver import _cg
    mat, b = _reference_laplace_system(v, free)
    want = v.copy()
    if len(b):
        want[free] = spsolve(mat.tocsc(), b)
    got = v.copy()
    cg = _cg(got, free)
    next(cg)
    assert cg.send(1e-13) < 1e-13
    assert np.max(np.abs(got - want), initial=0.0) < 1e-12
    assert np.array_equal(got[~free], v[~free])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(3, 28),
       cols=st.integers(3, 28), density=st.floats(0.1, 1.0),
       edge=st.booleans())
def test_matrix_free_cg_solves_the_csr_system(seed, rows, cols, density,
                                              edge):
    # random free masks on the interior; `edge` puts a free node on row 1
    # and on column 1, so the box reaches row and column 0
    rng = np.random.default_rng(seed)
    free = np.zeros((rows, cols), dtype=bool)
    free[1:-1, 1:-1] = rng.random((rows - 2, cols - 2)) < density
    if edge:
        free[1, rng.integers(1, cols - 1)] = True
        free[rng.integers(1, rows - 1), 1] = True
    v = rng.standard_normal((rows, cols))
    _check_matrix_free_step(v, free)


def test_matrix_free_cg_box_holding_the_origin(flat):
    # a step as the solver sets it up: obstacle values on the fixed nodes,
    # the origin (g = +inf) free, inside a box that stops short of the rim
    from pshlab.field_grid import erode_mask
    grid = build_grid(1, 32, 1.0)
    g = build_obstacle(flat, 0.3, grid).values
    inside = grid.inside_mask()
    i0 = grid.origin_index()
    rng = np.random.default_rng(11)
    free = erode_mask(inside) & (grid.rho() < 0.4) & (rng.random(g.shape) < 0.8)
    free[i0] = True
    v = np.where(free, 0.0, np.where(inside, g, 0.0))
    _check_matrix_free_step(v, free)
    assert not free[:5].any() and not free[:, :5].any()


def test_matrix_free_cg_empty_free_set():
    from pshlab.envelope_solver import _cg
    v = np.random.default_rng(3).standard_normal((9, 7))
    before = v.copy()
    cg = _cg(v, np.zeros(v.shape, dtype=bool))
    assert next(cg) == 0.0
    assert cg.send(1e-12) == 0.0
    assert np.array_equal(v, before)
    _check_matrix_free_step(v, np.zeros(v.shape, dtype=bool))


def _reference_jacobi(p, lam, grid, tol):
    """The monotone Jacobi iteration v <- min(g, mean4 v), once the grid
    solver's second scheme: from the obstacle, the origin node started at
    its largest neighbour, until the sup of an update is below tol."""
    from pshlab.envelope_solver import _jacobi_target
    from pshlab.field_grid import erode_mask
    g = build_obstacle(p, lam, grid).values
    inside = grid.inside_mask()
    interior = erode_mask(inside)
    v = np.where(inside & np.isfinite(g), g, 0.0)
    if lam > 0:
        i, j = o = grid.origin_index()
        v[o] = max(v[i + 1, j], v[i - 1, j], v[i, j + 1], v[i, j - 1])
    for _ in range(500_000):
        tgt = _jacobi_target(v, g, interior)
        residual = float(np.max(np.abs(np.where(interior, tgt - v, 0.0))))
        v = tgt
        if residual < tol:
            return np.where(inside, v, 0.0)
    raise AssertionError("reference Jacobi iteration did not converge")


def test_grid_jacobi_and_active_set_agree(flat):
    # same unique fixed point; the gap scales like tol over the contraction
    # gap of the iteration (the stop rule bounds the update, not the error)
    g = build_grid(1, 64, 1.0)
    a = grid_envelope(flat, 0.25, g, tol=1e-11)
    b = _reference_jacobi(flat, 0.25, g, tol=1e-11)
    inside = g.inside_mask()
    assert np.max(np.abs(a.envelope.values - b)[inside]) < 1e-7


def test_grid_fixed_point_property(grid128, perturbed):
    from pshlab.envelope_solver import _jacobi_target
    res = grid_envelope(perturbed, 0.2, grid128, tol=1e-10)
    obs = build_obstacle(perturbed, 0.2, grid128)
    g = np.where(np.isfinite(obs.values), obs.values, np.inf)
    inside = grid128.inside_mask()
    from pshlab.field_grid import erode_mask
    active = erode_mask(inside)
    tgt = _jacobi_target(res.envelope.values, g, active)
    assert np.max(np.abs((tgt - res.envelope.values)[active])) < 1e-10


def test_grid_harmonic_off_contact(grid128, perturbed):
    res = grid_envelope(perturbed, 0.2, grid128, tol=1e-10)
    assert maximality_residual(res) <= 10.0 * grid128.h


def test_grid_max_iters_error(grid128, flat):
    with pytest.raises(SolverError) as err:
        grid_envelope(flat, 0.25, grid128, tol=1e-12, max_iters=3)
    assert err.value.residual is not None


def test_grid_rejects_non_psh(grid128):
    p = Potential(1, [Term("reharm", 1.0, (2,))])
    with pytest.raises(ValueError, match="not strictly psh"):
        grid_envelope(p, 0.1, grid128)


def test_monotonicity_in_lam(grid128, flat):
    prev = None
    for lam in (0.1, 0.2, 0.3, 0.4):
        res = grid_envelope(flat, lam, grid128, tol=1e-9)
        if prev is not None:
            m = prev.deficit.mask & res.deficit.mask
            assert np.all(prev.deficit.values[m] >= res.deficit.values[m]
                          - 1e-9)
            assert np.all(~res.coincidence | prev.coincidence)
        prev = res


def test_concavity_in_lam(grid128, flat):
    lams = np.linspace(0.05, 0.6, 12)
    vals = []
    for lam in lams:
        res = grid_envelope(flat, float(lam), grid128, tol=1e-9)
        vals.append(res.deficit.masked_fill(np.nan))
    stack = np.stack(vals)
    second = stack[2:] - 2 * stack[1:-1] + stack[:-2]
    finite = np.isfinite(second)
    assert np.nanmax(second[finite]) < 1e-6


@settings(max_examples=15, deadline=None)
@given(n=st.sampled_from([32, 48, 64, 96, 128, 192]),
       coeff=st.complex_numbers(max_magnitude=0.4),
       power=st.integers(1, 4),
       lams=st.lists(st.floats(0.05, 0.6), min_size=2, max_size=3,
                     unique=True))
@example(n=192, coeff=0.3 - 0.2j, power=2, lams=[0.15, 0.4])   # 3 halvings
def test_grid_exact_discrete_complementarity(n, coeff, power, lams):
    # v <= g, mean4(v) - v >= -tol (subharmonic), the Jacobi certificate,
    # coincidence sets shrinking as lam grows, and the same solve with
    # exact steps only (no loose CG): certified, the same coincidence set,
    # envelopes within 1e-7
    from pshlab import envelope_solver
    from pshlab.envelope_solver import _jacobi_target, _neighbour_mean
    from pshlab.field_grid import erode_mask
    p = Potential(1, [Term("polyrad", 1.0, (1,)),
                      Term("reharm", coeff, (power,))])
    grid = build_grid(1, n, 1.0)
    tol = 1e-10
    inside = grid.inside_mask()
    interior = erode_mask(inside)
    prev = None
    for lam in sorted(lams):
        res = grid_envelope(p, lam, grid, tol=tol)
        v = res.envelope.values
        g = build_obstacle(p, lam, grid).values
        assert np.all(v[inside] <= g[inside])
        assert np.all((_neighbour_mean(v) - v)[interior] >= -tol)
        tgt = _jacobi_target(v, g, interior)
        assert res.residual < tol
        assert np.max(np.abs(tgt - v)[interior]) < tol
        if prev is not None:
            assert np.all(~res.coincidence | prev.coincidence)
        prev = res
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(envelope_solver, "FORCING", 0.0)
            exact = grid_envelope(p, lam, grid, tol=tol)
        assert exact.residual < tol
        assert np.array_equal(exact.coincidence, res.coincidence)
        assert exact.envelope.sup_diff(res.envelope) < 1e-7


# ---------------------------------------------------------------------------
# extraction and the pole-weight fit
# ---------------------------------------------------------------------------

def test_extract_circle(grid128, flat):
    res = grid_envelope(flat, 0.25, grid128, tol=1e-10)
    poly = extract_equilibrium(res)
    r = np.hypot(poly[:, 0], poly[:, 1])
    assert np.max(np.abs(r - 0.5)) < 2.0 * grid128.h
    assert polyline_is_simple(poly)


def test_extract_lam_zero_empty(grid128, flat):
    res = radial_envelope(flat, 0.0, grid128)
    poly = extract_equilibrium(res)
    assert len(poly) == 0
    assert res.coincidence[grid128.inside_mask()].all()


def test_extract_refined_flat_radius(grid128, flat):
    res = radial_envelope(flat, 0.25, grid128)
    poly = extract_equilibrium(res, refine=True)
    r = np.hypot(poly[:, 0], poly[:, 1])
    assert np.max(np.abs(r - 0.5)) < 0.25 * grid128.h


def test_extract_perturbed_simple_closed(grid128, perturbed):
    res = grid_envelope(perturbed, 0.2, grid128, tol=1e-9)
    poly = extract_equilibrium(res)
    assert len(poly) >= 32
    assert polyline_is_simple(poly)
    from pshlab.geometry import points_in_polygon
    assert points_in_polygon(np.zeros(1), np.zeros(1), poly)[0]


def test_grid_boundary_is_the_level_curve_refine_starts_from(grid128,
                                                              perturbed):
    """A grid result's stored boundary is the level curve extraction
    finds, so refining from it is refining from a fresh extraction."""
    from pshlab.envelope_solver import _radial_refined_boundary
    res = grid_envelope(perturbed, 0.2, grid128, tol=1e-9)
    poly0 = extract_equilibrium(res)
    assert np.array_equal(res.boundary, poly0)
    refined = extract_equilibrium(res, refine=True)
    assert np.array_equal(refined, _radial_refined_boundary(res, poly0))


EPS = np.finfo(float).eps


@settings(max_examples=20, deadline=None)
@given(q=st.floats(0.05, 1.0), n=st.integers(16, 128).map(lambda k: 2 * k),
       share=st.floats(0.0, 0.9, exclude_min=True, exclude_max=True))
def test_radial_contact_set_is_the_stored_set(q, n, share):
    """The radial oracle's coincidence tolerance is the rounding noise of
    the terms that cancel in the deficit, g(t*) and lam t*."""
    p = Potential(1, [Term("polyrad", 1.0, (1,)), Term("polyrad", q, (2,))])
    lam = share * float(p.chi_prime(0.0))
    res = radial_envelope(p, lam, build_grid(1, n, 1.0))
    t_star = math.log(p.level_rho(lam))
    flat = float(p.chi(t_star)) - lam * t_star
    assert res.coincidence_tol == 4.0 * EPS * max(1.0, abs(flat)
                                                  + abs(lam * t_star))


@pytest.mark.parametrize("n", [256, 512])
def test_quartic_nodes_just_inside_the_circle_stay_off_the_set(quartic, n):
    # 8 nodes lie 1.6e-7 inside the exact circle with a = -1.05e-13: the
    # exact set leaves them out
    res = radial_envelope(quartic, 0.7653174603174603, build_grid(1, n, 1.0))
    a = res.deficit
    assert np.count_nonzero(a.mask & ~res.coincidence
                            & (a.values >= -1e-12)) == 8


@pytest.mark.parametrize("tol", [1e-13, 1e-10, 1e-9, 1e-8])
def test_grid_contact_tol(perturbed, tol):
    res = grid_envelope(perturbed, 0.2, build_grid(1, 64, 1.0), tol=tol)
    assert res.coincidence_tol == max(10.0 * tol, 1e-14)
    on = res.coincidence
    assert np.all(res.deficit.values[on] == 0.0)
    assert np.all(res.deficit.values[res.deficit.mask & ~on]
                  < -res.coincidence_tol)


@pytest.mark.parametrize("lam", [0.0, 0.05, 0.2, 0.5])
def test_reinhardt_contact_set_is_the_stored_set(lam):
    res = radial_envelope(builtin_potential("reinhardt2"), lam,
                          build_grid(2, 96, 1.0, "log-radial"))
    if lam:
        assert res.coincidence_tol == 1e-9
    assert np.all(res.deficit.values[res.coincidence] == 0.0)


def test_lelong_flat(grid128, flat):
    res = grid_envelope(flat, 0.25, grid128, tol=1e-10)
    rep = lelong_check(res)
    assert rep.passed
    assert rep.slope == pytest.approx(0.25, abs=5e-3)


def test_lelong_lam_zero_passes(grid128, flat):
    res = radial_envelope(flat, 0.0, grid128)
    rep = lelong_check(res)
    assert rep.passed and rep.slope == 0.0


def test_lelong_perturbed(grid128, perturbed):
    res = grid_envelope(perturbed, 0.2, grid128, tol=1e-10)
    rep = lelong_check(res)
    assert rep.slope >= 0.2 - 1e-2


def test_lelong_too_coarse_raises(flat):
    g = build_grid(1, 16, 1.0)
    res = grid_envelope(flat, 0.25, g, tol=1e-8)
    with pytest.raises(ValueError, match="annulus"):
        lelong_check(res, annulus=(0.1, 0.4))


def test_obstacle_sentinel(grid128, flat):
    obs = build_obstacle(flat, 0.25, grid128)
    i0 = grid128.origin_index()
    assert obs.values[i0] == np.inf
    assert not obs.field.mask[i0]
    assert np.isfinite(obs.values[obs.field.mask]).all()
