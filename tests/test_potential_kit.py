import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq as scipy_brentq

from pshlab.field_grid import ScalarField, build_grid, c2_norm, ddc_component
from pshlab.potential_kit import (Potential, Term, builtin_potential,
                                  bump_profile, field_min_density,
                                  glue_to_ball, normalize_chart,
                                  regularized_max, suggest_glue_parameters,
                                  validate_strict_psh)


# ---------------------------------------------------------------------------
# term calculus cross-checked against finite differences
# ---------------------------------------------------------------------------

def _fd_hessian(p, z, h=1e-5):
    """d^2 p / dz dzbar by the 4-point complex stencil."""
    val = (p.value(z + h) + p.value(z - h)
           + p.value(z + 1j * h) + p.value(z - 1j * h) - 4 * p.value(z))
    return val / (4 * h * h)


@pytest.mark.parametrize("terms", [
    [Term("polyrad", 1.0, (1,))],
    [Term("polyrad", 0.5, (2,))],
    [Term("reharm", 0.3 + 0.1j, (3,))],
    [Term("perturb", 0.2, (2, 1))],
    [Term("polyrad", 1.0, (1,)), Term("perturb", -0.1, (3, 2))],
    [Term("ball", 0.7, (3,))],
])
def test_term_hessian_matches_fd(terms):
    p = Potential(1, terms)
    rng = np.random.default_rng(3)
    zs = rng.uniform(-0.7, 0.7, 6) + 1j * rng.uniform(-0.7, 0.7, 6)
    for z in zs:
        assert p.hessian(np.asarray(z)) == pytest.approx(
            _fd_hessian(p, z), abs=1e-5)


def test_term_gradient_matches_fd():
    p = Potential(1, [Term("polyrad", 1.0, (2,)), Term("perturb", 0.3, (2, 1))])
    z = 0.4 - 0.2j
    h = 1e-6
    fx = (p.value(z + h) - p.value(z - h)) / (2 * h)
    fy = (p.value(z + 1j * h) - p.value(z - 1j * h)) / (2 * h)
    gz = p.grad(np.asarray(z))
    assert 2 * gz.real == pytest.approx(fx, abs=1e-6)
    assert -2 * gz.imag == pytest.approx(fy, abs=1e-6)


def test_n2_hessian_matches_fd():
    p = builtin_potential("reinhardt2")
    z = (0.3 + 0.2j, -0.4 + 0.1j)
    h = 1e-5

    def val(z1, z2):
        return float(p.value((np.asarray(z1), np.asarray(z2))))

    h11_fd = (val(z[0] + h, z[1]) + val(z[0] - h, z[1]) + val(z[0] + 1j * h, z[1])
              + val(z[0] - 1j * h, z[1]) - 4 * val(*z)) / (4 * h * h)
    h11, h12, h22 = p.hessian((np.asarray(z[0]), np.asarray(z[1])))
    assert float(h11) == pytest.approx(h11_fd, abs=1e-5)


def test_n2_ball_hessian_scales_with_coefficient():
    # 2 (|z1|^2 + |z2|^2): the complex Hessian is 2 I everywhere
    p = Potential(2, [Term("ball", 2.0, (1,))])
    z = (0.3 + 0.2j, -0.4 + 0.1j)
    h = 1e-5

    def val(x):
        z1 = complex(x[0], x[1])
        z2 = complex(x[2], x[3])
        return float(p.value((np.asarray(z1), np.asarray(z2))))

    x0 = np.array([z[0].real, z[0].imag, z[1].real, z[1].imag])

    def d2(i, j):
        ei, ej = np.eye(4)[i] * h, np.eye(4)[j] * h
        return (val(x0 + ei + ej) - val(x0 + ei - ej) - val(x0 - ei + ej)
                + val(x0 - ei - ej)) / (4 * h * h)

    # f_{z_i zbar_j} = (f_{x_i x_j} + f_{y_i y_j} + i(f_{x_i y_j} - f_{y_i x_j})) / 4
    fd = {(i, j): 0.25 * (d2(2 * i, 2 * j) + d2(2 * i + 1, 2 * j + 1)
                          + 1j * (d2(2 * i, 2 * j + 1) - d2(2 * i + 1, 2 * j)))
          for i in range(2) for j in range(2)}
    h11, h12, h22 = p.hessian((np.asarray(z[0]), np.asarray(z[1])))
    assert float(h11) == pytest.approx(fd[(0, 0)].real, abs=1e-5)
    assert float(h22) == pytest.approx(fd[(1, 1)].real, abs=1e-5)
    assert complex(h12) == pytest.approx(fd[(0, 1)], abs=1e-5)
    assert float(h11) == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2])
def test_validate_ball_coefficient(n):
    p = Potential(n, [Term("ball", 2.0, (1,))])
    cert = validate_strict_psh(p, build_grid(n, 64 if n == 1 else 16, 1.0))
    assert cert.valid
    assert cert.min_eig == 2.0


def test_radial_profile_consistency(quartic):
    t = np.linspace(-3.0, 0.0, 11)
    rho = np.exp(t)
    z = np.sqrt(rho)  # real slice
    assert quartic.chi(t) == pytest.approx(list(quartic.value(z + 0j)))
    assert quartic.chi_prime(t) == pytest.approx(list(rho + rho ** 2))


def test_serialization_roundtrip():
    p = Potential(1, [Term("polyrad", 1.0, (1,)),
                      Term("reharm", 0.3 - 0.2j, (3,))])
    q = Potential.from_lines(1, p.to_lines())
    z = 0.3 + 0.4j
    assert q.value(np.asarray(z)) == pytest.approx(p.value(np.asarray(z)))


# ---------------------------------------------------------------------------
# strict psh certificate
# ---------------------------------------------------------------------------

def test_validate_flat_identity(grid128, flat):
    cert = validate_strict_psh(flat, grid128)
    assert cert.valid
    assert cert.min_eig == pytest.approx(1.0)


def test_validate_pluriharmonic_invalid(grid128):
    p = Potential(1, [Term("reharm", 1.0, (2,))])
    cert = validate_strict_psh(p, grid128)
    assert not cert.valid
    assert cert.min_eig == pytest.approx(0.0, abs=1e-12)


def test_validate_cubic_perturbation_keeps_identity(grid128, perturbed):
    # Re z^3 is pluriharmonic: the Hessian stays that of |z|^2
    cert = validate_strict_psh(perturbed, grid128)
    assert cert.valid
    assert cert.min_eig == pytest.approx(1.0)


def test_validate_reinhardt2():
    g = build_grid(2, 16, 1.0)
    cert = validate_strict_psh(builtin_potential("reinhardt2"), g)
    assert cert.valid and cert.min_eig >= 1.0 - 1e-12


# ---------------------------------------------------------------------------
# chart normalization
# ---------------------------------------------------------------------------

def test_normalize_readoff_example():
    p = Potential(1, [Term("polyrad", 1.0, (1,)), Term("reharm", 1.0, (2,)),
                      Term("const", 3.0)])
    nc = normalize_chart(p)
    assert np.allclose(nc.P, np.eye(1))
    z = np.asarray(0.3 - 0.5j)
    assert nc.normalized.value(z) == pytest.approx((z * z.conj()).real)
    assert nc.h.value(z) == pytest.approx(3.0 + (z ** 2).real)


def test_normalize_scaling_example():
    p = Potential(1, [Term("polyrad", 2.0, (1,))])
    nc = normalize_chart(p)
    assert nc.P[0, 0] == pytest.approx(1.0 / math.sqrt(2.0))
    z = np.asarray(0.25 + 0.1j)
    assert nc.normalized.value(z) == pytest.approx((z * z.conj()).real)


def test_normalize_block_factorization():
    p = Potential(2, [Term("polyrad", 2.0, (1, 0)), Term("polyrad", 1.0, (0, 1)),
                      Term("herm", 1.0, (0, 1))])
    nc = normalize_chart(p, normal_dims=1)
    Gamma = np.array([[2.0, 0.5], [0.5, 1.0]], dtype=complex)
    assert np.max(np.abs(nc.P.conj().T @ Gamma @ nc.P - np.eye(2))) < 1e-12
    assert nc.P[0, 1] == 0.0  # preserves {z' = 0}
    H0 = nc.hessian_at_zero()
    assert np.max(np.abs(H0 - np.eye(2))) < 1e-12


def test_normalize_idempotent():
    p = Potential(1, [Term("polyrad", 2.0, (1,)), Term("reharm", 0.4, (1,)),
                      Term("reharm", -0.2, (2,)), Term("const", 1.0),
                      Term("reharm", 0.1, (3,))])
    nc = normalize_chart(p)
    nc2 = normalize_chart(nc.normalized)
    assert np.allclose(nc2.P, np.eye(1), atol=1e-12)
    assert nc2.h.value(np.asarray(0.3 + 0.1j)) == pytest.approx(0.0, abs=1e-14)


def test_normalize_degenerate_raises():
    p = Potential(1, [Term("reharm", 1.0, (2,))])
    with pytest.raises(ValueError, match="[Nn]ot strictly psh"):
        normalize_chart(p)


# ---------------------------------------------------------------------------
# regularized max
# ---------------------------------------------------------------------------

def test_bump_profile_normalized():
    val, _ = quad(lambda x: float(bump_profile(np.array([x]))[0]), -1, 1)
    assert val == pytest.approx(1.0, abs=1e-9)
    assert float(bump_profile(np.array([0.5]))[0]) == \
        pytest.approx(float(bump_profile(np.array([-0.5]))[0]))


def test_regularized_max_branches(grid96_r2):
    rho = grid96_r2.rho()
    a = ScalarField(grid96_r2, rho + 1.0)
    b = ScalarField(grid96_r2, 2.0 * rho)
    u = regularized_max(a, b, 0.3)
    i0 = grid96_r2.origin_index()
    assert u.values[i0] == 1.0                       # pure a branch at 0
    far = u.mask & (rho - 1.0 >= 0.3 + 1e-12)        # d = 1 - rho <= -0.3
    assert np.array_equal(u.values[far], b.values[far])   # exact b branch
    near = u.mask & (1.0 - rho >= 0.3)
    assert np.array_equal(u.values[near], a.values[near])


def test_regularized_max_crossing_value():
    # at the crossing the blend adds width * integral_0^1 x eta(x) dx
    g = build_grid(1, 128, 2.0)
    rho = g.rho()
    a = ScalarField(g, rho + 1.0)
    b = ScalarField(g, 2.0 * rho)
    w = 0.3
    u = regularized_max(a, b, w)
    i_eta, _ = quad(lambda x: x * float(bump_profile(np.array([x]))[0]), 0, 1)
    ax = g.axis()
    i1, j0 = int(np.argmin(np.abs(ax - 1.0))), int(np.argmin(np.abs(ax)))
    assert rho[i1, j0] == pytest.approx(1.0)
    assert u.values[i1, j0] == pytest.approx(2.0 + w * i_eta, abs=1e-10)


def test_regularized_max_hypothesis_errors(grid96_r2):
    rho = grid96_r2.rho()
    a = ScalarField(grid96_r2, rho)          # a(0) = 0 = b(0): fails
    b = ScalarField(grid96_r2, 2.0 * rho)
    with pytest.raises(ValueError, match="origin"):
        regularized_max(a, b, 0.3)
    a2 = ScalarField(grid96_r2, rho + 1.0)
    b2 = ScalarField(grid96_r2, rho + 0.5)   # never crosses: rim fails
    with pytest.raises(ValueError, match="boundary"):
        regularized_max(a2, b2, 0.3)


def test_regularized_max_strictly_psh(grid96_r2):
    rho = grid96_r2.rho()
    z = grid96_r2.nodes()
    a = ScalarField(grid96_r2, rho + 0.8 + 0.03 * (z ** 2).real)
    b = ScalarField(grid96_r2, 1.8 * rho - 0.02 * (z ** 3).real)
    u = regularized_max(a, b, 0.25)
    mind, _ = field_min_density(u)
    assert mind > 0.0


# ---------------------------------------------------------------------------
# gluing
# ---------------------------------------------------------------------------

def test_glue_sigma_value(flat):
    nc = normalize_chart(flat)
    _, rep = glue_to_ball(nc, 0.01, 1e-5)
    assert rep.sigma == pytest.approx(3.0 * math.sqrt(1e-3), abs=1e-15)


def test_glue_flat_bound_chain(flat):
    nc = normalize_chart(flat)
    glued, rep = glue_to_ball(nc, 0.01, 1e-5)
    # alpha = |z|^2, beta = (1+a)|z|^2 - 2b: the chain evaluates below
    # w + 2(a+w) + 36a + discretization
    assert rep.achieved_c2 < rep.bound_chain
    assert rep.bound_chain == pytest.approx(0.38, abs=0.01)


def test_glue_requested_epsilon(flat):
    nc = normalize_chart(flat)
    glued, rep = glue_to_ball(nc, 0.01, 1e-5, target_eps=0.9)
    assert rep.achieved_c2 < 0.9
    with pytest.raises(ValueError, match="achieved"):
        glue_to_ball(nc, 0.01, 1e-5, target_eps=1e-4)


def test_glue_shrink_w_guard(flat):
    nc = normalize_chart(flat, chart_radius=0.05)
    with pytest.raises(ValueError, match="shrink w"):
        glue_to_ball(nc, 0.01, 1e-5)   # sigma = 0.0949 >= 0.05


def test_glue_bitwise_outside_and_psh(flat):
    nc = normalize_chart(flat)
    glued, rep = glue_to_ball(nc, 0.01, 1e-5)
    g = build_grid(1, 256, 1.0)
    fld = glued.sample(g)
    rho = g.rho()
    outside = rho > rep.sigma ** 2
    assert np.array_equal(fld.values[outside], rho[outside])
    hess = glued.hessian(g.nodes())
    assert np.min(hess[g.inside_mask()]) > 0.0


def test_glue_suggestion_heuristic():
    s, w = suggest_glue_parameters(0.9)
    assert 38.0 * s < 0.45
    assert 3.0 * math.sqrt(w / s) < 1.0


# ---------------------------------------------------------------------------
# the radial level rho*: P(rho*) = lam, P(rho) = chi'(ln rho)
# ---------------------------------------------------------------------------

EPS = 2.0 ** -52


def _radial(q, q3):
    terms = [Term("polyrad", 1.0, (1,)), Term("polyrad", q, (2,))]
    return Potential(1, terms + ([Term("polyrad", q3, (3,))] if q3 else []))


radial_weights = st.builds(_radial, st.floats(-0.2, 1.0),
                           st.none() | st.floats(0.0, 0.5))
shares = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@settings(max_examples=200, deadline=None)
@given(p=radial_weights, share=shares)
def test_level_rho_solves_the_mass_polynomial(p, share):
    """P(rho*) = lam within the rounding of P and of one last Newton
    step, sum k^2 |c_k| rho*^k times a few eps."""
    lam = share * float(p.chi_prime(0.0))
    rho = p.level_rho(lam)
    mass = math.fsum(c * rho ** k for k, c in p._chi_table(1))
    scale = math.fsum(abs(c) * rho ** k for k, c in p._chi_table(2))
    assert 0.0 < rho <= 1.0
    assert abs(mass - lam) <= 4.0 * EPS * scale


@settings(max_examples=100, deadline=None)
@given(p=radial_weights, a=shares, b=shares)
def test_level_rho_increases_with_lam(p, a, b):
    lo, hi = sorted((a, b))
    mass = float(p.chi_prime(0.0))
    assert p.level_rho(lo * mass) <= p.level_rho(hi * mass)


@settings(max_examples=100, deadline=None)
@given(p=radial_weights, share=st.floats(1e-6, 1.0, exclude_max=True))
def test_level_rho_is_scipy_brentq_in_t(p, share):
    """ln rho* is the root of chi'(t) = lam that Brent's method finds,
    to brentq's own xtol and a few ulps."""
    lam = share * float(p.chi_prime(0.0))
    t = scipy_brentq(lambda s: p.chi_prime(s) - lam, -200.0, 0.0,
                     xtol=1e-15, rtol=8.9e-16)
    assert abs(math.log(p.level_rho(lam)) - t) <= 1e-15 + 4 * math.ulp(t)


@settings(max_examples=200, deadline=None)
@given(lam=st.floats(0.0, 1e30, exclude_min=True))
def test_flat_level_rho_is_lam_bitwise(lam):
    assert builtin_potential("flat").level_rho(lam) == lam


@pytest.mark.parametrize("p, lam, match", [
    (builtin_potential("flat"), 0.0, "lam > 0"),
    (builtin_potential("flat"), -0.1, "lam > 0"),
    (builtin_potential("flat"), math.nan, "lam > 0"),
    (builtin_potential("perturbed"), 0.1, "not radial"),
    (builtin_potential("flat"), 1e40, "e\\^80"),   # rho* = 1e40 > e^80
    (_radial(-0.2, None), 1.0, "e\\^80"),   # P = rho - 0.4 rho^2 <= 0.625
])
def test_level_rho_errors(p, lam, match):
    with pytest.raises(ValueError, match=match):
        p.level_rho(lam)
