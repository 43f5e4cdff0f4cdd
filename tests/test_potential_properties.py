"""Property tests of the monomial evaluator over random term lists.

Every term kind of `Term` is drawn, for n = 1 and n = 2.  The reference
values come from the closed forms of the `Term` docstring table, written
out here independently of the monomial expansion; derivatives are
checked against central differences of `value`.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from pshlab.potential_kit import Potential, Term, normalize_chart

REAL = st.floats(-2.0, 2.0).filter(lambda c: abs(c) > 0.05)
COMPLEX = st.builds(complex, REAL, st.floats(-2.0, 2.0))
EXP = st.integers(0, 3)


def _nonzero(n):
    return st.tuples(*[EXP] * n).filter(any)


def _terms(n):
    kinds = [
        st.builds(lambda c: Term("const", c, ()), REAL),
        st.builds(lambda c, e: Term("polyrad", c, e), REAL,
                  st.tuples(*[EXP] * n)),
        st.builds(lambda c, k: Term("ball", c, (k,)), REAL,
                  st.integers(1, 3)),
        st.builds(lambda c, m: Term("reharm", c, m), COMPLEX, _nonzero(n)),
        st.builds(lambda c, m, k: Term("perturb", c, m + (k,)), COMPLEX,
                  _nonzero(n), st.integers(1, 2)),
    ]
    if n == 2:
        kinds.append(st.builds(lambda c: Term("herm", c, (0, 1)), REAL))
    # one term per (kind, exponents): non-Reinhardt terms cannot cancel
    return st.lists(st.one_of(kinds), min_size=1, max_size=5,
                    unique_by=lambda t: (t.kind, t.exps))


@st.composite
def weights(draw, n=None):
    n = draw(st.sampled_from((1, 2))) if n is None else n
    terms = draw(_terms(n))
    coord = st.floats(-0.6, 0.6)
    z = tuple(complex(draw(coord), draw(coord)) for _ in range(n))
    return n, terms, z


def _direct(terms, z):
    """The Term docstring table, evaluated term by term."""
    rho = [abs(w) ** 2 for w in z]
    total = 0.0
    for t in terms:
        c = complex(t.coeff)
        if t.kind == "const":
            total += c.real
        elif t.kind == "polyrad":
            total += c.real * math.prod(r ** e for r, e in zip(rho, t.exps))
        elif t.kind == "ball":
            total += c.real * sum(rho) ** t.exps[0]
        elif t.kind == "reharm":
            total += (c * math.prod(w ** m for w, m in zip(z, t.exps))).real
        elif t.kind == "perturb":
            *m, k = t.exps
            total += ((c * math.prod(w ** e for w, e in zip(z, m))).real
                      * sum(rho) ** k)
        else:
            i, j = t.exps
            total += c.real * (z[i] * z[j].conjugate()).real
    return total


def _args(p, z):
    return np.asarray(z[0]) if p.n == 1 else tuple(np.asarray(w) for w in z)


def _parts(x):
    return [complex(v) for v in (x if isinstance(x, tuple) else (x,))]


def _real_coords(z):
    return np.array([v for w in z for v in (w.real, w.imag)])


def _value_at(p, x):
    z = tuple(complex(x[2 * i], x[2 * i + 1]) for i in range(p.n))
    return float(p.value(_args(p, z)))


def _fd(p, z, h=1e-4):
    """Central-difference first and second real derivatives of value."""
    x0 = _real_coords(z)
    dim = len(x0)
    eye = np.eye(dim) * h
    f = lambda x: _value_at(p, x)
    d1 = np.array([(f(x0 + eye[i]) - f(x0 - eye[i])) / (2 * h)
                   for i in range(dim)])
    d2 = np.empty((dim, dim))
    for i in range(dim):
        for j in range(dim):
            d2[i, j] = (f(x0 + eye[i] + eye[j]) - f(x0 + eye[i] - eye[j])
                        - f(x0 - eye[i] + eye[j])
                        + f(x0 - eye[i] - eye[j])) / (4 * h * h)
    return d1, d2


@settings(max_examples=80, deadline=None)
@given(weights())
def test_value_matches_term_table(case):
    n, terms, z = case
    p = Potential(n, terms)
    ref = _direct(terms, z)
    scale = 1.0 + sum(abs(complex(t.coeff)) for t in terms)
    assert abs(float(p.value(_args(p, z))) - ref) <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(weights())
def test_derivatives_match_central_differences(case):
    n, terms, z = case
    p = Potential(n, terms)
    d1, d2 = _fd(p, z)
    pairs = [(0, 0)] if n == 1 else [(0, 0), (0, 1), (1, 1)]
    # Wirtinger calculus in real coordinates x_i = 2i, y_i = 2i + 1
    grad = [0.5 * (d1[2 * i] - 1j * d1[2 * i + 1]) for i in range(n)]
    hess, holo = [], []
    for i, j in pairs:
        xx, yy = d2[2 * i, 2 * j], d2[2 * i + 1, 2 * j + 1]
        xy, yx = d2[2 * i, 2 * j + 1], d2[2 * i + 1, 2 * j]
        hess.append(0.25 * (xx + yy + 1j * (xy - yx)))
        holo.append(0.25 * (xx - yy - 1j * (xy + yx)))
    tol = 1e-5 * (1.0 + sum(abs(complex(t.coeff)) for t in terms))
    Z = _args(p, z)
    for got, want in ((p.grad(Z), grad), (p.hessian(Z), hess),
                      (p.holo2(Z), holo)):
        assert np.allclose(_parts(got), want, rtol=0, atol=tol)


@settings(max_examples=80, deadline=None)
@given(weights())
def test_symmetry_matches_kinds(case):
    n, terms, z = case
    p = Potential(n, terms)
    kinds = {t.kind for t in terms}
    if kinds & {"reharm", "perturb", "herm"}:
        assert p.symmetry == "general"
        return
    if n == 1 or kinds <= {"const", "ball"}:
        assert p.symmetry == "radial"
    else:
        # polyrad terms may or may not add up to powers of the norm
        assert p.symmetry in ("radial", "reinhardt")
    # invariant under independent rotations of each coordinate
    phases = tuple(w * np.exp(1j * (0.7 + 1.3 * i)) for i, w in enumerate(z))
    v = float(p.value(_args(p, z)))
    assert abs(float(p.value(_args(p, phases))) - v) <= 1e-12 * (1 + abs(v))
    if p.symmetry == "radial" and n == 2:
        # and, when radial, under a unitary mixing of the coordinates
        c, s = math.cos(0.4), math.sin(0.4)
        mixed = (c * z[0] - s * z[1], s * z[0] + c * z[1])
        assert abs(float(p.value(_args(p, mixed))) - v) <= 1e-12 * (1 + abs(v))


@settings(max_examples=80, deadline=None)
@given(weights())
def test_lines_roundtrip(case):
    n, terms, _ = case
    p = Potential(n, terms)
    q = Potential.from_lines(n, p.to_lines())
    assert q.terms == p.terms
    assert q.coeffs == p.coeffs


@settings(max_examples=60, deadline=None)
@given(weights())
def test_normalized_chart_has_identity_hessian(case):
    n, terms, z = case
    # a dominant |z|^2 keeps the origin strictly psh whatever was drawn
    p = Potential(n, [Term("ball", 8.0, (1,))] + terms)
    nc = normalize_chart(p)
    assert np.max(np.abs(nc.hessian_at_zero() - np.eye(n))) < 1e-12
    # normalized(z) = p(Pz) - h(Pz)
    w = nc.P @ np.array(z)
    W = _args(p, tuple(w))
    want = float(p.value(W)) - float(nc.h.value(W))
    got = float(nc.normalized.value(_args(p, z)))
    assert abs(got - want) <= 1e-12 * (1.0 + abs(want))
