"""Strictly plurisubharmonic weights as closed-form term lists, plus the
three constructions the rest of the toolkit leans on:

* chart normalization  -- split off the pluriharmonic part and apply a
  linear change of coordinates so the weight reads |z|^2 + O(|z|^3);
* regularized maximum  -- the bump-convolved max of two weights, smooth,
  strictly psh, equal to either input off a prescribed transition band,
  with the quantitative C2 bound
      ||u - b||_C2  <=  width + ||a - b||_C2 + ||d(a-b)||_C0^2 / width;
* gluing to the ball   -- blend a normalized weight near 0 into |z|^2 on
  the unit disc through the barrier (1+s)|z|^2 - 2w, transition radius
  sigma = 3 sqrt(w/s).

Potentials are sparse polynomials in (z, zbar), not just samples, so
derivatives, transition radii, scale factors and equality regions are
exact.  All evaluators are vectorized
over complex coordinate arrays and pure.  A radial weight's level
`level_rho(lam)` is the rho = |z|^2 where the mass polynomial
P(rho) = chi'(ln rho) reaches lam: safeguarded Newton in rho.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .field_grid import GridSpec, ScalarField, ddc_component, erode_mask

_KINDS = ("const", "polyrad", "ball", "reharm", "perturb", "herm")


@dataclass(frozen=True)
class Term:
    """One closed-form building block of a potential: a front end that
    expands into monomials z^a zbar^b.

    kind      meaning (n = 1 or 2 complex variables)
    -------   ----------------------------------------------
    const     c
    polyrad   c * |z1|^(2 e1) * |z2|^(2 e2)          (radial monomial)
    ball      c * (|z1|^2 + |z2|^2)^k                (power of the norm)
    reharm    Re(c * z1^m1 * z2^m2)                  (pluriharmonic)
    perturb   Re(c * z^m) * |z|^(2k)
    herm      c * Re(z_i * conj(z_j)), i != j        (hermitian cross)
    """

    kind: str
    coeff: complex
    exps: tuple = ()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown term kind {self.kind!r}")


# ---------------------------------------------------------------------------
# monomial maps {(a, b): c} standing for sum c z^a zbar^b
# ---------------------------------------------------------------------------

def _unit(n: int, i: int) -> tuple:
    return tuple(int(k == i) for k in range(n))


def _tadd(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def _accumulate(out: dict, key, c):
    out[key] = out.get(key, 0.0) + c


def _norm_power(n: int, k: int):
    """(|z1|^2 + ... + |zn|^2)^k as [(e, multinomial coefficient)]."""
    if n == 1:
        return [((k,), 1)]
    return [((j, k - j), math.comb(k, j)) for j in range(k + 1)]


def _expand(t: Term, n: int, out: dict):
    """Add the monomials of one term to `out`."""
    c = complex(t.coeff)
    zero = (0,) * n
    if t.kind == "const":
        _accumulate(out, (zero, zero), c.real)
    elif t.kind == "polyrad":
        e = tuple(t.exps) + (0,) * (n - len(t.exps))
        _accumulate(out, (e, e), c.real)
    elif t.kind == "ball":
        for e, mult in _norm_power(n, t.exps[0]):
            _accumulate(out, (e, e), c.real * mult)
    elif t.kind in ("reharm", "perturb"):
        # Re(c z^m) (sum |z_i|^2)^k = sum mult (c/2) z^(m+e) zbar^e + conj
        m, k = (t.exps, 0) if t.kind == "reharm" else (t.exps[:-1], t.exps[-1])
        for e, mult in _norm_power(n, k):
            _accumulate(out, (_tadd(m, e), e), 0.5 * mult * c)
            _accumulate(out, (e, _tadd(m, e)), 0.5 * mult * c.conjugate())
    else:                                               # herm
        ei, ej = (_unit(n, i) for i in t.exps)
        _accumulate(out, (ei, ej), 0.5 * c.real)
        _accumulate(out, (ej, ei), 0.5 * c.real)


def _wirtinger(coeffs: dict, i: int, holomorphic: bool) -> dict:
    """d/dz_i z^a = a_i z^(a - e_i)  or  d/dzbar_i zbar^b = b_i zbar^(b - e_i)."""
    out = {}
    for (a, b), c in coeffs.items():
        e = a if holomorphic else b
        if e[i]:
            lowered = e[:i] + (e[i] - 1,) + e[i + 1:]
            key = (lowered, b) if holomorphic else (a, lowered)
            _accumulate(out, key, c * e[i])
    return out


def _mul(f: dict, g: dict) -> dict:
    out = {}
    for (a1, b1), c1 in f.items():
        for (a2, b2), c2 in g.items():
            _accumulate(out, (_tadd(a1, a2), _tadd(b1, b2)), c1 * c2)
    return out


def _substitute(coeffs: dict, P: np.ndarray) -> dict:
    """Monomial map of f(Pz), w = Pz a linear change of coordinates."""
    n = P.shape[0]
    zero = (0,) * n
    w = [{(_unit(n, k), zero): complex(P[i, k]) for k in range(n)}
         for i in range(n)]
    wbar = [{(zero, _unit(n, k)): complex(P[i, k]).conjugate()
             for k in range(n)} for i in range(n)]
    out = {}
    for (a, b), c in coeffs.items():
        image = {(zero, zero): c}
        for i in range(n):
            for _ in range(a[i]):
                image = _mul(image, w[i])
            for _ in range(b[i]):
                image = _mul(image, wbar[i])
        for key, v in image.items():
            _accumulate(out, key, v)
    return out


def _plan(coeffs: dict, real: bool):
    """Evaluation plan of a monomial map: (real, entries), each entry
    (c, factors, a != b) with factors (i, d, m) standing for
    z_i^d |z_i|^(2m) (conj(z_i)^-d when d < 0).  A real-valued
    (conjugate-symmetric) map keeps one monomial of each conjugate pair
    with a doubled coefficient, so that pair is evaluated once, as 2 Re."""
    entries = []
    for (a, b), c in coeffs.items():
        if real:
            if a < b:
                continue
            c = c.real if a == b else 2.0 * c
        factors = tuple((i, ai - bi, min(ai, bi))
                        for i, (ai, bi) in enumerate(zip(a, b)) if ai or bi)
        entries.append((c, factors, a != b))
    return real, tuple(entries)


def _factor(Zt, key, cache):
    v = cache.get(key)
    if v is None:
        i, d, m = key
        z = Zt[i]
        if d == 0:
            v = (z * z.conj()).real if m == 1 else _factor(Zt, (i, 0, 1), cache) ** m
        else:
            v = z if d > 0 else z.conj()
            if abs(d) > 1:
                v = v ** abs(d)
            if m:
                v = v * _factor(Zt, (i, 0, m), cache)
        cache[key] = v
    return v


def _evaluate(plan, Zt, cache: dict):
    """Sum of a planned monomial map at the points Zt (tuple of arrays);
    `cache` shares powers between plans evaluated at the same points."""
    real, entries = plan
    total = pairs = None
    for c, factors, off_diagonal in entries:
        term = None
        for key in factors:
            v = _factor(Zt, key, cache)
            term = v if term is None else term * v
        term = c if term is None else (term if c == 1 else c * term)
        if real and off_diagonal:
            pairs = term if pairs is None else pairs + term
        else:
            total = term if total is None else total + term
    if pairs is not None:
        total = pairs.real if total is None else total + pairs.real
    shape = Zt[0].shape if len(Zt) == 1 else np.broadcast(*Zt).shape
    dtype = float if real else complex
    if total is None or np.shape(total) != shape or np.result_type(total) != dtype:
        return np.zeros(shape, dtype) + (0.0 if total is None else total)
    return total.copy() if any(total is z for z in Zt) else total


class Potential:
    """A weight over C^n (n = 1 or 2) stored as one conjugate-symmetric
    map {(a, b): c} over monomials z^a zbar^b (`coeffs`).

    Built from a `Term` list, or from monomials directly.  `value`,
    `grad` (Wirtinger d/dz_i), `hessian` (d^2/dz_i dzbar_j) and `holo2`
    (d^2/dz_i dz_j) evaluate derivative maps built once by the Wirtinger
    rules d/dz_i z^a = a_i z^(a - e_i), d/dzbar_j zbar^b = b_j zbar^(b - e_j).
    Symmetry is read off the monomials: 'reinhardt' when every monomial has
    a = b (a function of (|z_1|^2, |z_2|^2)), 'radial' when in addition the
    degree-k part is c_k (|z_1|^2 + |z_2|^2)^k (always, for n = 1), else
    'general'.  A radial weight has the profile chi, phi(z) = chi(ln|z|^2).
    """

    def __init__(self, n: int, terms, name: str = ""):
        if n not in (1, 2):
            raise ValueError("n must be 1 or 2")
        self.n = n
        self.terms = [t if isinstance(t, Term) else Term(*t) for t in terms]
        coeffs = {}
        for t in self.terms:
            self._check_term(t)
            _expand(t, n, coeffs)
        self._build(n, coeffs, name)

    @classmethod
    def from_monomials(cls, n: int, coeffs: dict, name: str = "") -> "Potential":
        """Potential of a map {(a, b): c}; the conjugate pairs (a, b), (b, a)
        are averaged into an exactly conjugate-symmetric (real) weight.
        Such a potential has no term list."""
        if n not in (1, 2):
            raise ValueError("n must be 1 or 2")
        p = cls.__new__(cls)
        p.terms = None
        p._build(n, coeffs, name)
        return p

    def _build(self, n: int, coeffs: dict, name: str):
        self.n = n
        self.name = name
        sym = {}
        for (a, b), c in coeffs.items():
            c = 0.5 * (complex(c) + complex(coeffs.get((b, a), 0.0)).conjugate())
            if c != 0:
                sym[(a, b)] = c
        self.coeffs = sym
        pairs = ((0, 0),) if n == 1 else ((0, 0), (0, 1), (1, 1))
        dz = [_wirtinger(sym, i, True) for i in range(n)]
        self._value_plan = _plan(sym, True)
        self._grad_plans = tuple(_plan(d, False) for d in dz)
        self._hess_plans = tuple(_plan(_wirtinger(dz[i], j, False), i == j)
                                 for i, j in pairs)
        self._holo2_plans = tuple(_plan(_wirtinger(dz[i], j, True), False)
                                  for i, j in pairs)

        self._profile = tuple((a, c.real) for (a, b), c in sym.items())
        radial = {a[0]: c.real for (a, b), c in sym.items() if not any(a[1:])}
        norm_powers = {e: c * mult for k, c in radial.items()
                       for e, mult in _norm_power(n, k)}
        if any(a != b for a, b in sym):
            self.symmetry = "general"
        elif norm_powers.keys() == {a for a, b in sym} and all(
                math.isclose(sym[(e, e)].real, c, rel_tol=1e-14)
                for e, c in norm_powers.items()):
            self.symmetry = "radial"
        else:
            self.symmetry = "reinhardt"
        # chi^(j)(t) = sum c k^j e^(kt): coefficient tables built once
        powers = sorted(radial.items()) or [(0, 0.0)]
        self._chi = (tuple(powers), tuple((k, c * k) for k, c in powers),
                     tuple((k, c * k * k) for k, c in powers)) \
            if self.symmetry == "radial" else None

    def _check_term(self, t: Term):
        if t.kind == "polyrad":
            exps = t.exps if len(t.exps) == self.n else t.exps + (0,)
            if len(exps) != self.n or any(e < 0 for e in exps):
                raise ValueError(f"bad polyrad exponents {t.exps}")
            if abs(t.coeff.imag) > 0:
                raise ValueError("radial term needs a real coefficient")
        elif t.kind == "ball":
            if len(t.exps) != 1 or t.exps[0] < 1:
                raise ValueError(f"bad ball exponent {t.exps}")
        elif t.kind == "reharm":
            if len(t.exps) != self.n or any(m < 0 for m in t.exps):
                raise ValueError(f"bad reharm exponents {t.exps}")
        elif t.kind == "perturb":
            if len(t.exps) != self.n + 1:
                raise ValueError("perturb needs monomial exponents plus a radial power")
            if any(e < 0 for e in t.exps):
                raise ValueError(f"bad perturb exponents {t.exps}")
        elif t.kind == "herm":
            if self.n != 2 or tuple(sorted(t.exps)) != (0, 1):
                raise ValueError("herm term requires n=2 and indices (0,1)")

    # -- radial profile chi(t), phi = chi(ln rho) ----------------------

    def _chi_table(self, j: int):
        if self._chi is None:
            raise ValueError("potential is not radial; no chi profile")
        return self._chi[j]

    def chi(self, t):
        t = np.asarray(t, dtype=float)
        return sum(c * np.exp(k * t) for k, c in self._chi_table(0))

    def chi_prime(self, t):
        t = np.asarray(t, dtype=float)
        return sum(c * np.exp(k * t) for k, c in self._chi_table(1))

    def chi_second(self, t):
        t = np.asarray(t, dtype=float)
        return sum(c * np.exp(k * t) for k, c in self._chi_table(2))

    def level_rho(self, lam: float) -> float:
        """rho > 0 with P(rho) = chi'(ln rho) = sum k c_k rho^k, the mass of
        the disc |z|^2 < rho, equal to lam: the equilibrium boundary is
        |z|^2 = rho.  Newton in rho, kept in a bracket P(lo) < lam <= P(hi)
        from [0, 1], its top doubled (up to e^80) until it holds; a step out
        of it or at a zero derivative bisects it.  Ends when rho stays put."""
        mass, slope = self._chi_table(1), self._chi_table(2)
        if not lam > 0:
            raise ValueError(f"level_rho needs lam > 0, not {lam!r}")

        def mass_at(r):
            return sum(c * r ** k for k, c in mass)
        lo, hi = 0.0, 1.0
        while mass_at(hi) < lam:
            if hi > math.exp(80.0):
                raise ValueError(f"no rho up to e^80 has mass {lam!r}")
            lo, hi = hi, 2.0 * hi
        rho = hi
        while True:
            f = mass_at(rho) - lam
            if f == 0:
                return rho
            lo, hi = (rho, hi) if f < 0 else (lo, rho)
            d = sum(c * rho ** k for k, c in slope) / rho   # P'(rho)
            new = rho - f / d if d else math.nan
            if not lo < new < hi:
                new = 0.5 * (lo + hi)
            if new == rho:
                return rho
            rho = new

    def log_profile(self, t1, t2):
        """Reinhardt profile chi(t1, t2) with phi = chi(ln|z1|^2, ln|z2|^2)."""
        if self.symmetry not in ("radial", "reinhardt") or self.n != 2:
            raise ValueError("log_profile requires an n=2 reinhardt potential")
        t1 = np.asarray(t1, dtype=float)
        t2 = np.asarray(t2, dtype=float)
        out = np.zeros(np.broadcast(t1, t2).shape)
        for (e1, e2), c in self._profile:
            out = out + c * np.exp(e1 * t1 + e2 * t2)
        return out

    # -- pointwise calculus --------------------------------------------

    def _as_tuple(self, Z):
        if self.n == 1:
            return (np.asarray(Z, dtype=complex),)
        z1, z2 = Z
        return (np.asarray(z1, dtype=complex), np.asarray(z2, dtype=complex))

    def value(self, Z):
        return _evaluate(self._value_plan, self._as_tuple(Z), {})

    def __call__(self, Z):
        return self.value(Z)

    def grad(self, Z):
        """Wirtinger gradient (d/dz_1, ..., d/dz_n); f real so f_zbar = conj."""
        Zt, cache = self._as_tuple(Z), {}
        out = tuple(_evaluate(plan, Zt, cache) for plan in self._grad_plans)
        return out[0] if self.n == 1 else out

    def hessian(self, Z):
        """Complex Hessian d^2 f / dz_i dzbar_j.

        n=1: one real array.  n=2: (h11, h12, h22) with h12 complex.
        """
        Zt, cache = self._as_tuple(Z), {}
        out = tuple(_evaluate(plan, Zt, cache) for plan in self._hess_plans)
        return out[0] if self.n == 1 else out

    def holo2(self, Z):
        """Holomorphic second derivatives d^2 f / dz_i dz_j.

        n=1: one complex array; n=2: (f_11, f_12, f_22).
        """
        Zt, cache = self._as_tuple(Z), {}
        out = tuple(_evaluate(plan, Zt, cache) for plan in self._holo2_plans)
        return out[0] if self.n == 1 else out

    def density(self, Z):
        """dd^c density w.r.t. Lebesgue area (n=1): f_{z zbar} / pi."""
        if self.n != 1:
            raise ValueError("density is n=1 only")
        return self.hessian(Z) / np.pi

    # -- sampling -------------------------------------------------------

    def sample(self, grid: GridSpec) -> ScalarField:
        if grid.style == "cartesian":
            if grid.n != self.n:
                raise ValueError("grid dimension mismatch")
            vals = self.value(grid.nodes())
            if not np.all(np.isfinite(vals[grid.inside_mask()])):
                raise ValueError("potential overflows on this grid")
            return ScalarField(grid, vals)
        if grid.n == 1:
            vals = self.chi(grid.t_axis())
        else:
            t1, t2 = np.meshgrid(grid.t_axis(), grid.t_axis(), indexing="ij")
            vals = self.log_profile(t1, t2)
        return ScalarField(grid, vals, np.ones(grid.shape, dtype=bool)
                           & grid.inside_mask())

    # -- serialization ----------------------------------------------------

    def to_lines(self):
        if self.terms is None:
            raise ValueError("a potential built from monomials has no term list")
        out = []
        for t in self.terms:
            if t.coeff.imag == 0:
                cs = f"{t.coeff.real:.17g}"
            else:
                cs = f"{t.coeff.real:.17g}{t.coeff.imag:+.17g}j"
            out.append(" ".join([t.kind, cs] + [str(e) for e in t.exps]))
        return out

    @classmethod
    def from_lines(cls, n: int, lines, name: str = "") -> "Potential":
        terms = []
        for lineno, raw in enumerate(lines, start=1):
            s = raw.split("#", 1)[0].strip()
            if not s:
                continue
            toks = s.split()
            kind = toks[0]
            if kind == "builtin":
                if len(toks) != 2:
                    raise ValueError(f"term line {lineno}: builtin takes one name")
                return builtin_potential(toks[1])
            if kind not in _KINDS:
                raise ValueError(f"term line {lineno}: unknown kind {kind!r}")
            try:
                coeff = complex(toks[1])
                exps = tuple(int(t) for t in toks[2:])
            except ValueError as exc:
                raise ValueError(f"term line {lineno}: {exc}") from None
            terms.append(Term(kind, coeff, exps))
        if not terms:
            raise ValueError("empty potential term list")
        return cls(n, terms, name=name)


BUILTIN_POTENTIALS = ("flat", "quartic", "perturbed", "reinhardt2")


def builtin_potential(name: str) -> Potential:
    """The standing test corpus: flat, quartic, perturbed, reinhardt2."""
    if name == "flat":
        return Potential(1, [Term("polyrad", 1.0, (1,))], name="flat")
    if name == "quartic":
        return Potential(1, [Term("polyrad", 1.0, (1,)),
                             Term("polyrad", 0.5, (2,))], name="quartic")
    if name == "perturbed":
        return Potential(1, [Term("polyrad", 1.0, (1,)),
                             Term("reharm", 0.3, (3,))], name="perturbed")
    if name == "reinhardt2":
        return Potential(2, [Term("polyrad", 1.0, (1, 0)),
                             Term("polyrad", 1.0, (0, 1)),
                             Term("polyrad", 1.0, (1, 1))], name="reinhardt2")
    raise ValueError(f"unknown builtin potential {name!r}")


# ---------------------------------------------------------------------------
# strict plurisubharmonicity certificate
# ---------------------------------------------------------------------------

@dataclass
class PshCertificate:
    min_eig: float
    location: tuple
    valid: bool


def validate_strict_psh(p, grid: GridSpec) -> PshCertificate:
    """Minimum complex-Hessian eigenvalue of p over the masked-in nodes.

    The certificate is valid iff the minimum is strictly positive.  A
    non-positive minimum is reported, not raised; non-finite samples are
    an error.
    """
    if grid.style != "cartesian":
        raise ValueError("strict-psh validation needs a cartesian grid")
    Z = grid.nodes()
    mask = grid.inside_mask()
    if p.n == 1:
        eig = p.hessian(Z)
    else:
        h11, h12, h22 = p.hessian(Z)
        mean = 0.5 * (h11 + h22)
        disc = np.sqrt(0.25 * (h11 - h22) ** 2 + (h12 * h12.conj()).real)
        eig = mean - disc
    if not np.all(np.isfinite(eig[mask])):
        raise ValueError("non-finite Hessian samples")
    eig_masked = np.where(mask, eig, np.inf)
    idx = np.unravel_index(int(np.argmin(eig_masked)), eig_masked.shape)
    mn = float(eig_masked[idx])
    if p.n == 1:
        loc = (complex(Z[idx]),)
    else:
        loc = (complex(Z[0][idx]), complex(Z[1][idx]))
    return PshCertificate(min_eig=mn, location=loc, valid=mn > 0.0)


def field_min_density(f: ScalarField):
    """FD strict-subharmonicity certificate for a sampled n=1 field."""
    dens = ddc_component(f)
    vals = np.where(dens.mask, dens.values, np.inf)
    idx = np.unravel_index(int(np.argmin(vals)), vals.shape)
    return float(vals[idx]), idx


# ---------------------------------------------------------------------------
# chart normalization
# ---------------------------------------------------------------------------

def _gamma(p: Potential) -> np.ndarray:
    """Complex Hessian at the origin: the coefficients of z_i zbar_j."""
    e = [_unit(p.n, i) for i in range(p.n)]
    return np.array([[p.coeffs.get((ei, ej), 0.0) for ej in e] for ei in e],
                    dtype=complex)


@dataclass
class NormalizedChart:
    """Admissible coordinates for a weight: original = h + (normalized o P^-1)
    with h pluriharmonic through order two, P^* Gamma P = I block-lower-
    triangular preserving the tail subspace, and normalized(z) = |z|^2 + O(|z|^3).
    """

    original: Potential
    h: Potential
    P: np.ndarray
    normalized: Potential
    normal_dims: int
    chart_radius: float = 1.0

    def hessian_at_zero(self):
        return _gamma(self.normalized)


def _gamma_gram_schmidt(Gamma: np.ndarray, r: int) -> np.ndarray:
    """Columns = Gamma-orthonormal basis; seeds e_{r+1}..e_n processed first
    so the result has the (* 0; * *) block form preserving {z' = 0}."""
    n = Gamma.shape[0]
    order = list(range(r, n)) + list(range(r))
    cols = []
    P = np.zeros((n, n), dtype=complex)
    for j in order:
        v = np.zeros(n, dtype=complex)
        v[j] = 1.0
        for u in cols:
            v = v - (u.conj() @ (Gamma @ v)) * u
        nrm = math.sqrt(float((v.conj() @ (Gamma @ v)).real))
        if nrm <= 0:
            raise ValueError("degenerate Hessian: not strictly psh at the origin")
        v = v / nrm
        cols.append(v)
        P[:, j] = v
    return P


def normalize_chart(p: Potential, normal_dims: int | None = None,
                    chart_radius: float = 1.0) -> NormalizedChart:
    """Split p into a pluriharmonic part h (constant + Re-linear + Re-holo-
    quadratic) plus a weight with identity complex Hessian at the origin.

    Gamma (the complex Hessian of p at 0) and h (the monomials free of z or
    of zbar, of degree <= 2) are read off the coefficients.  Returns the
    change of coordinates P with P^* Gamma P = I, chosen block-lower-
    triangular so the subspace spanned by the last n - normal_dims
    coordinates is preserved.  The normalized weight is the polynomial
    p(Pz) - h(Pz) = |z|^2 + O(|z|^3).
    """
    n = p.n
    r = n if normal_dims is None else normal_dims
    if not (1 <= r <= n):
        raise ValueError("normal_dims out of range")
    Gamma = _gamma(p)
    if np.linalg.eigvalsh(Gamma).min() <= 0:
        raise ValueError("not strictly psh at origin (degenerate Hessian)")

    h = {(a, b): c for (a, b), c in p.coeffs.items()
         if min(sum(a), sum(b)) == 0 and sum(a) + sum(b) <= 2}
    rest = {key: c for key, c in p.coeffs.items() if key not in h}
    P = _gamma_gram_schmidt(Gamma, r)
    normalized = Potential.from_monomials(n, _substitute(rest, P),
                                          name=p.name + "~normalized")
    chart = NormalizedChart(original=p, h=Potential.from_monomials(n, h), P=P,
                            normalized=normalized, normal_dims=r,
                            chart_radius=chart_radius)
    H0 = chart.hessian_at_zero()
    if np.max(np.abs(H0 - np.eye(n))) > 1e-10:
        raise AssertionError("normalization failed to reach identity Hessian")
    return chart


# ---------------------------------------------------------------------------
# regularized maximum
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _gl64():
    x, w = leggauss(64)
    return x, w


@lru_cache(maxsize=1)
def _bump_norm() -> float:
    """Normalizer C with integral of C*exp(-1/(1-x^2)) over (-1,1) equal 1."""
    x, w = _gl64()
    vals = np.exp(-1.0 / (1.0 - x ** 2))
    return float(1.0 / np.sum(w * vals))


def bump_profile(x):
    """Unit-integral even bump on (-1, 1): C * exp(-1/(1-x^2))."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    xi = x[inside]
    out[inside] = _bump_norm() * np.exp(-1.0 / (1.0 - xi ** 2))
    return out


def bump_f(s, width: float):
    """Scaled bump f(s) = eta(s/width)/width, support (-width, width)."""
    return bump_profile(np.asarray(s, dtype=float) / width) / width


def blend_coefficients(d, width: float):
    """(M(d), M'(d), M''(d)) for the bump f = `bump_f(., width)`.

    M(d) = integral over s of max(d + s, 0) f(s) ds and M'(d) = integral
    of f over [-d, width], a smooth 0-to-1 switch: M = d and M' = 1 for
    d >= width, both 0 for d <= -width, and in between one 64-point
    Gauss-Legendre rule on [-d, width] gives both.  M''(d) = f(d) by
    evenness of the bump.  u = b + M(a - b) realises the regularized max
    of a and b.
    """
    d = np.asarray(d, dtype=float)
    m = np.where(d >= width, d, 0.0)
    m1 = np.where(d >= width, 1.0, 0.0)
    band = np.abs(d) < width
    if band.any():
        db = d[band]
        lo, hi = -db, width
        x, w = _gl64()
        mid = 0.5 * (lo[:, None] + hi) + 0.5 * (hi - lo[:, None]) * x[None, :]
        jac = 0.5 * (hi - lo)
        f = bump_f(mid, width)
        m[band] = jac * np.sum(w[None, :] * ((db[:, None] + mid) * f), axis=1)
        m1[band] = jac * np.sum(w[None, :] * f, axis=1)
    return m, m1, bump_f(d, width)


def regularized_max(a: ScalarField, b: ScalarField, bump_width: float) -> ScalarField:
    """Smooth strictly-psh interpolation between two weights.

    Returns u with u = a where a - b >= bump_width, u = b where
    b - a >= bump_width, and the bump-convolved max in between.  Requires
    a(0) > b(0) + bump_width and a < b - bump_width on the rim of the
    masked-in region; violations raise with the failing inequality named.
    """
    if a.grid != b.grid:
        raise ValueError("regularized_max requires a common grid")
    if not (bump_width > 0):
        raise ValueError("bump_width must be positive")
    grid = a.grid
    i0 = grid.origin_index()
    if i0 is None or not a.mask[i0]:
        raise ValueError("origin node not available on this grid")
    a0, b0 = float(a.values[i0]), float(b.values[i0])
    if not (a0 > b0 + bump_width):
        raise ValueError(
            f"hypothesis a(0) > b(0) + bump_width fails at the origin: "
            f"{a0:.6g} <= {b0:.6g} + {bump_width:.6g}")
    mask = a.mask & b.mask
    rim = mask & ~erode_mask(mask)
    d = a.values - b.values
    if rim.any():
        worst = float(np.max(d[rim]))
        if not (worst < -bump_width):
            raise ValueError(
                f"hypothesis a < b - bump_width fails on the domain boundary "
                f"(max a-b = {worst:.6g}, need < {-bump_width:.6g})")
    u = b.values + blend_coefficients(np.where(mask, d, 0.0), bump_width)[0]
    # exact branches: u = a where a - b >= width, u = b where b - a >= width
    u = np.where(d >= bump_width, a.values, np.where(d <= -bump_width,
                                                     b.values, u))
    return ScalarField(grid, np.where(mask, u, 0.0), mask)


# ---------------------------------------------------------------------------
# gluing to the ball
# ---------------------------------------------------------------------------

class GluedBallPotential:
    """Closed-form weight on the unit disc: the normalized chart weight,
    rescaled and blended through (1+s)|z|^2 - 2w, equal to |z|^2 outside
    the transition radius sigma = 3 sqrt(w/s).

    All derivatives are exact (bump CDF and density in the band), so C2
    deviations from |z|^2 can be measured by dense closed-form sampling
    as well as by grid differencing.
    """

    def __init__(self, chart: NormalizedChart, s: float, w: float):
        if chart.original.n != 1:
            raise ValueError("ball gluing implemented for n=1 charts")
        self.phi = chart.normalized
        self.s = float(s)          # barrier slope excess, beta = (1+s)rho - 2w
        self.w = float(w)          # bump half-width and barrier offset
        self.sigma = 3.0 * math.sqrt(w / s)
        self.n = 1
        self.name = "glued"

    # d = phi - beta controls the blend; the spatial gate is rho <= sigma^2.
    def _pieces(self, z):
        z = np.asarray(z, dtype=complex)
        rho = (z * z.conj()).real
        beta = (1.0 + self.s) * rho - 2.0 * self.w
        d = self.phi.value(z) - beta
        return z, rho, beta, d

    def value(self, z):
        z, rho, beta, d = self._pieces(z)
        M, _, _ = blend_coefficients(d, self.w)
        inner = (beta + M + 2.0 * self.w) / (1.0 + self.s)
        return np.where(rho <= self.sigma ** 2, inner, rho)

    def __call__(self, z):
        return self.value(z)

    def grad(self, z):
        z, rho, beta, d = self._pieces(z)
        _, F, _ = blend_coefficients(d, self.w)
        beta_z = (1.0 + self.s) * z.conj()
        d_z = self.phi.grad(z) - beta_z
        inner = (beta_z + F * d_z) / (1.0 + self.s)
        return np.where(rho <= self.sigma ** 2, inner, z.conj())

    def hessian(self, z):
        z, rho, beta, d = self._pieces(z)
        _, F, fd = blend_coefficients(d, self.w)
        d_z = self.phi.grad(z) - (1.0 + self.s) * z.conj()
        d_h = self.phi.hessian(z) - (1.0 + self.s)
        inner = ((1.0 + self.s) + fd * (d_z * d_z.conj()).real + F * d_h) \
            / (1.0 + self.s)
        return np.where(rho <= self.sigma ** 2, inner, 1.0)

    def holo2(self, z):
        z, rho, beta, d = self._pieces(z)
        _, F, fd = blend_coefficients(d, self.w)
        d_z = self.phi.grad(z) - (1.0 + self.s) * z.conj()
        d_zz = self.phi.holo2(z)
        inner = (fd * d_z * d_z + F * d_zz) / (1.0 + self.s)
        return np.where(rho <= self.sigma ** 2, inner, 0.0 + 0.0j)

    def density(self, z):
        return self.hessian(z) / np.pi

    def sample(self, grid: GridSpec) -> ScalarField:
        rho = grid.rho()
        z = grid.nodes()
        vals = np.where(rho <= self.sigma ** 2, self.value(z), rho)
        return ScalarField(grid, vals)


@dataclass
class GlueReport:
    sigma: float
    scale_c: float
    achieved_c2: float
    bound_chain: float
    bound_terms: dict


def _polar_samples(r_max: float, extra_band):
    lo, hi = extra_band
    radii = np.unique(np.concatenate([np.linspace(0.0, r_max, 1025)[1:],
                                      np.linspace(lo, hi, 2048)]))
    th = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    return radii[:, None] * np.exp(1j * th[None, :])


def _c2_closed_form(diff_value, diff_grad, diff_hess, diff_holo2, pts):
    """Three-term C2 sup of a closed-form n=1 function over sample points."""
    v = diff_value(pts)
    gz = diff_grad(pts)
    fx, fy = 2.0 * gz.real, -2.0 * gz.imag
    hz = diff_hess(pts)
    q = diff_holo2(pts)
    fxx = 2.0 * q.real + 2.0 * hz
    fyy = -2.0 * q.real + 2.0 * hz
    fxy = -2.0 * q.imag
    t0 = float(np.max(np.abs(v)))
    t1 = float(np.max(np.maximum(np.abs(fx), np.abs(fy))))
    t2 = float(np.max(np.max(np.abs(np.stack([fxx, fxy, fyy])), axis=0)))
    return t0, t1, t2


def glue_to_ball(chart: NormalizedChart, s: float, w: float,
                 target_eps: float | None = None):
    """Blend the chart weight into |z|^2 on the unit disc.

    Parameters s (slope excess of the barrier (1+s)|z|^2 - 2w) and w
    (barrier offset = bump width) must satisfy sigma = 3 sqrt(w/s) <
    chart radius; too large a chart remainder at the transition circle
    raises "shrink w".  Returns (glued weight, report) where the report
    carries the transition radius, the curvature scale c with
    dd^c(original chart weight) = c * dd^c(glued) near 0, the achieved
    C2 distance to |z|^2, and the evaluated bound chain
    (w + ||phi - beta||_C2 + ||d(phi-beta)||_C0^2 / w) / (1+s).
    """
    if not (0 < w < s):
        raise ValueError("need 0 < w << s for the gluing regime")
    sigma = 3.0 * math.sqrt(w / s)
    if sigma >= chart.chart_radius:
        raise ValueError(
            f"shrink w: transition radius {sigma:.4g} >= chart radius "
            f"{chart.chart_radius:.4g}")
    glued = GluedBallPotential(chart, s, w)
    phi = glued.phi

    # seam admissibility: phi < beta - w on |z| = sigma
    seam = sigma * np.exp(1j * np.linspace(0, 2 * np.pi, 512, endpoint=False))
    d_seam = phi.value(seam) - ((1 + s) * sigma ** 2 - 2 * w)
    if float(np.max(d_seam)) >= -w:
        raise ValueError("shrink w: chart remainder too large at the "
                         "transition circle")

    # bound chain, measured with the closed-form derivatives on |z| <= sigma
    band = (math.sqrt(max(w / s, 1e-300)) * 0.5, min(sigma, 2.2 * math.sqrt(3 * w / s)))
    pts_sig = _polar_samples(sigma, band)
    beta_val = lambda z: (1 + s) * (z * z.conj()).real - 2 * w
    t0, t1, t2 = _c2_closed_form(
        lambda z: phi.value(z) - beta_val(z),
        lambda z: phi.grad(z) - (1 + s) * z.conj(),
        lambda z: phi.hessian(z) - (1 + s),
        lambda z: phi.holo2(z),
        pts_sig)
    c2_phi_beta = t0 + t1 + t2
    grad_c0 = t1
    bound_u = w + c2_phi_beta + grad_c0 ** 2 / w
    bound = bound_u / (1.0 + s)

    pts_one = _polar_samples(1.0, band)
    a0, a1, a2 = _c2_closed_form(
        lambda z: glued.value(z) - (z * z.conj()).real,
        lambda z: glued.grad(z) - z.conj(),
        lambda z: glued.hessian(z) - 1.0,
        lambda z: glued.holo2(z),
        pts_one)
    achieved = a0 + a1 + a2

    if target_eps is not None and achieved >= target_eps:
        raise ValueError(
            f"achieved C2 norm {achieved:.6g} >= requested {target_eps:.6g}")
    report = GlueReport(sigma=sigma, scale_c=1.0 + s, achieved_c2=achieved,
                        bound_chain=bound,
                        bound_terms={"w": w, "c2_phi_beta": c2_phi_beta,
                                     "grad_c0": grad_c0,
                                     "bound_u": bound_u})
    return glued, report
