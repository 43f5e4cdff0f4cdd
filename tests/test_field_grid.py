import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from pshlab.field_grid import (CSV_BLOCK, GridSpec, ScalarField, _cells,
                               bilinear, build_grid, c2_norm, ddc_component, erode_mask,
                               five_point_flat, gradient_sup, load_field,
                               neighbour_sum, save_field, write_csv)
from pshlab.potential_kit import Potential, Term, builtin_potential


def test_build_grid_spacing():
    g = build_grid(1, 256, 1.0)
    assert g.h == 2.0 / 256
    assert g.shape == (256, 256)
    assert g.axis()[g.origin_index()[0]] == 0.0


def test_build_grid_log_radial_range():
    g = build_grid(1, 128, 2.0, "log-radial")
    t = g.t_axis()
    assert len(t) == 128
    assert t[0] == -40.0
    assert t[-1] == pytest.approx(math.log(4.0))


def test_build_grid_rejects_small_resolution():
    with pytest.raises(ValueError):
        build_grid(2, 15, 1.0)


def test_build_grid_rejects_high_dimension():
    with pytest.raises(ValueError):
        build_grid(3, 64, 1.0)


def test_ddc_flat_exact(grid128, flat):
    f = flat.sample(grid128)
    d = ddc_component(f)
    vals = d.values[d.mask]
    assert np.max(np.abs(vals - 1.0 / np.pi)) < 1e-10


def test_ddc_pluriharmonic_zero(grid128):
    p = Potential(1, [Term("reharm", 1.0, (2,))])
    d = ddc_component(p.sample(grid128))
    assert np.max(np.abs(d.values[d.mask])) < 1e-9


def test_ddc_quartic_against_derivative_oracle(grid128):
    # independent oracle: Laplacian of rho^2 via one-dimensional fourth-order
    # differences of the radial profile r^4 -> 16 rho, density 4 rho / pi
    p = Potential(1, [Term("polyrad", 1.0, (2,))])
    d = ddc_component(p.sample(grid128))
    rho = grid128.rho()
    exact = 4.0 * rho / np.pi
    err = np.abs(d.values - exact)[d.mask]
    assert err.max() < 30.0 * grid128.h ** 2


def test_ddc_invariance_under_pluriharmonic_addend(grid128, perturbed):
    base = builtin_potential("flat")
    d1 = ddc_component(base.sample(grid128))
    d2 = ddc_component(perturbed.sample(grid128))  # flat + 0.3 Re z^3
    assert np.max(np.abs(d1.values - d2.values)[d1.mask & d2.mask]) \
        < 50.0 * grid128.h ** 2


def test_ddc_n2_hessian_components():
    g = build_grid(2, 16, 1.0)
    p = builtin_potential("reinhardt2")
    h11, h22, h12re, h12im = ddc_component(p.sample(g))
    z1, z2 = g.nodes()
    r1 = (z1 * z1.conj()).real
    r2 = (z2 * z2.conj()).real
    m = h11.mask
    assert np.max(np.abs(h11.values - (1 + r2))[m]) < 5e-2
    assert np.max(np.abs(h22.values - (1 + r1))[m]) < 5e-2
    exact12 = z2 * z1.conj()
    assert np.max(np.abs(h12re.values - exact12.real)[m]) < 5e-2
    assert np.max(np.abs(h12im.values - exact12.imag)[m]) < 5e-2


def test_c2_norm_identity_and_constant(grid128, flat):
    f = flat.sample(grid128)
    assert c2_norm(f, f) == 0.0
    g = f.with_values(f.values + 3.0)
    assert c2_norm(g, f) == pytest.approx(3.0)


def test_c2_norm_scaled_quadratic(grid128, flat):
    # f = (1+a)|z|^2 vs |z|^2: sup a, gradient 2a, second derivatives 2a
    f = flat.sample(grid128)
    a = 0.01
    g = f.with_values((1 + a) * f.values)
    val = c2_norm(g, f)
    assert abs(val - 5 * a) < 1e-3


def test_c2_norm_seminorm_properties(grid128):
    rng = np.random.default_rng(7)
    base = builtin_potential("flat").sample(grid128)
    z = grid128.nodes()
    f1 = base.with_values(base.values + 0.1 * (z ** 2).real)
    f2 = base.with_values(base.values - 0.05 * (z ** 3).imag)
    d12 = c2_norm(f1, f2)
    d21 = c2_norm(f2, f1)
    assert d12 == pytest.approx(d21)
    d1b = c2_norm(f1, base)
    d2b = c2_norm(base, f2)
    assert d12 <= d1b + d2b + 1e-12


def test_c2_norm_grid_mismatch_raises(grid128, grid96_r2, flat):
    with pytest.raises(ValueError):
        c2_norm(flat.sample(grid128), flat.sample(grid96_r2))


def _special_field(rng, shape):
    """Normal values with nan, +-inf, -0 and 0 sprinkled in."""
    v = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    specials = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0])
    pick = rng.random(shape) < 0.3
    v[pick] = rng.choice(specials, size=int(pick.sum()))
    return v


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def test_neighbour_sum_matches_hand_written_stencils_bitwise():
    """The helper and each caller's former inline stencil agree bit for bit
    on fields holding nan, +-inf and -0: the plain sum, the solver's
    four-neighbour mean, the certificates' Laplacian and the leaf
    read-out's smoothing pass."""
    from pshlab.envelope_solver import _neighbour_mean
    rng = np.random.default_rng(20261019)
    h = 2.0 / 64
    with np.errstate(invalid="ignore", over="ignore"):
        for _ in range(60):
            v = _special_field(rng, tuple(rng.integers(3, 40, size=2)))
            s = neighbour_sum(v)
            old_sum = v[2:, 1:-1] + v[:-2, 1:-1] + v[1:-1, 2:] + v[1:-1, :-2]
            assert np.array_equal(_bits(s), _bits(old_sum))

            old_mean = np.empty_like(v)
            old_mean[1:-1, 1:-1] = 0.25 * (v[2:, 1:-1] + v[:-2, 1:-1]
                                           + v[1:-1, 2:] + v[1:-1, :-2])
            old_mean[0, :] = old_mean[-1, :] = np.nan
            old_mean[:, 0] = old_mean[:, -1] = np.nan
            assert np.array_equal(_bits(_neighbour_mean(v)), _bits(old_mean))

            old_lap = (v[2:, 1:-1] + v[:-2, 1:-1] + v[1:-1, 2:]
                       + v[1:-1, :-2] - 4.0 * v[1:-1, 1:-1]) / (h * h)
            assert np.array_equal(_bits((s - 4.0 * v[1:-1, 1:-1]) / (h * h)),
                                  _bits(old_lap))

            old_smooth = 0.5 * v[1:-1, 1:-1] + 0.125 * (
                v[2:, 1:-1] + v[:-2, 1:-1] + v[1:-1, 2:] + v[1:-1, :-2])
            assert np.array_equal(_bits(0.5 * v[1:-1, 1:-1] + 0.125 * s),
                                  _bits(old_smooth))


def _reference_dilate(m):
    out = m.copy()
    out[1:-1, 1:-1] = (m[1:-1, 1:-1] | m[2:, 1:-1] | m[:-2, 1:-1]
                       | m[1:-1, 2:] | m[1:-1, :-2])
    return out


def test_neighbour_sum_dilation_keeps_the_rim():
    """On masks, `m[1:-1, 1:-1] |= neighbour_sum(m)` is the level-set
    check's one-node dilation: it grows the interior and leaves every rim
    node as it was, where ~erode_mask(~m) would set the whole rim."""
    rng = np.random.default_rng(7)
    for density in (0.02, 0.2, 0.7):
        for _ in range(20):
            m = rng.random(tuple(rng.integers(3, 40, size=2))) < density
            m[0, 0], m[-1, 1] = True, False   # rim nodes of both values
            got = m.copy()
            got[1:-1, 1:-1] |= neighbour_sum(m)
            assert got.dtype == bool
            assert np.array_equal(got, _reference_dilate(m))
            rim = ~erode_mask(np.ones_like(m))
            assert np.array_equal(got[rim], m[rim])
            assert np.array_equal(got[~rim], ~erode_mask(~m)[~rim])


@settings(max_examples=60, deadline=None)
@given(data=st.data(), rows=st.integers(3, 24), cols=st.integers(3, 24),
       seed=st.integers(0, 2 ** 32 - 1), share=st.sampled_from([0.2, 1.0]))
def test_five_point_flat_is_the_neighbour_sum_stencil_bitwise(
        data, rows, cols, seed, share):
    """The obstacle solver's flattened kernel, on a row-major buffer, is
    bit for bit 4 v - neighbour_sum(v) wherever the mask is 1, and zero
    wherever it is 0, on values of mixed magnitude with this share of
    -0, 0 and subnormals."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-2, 3, (rows, cols))
    specials = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e-310, -2.2e-308])
    pick = rng.random(v.shape) < share
    v[pick] = rng.choice(specials, size=int(pick.sum()))
    inner = data.draw(arrays(np.bool_, (rows - 2, cols - 2)))
    free = np.zeros((rows, cols), dtype=bool)
    free[1:-1, 1:-1] = inner
    out, tmp = np.empty(v.size), np.empty(v.size)
    five_point_flat(v.ravel(), cols, free.ravel().astype(float), out, tmp)
    out = out.reshape(rows, cols)
    want = 4.0 * v[1:-1, 1:-1] - neighbour_sum(v)
    assert np.array_equal(_bits(out[1:-1, 1:-1][inner]), _bits(want[inner]))
    assert np.all(out[~free] == 0.0)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 200), seed=st.integers(0, 2 ** 32 - 1),
       uniform=st.booleans(), batched=st.booleans())
def test_bilinear_is_the_linear_regular_grid_interpolator_bitwise(
        n, seed, uniform, batched):
    """field_grid.bilinear is bit for bit scipy's RegularGridInterpolator
    (method="linear", bounds_error=False, fill_value=fill), on uniform
    and uneven axes, values of mixed magnitude with -0 and 0, at points on
    nodes, on the last node, between nodes, outside the grid (infinities
    too) and NaN, shaped (N, 2) and (B, K, 2)."""
    from scipy.interpolate import RegularGridInterpolator
    rng = np.random.default_rng(seed)
    if uniform:
        ax = -1.0 + (2.0 / n) * np.arange(n)
    else:
        ax = np.cumsum(rng.uniform(0.05, 1.0, n)) * 10.0 ** rng.integers(-3, 3)
        ax -= ax[n // 2]
    vals = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-5, 5, (n, n))
    pick = rng.random(vals.shape) < 0.1
    vals[pick] = rng.choice([-0.0, 0.0], size=int(pick.sum()))
    lo, hi = ax[0], ax[-1]
    pts = rng.uniform(lo - 0.2 * (hi - lo), hi + 0.2 * (hi - lo), (240, 2))
    pts[:60] = ax[rng.integers(0, n, (60, 2))]
    pts[60:70, 0] = pts[70:80, 1] = hi
    pts[80:85, 0] = pts[85:90, 1] = np.nan
    pts[90:95] = [np.nan, hi + 1.0]
    pts[95:100] = [np.inf, -np.inf]
    rng.shuffle(pts)
    points = pts.reshape((12, 20, 2) if batched else (240, 2))
    fill = float(rng.normal())
    with np.errstate(invalid="ignore"):
        want = RegularGridInterpolator((ax, ax), vals, method="linear",
                                       bounds_error=False,
                                       fill_value=fill)(points)
        got = bilinear(ax, vals, points, fill)
    assert got.shape == want.shape == points.shape[:-1]
    assert np.array_equal(_bits(got), _bits(want))


@settings(max_examples=80, deadline=None)
@given(n=st.integers(3, 1100), radius=st.floats(1e-3, 1e3),
       seed=st.integers(0, 2 ** 32 - 1),
       jitter=st.sampled_from([0.0, 0.0, 0.3, 0.45, 3.0]))
def test_bilinear_cells_are_the_binary_search_cells(n, radius, seed, jitter):
    """`bilinear`'s cell (the guess from the spacing, one comparison each
    way) is the binary search's cell `searchsorted(ax[1:-1], x, "right")`,
    kept here as the reference: on grid axes, on axes whose nodes are
    moved by `jitter` cells (at most a quarter: the guess; more: the
    search), at nodes and one ulp either side, on the rim, between nodes,
    off the grid, at infinities and at nan."""
    rng = np.random.default_rng(seed)
    ax = -radius + (2.0 * radius / n) * np.arange(n)   # GridSpec.axis()
    if jitter:
        ax = ax + rng.uniform(-0.5, 0.5, n) * jitter * (2.0 * radius / n)
        ax.sort()
    nodes = ax[rng.integers(0, n, 200)]
    x = np.concatenate([nodes, np.nextafter(nodes, np.inf),
                        np.nextafter(nodes, -np.inf), ax[[0, -1]],
                        rng.uniform(ax[0], ax[-1], 200),
                        rng.uniform(-3.0 * radius, 3.0 * radius, 100),
                        [np.inf, -np.inf, np.nan, 1e300, -1e300, 0.0]])
    rng.shuffle(x)
    xy = x.reshape(2, -1)
    assert np.array_equal(_cells(ax, xy), np.searchsorted(ax[1:-1], xy, "right"))


def _reference_grad_sup(f: ScalarField) -> float:
    h = f.grid.h
    v = f.values
    m = f.mask.copy()
    m[1:-1, 1:-1] &= (f.mask[2:, 1:-1] & f.mask[:-2, 1:-1]
                      & f.mask[1:-1, 2:] & f.mask[1:-1, :-2])
    m[0, :] = m[-1, :] = m[:, 0] = m[:, -1] = False
    gx = np.abs(v[2:, 1:-1] - v[:-2, 1:-1]) / (2 * h)
    gy = np.abs(v[1:-1, 2:] - v[1:-1, :-2]) / (2 * h)
    inner = m[1:-1, 1:-1]
    return float(max(gx[inner].max(), gy[inner].max()))


def test_gradient_sup_matches_reference_bitwise():
    """gradient_sup, the first-derivative term of c2_norm, is bitwise the
    regularized-max criterion's former hand-written gradient sup."""
    rng = np.random.default_rng(20260808)
    for _ in range(100):
        grid = build_grid(1, int(rng.integers(16, 81)), rng.uniform(0.5, 2.0))
        vals = rng.normal(size=grid.shape) * rng.uniform(1e-3, 1e3)
        f = ScalarField(grid, vals)
        want = _reference_grad_sup(f)
        got = gradient_sup(f.values, f.mask, grid.h)
        assert _bits(got) == _bits(want)


def test_field_invariants():
    g = build_grid(1, 32, 1.0)
    vals = np.zeros(g.shape)
    vals[16, 16] = np.nan
    with pytest.raises(ValueError):
        ScalarField(g, vals)  # non-finite at a masked-in node
    f = ScalarField(g, np.ones(g.shape))
    with pytest.raises(ValueError):
        f.values[0, 0] = 2.0  # fields are immutable


def test_field_serialization_roundtrip(tmp_path, grid128, perturbed):
    vals = np.array(perturbed.sample(grid128).values)
    vals[64, 60:64] = [-0.0, 5e-324, 1e300, -1e-300]
    f = ScalarField(grid128, vals)
    path = tmp_path / "field.csv"
    save_field(f, path)
    g = load_field(path)
    assert g.grid == f.grid
    assert np.array_equal(g.mask, f.mask)
    assert g.values[g.mask].tobytes() == f.values[f.mask].tobytes()


@pytest.mark.parametrize("array", [
    np.array([[np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e300, 0.1, 1 / 3]]),
    np.array([[True, False, True], [False, False, True]]).astype(int),
    np.array([1.5, -2.0, np.nan, 2.0 ** 60]),
    np.zeros((0, 3)),
    np.random.default_rng(7).normal(size=(6, 5)) * 10.0 ** np.arange(-200, 250, 90),
], ids=["specials", "int", "1-D", "no-rows", "scales"])
@pytest.mark.parametrize("header", ["", "x,y lambda=0.25"])
def test_write_csv_bytes(tmp_path, array, header):
    """The bytes of the per-value `f"{v:.17g}"` join it replaced."""
    path = tmp_path / "a.csv"
    write_csv(path, array, header=header)
    want = f"# {header}\n" if header else ""
    for row in np.atleast_2d(array):
        want += ",".join(f"{v:.17g}" for v in row) + "\n"
    assert path.read_bytes() == want.encode("utf-8")


NAN_BITS = [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
            0x7FF4000000000ABC, 0xFFF00000DEAD0000]
CSV_SPECIALS = ([-0.0, 0.0, np.inf, -np.inf, 5e-324, -5e-324,
                 2.2250738585072009e-308, 1e-310, 0.1, 1 / 3, -1e300,
                 1.7976931348622157e308]
                + np.array(NAN_BITS, dtype=np.uint64).view(float).tolist())
CSV_SHAPES = [(0, 3), (4, 0), (0, 0), (1, 1), (7, 5),
              (255, 256), (256, 256), (257, 256),   # below, at, above a block
              (21845, 3), (21846, 3),
              (2, CSV_BLOCK + 1)]                   # rows wider than a block


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from(CSV_SHAPES), ints=st.booleans(),
       floats=st.lists(st.sampled_from(CSV_SPECIALS) | st.floats(width=64),
                       min_size=1, max_size=6),
       integers=st.lists(st.integers(-2 ** 63, 2 ** 63 - 1),
                         min_size=1, max_size=6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_write_csv_repeated_values_bytes(shape, ints, floats, integers, seed):
    """Arrays drawn from a small pool, so that values repeat: the bytes are
    still the per-value `f"{v:.17g}"` join, with -0 beside 0 in the first
    block and NaNs of both signs and several payloads among the values."""
    rng = np.random.default_rng(seed)
    if ints:
        array = rng.choice(np.array(integers, dtype=np.int64), size=shape)
    else:
        array = rng.choice(np.array(floats), size=shape)
        array.ravel()[:2] = [-0.0, 0.0][:array.size]
        if array.size > 2:
            array.ravel()[2:7] = rng.choice(CSV_SPECIALS, size=5)[
                :array.size - 2]
    want = "".join(",".join(f"{v:.17g}" for v in row) + "\n"
                   for row in array.tolist())
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a.csv"
        write_csv(path, array)
        assert path.read_bytes() == want.encode("utf-8")
