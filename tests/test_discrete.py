"""Batched Fornberg weights, the stencil tables built from them, and the
vector calculus of both operator sets."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outflow.discrete import AxiOps, SymOps, _stencil_table, fornberg_weights
from outflow.grids import AngularGrid, RadialGrid


def _fornberg_one(z, x, m):
    """Fornberg's recursion on one window in scalar arithmetic (the reference)."""
    n = x.size
    w = np.zeros((m + 1, n))
    c1 = 1.0
    c4 = x[0] - z
    w[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - z
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    w[k, i] = c1 * (k * w[k - 1, i - 1] - c5 * w[k, i - 1]) / c2
                w[0, i] = -c1 * c5 * w[0, i - 1] / c2
            for k in range(mn, 0, -1):
                w[k, j] = ((x[i] - z) * w[k, j] - k * w[k - 1, j]) / c3
            w[0, j] = (x[i] - z) * w[0, j] / c3
        c1 = c2
    return w


@st.composite
def windows(draw, n_max=6):
    """Strictly increasing windows of width 3 or 4, with one point in each."""
    width = draw(st.sampled_from([3, 4]))
    n = draw(st.integers(1, n_max))
    floats = st.floats(0.05, 2.0)
    x = np.array([np.cumsum([draw(st.floats(-5.0, 5.0))]
                            + [draw(floats) for _ in range(width - 1)])
                  for _ in range(n)])
    t = np.array([draw(st.floats(0.0, 1.0)) for _ in range(n)])
    return x[:, 0] + t * (x[:, -1] - x[:, 0]), x


def _reproduces_derivative(wk, poly, z, x, k):
    """Whether sum_j wk_j p(x_j) equals p^(k)(z) within 1e-9 of the sizes
    that round: the terms of the sum, and the reference's own evaluation,
    whose size is that of the polynomial of the |coefficients| at |z|."""
    terms = wk * poly(x)
    exact = poly.deriv(k)(z) if k else poly(z)
    size = np.polynomial.Polynomial(np.abs(poly.coef)).deriv(k)(np.abs(z))
    scale = np.sum(np.abs(terms), axis=-1) + np.abs(exact) + size
    # a relative bound cannot hold below the normal range: a subnormal
    # coefficient leaves a one-ulp gap of 5e-324 on a 1e-323 scale
    floor = np.finfo(float).tiny
    return np.all(np.abs(np.sum(terms, axis=-1) - exact) <= 1e-9 * scale + floor)


@settings(max_examples=200, deadline=None)
@given(windows(), st.data())
def test_weights_differentiate_polynomials_exactly(zx, data):
    z, x = zx
    deg = x.shape[1] - 1
    coef = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=deg + 1,
                                       max_size=deg + 1)))
    poly = np.polynomial.Polynomial(coef)
    w = fornberg_weights(z, x, deg)
    for k in range(deg + 1):
        assert _reproduces_derivative(w[k], poly, z, x, k)


def test_polynomial_check_allows_the_references_rounding_and_no_more():
    """p = 0.375 x (1 + x) at z = -1 + 7e-16: p(z) = -2.498e-16 cancels two
    terms of size 0.375, and numpy's evaluation of it is off by 2.8e-17,
    half an ulp of those terms, while the weighted sum is exact.  The check
    allows that rounding; a weight off by 1e-7 of itself still fails."""
    poly = np.polynomial.Polynomial([0.0, 0.375, 0.375])
    x = np.array([-1.0, 0.0, 2.0])
    z = np.float64(-0.9999999999999993)
    w = fornberg_weights(z, x, 2)
    assert abs(np.sum(w[0] * poly(x)) - poly(z)) > 1e-17
    for k in range(3):
        assert _reproduces_derivative(w[k], poly, z, x, k)
    for k in (1, 2):  # the weight of x = 2, whose term is the largest
        planted = w[k].copy()
        planted[2] *= 1.0 + 1e-7
        assert not _reproduces_derivative(planted, poly, z, x, k)


@settings(max_examples=200, deadline=None)
@given(windows())
def test_batched_rows_equal_single_window_calls(zx):
    z, x = zx
    m = x.shape[1] - 1
    w = fornberg_weights(z, x, m)
    for i in range(z.size):
        one = fornberg_weights(z[i], x[i], m)
        assert w[:, i].tobytes() == one.tobytes()
        assert one.tobytes() == _fornberg_one(float(z[i]), x[i], m).tobytes()


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(3, 1), (4, 2)]), st.integers(4, 12), st.data())
def test_stencil_table_windows_clamp_at_both_ends(shape, n, data):
    width, order = shape
    gaps = data.draw(st.lists(st.floats(0.05, 2.0), min_size=n - 1, max_size=n - 1))
    x = np.cumsum([1.0] + gaps)
    idx, wts = _stencil_table(x, width, order)
    half = (width - 1) // 2
    assert np.array_equal(idx[0], np.arange(width))  # one-sided forward
    assert np.array_equal(idx[-1], np.arange(n - width, n))  # one-sided backward
    for i in range(n):
        lo = min(max(i - half, 0), n - width)
        assert np.array_equal(idx[i], np.arange(lo, lo + width))
        ref = _fornberg_one(x[i], x[lo:lo + width], order)[order]
        assert wts[i].tobytes() == ref.tobytes()
    # a derivative of a polynomial the stencil resolves is exact at every node
    f = x ** order
    assert np.allclose(np.einsum("ik,ik->i", wts, f[idx]), math.factorial(order),
                       rtol=1e-9, atol=1e-9)


MU, LAM = 1.0, 0.3


def _radial_field(a, k, b):
    """w = a exp(-k r) + b / r and its first three derivatives."""
    return (lambda r: a * np.exp(-k * r) + b / r,
            lambda r: -a * k * np.exp(-k * r) - b / r**2,
            lambda r: a * k**2 * np.exp(-k * r) + 2.0 * b / r**3)


def _sym_pairs(ops, field):
    """(discrete, closed form) of each SymOps method on the field, n = 3."""
    w, w1, w2 = field
    r = ops.r
    v = (w(r),)
    return {
        "div": (ops.div(v), w1(r) + 2.0 * w(r) / r),
        "visc": (ops.visc(v, MU, LAM)[0],
                 (2.0 * MU + LAM) * (w2(r) + 2.0 * w1(r) / r - 2.0 * w(r) / r**2)),
        "conv": (ops.conv(v, v)[0], w(r) * w1(r)),
        "vec_grad_sq": (ops.vec_grad_sq(v), w1(r) ** 2 + 2.0 * (w(r) / r) ** 2),
    }


def _grids(m):
    """Geometric grids of m and 2m intervals on [1, 10]."""
    return RadialGrid.geometric(10.0, m), RadialGrid.geometric(10.0, 2 * m)


field_params = (st.floats(0.5, 2.0), st.floats(0.3, 1.5), st.floats(0.2, 1.5))


@settings(max_examples=15, deadline=None)
@given(*field_params)
def test_sym_ops_match_closed_forms_at_second_order(a, k, b):
    """Each radial method converges to its closed form at order >= 1.8, on
    every node and on the two wall rows alone.

    `visc` differentiates g = r^2 w once per stencil, never a stencil's
    output, so its one-sided rows at both ends are second order too.
    """
    field = _radial_field(a, k, b)
    coarse, fine = (_sym_pairs(SymOps(g, 3), field) for g in _grids(128))
    for name in coarse:
        e_c, e_f = (np.max(np.abs(d - c)) for d, c in (coarse[name], fine[name]))
        assert np.log2(e_c / e_f) >= 1.8, name
    wall_c, wall_f = (np.max(np.abs(d - c)[:2]) for d, c in
                      (coarse["visc"], fine["visc"]))
    assert np.log2(wall_c / wall_f) >= 1.8


@settings(max_examples=15, deadline=None)
@given(*field_params)
def test_axi_ops_on_a_lifted_radial_field_reduce_to_sym_ops(a, k, b):
    """AxiOps on the theta-independent lift: the radial entries approach
    the SymOps ones and the theta entries vanish exactly.  `div`
    differentiates r^2 w_r instead of w_r, so its gap falls >= 3x per
    halving; the others, `visc` included, agree to the round-off of the
    stencil sums, which the 1/h^2 of d2 amplifies."""
    w = _radial_field(a, k, b)[0]
    agrid = AngularGrid(n_cells=8)
    gaps = []
    for grid in _grids(128):
        sym, axi = SymOps(grid, 3), AxiOps(grid, agrid)
        v, v2 = (w(sym.r),), axi.lift_velocity(w(sym.r))
        assert np.array_equal(v2[0], np.repeat(v[0][:, None], 8, axis=1))
        pairs = {
            "div": (axi.div(v2), sym.div(v)),
            "visc": (axi.visc(v2, MU, LAM), sym.visc(v, MU, LAM)),
            "conv": (axi.conv(v2, v2), sym.conv(v, v)),
            "grad": (axi.grad(v2[0]), sym.grad(v[0])),
            "vec_grad_sq": (axi.vec_grad_sq(v2), sym.vec_grad_sq(v)),
        }
        for name, (ax, sy) in pairs.items():
            if isinstance(ax, tuple):
                assert np.all(ax[1] == 0.0), name
                ax, sy = ax[0], sy[0]
            gap = np.max(np.abs(ax - sy[:, None]))
            if name == "div":
                gaps.append(gap)
            else:
                assert gap <= 1e-9 * np.max(np.abs(sy)), name
    coarse, fine = gaps
    assert fine * 3.0 <= coarse


def test_volume_weights_integrate_a_radial_field():
    """SymOps.integral on 1,024 uniform nodes to r = 100: the integral of
    exp(2 - 2r) over |x| >= 1 is 4 pi e^2 (5/4) e^-2 = 5 pi."""
    ops = SymOps(RadialGrid.uniform(100.0, 1023), 3)
    assert ops.integral(np.exp(2.0 - 2.0 * ops.r)) == pytest.approx(5.0 * np.pi, rel=2e-3)


@pytest.mark.parametrize("grid", [RadialGrid.uniform(20.0, 127),
                                  RadialGrid.uniform(100.0, 1023),
                                  RadialGrid.geometric(200.0, 2048)],
                         ids=["128", "1024", "2049-geometric"])
def test_sym_derivatives_equal_every_column_of_the_axi_ones_bit_for_bit(grid):
    """SymOps.d1 and d2 sum a stencil left to right, as the AxiOps
    stencils do per column, so the lift of a radial field gives each column
    of d_r and d2_r the radial result bit for bit."""
    sym, axi = SymOps(grid, 3), AxiOps(grid, AngularGrid(n_cells=8))
    f = np.random.default_rng(0).standard_normal(grid.nodes.size) * np.exp(grid.nodes / 7.0)
    lifted = axi.lift(f)
    for d_sym, d_axi in ((sym.d1, axi.d_r), (sym.d2, axi.d2_r)):
        want = d_sym(f)
        got = d_axi(lifted)
        assert all(np.array_equal(got[:, j], want) for j in range(8))


def _padded_d_theta(f, parity, dtheta):
    """The angular stencil as it was first written: pad each row with its
    parity-reflected ghost cells, then difference along axis 1 (the reference)."""
    g = np.concatenate([parity * f[:, :1], f, parity * f[:, -1:]], axis=1)
    return (g[:, 2:] - g[:, :-2]) / (2.0 * dtheta)


@functools.lru_cache(maxsize=None)
def _angular_ops(n_cells):
    """The stencil uses only the angular grid; any row count can be fed in."""
    return AxiOps(RadialGrid.uniform(3.0, 16), AngularGrid(n_cells=n_cells))


# finite values with both signed zeros drawn often
_values = st.one_of(st.sampled_from([0.0, -0.0]),
                    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))


@settings(max_examples=200, deadline=None)
@given(st.integers(7, 64), st.integers(1, 6), st.sampled_from([1, -1]),
       st.sampled_from(["C", "F", "strided"]), st.data())
def test_angular_stencils_equal_the_padded_formula_bit_for_bit(n_cells, n_r, parity,
                                                               layout, data):
    """d_theta differences the raveled field and then writes the pole
    columns from the parity closure; every bit, the sign of a zero included,
    is that of the padded stencil, for any memory layout."""
    base = np.array(data.draw(st.lists(_values, min_size=n_r * n_cells,
                                       max_size=n_r * n_cells))).reshape(n_r, n_cells)
    if layout == "F":
        f = np.asfortranarray(base)
    elif layout == "strided":  # every other column of a wider array
        wide = np.zeros((n_r, 2 * n_cells))
        wide[:, ::2] = base
        f = wide[:, ::2]
    else:
        f = base
    assert np.array_equal(f, base)
    ops = _angular_ops(n_cells)
    got, ref = ops.d_theta(f, parity), _padded_d_theta(base, parity, ops.dtheta)
    assert got.shape == ref.shape
    assert np.array_equal(got, ref)
    assert np.array_equal(np.signbit(got), np.signbit(ref))
