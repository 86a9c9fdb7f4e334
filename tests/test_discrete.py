"""Batched Fornberg weights and the stencil tables built from them."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from outflow.discrete import _stencil_table, fornberg_weights


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
        terms = w[k] * poly(x)
        exact = poly.deriv(k)(z) if k else poly(z)
        scale = np.sum(np.abs(terms), axis=-1) + np.abs(exact)
        # a relative bound cannot hold below the normal range: a subnormal
        # coefficient leaves a one-ulp gap of 5e-324 on a 1e-323 scale
        floor = np.finfo(float).tiny
        assert np.all(np.abs(np.sum(terms, axis=-1) - exact) <= 1e-9 * scale + floor)


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
