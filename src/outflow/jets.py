"""Truncated Taylor jets in three coordinate offsets: a chart's (dr, dtheta,
dphi) or the Cartesian (dx1, dx2, dx3).

A `Jet` of degree d holds, for each point of a batch, the Taylor polynomial
of total degree <= d of a quantity in the offsets of the coordinates from
that point: C(d + 3, 3) coefficients (1, 4, 10, 20, 35, 56 for d = 0..5)
on a leading axis, the quantity's own shape after it.  `variables` seeds the
degree; a sum or product of two jets truncates to the lower one, a constant
pads to the jet's.  Arithmetic, powers, exp, sqrt, sin, cos and hypot reach
it through NumPy's ufunc protocol, and np.stack, np.sum and np.zeros_like
through the function protocol, so a field written for point arrays (..., 3)
runs unchanged on a jet of points (Griewank & Walther 2008, Evaluating
Derivatives, ch. 13).  A partial of order k is the jet's exact
polynomial derivative, a jet k degrees lower, and a product's coefficients
of degree m need only its factors' up to m: at most d partials of a degree-d
jet compose exactly to round-off, with no step size, bit for bit as at any
higher degree.  The tables are built per degree on first use.
"""

from __future__ import annotations

from functools import cache
from math import comb, factorial, perm, prod

import numpy as np
from scipy.sparse import csr_matrix

__all__ = ["Jet", "variables", "partial"]

# the degree of a jet, read from its coefficient count C(degree + 3, 3)
_DEGREE = {comb(d + 3, 3): d for d in range(11)}


@cache
def _tables(degree):
    """Exponents of the monomials (graded) and their index; for the product,
    the factor indices of every pair that survives the truncation and the 0/1
    matrix that sums each pair into its monomial."""
    exps = [(a, b, d - a - b) for d in range(degree + 1)
            for a in range(d, -1, -1) for b in range(d - a, -1, -1)]
    index = {e: n for n, e in enumerate(exps)}
    k, i, j = np.array([(index[(a[0] + b[0], a[1] + b[1], a[2] + b[2])], i, j)
                        for i, a in enumerate(exps) for j, b in enumerate(exps)
                        if sum(a) + sum(b) <= degree]).T
    gather = csr_matrix((np.ones(k.size), (k, np.arange(k.size))),
                        shape=(len(exps), k.size))
    return exps, index, i, j, gather


@cache
def _shift(orders, degree):
    """Source index and factor of each coefficient of the partial d^orders
    of a degree-`degree` jet, a jet of degree `degree - sum(orders)`."""
    index = _tables(degree)[1]
    moves = [(index[a], prod(map(perm, a, orders)))
             for e in _tables(degree - sum(orders))[0]
             for a in [tuple(map(sum, zip(e, orders)))]]
    src, fac = zip(*moves)
    return np.array(src), np.array(fac, dtype=float)


def _blocks(xs, pad=False):
    """Coefficient blocks of operands, broadcastable over trailing axes, at
    the lowest degree among their jets; a constant's as one row or padded."""
    n = min(len(x.c) for x in xs if isinstance(x, Jet))
    cs = [x.c[:n] if isinstance(x, Jet) else np.asarray(x, dtype=float)[None] for x in xs]
    cs = [np.concatenate([c, np.zeros((n - 1,) + c.shape[1:])]) if pad and len(c) < n
          else c for c in cs]
    nd = max(c.ndim for c in cs)
    return [c.reshape(c.shape[:1] + (1,) * (nd - c.ndim) + c.shape[1:]) for c in cs]


def _add(a, b):
    ca, cb = _blocks((a, b), pad=True)
    return Jet(ca + cb)


def _mul(a, b):
    ca, cb = _blocks((a, b))
    if len(ca) == 1 or len(cb) == 1:
        return Jet(ca * cb)
    i, j, gather = _tables(_DEGREE[len(ca)])[2:]
    terms = ca[i] * cb[j]
    return Jet((gather @ terms.reshape(i.size, -1)).reshape((-1,) + terms.shape[1:]))


def _series(x, coeffs):
    """sum_k coeffs[k] u^k by Horner, u = x - x(0); coeffs[k] = f^(k)(x(0))/k!."""
    u = Jet(x.c.copy())
    u.c[0] = 0.0
    out = coeffs[-1]
    for ck in coeffs[-2::-1]:
        out = _add(_mul(out, u), ck)
    return out


def _power(x, p):
    p = float(p)  # a jet exponent raises here
    if not isinstance(x, Jet):
        return np.power(x, p)
    # x^p of a non-negative integer p is a polynomial: its series stops at p
    top = int(p) if p.is_integer() and 0 <= p < x.degree else x.degree
    coeffs, binom = [], 1.0
    for k in range(top + 1):
        coeffs.append(binom * x.c[0] ** (p - k))
        binom *= (p - k) / (k + 1)
    return _series(x, coeffs)


def _exp(x):
    e = np.exp(x.c[0])
    return _series(x, [e / factorial(k) for k in range(x.degree + 1)])


def _trig(x, phase):
    """sin(x + phase pi/2): the k-th derivative is sin(x + (phase + k) pi/2)."""
    s, c = np.sin(x.c[0]), np.cos(x.c[0])
    cycle = (s, c, -s, -c)
    return _series(x, [cycle[(phase + k) % 4] / factorial(k) for k in range(x.degree + 1)])


_UFUNCS = {
    np.add: _add,
    np.subtract: lambda a, b: _add(a, np.negative(b)),
    np.multiply: _mul,
    np.true_divide: lambda a, b: _mul(a, _power(b, -1.0)),
    np.power: _power,
    np.negative: lambda x: _mul(x, -1.0),
    np.square: lambda x: _mul(x, x),
    np.sqrt: lambda x: _power(x, 0.5),
    np.exp: _exp,
    np.sin: lambda x: _trig(x, 0),
    np.cos: lambda x: _trig(x, 1),
    np.hypot: lambda a, b: _power(_add(_mul(a, a), _mul(b, b)), 0.5),
}

_FUNCTIONS = {
    # axis counts the trailing axes, which sit behind the coefficient axis
    np.stack: lambda arrays, axis=0: Jet(np.stack(
        _blocks(arrays, pad=True), axis=axis + (axis >= 0))),
    np.sum: lambda a, axis=None: Jet(a.c.sum(
        axis=tuple(range(1, a.c.ndim)) if axis is None else axis + (axis >= 0))),
    np.zeros_like: lambda a: Jet(np.zeros_like(a.c)),
}


class Jet(np.lib.mixins.NDArrayOperatorsMixin):
    """Truncated Taylor polynomial in three offsets, coefficients first.

    Python's operators go through the ufuncs; an in-place one (out=(self,))
    binds its name to a new jet.
    """

    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    @property
    def degree(self):
        """The total degree d, read from the coefficient count."""
        return _DEGREE[len(self.c)]

    @property
    def value(self):
        """The quantity at the base points."""
        return self.c[0]

    def deriv(self, orders):
        """d_1^a d_2^b d_3^c along the offsets at the base points, orders = (a, b, c)."""
        orders = tuple(orders)
        if sum(orders) > self.degree:
            raise ValueError(f"a degree-{self.degree} jet has no derivative of order {orders}")
        return prod(map(factorial, orders)) * self.c[_tables(self.degree)[1][orders]]

    def __getitem__(self, key):
        return Jet(self.c[(slice(None),) + (key if isinstance(key, tuple) else (key,))])

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        if (method != "__call__" or kwargs or ufunc not in _UFUNCS
                or (out is not None and out[0] is not self)):
            return NotImplemented
        return _UFUNCS[ufunc](*inputs)

    def __array_function__(self, func, types, args, kwargs):
        if func not in _FUNCTIONS:
            return NotImplemented
        return _FUNCTIONS[func](*args, **kwargs)


def variables(*base, degree):
    """One degree-`degree` jet per coordinate, base + its own offset
    (broadcast arrays).

    The graded order puts the three first-degree monomials at indices 1 to 3.
    """
    base = np.broadcast_arrays(*(np.asarray(b, dtype=float) for b in base))
    c = np.zeros((comb(degree + 3, 3), 3) + base[0].shape)
    c[0] = base
    c[1:4] = np.eye(3).reshape((3, 3) + (1,) * base[0].ndim)
    return tuple(Jet(c[:, k]) for k in range(3))


def partial(x, orders):
    """The exact partial d_1^a d_2^b d_3^c of a jet along its offsets, as a
    jet `sum(orders)` degrees lower."""
    orders = tuple(orders)
    if sum(orders) > x.degree:
        raise ValueError(f"a degree-{x.degree} jet has no partial of order {orders}")
    src, fac = _shift(orders, x.degree)
    return Jet(x.c[src] * fac.reshape((-1,) + (1,) * (x.c.ndim - 1)))
