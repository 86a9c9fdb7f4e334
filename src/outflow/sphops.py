"""Spherical charts, unit vectors, and scaled angular derivative operators.

Two overlapping pole-avoiding charts cover the exterior domain: the V chart
uses the polar angle measured from the x3 axis, the H chart the angle from
the x2 axis (coordinates swap x2 and x3).  The scaled derivatives

    d_r = (x/|x|) . grad,   d_theta = |x| theta_hat . grad,
    d_phi = (cylindrical radius) phi_hat . grad

coincide with the plain coordinate partials of the chart, so they commute
with each other; all operators here exploit that by differencing in the
coordinate box with fourth-order stencils.  Fields are vectorized callables
mapping points of shape (..., 3) to scalars (...) or vectors (..., 3).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .discrete import fornberg_weights

__all__ = [
    "AxisDegeneracy",
    "CHARTS",
    "radius",
    "to_spherical",
    "from_spherical",
    "unit_vectors",
    "sin_theta",
    "sph_partial",
    "cart_partial",
    "sph_derivative",
    "make_sph_grad",
    "make_sph_div",
    "make_sph_lap",
    "make_sph_vec_lap",
    "make_sph_grad_div",
    "sph_grad_div_lap",
    "cart_grad",
    "cart_grad_sq",
    "cart_div",
    "cart_lap",
    "cart_vec_lap",
    "cart_grad_div",
]

CHARTS = ("V", "H")
SIN_GUARD = np.sin(np.pi / 9.0) / 2.0


class AxisDegeneracy(ValueError):
    """Point too close to the chart's polar axis for its spherical coordinates."""


def _check_chart(chart: str) -> None:
    if chart not in CHARTS:
        raise ValueError(f"chart must be 'V' or 'H', got {chart!r}")


def radius(pts, keepdims: bool = False):
    """|x| of points (..., 3).

    The same sum of squares in the same order as NumPy's 2-norm along the
    last axis, so bitwise equal to it, without a 3-long reduction per point.
    """
    sq = np.square(np.asarray(pts, dtype=float))
    r = np.sqrt(sq[..., 0] + sq[..., 1] + sq[..., 2])
    return r[..., None] if keepdims else r


def to_spherical(pts, chart: str):
    """Chart coordinates (r, theta, phi) of Cartesian points (..., 3)."""
    _check_chart(chart)
    pts = np.asarray(pts, dtype=float)
    r = radius(pts)
    if chart == "V":
        pole, a, b = pts[..., 2], pts[..., 0], pts[..., 1]
    else:
        pole, a, b = pts[..., 1], pts[..., 0], pts[..., 2]
    theta = np.arccos(np.clip(pole / r, -1.0, 1.0))
    phi = np.arctan2(b, a)
    return r, theta, phi


def from_spherical(r, theta, phi, chart: str):
    _check_chart(chart)
    r, theta, phi = np.broadcast_arrays(r, theta, phi)
    s = np.sin(theta)
    x1 = r * np.cos(phi) * s
    tangent = r * np.sin(phi) * s
    pole = r * np.cos(theta)
    if chart == "V":
        return np.stack([x1, tangent, pole], axis=-1)
    return np.stack([x1, pole, tangent], axis=-1)


def sin_theta(pts, chart: str):
    """sin of the chart polar angle: cylindrical radius over |x|."""
    _check_chart(chart)
    pts = np.asarray(pts, dtype=float)
    r = radius(pts)
    if chart == "V":
        cyl = np.hypot(pts[..., 0], pts[..., 1])
    else:
        cyl = np.hypot(pts[..., 0], pts[..., 2])
    return cyl / r


def unit_vectors(pts, chart: str, guard: bool = True):
    """Orthonormal (r_hat, theta_hat, phi_hat) of the chart at each point."""
    _check_chart(chart)
    pts = np.asarray(pts, dtype=float)
    r = radius(pts, keepdims=True)
    rhat = pts / r
    x1 = pts[..., 0]
    if chart == "V":
        pole, tan = pts[..., 2], pts[..., 1]
    else:
        pole, tan = pts[..., 1], pts[..., 2]
    cyl = np.hypot(x1, tan)
    if guard and np.any(cyl / r[..., 0] < SIN_GUARD):
        raise AxisDegeneracy(
            f"point too close to the {chart}-chart axis "
            f"(sin theta < {SIN_GUARD:.4f})"
        )
    denom = r[..., 0] * cyl
    t1 = x1 * pole / denom
    t_tan = tan * pole / denom
    t_pole = -(cyl**2) / denom
    p1 = -tan / cyl
    p_tan = x1 / cyl
    zeros = np.zeros_like(x1)
    if chart == "V":
        that = np.stack([t1, t_tan, t_pole], axis=-1)
        phat = np.stack([p1, p_tan, zeros], axis=-1)
    else:
        that = np.stack([t1, t_pole, t_tan], axis=-1)
        phat = np.stack([p1, zeros, p_tan], axis=-1)
    return rhat, that, phat


@lru_cache(maxsize=None)
def _stencil(order: int):
    """Central nodes and unit-spacing weights, fourth-order accurate.

    Nodes of weight exactly 0.0 (the centre of orders 1 and 3) are dropped:
    such a node adds exactly zero to a stencil sum, so leaving it out saves a
    field evaluation and changes no result.
    """
    if order == 0:
        return np.array([0]), np.array([1.0])
    half = (order + 3) // 2
    nodes = np.arange(-half, half + 1)
    w = fornberg_weights(0.0, nodes.astype(float), order)[order]
    keep = w != 0.0
    return nodes[keep], w[keep]


def sph_partial(field, chart: str, orders, h: float = 0.01, vector: bool = False):
    """Mixed scaled partial d_r^a d_theta^b d_phi^c of a field, as a new field.

    Tensor-product fourth-order stencils in the chart coordinate box; the
    radial step scales with 1 + r.  Returns a callable with the same
    vectorized signature as the input field.
    """
    _check_chart(chart)
    a, b, c = orders
    nr, wr = _stencil(a)
    nt, wt = _stencil(b)
    nq, wq = _stencil(c)

    def apply(pts):
        pts = np.asarray(pts, dtype=float)
        single = pts.ndim == 1
        p = np.atleast_2d(pts)
        r, th, ph = to_spherical(p, chart)
        hr = h * (1.0 + r)
        rr = r[None, :] + nr[:, None] * hr[None, :]
        tt = th[None, :] + nt[:, None] * h
        pp = ph[None, :] + nq[:, None] * h
        grid = from_spherical(
            rr[:, None, None, :], tt[None, :, None, :], pp[None, None, :, :], chart
        )
        shp = grid.shape[:-1]
        vals = field(grid.reshape(-1, 3))
        vals = vals.reshape(shp + ((3,) if vector else ()))
        out = np.einsum("i,j,k,ijkb...->b...", wr, wt, wq, vals)
        scale = hr**a * h ** (b + c)
        out = out / (scale[:, None] if vector else scale)
        return out[0] if single else out

    return apply


def cart_partial(field, orders, h: float = 1e-3, vector: bool = False):
    """Mixed Cartesian partial d_1^a d_2^b d_3^c, axis-aligned fourth-order stencils."""
    a, b, c = orders
    n1, w1 = _stencil(a)
    n2, w2 = _stencil(b)
    n3, w3 = _stencil(c)

    def apply(pts):
        pts = np.asarray(pts, dtype=float)
        single = pts.ndim == 1
        p = np.atleast_2d(pts)
        step = h * (1.0 + radius(p))
        # coordinate c of each node is p_c + n_c * step, written in place
        grid = np.empty((n1.size, n2.size, n3.size, p.shape[0], 3))
        grid[..., 0] = p[:, 0] + n1[:, None, None, None] * step
        grid[..., 1] = p[:, 1] + n2[None, :, None, None] * step
        grid[..., 2] = p[:, 2] + n3[None, None, :, None] * step
        shp = grid.shape[:-1]
        vals = field(grid.reshape(-1, 3)).reshape(shp + ((3,) if vector else ()))
        out = np.einsum("i,j,k,ijkb...->b...", w1, w2, w3, vals)
        scale = step ** (a + b + c)
        out = out / (scale[:, None] if vector else scale)
        return out[0] if single else out

    return apply


_WHICH = {
    "r": ("V", (1, 0, 0)),
    "theta_V": ("V", (0, 1, 0)),
    "phi_V": ("V", (0, 0, 1)),
    "theta_H": ("H", (0, 1, 0)),
    "phi_H": ("H", (0, 0, 1)),
}


def sph_derivative(field, which: str, pts, h: float = 0.01, vector: bool = False):
    """One scaled derivative (d_r, d_theta or d_phi in either chart) at points."""
    try:
        chart, orders = _WHICH[which]
    except KeyError:
        raise ValueError(f"unknown derivative {which!r}; options: {sorted(_WHICH)}")
    r, th, _ = to_spherical(np.atleast_2d(pts), chart)
    if which != "r" and np.any(np.sin(th) < SIN_GUARD):
        raise AxisDegeneracy(f"{which} evaluated too close to its chart axis")
    return sph_partial(field, chart, orders, h=h, vector=vector)(pts)


def _scalar_slots(v, chart):
    """Scalar component fields r_hat.V, theta_hat.V, phi_hat.V of a vector field."""

    def slot(idx):
        def f(pts):
            hats = unit_vectors(pts, chart)
            return np.sum(hats[idx] * v(pts), axis=-1)

        return f

    return slot(0), slot(1), slot(2)


def make_sph_div(v, chart: str, h: float = 0.01):
    """div V from the spherical formula, as a scalar field."""
    s_r, s_t, s_p = _scalar_slots(v, chart)

    def flux_r(pts):
        r = radius(pts)
        return r**2 * s_r(pts)

    def flux_t(pts):
        return sin_theta(pts, chart) * s_t(pts)

    d_fr = sph_partial(flux_r, chart, (1, 0, 0), h)
    d_ft = sph_partial(flux_t, chart, (0, 1, 0), h)
    d_fp = sph_partial(s_p, chart, (0, 0, 1), h)

    def div(pts):
        pts = np.asarray(pts, dtype=float)
        r = radius(pts)
        s = sin_theta(pts, chart)
        return d_fr(pts) / r**2 + (d_ft(pts) + d_fp(pts)) / (r * s)

    return div


def make_sph_grad(f, chart: str, h: float = 0.01):
    """grad F from the spherical formula, as a vector field."""
    d_r = sph_partial(f, chart, (1, 0, 0), h)
    d_t = sph_partial(f, chart, (0, 1, 0), h)
    d_p = sph_partial(f, chart, (0, 0, 1), h)

    def grad(pts):
        pts = np.asarray(pts, dtype=float)
        r = radius(pts)
        s = sin_theta(pts, chart)
        rhat, that, phat = unit_vectors(pts, chart)
        return (
            rhat * d_r(pts)[..., None]
            + that * (d_t(pts) / r)[..., None]
            + phat * (d_p(pts) / (r * s))[..., None]
        )

    return grad


def make_sph_lap(f, chart: str, h: float = 0.01):
    """Laplacian of a scalar field from the spherical formula."""
    d_rf = sph_partial(f, chart, (1, 0, 0), h)
    d_tf = sph_partial(f, chart, (0, 1, 0), h)

    def flux_r(pts):
        r = radius(pts)
        return r**2 * d_rf(pts)

    def flux_t(pts):
        return sin_theta(pts, chart) * d_tf(pts)

    d2_r = sph_partial(flux_r, chart, (1, 0, 0), h)
    d2_t = sph_partial(flux_t, chart, (0, 1, 0), h)
    d2_p = sph_partial(f, chart, (0, 0, 2), h)

    def lap(pts):
        pts = np.asarray(pts, dtype=float)
        r = radius(pts)
        s = sin_theta(pts, chart)
        return d2_r(pts) / r**2 + d2_t(pts) / (r**2 * s) + d2_p(pts) / (r * s) ** 2

    return lap


def make_sph_vec_lap(v, chart: str, h: float = 0.01):
    """Componentwise Laplacian of a vector field (Cartesian components)."""
    comps = [make_sph_lap(lambda pts, j=j: v(pts)[..., j], chart, h) for j in range(3)]

    def lap(pts):
        return np.stack([c(pts) for c in comps], axis=-1)

    return lap


def make_sph_grad_div(v, chart: str, h: float = 0.01):
    return make_sph_grad(make_sph_div(v, chart, h), chart, h)


def sph_grad_div_lap(f, v, pts, chart: str, h: float = 0.01):
    """(grad F, div V, lap F) at points, all by the spherical formulas."""
    return (
        make_sph_grad(f, chart, h)(pts),
        make_sph_div(v, chart, h)(pts),
        make_sph_lap(f, chart, h)(pts),
    )


# Cartesian finite-difference oracles (single-level stencils, high accuracy).

def cart_grad(f, pts, h: float = 1e-3):
    cols = [cart_partial(f, tuple(np.eye(3, dtype=int)[i]), h)(pts) for i in range(3)]
    return np.stack(cols, axis=-1)


def cart_grad_sq(f, pts, h: float = 1e-3, vector: bool = False):
    """|grad F|^2, summed over the components of a vector field.

    One Cartesian partial per axis, a vector pass for a vector field.  The
    squares are added in axis order per component, then the components in
    order: the order of summing np.sum(cart_grad(F_j, pts, h)**2, axis=-1)
    over j, so the result is bitwise that sum.
    """
    d = [cart_partial(f, tuple(np.eye(3, dtype=int)[i]), h, vector=vector)(pts)
         for i in range(3)]
    s = d[0] ** 2 + d[1] ** 2 + d[2] ** 2
    return s[..., 0] + s[..., 1] + s[..., 2] if vector else s


def cart_div(v, pts, h: float = 1e-3):
    out = 0.0
    for i in range(3):
        orders = [0, 0, 0]
        orders[i] = 1
        out = out + cart_partial(lambda p, i=i: v(p)[..., i], tuple(orders), h)(pts)
    return out


def cart_lap(f, pts, h: float = 1e-3):
    out = 0.0
    for i in range(3):
        orders = [0, 0, 0]
        orders[i] = 2
        out = out + cart_partial(f, tuple(orders), h)(pts)
    return out


def cart_vec_lap(v, pts, h: float = 1e-3):
    return np.stack(
        [cart_lap(lambda p, j=j: v(p)[..., j], pts, h) for j in range(3)], axis=-1
    )


def cart_grad_div(v, pts, h: float = 1e-3):
    """grad(div V) via direct mixed second partials (no nesting)."""
    cols = []
    for i in range(3):
        acc = 0.0
        for j in range(3):
            orders = [0, 0, 0]
            orders[i] += 1
            orders[j] += 1
            acc = acc + cart_partial(
                lambda p, j=j: v(p)[..., j], tuple(orders), h
            )(pts)
        cols.append(acc)
    return np.stack(cols, axis=-1)
