"""Spherical charts, unit vectors, and scaled angular derivative operators.

Two overlapping pole-avoiding charts cover the exterior domain: the V chart
uses the polar angle measured from the x3 axis, the H chart the angle from
the x2 axis (coordinates swap x2 and x3).  The scaled derivatives

    d_r = (x/|x|) . grad,   d_theta = |x| theta_hat . grad,
    d_phi = (cylindrical radius) phi_hat . grad

coincide with the plain coordinate partials of the chart, so they commute.
The spherical operators act on Taylor jets (`jets.Jet`) around a batch of
points: a field, a vectorized callable from points (..., 3) to scalars or
vectors, evaluated on `chart_jet(pts, chart, d).x` is its degree-d jet, and
a chart partial is its exact polynomial derivative.  The Cartesian operators,
the checks' independent oracles, difference with fourth-order stencils.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .discrete import fornberg_weights
from .jets import Jet, partial, variables

__all__ = [
    "AxisDegeneracy",
    "CHARTS",
    "radius",
    "to_spherical",
    "from_spherical",
    "unit_vectors",
    "ChartJet",
    "chart_jet",
    "sph_grad",
    "sph_div",
    "sph_lap",
    "cart_partial",
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


def _points(pts):
    return pts if isinstance(pts, Jet) else np.asarray(pts, dtype=float)


# the Cartesian axis of each chart's (x1, tangent, pole) components: the pole
# of V is x3, that of H is x2; each map is its own inverse
_AXES = {"V": (0, 1, 2), "H": (0, 2, 1)}


def _place(x1, tangent, pole, chart):
    """Stack chart-ordered components into Cartesian order (..., 3)."""
    comps = (x1, tangent, pole)
    return np.stack([comps[i] for i in _AXES[chart]], axis=-1)


def radius(pts, keepdims: bool = False):
    """|x| of points (..., 3), or of a jet of points.

    The same sum of squares in the same order as NumPy's 2-norm along the
    last axis, so bitwise equal to it, without a 3-long reduction per point.
    """
    sq = np.square(_points(pts))
    r = np.sqrt(sq[..., 0] + sq[..., 1] + sq[..., 2])
    return r[..., None] if keepdims else r


def to_spherical(pts, chart: str):
    """Chart coordinates (r, theta, phi) of Cartesian points (..., 3)."""
    _check_chart(chart)
    pts = np.asarray(pts, dtype=float)
    r = radius(pts)
    x1, tangent, pole = (pts[..., i] for i in _AXES[chart])
    theta = np.arccos(np.clip(pole / r, -1.0, 1.0))
    phi = np.arctan2(tangent, x1)
    return r, theta, phi


def from_spherical(r, theta, phi, chart: str):
    _check_chart(chart)
    r, theta, phi = np.broadcast_arrays(r, theta, phi)
    s = np.sin(theta)
    return _place(r * np.cos(phi) * s, r * np.sin(phi) * s, r * np.cos(theta), chart)


def unit_vectors(pts, chart: str, guard: bool = True):
    """Orthonormal (r_hat, theta_hat, phi_hat) of the chart at each point.

    Cartesian formulas, so they also run on a jet of points (guard=False).
    """
    _check_chart(chart)
    pts = _points(pts)
    r = radius(pts, keepdims=True)
    rhat = pts / r
    x1, tan, pole = (pts[..., i] for i in _AXES[chart])
    cyl = np.hypot(x1, tan)
    if guard and np.any(cyl / r[..., 0] < SIN_GUARD):
        raise AxisDegeneracy(
            f"point too close to the {chart}-chart axis "
            f"(sin theta < {SIN_GUARD:.4f})"
        )
    denom = r[..., 0] * cyl
    that = _place(x1 * pole / denom, tan * pole / denom, -(cyl**2) / denom, chart)
    phat = _place(-tan / cyl, x1 / cyl, np.zeros_like(x1), chart)
    return rhat, that, phat


class ChartJet(NamedTuple):
    """Jets of one chart around points (n, 3): the points x, on which fields
    are evaluated, r, sin and cos of theta, 1/r, 1/(r sin theta) and the frame."""

    x: Jet
    r: Jet
    sin: Jet
    cos: Jet
    inv_r: Jet
    inv_rs: Jet
    rhat: Jet
    that: Jet
    phat: Jet


def chart_jet(pts, chart: str, degree: int) -> ChartJet:
    """The chart's coordinates, frame and points as degree-`degree` jets
    around each point.

    Raises AxisDegeneracy when a point is too close to the chart's axis, where
    the operators' 1/sin(theta) factors blow up.
    """
    r0, th0, ph0 = to_spherical(np.atleast_2d(pts), chart)
    if np.any(np.sin(th0) < SIN_GUARD):
        raise AxisDegeneracy(f"chart derivative too close to the {chart}-chart axis")
    r, th, ph = variables(r0, th0, ph0, degree=degree)
    s, c, sp, cp = np.sin(th), np.cos(th), np.sin(ph), np.cos(ph)
    rhat = _place(s * cp, s * sp, c, chart)
    that = _place(c * cp, c * sp, -s, chart)
    phat = _place(-sp, cp, np.zeros_like(sp), chart)
    inv_r = 1.0 / r
    return ChartJet(r[..., None] * rhat, r, s, c, inv_r, inv_r / s, rhat, that, phat)


def sph_grad(f: Jet, fr: ChartJet) -> Jet:
    """grad F from the spherical formula, F a scalar jet on the chart jet fr."""
    return (fr.rhat * partial(f, (1, 0, 0))[..., None]
            + fr.that * (partial(f, (0, 1, 0)) * fr.inv_r)[..., None]
            + fr.phat * (partial(f, (0, 0, 1)) * fr.inv_rs)[..., None])


def sph_div(v: Jet, fr: ChartJet) -> Jet:
    """div V from the spherical formula, V an (n, 3) jet on fr."""
    s_r, s_t, s_p = (np.sum(h * v, axis=-1) for h in (fr.rhat, fr.that, fr.phat))
    return (partial(fr.r**2 * s_r, (1, 0, 0)) * fr.inv_r**2
            + (partial(fr.sin * s_t, (0, 1, 0)) + partial(s_p, (0, 0, 1))) * fr.inv_rs)


def sph_lap(f: Jet, fr: ChartJet) -> Jet:
    """Laplacian of a scalar jet from the spherical formula."""
    return (partial(fr.r**2 * partial(f, (1, 0, 0)), (1, 0, 0)) * fr.inv_r**2
            + partial(fr.sin * partial(f, (0, 1, 0)), (0, 1, 0)) * (fr.inv_r * fr.inv_rs)
            + partial(f, (0, 0, 2)) * fr.inv_rs**2)


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


def cart_partial(field, orders, h: float = 1e-3):
    """Mixed Cartesian partial d_1^a d_2^b d_3^c, axis-aligned fourth-order stencils.

    field maps points (m, 3) to scalars (m,) or vectors (m, 3); the partial
    has the same trailing shape."""
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
        vals = field(grid.reshape(-1, 3))
        vals = vals.reshape(grid.shape[:-1] + vals.shape[1:])
        out = np.einsum("i,j,k,ijkb...->b...", w1, w2, w3, vals)
        scale = step ** (a + b + c)
        out = out / (scale[:, None] if out.ndim > 1 else scale)  # a step per point
        return out[0] if single else out

    return apply


# Cartesian finite-difference oracles (single-level stencils, high accuracy).

_EYE = np.eye(3, dtype=int)  # row i: the orders of a first partial along axis i


def cart_grad(f, pts, h: float = 1e-3):
    cols = [cart_partial(f, tuple(_EYE[i]), h)(pts) for i in range(3)]
    return np.stack(cols, axis=-1)


def cart_grad_sq(f, pts, h: float = 1e-3):
    """|grad F|^2, summed over the components of a vector field.

    One Cartesian partial per axis, a vector pass for a vector field, whose
    partials have the shape of pts.  The squares are added in axis order per
    component, then the components in order: the order of summing
    np.sum(cart_grad(F_j, pts, h)**2, axis=-1) over j, so the result is
    bitwise that sum.
    """
    d = [cart_partial(f, tuple(_EYE[i]), h)(pts) for i in range(3)]
    s = d[0] ** 2 + d[1] ** 2 + d[2] ** 2
    return s[..., 0] + s[..., 1] + s[..., 2] if s.shape == np.shape(pts) else s


def cart_div(v, pts, h: float = 1e-3):
    out = 0.0
    for i in range(3):
        out = out + cart_partial(lambda p, i=i: v(p)[..., i], tuple(_EYE[i]), h)(pts)
    return out


def cart_lap(f, pts, h: float = 1e-3):
    out = 0.0
    for i in range(3):
        out = out + cart_partial(f, tuple(2 * _EYE[i]), h)(pts)
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
            acc = acc + cart_partial(lambda p, j=j: v(p)[..., j],
                                     tuple(_EYE[i] + _EYE[j]), h)(pts)
        cols.append(acc)
    return np.stack(cols, axis=-1)
