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
the checks' independent oracles, take the same exact partials of a field's
jet in the Cartesian offsets, evaluated on `cart_jet(pts, d)`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

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
    "cart_jet",
    "cart_grad",
    "cart_div",
    "cart_lap",
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


def unit_vectors(pts, chart: str):
    """Orthonormal (r_hat, theta_hat, phi_hat) of the chart at each point.

    Cartesian formulas, so they also run on a jet of points.  theta_hat and
    phi_hat divide by the distance to the chart's axis, so on the axis they
    are not finite; `chart_jet` is the guarded entry point.
    """
    _check_chart(chart)
    pts = _points(pts)
    r = radius(pts, keepdims=True)
    rhat = pts / r
    x1, tan, pole = (pts[..., i] for i in _AXES[chart])
    cyl = np.hypot(x1, tan)
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


def cart_jet(pts, degree: int) -> Jet:
    """Points (..., 3) as a degree-`degree` jet in the Cartesian offsets
    (dx1, dx2, dx3) around each: a field evaluated on it is its Cartesian
    jet, and a partial of that is the exact Cartesian partial."""
    return np.stack(variables(*np.moveaxis(pts, -1, 0), degree=degree), axis=-1)


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


_AXIS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))  # the orders of d_1, d_2 and d_3


def cart_grad(f: Jet) -> Jet:
    """grad F from the Cartesian jet of F (`cart_jet`), a jet one degree
    lower; a vector field's d_j F_i at [..., i, j]."""
    return np.stack([partial(f, e) for e in _AXIS], axis=-1)


def cart_div(v: Jet) -> Jet:
    """div V from the Cartesian jet of a vector field."""
    return sum(partial(v[..., i], e) for i, e in enumerate(_AXIS))


def cart_lap(f: Jet) -> Jet:
    """Laplacian from a Cartesian jet, componentwise for a vector field."""
    return partial(f, (2, 0, 0)) + partial(f, (0, 2, 0)) + partial(f, (0, 0, 2))
