"""Cut-off partition of unity over the two pole-avoiding charts.

A piecewise-quadratic C^1 profile in the polar angle is mollified with a
compactly supported smooth bump and composed with the chart polar angles to
give chi_V and chi_H.  The raw profile satisfies the exact complementarity
xi(a) + xi(pi/2 - a) = 1 on the transition band, and convolution preserves
it, which is what makes chi_V + chi_H >= 1 hold to machine precision.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .sphops import to_spherical, unit_vectors

__all__ = [
    "xi_tilde",
    "xi_tilde_prime",
    "xi",
    "xi_prime",
    "chi",
    "grad_chi",
    "WIDTH",
]

_PI = np.pi
_Q = 32.0 / _PI**2
# the mollifier's half-width: it widens the profile's support [pi/8, 7pi/8]
# to exactly [pi/9, 8pi/9]
WIDTH = _PI / 72.0
_QUAD_POINTS = 96  # Gauss-Legendre nodes of the convolution
_BLOCK = 256  # points whose shifted profiles are evaluated at once


# the profile's pieces between consecutive edges: (centre, offset, sign) is
# offset + sign Q (t - centre)^2, a sign of 0 the constant offset; past the
# last edge the profile is 0
_EDGES = np.array([_PI / 8, _PI / 4, 3 * _PI / 8, 5 * _PI / 8, 3 * _PI / 4, 7 * _PI / 8])
_PIECES = ((0.0, 0.0, 0), (_PI / 8, 0.0, 1), (3 * _PI / 8, 1.0, -1),
           (0.0, 1.0, 0), (5 * _PI / 8, 1.0, -1), (7 * _PI / 8, 0.0, 1))


def _check_polar(theta) -> None:
    """Raise ValueError unless every angle lies in [0, pi]; NaN does not."""
    if not np.all((theta >= -1e-12) & (theta <= _PI + 1e-12)):
        raise ValueError("polar angle must lie in [0, pi]")


def _profile(theta, derivative: bool):
    """xi~ or its derivative, each point evaluated on its own piece only."""
    theta = np.asarray(theta, dtype=float)
    _check_polar(theta)
    t = np.clip(theta, 0.0, _PI)
    piece = np.searchsorted(_EDGES, t, side="right")  # the first edge above t
    out = np.zeros_like(t)
    for k, (centre, offset, sign) in enumerate(_PIECES):
        sel = piece == k
        if sign == 0:
            out[sel] = 0.0 if derivative else offset
        elif derivative:
            out[sel] = sign * 2 * _Q * (t[sel] - centre)
        else:
            out[sel] = offset + sign * _Q * (t[sel] - centre) ** 2
    return out


def xi_tilde(theta):
    """Piecewise-quadratic C^1 angular profile: 0 near the poles, 1 near pi/2."""
    return _profile(theta, derivative=False)


def xi_tilde_prime(theta):
    return _profile(theta, derivative=True)


@cache
def _mollifier():
    """Gauss-Legendre nodes on [-WIDTH, WIDTH] and the quadrature weights of
    the normalised bump eta / (integral of eta), built once.

    Every call shares the two arrays, so they are read-only.
    """
    nodes, weights = np.polynomial.legendre.leggauss(_QUAD_POINTS)
    nodes, weights = nodes * WIDTH, weights * WIDTH
    eta = np.zeros_like(nodes)
    inside = np.abs(nodes) < WIDTH
    eta[inside] = np.exp(-1.0 / (1.0 - (nodes[inside] / WIDTH) ** 2))
    kernel = weights * (eta / float(np.sum(weights * eta)))
    nodes.flags.writeable = False
    kernel.flags.writeable = False
    return nodes, kernel


def _convolve(theta, kernel_of_base):
    """The kernel-weighted sum of kernel_of_base(theta - s) over the nodes s.

    The shifted profiles are evaluated _BLOCK points at a time into one
    array, so the profile's temporaries stay a block's size, but summed by
    a single product over all points: BLAS groups the rows of a product, so
    one product per block would move the last bit of some values.
    """
    nodes, kernel = _mollifier()
    theta = np.asarray(theta, dtype=float)
    _check_polar(theta)
    vals = np.empty(theta.shape + nodes.shape)
    flat_theta, flat_vals = theta.reshape(-1), vals.reshape(-1, nodes.size)
    for start in range(0, flat_theta.size, _BLOCK):
        rows = slice(start, start + _BLOCK)
        flat_vals[rows] = kernel_of_base(np.clip(flat_theta[rows, None] - nodes, 0.0, _PI))
    return vals @ kernel


def xi(theta):
    """Mollified profile, smooth with support exactly [pi/9, 8pi/9]."""
    return _convolve(theta, xi_tilde)


def xi_prime(theta):
    return _convolve(theta, xi_tilde_prime)


def chi(pts, chart: str):
    """The chart's partition function xi(theta) at points (..., 3)."""
    return xi(to_spherical(pts, chart)[1])


def grad_chi(pts, chart: str):
    """Exact gradient xi'(theta) theta_hat / r, safe on the chart axis.

    Near the axis xi' vanishes identically (outside the cutoff support),
    so the otherwise-degenerate theta_hat direction is multiplied by zero.
    """
    pts = np.asarray(pts, dtype=float)
    r, theta, _ = to_spherical(pts, chart)
    coeff = xi_prime(theta) / r
    out = np.zeros_like(pts)
    live = coeff != 0.0
    if np.any(live):
        _, that, _ = unit_vectors(pts[live], chart)
        out[live] = coeff[live][..., None] * that
    return out
