"""Cut-off partition of unity over the two pole-avoiding charts.

A piecewise-quadratic C^1 profile in the polar angle is mollified with a
compactly supported smooth bump and composed with the chart polar angles to
give chi_V and chi_H.  The raw profile satisfies the exact complementarity
xi(a) + xi(pi/2 - a) = 1 on the transition band, and convolution preserves
it, which is what makes chi_V + chi_H >= 1 hold to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .sphops import radius, unit_vectors

__all__ = [
    "SupportViolation",
    "xi_tilde",
    "xi_tilde_prime",
    "CutoffFamily",
    "build_cutoffs",
    "DEFAULT_WIDTH",
]

DEFAULT_WIDTH = np.pi / 72.0
_PI = np.pi
_Q = 32.0 / _PI**2


class SupportViolation(ValueError):
    """Mollifier width pushes the cutoff support outside [pi/9, 8pi/9]."""


def _check_domain(theta):
    theta = np.asarray(theta, dtype=float)
    if np.any(theta < -1e-12) or np.any(theta > _PI + 1e-12):
        raise ValueError("polar angle must lie in [0, pi]")
    return theta


def xi_tilde(theta):
    """Piecewise-quadratic C^1 angular profile: 0 near the poles, 1 near pi/2."""
    theta = _check_domain(theta)
    t = np.clip(theta, 0.0, _PI)
    conds = [
        t < _PI / 8,
        t < _PI / 4,
        t < 3 * _PI / 8,
        t < 5 * _PI / 8,
        t < 3 * _PI / 4,
        t < 7 * _PI / 8,
    ]
    vals = [
        np.zeros_like(t),
        _Q * (t - _PI / 8) ** 2,
        1.0 - _Q * (t - 3 * _PI / 8) ** 2,
        np.ones_like(t),
        1.0 - _Q * (t - 5 * _PI / 8) ** 2,
        _Q * (t - 7 * _PI / 8) ** 2,
    ]
    return np.select(conds, vals, default=np.zeros_like(t))


def xi_tilde_prime(theta):
    theta = _check_domain(theta)
    t = np.clip(theta, 0.0, _PI)
    conds = [
        t < _PI / 8,
        t < _PI / 4,
        t < 3 * _PI / 8,
        t < 5 * _PI / 8,
        t < 3 * _PI / 4,
        t < 7 * _PI / 8,
    ]
    vals = [
        np.zeros_like(t),
        2 * _Q * (t - _PI / 8),
        -2 * _Q * (t - 3 * _PI / 8),
        np.zeros_like(t),
        -2 * _Q * (t - 5 * _PI / 8),
        2 * _Q * (t - 7 * _PI / 8),
    ]
    return np.select(conds, vals, default=np.zeros_like(t))


@lru_cache(maxsize=None)
def _gauss_rule(width: float, n: int = 96):
    """Gauss-Legendre rule on [-width, width], built once per (width, n).

    Every family of one width shares the two arrays, so they are read-only.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes, weights = nodes * width, weights * width
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


@dataclass(frozen=True)
class CutoffFamily:
    """Mollified angular cutoff and the derived chart partition functions."""

    width: float
    _nodes: np.ndarray
    _weights: np.ndarray

    def _eta(self, s):
        w = self.width
        out = np.zeros_like(s)
        inside = np.abs(s) < w
        out[inside] = np.exp(-1.0 / (1.0 - (s[inside] / w) ** 2))
        return out

    def _norm(self) -> float:
        return float(np.sum(self._weights * self._eta(self._nodes)))

    def _convolve(self, theta, kernel_of_base):
        theta = np.asarray(theta, dtype=float)
        shifted = np.clip(theta[..., None] - self._nodes, 0.0, _PI)
        vals = kernel_of_base(shifted)
        eta = self._eta(self._nodes) / self._norm()
        return vals @ (self._weights * eta)

    def xi(self, theta):
        """Mollified profile, smooth with support exactly [pi/9, 8pi/9]."""
        return self._convolve(theta, xi_tilde)

    def xi_prime(self, theta):
        return self._convolve(theta, xi_tilde_prime)

    def _angle(self, pts, chart):
        pts = np.asarray(pts, dtype=float)
        r = radius(pts)
        pole = pts[..., 2] if chart == "V" else pts[..., 1]
        return np.arccos(np.clip(pole / r, -1.0, 1.0))

    def chi_v(self, pts):
        return self.xi(self._angle(pts, "V"))

    def chi_h(self, pts):
        return self.xi(self._angle(pts, "H"))

    def grad_chi(self, pts, chart: str):
        """Exact gradient xi'(theta) theta_hat / r, safe on the chart axis.

        Near the axis xi' vanishes identically (outside the cutoff support),
        so the otherwise-degenerate theta_hat direction is multiplied by zero.
        """
        pts = np.asarray(pts, dtype=float)
        r = radius(pts)
        theta = self._angle(pts, chart)
        coeff = self.xi_prime(theta) / r
        out = np.zeros_like(pts)
        live = coeff != 0.0
        if np.any(live):
            _, that, _ = unit_vectors(pts[live], chart, guard=False)
            out[live] = coeff[live][..., None] * that
        return out

    def grad_chi_v(self, pts):
        return self.grad_chi(pts, "V")

    def grad_chi_h(self, pts):
        return self.grad_chi(pts, "H")


def build_cutoffs(width: float = DEFAULT_WIDTH, quad_points: int = 96) -> CutoffFamily:
    """Build the mollified cutoff family; width may not exceed pi/72."""
    if width <= 0.0:
        raise SupportViolation("mollifier width must be positive")
    if width > DEFAULT_WIDTH + 1e-15:
        raise SupportViolation(
            f"width {width:.6f} pushes the support outside [pi/9, 8pi/9]"
        )
    nodes, weights = _gauss_rule(width, quad_points)
    return CutoffFamily(width=width, _nodes=nodes, _weights=weights)
