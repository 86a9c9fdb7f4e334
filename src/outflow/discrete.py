"""Stencil weights, shared discrete operators and quadrature weights on the grids.

Centered second-order stencils in the interior, one-sided second-order at
the boundaries; the angular direction works on staggered cell centers and
closes its stencils across the poles by parity reflection.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gamma as _gamma

from .grids import AngularGrid, RadialGrid

__all__ = ["SymOps", "AxiOps", "fornberg_weights", "trapezoid_weights", "sphere_area"]


def trapezoid_weights(x: np.ndarray) -> np.ndarray:
    w = np.zeros_like(x)
    dx = np.diff(x)
    w[:-1] += 0.5 * dx
    w[1:] += 0.5 * dx
    return w


def sphere_area(n: int) -> float:
    """Surface area of the unit sphere in R^n."""
    return float(2.0 * np.pi ** (n / 2.0) / _gamma(n / 2.0))


def fornberg_weights(z, x, m: int) -> np.ndarray:
    """Weights of derivatives 0..m at z from the nodes x (Fornberg's algorithm).

    Batched over windows: z has shape (...) and x shape (..., width), and the
    result w has shape (m+1, ..., width) with sum_j w[k, ..., j] f(x[..., j])
    approximating the k-th derivative at z.  Each window runs the same
    recursion, so a batched row equals the single-window call bit for bit.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    n = x.shape[-1]
    w = np.zeros((m + 1,) + x.shape)
    c1 = 1.0
    c4 = x[..., 0] - z
    w[0, ..., 0] = 1.0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[..., i] - z
        for j in range(i):
            c3 = x[..., i] - x[..., j]
            c2 = c2 * c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    w[k, ..., i] = c1 * (k * w[k - 1, ..., i - 1]
                                         - c5 * w[k, ..., i - 1]) / c2
                w[0, ..., i] = -c1 * c5 * w[0, ..., i - 1] / c2
            for k in range(mn, 0, -1):
                w[k, ..., j] = (c4 * w[k, ..., j] - k * w[k - 1, ..., j]) / c3
            w[0, ..., j] = c4 * w[0, ..., j] / c3
        c1 = c2
    return w


def _stencil_table(x: np.ndarray, width: int, order: int):
    """Per-node windows and weights: out[i] = sum_k w[i,k] f(idx[i,k])."""
    n = x.size
    lo = np.clip(np.arange(n) - (width - 1) // 2, 0, n - width)
    idx = lo[:, None] + np.arange(width)
    return idx, fornberg_weights(x, x[idx], order)[order]


class _Deriv:
    def __init__(self, x: np.ndarray, width: int, order: int):
        self.idx, self.wts = _stencil_table(x, width, order)

    def __call__(self, f: np.ndarray) -> np.ndarray:
        g = f[self.idx]  # (n, width[, trailing])
        if g.ndim == 2:
            return np.einsum("ik,ik->i", self.wts, g)
        return np.einsum("ik,ikj->ij", self.wts, g)


class SymOps:
    """Radial collocation derivatives and volume quadrature (dimension n)."""

    def __init__(self, grid: RadialGrid, dim_n: int = 3):
        self.grid = grid
        self.r = grid.nodes
        self.dim_n = dim_n
        self.d1 = _Deriv(self.r, 3, 1)
        self.d2 = _Deriv(self.r, 4, 2)
        area = sphere_area(dim_n)
        self.w_vol = area * self.r ** (dim_n - 1) * trapezoid_weights(self.r)
        self.boundary_area = area  # sphere of radius 1

    def div_radial(self, v: np.ndarray, dv: np.ndarray | None = None) -> np.ndarray:
        """Divergence of the radial field v(r) r_hat; dv may carry d1(v)."""
        dv = self.d1(v) if dv is None else dv
        return dv + (self.dim_n - 1) * v / self.r

    def integral(self, f: np.ndarray) -> float:
        return float(np.sum(self.w_vol * f))


class AxiOps:
    """(r, theta) derivatives on radial nodes x staggered angular centers.

    Angular stencils are closed across the poles by reflection: scalar-like
    quantities (rho, u_r) continue evenly, the polar velocity component
    oddly, which encodes u_theta = 0 on the axis without ever evaluating
    at sin(theta) = 0.
    """

    def __init__(self, grid: RadialGrid, agrid: AngularGrid):
        self.grid = grid
        self.agrid = agrid
        self.r = grid.nodes
        self.theta = agrid.centers
        self.dtheta = agrid.dtheta
        self.sin = np.sin(self.theta)
        self.cos = np.cos(self.theta)
        self.d_r = _Deriv(self.r, 3, 1)
        self.d2_r = _Deriv(self.r, 4, 2)
        w_r = trapezoid_weights(self.r)
        # cell volumes 2 pi r^2 sin(theta) dr dtheta
        self.w_vol = (2.0 * np.pi * self.r**2 * w_r)[:, None] * (
            self.sin * self.dtheta)[None, :]
        self.boundary_w = 2.0 * np.pi * self.sin * self.dtheta  # r = 1 ring

    def _pad_theta(self, f: np.ndarray, parity: int) -> np.ndarray:
        return np.concatenate([parity * f[:, :1], f, parity * f[:, -1:]], axis=1)

    def d_theta(self, f: np.ndarray, parity: int = 1) -> np.ndarray:
        g = self._pad_theta(f, parity)
        return (g[:, 2:] - g[:, :-2]) / (2.0 * self.dtheta)

    def d2_theta(self, f: np.ndarray, parity: int = 1) -> np.ndarray:
        g = self._pad_theta(f, parity)
        return (g[:, 2:] - 2.0 * g[:, 1:-1] + g[:, :-2]) / self.dtheta**2

    def div(self, v_r: np.ndarray, v_theta: np.ndarray) -> np.ndarray:
        r = self.r[:, None]
        s = self.sin[None, :]
        # sin(theta) v_theta is even across the poles (odd times odd)
        return (self.d_r(r**2 * v_r) / r**2
                + self.d_theta(s * v_theta, parity=1) / (r * s))

    def grad(self, f: np.ndarray):
        """(d_r f, d_theta f / r) of an even scalar."""
        return self.d_r(f), self.d_theta(f, parity=1) / self.r[:, None]

    def first_derivs(self, w_r, w_t):
        """(d_r w_r, d_theta w_r, d_r w_t, d_theta w_t) of w = w_r r_hat + w_t theta_hat.

        `conv`, `vec_lap` and `visc` take them as `dw`, so a caller that
        applies several of them to one field differentiates it once.
        """
        return (self.d_r(w_r), self.d_theta(w_r, parity=1),
                self.d_r(w_t), self.d_theta(w_t, parity=-1))

    def conv(self, a_r, a_t, w_r, w_t, dw=None):
        """(a . grad) w plus the curvature couplings of the moving frame."""
        dr_r, dt_r, dr_t, dt_t = self.first_derivs(w_r, w_t) if dw is None else dw
        r = self.r[:, None]
        c_r = a_r * dr_r + a_t * dt_r / r - a_t * w_t / r
        c_t = a_r * dr_t + a_t * dt_t / r + a_t * w_r / r
        return c_r, c_t

    def vec_lap(self, w_r, w_t, dw=None):
        """Vector Laplacian of w = w_r r_hat + w_t theta_hat."""
        dr_r, dt_r, dr_t, dt_t = self.first_derivs(w_r, w_t) if dw is None else dw
        r = self.r[:, None]
        s = self.sin[None, :]
        cot = (self.cos / self.sin)[None, :]
        l_r = (self.d2_r(w_r) + 2.0 * dr_r / r
               + self.d2_theta(w_r, parity=1) / r**2
               + cot * dt_r / r**2
               - 2.0 * w_r / r**2
               - 2.0 * dt_t / r**2
               - 2.0 * cot * w_t / r**2)
        l_t = (self.d2_r(w_t) + 2.0 * dr_t / r
               + self.d2_theta(w_t, parity=-1) / r**2
               + cot * dt_t / r**2
               + 2.0 * dt_r / r**2
               - w_t / (r * s) ** 2)
        return l_r, l_t

    def visc(self, w_r, w_t, mu: float, lam: float, dw=None, div=None):
        """Viscous operator mu lap w + (mu + lam) grad div w.

        dw may carry `first_derivs(w_r, w_t)` and div `div(w_r, w_t)`.
        """
        l_r, l_t = self.vec_lap(w_r, w_t, dw)
        d = self.div(w_r, w_t) if div is None else div
        return (mu * l_r + (mu + lam) * self.d_r(d),
                mu * l_t + (mu + lam) * self.d_theta(d, parity=1) / self.r[:, None])

    def integral(self, f: np.ndarray) -> float:
        return float(np.sum(self.w_vol * f))
