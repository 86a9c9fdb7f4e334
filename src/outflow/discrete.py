"""Stencil weights, shared discrete operators and quadrature weights on the grids.

Centered second-order stencils in the interior, one-sided second-order at
the boundaries; the angular direction works on staggered cell centers and
closes its stencils across the poles by parity reflection.  No operator
applies a radial stencil to the output of another, so the one-sided rows at
the wall stay second order: the viscous operator of each geometry, `visc`,
differentiates r^(n-1) w_r and the other radial factors once each.
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
        self.cols = list(zip(self.wts.T.copy(), self.idx.T.copy()))

    def __call__(self, f: np.ndarray) -> np.ndarray:
        if f.ndim == 1:  # w0 f[i0] + w1 f[i1] + ..., as the einsum sums a column
            (w, i), *rest = self.cols
            return sum((wk * f[ik] for wk, ik in rest), w * f[i])
        return np.einsum("ik,ikj->ij", self.wts, f[self.idx])


class SymOps:
    """Radial collocation derivatives and volume quadrature (dimension n).

    The vector-calculus methods carry the names of their `AxiOps`
    counterparts and work on velocity tuples of one radial component, so
    code written over `state.velocity` serves both geometries.
    """

    def __init__(self, grid: RadialGrid, dim_n: int):
        self.grid = grid
        self.r = self.r_col = grid.nodes
        self.dim_n = dim_n
        self.d1 = _Deriv(self.r, 3, 1)
        self.d2 = _Deriv(self.r, 4, 2)
        area = sphere_area(dim_n)
        self.w_vol = area * self.r ** (dim_n - 1) * trapezoid_weights(self.r)
        self.boundary_area = area  # sphere of radius 1

    def lift(self, f: np.ndarray) -> np.ndarray:
        """A radial profile on the state's shape: the profile itself."""
        return f

    def lift_velocity(self, u: np.ndarray) -> tuple:
        return (u,)

    def grad(self, f: np.ndarray) -> tuple:
        return (self.d1(f),)

    def first_derivs(self, w) -> tuple:
        """(d_r w_r,): the derivatives `div`, `conv` and `vec_grad_sq` take as `dw`."""
        return (self.d1(w[0]),)

    def div(self, w, dw) -> np.ndarray:
        """Divergence of the radial field w_r(r) r_hat; dw is `first_derivs(w)`."""
        return dw[0] + (self.dim_n - 1) * w[0] / self.r

    def conv(self, a, w, dw) -> tuple:
        """(a . grad) w of radial fields; dw is `first_derivs(w)`."""
        return (a[0] * dw[0],)

    def visc(self, w, mu: float, lam: float, dw, div) -> tuple:
        """mu lap w + (mu + lam) grad div w of a radial field, which is
        (2 mu + lam) d_r(div w) = (2 mu + lam) (g'' - (n-1) g' / r) / r^(n-1)
        with g = r^(n-1) w_r.  Each derivative of g is one stencil, so no
        stencil differentiates another's output and the wall rows stay second
        order.  dw and div are not used."""
        n1 = self.dim_n - 1
        g = self.r**n1 * w[0]
        return ((2.0 * mu + lam) * (self.d2(g) - n1 * self.d1(g) / self.r)
                / self.r**n1,)

    def vec_grad_sq(self, w, dw) -> np.ndarray:
        """|grad w|^2 of the radial field w_r(r) r_hat; dw is `first_derivs(w)`."""
        return dw[0] ** 2 + (self.dim_n - 1) * (w[0] / self.r) ** 2

    def wall_integral(self, f) -> float:
        """Integral over the unit sphere r = 1 of the wall value f."""
        return self.boundary_area * float(f)

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
        self.r_col = self.r[:, None]
        self.theta = agrid.centers
        self.dtheta = agrid.dtheta
        self.sin = np.sin(self.theta)
        self.cos = np.cos(self.theta)
        self.cot_row = (self.cos / self.sin)[None, :]
        self.d_r = _Deriv(self.r, 3, 1)
        self.d2_r = _Deriv(self.r, 4, 2)
        w_r = trapezoid_weights(self.r)
        # cell volumes 2 pi r^2 sin(theta) dr dtheta
        self.w_vol = (2.0 * np.pi * self.r**2 * w_r)[:, None] * (
            self.sin * self.dtheta)[None, :]
        self.boundary_w = 2.0 * np.pi * self.sin * self.dtheta  # r = 1 ring

    # The angular stencil differences f raveled in C order, one contiguous
    # pass over every row, which leaves garbage only in the two pole columns
    # (their neighbours sit in the adjacent rows); those are then written from
    # the reflected value parity * f, the ghost of the padded stencil.

    def d_theta(self, f: np.ndarray, parity: int) -> np.ndarray:
        flat = np.ravel(f)
        out = np.empty(f.shape)
        np.subtract(flat[2:], flat[:-2], out=out.reshape(-1)[1:-1])
        out[:, 0] = f[:, 1] - parity * f[:, 0]
        out[:, -1] = parity * f[:, -1] - f[:, -2]
        out /= 2.0 * self.dtheta
        return out

    def lift(self, f: np.ndarray) -> np.ndarray:
        """A radial profile repeated along theta."""
        return np.repeat(f[:, None], self.theta.size, axis=1)

    def lift_velocity(self, u: np.ndarray) -> tuple:
        """The radial velocity profile u(r) r_hat on the (r, theta) grid."""
        u2 = self.lift(u)
        return (u2, np.zeros_like(u2))

    def div(self, w, dw) -> np.ndarray:
        """Divergence of w = w_r r_hat + w_t theta_hat.  It differentiates
        r^2 w_r and sin(theta) w_t, so the `dw` of the shared signature is
        not used."""
        w_r, w_t = w
        r = self.r_col
        s = self.sin[None, :]
        # sin(theta) w_theta is even across the poles (odd times odd)
        return (self.d_r(r**2 * w_r) / r**2
                + self.d_theta(s * w_t, parity=1) / (r * s))

    def grad(self, f: np.ndarray):
        """(d_r f, d_theta f / r) of an even scalar."""
        return self.d_r(f), self.d_theta(f, parity=1) / self.r_col

    def first_derivs(self, w):
        """(d_r w_r, d_theta w_r, d_r w_t, d_theta w_t) of w = w_r r_hat + w_t theta_hat.

        `div`, `conv`, `visc` and `vec_grad_sq` take them as `dw`, so a
        caller that applies several of them to one field differentiates it
        once.
        """
        w_r, w_t = w
        return (self.d_r(w_r), self.d_theta(w_r, parity=1),
                self.d_r(w_t), self.d_theta(w_t, parity=-1))

    def conv(self, a, w, dw):
        """(a . grad) w plus the curvature couplings of the moving frame; dw
        is `first_derivs(w)`."""
        (a_r, a_t), (w_r, w_t) = a, w
        dr_r, dt_r, dr_t, dt_t = dw
        r = self.r_col
        c_r = a_r * dr_r + a_t * dt_r / r - a_t * w_t / r
        c_t = a_r * dr_t + a_t * dt_t / r + a_t * w_r / r
        return c_r, c_t

    def visc(self, w, mu: float, lam: float, dw, div):
        """Viscous operator mu lap w + (mu + lam) grad div w, written as
        (2 mu + lam) grad div w - mu curl curl w.

        With g = r^2 w_r, a = d_theta(sin w_t) / sin and the azimuthal
        vorticity om = d_r w_t + (w_t - d_theta w_r) / r, the radial row
        differentiates g and a once each and the polar row takes d_r of
        w_t and of d_theta w_r, so no radial stencil acts on another's output
        and the wall rows stay second order.  On a theta-independent field om
        and a vanish exactly: the polar row is 0 and the radial row is
        `SymOps.visc` up to the rounding of the stencil sums.  dw is
        `first_derivs(w)` and div is `div(w, dw)`.
        """
        w_r, w_t = w
        _, dt_r, dr_t, _ = dw
        r = self.r_col
        s = self.sin[None, :]
        k = 2.0 * mu + lam
        g = r**2 * w_r
        a = self.d_theta(s * w_t, parity=1) / s
        # sin(theta) om is even across the poles (odd times odd)
        om = dr_t + (w_t - dt_r) / r
        v_r = (k * ((self.d2_r(g) - 2.0 * self.d_r(g) / r) / r**2
                    + (self.d_r(a) - a / r) / r)
               - mu * self.d_theta(s * om, parity=1) / (r * s))
        v_t = (k * self.d_theta(div, parity=1) / r
               + mu * (r * self.d2_r(w_t) + 2.0 * dr_t - self.d_r(dt_r)) / r)
        return v_r, v_t

    def vec_grad_sq(self, w, dw) -> np.ndarray:
        """|grad w|^2 of w = w_r r_hat + w_t theta_hat; dw is `first_derivs(w)`."""
        w_r, w_t = w
        dr_r, dt_r, dr_t, dt_t = dw
        r = self.r_col
        return (dr_r**2 + dr_t**2
                + ((dt_r - w_t) / r) ** 2
                + ((dt_t + w_r) / r) ** 2
                + ((w_r + self.cot_row * w_t) / r) ** 2)

    def wall_integral(self, f) -> float:
        """Integral over the unit sphere r = 1 of the wall ring f."""
        return float(np.sum(self.boundary_w * f))

    def integral(self, f: np.ndarray) -> float:
        return float(np.sum(self.w_vol * f))
