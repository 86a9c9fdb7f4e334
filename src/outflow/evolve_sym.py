"""Time integration of the spherically symmetric outflow system.

Finite-volume mass/momentum update on the radial nodes: interface fluxes on
the dual mesh give exact discrete mass telescoping, the continuity flux
carries the Rhie-Chow correction (Rhie & Chow 1983, AIAA J. 21) that couples
the odd and even density nodes, and the viscous rows are one sparse matrix of
the (r^2 u)_r / r^2 face form.  Time stepping is the IMEX Runge-Kutta scheme
ARS(2,2,2) (Ascher, Ruuth & Spiteri 1997, Appl. Numer. Math. 25): the
interior viscous rows, with their density frozen at the profile's, are
implicit and everything else is explicit, so the time step follows the
advective limit instead of the viscous h^2 one.  The wall node evolves the
density by one-sided into-domain stencils (an outflow wall needs no density
condition) while the velocity is pinned to u_b; at the truncation node the
outgoing Riemann invariant follows its own equation and the incoming one is
held at the far field, so outgoing waves leave.  A relaxation run measures
its perturbation against the scheme's own stationary state
(`SymSolver.equilibrium`), a fixed point of `step`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse
from scipy.linalg import lapack, solve_banded

from .discrete import SymOps, fornberg_weights
from .energy import (
    EnergyReport,
    composite_monitor,
    density_corridor,
    reformulation_residual,
    reformulation_terms,
    relative_energy,
)
from .params import FluidParams, pressure_unchecked, sound_speed
from .states import SymState, compatibility_residual, perturb_sym
from .steady import NonConvergence, SteadyProfile

__all__ = [
    "CFLViolation",
    "PositivityLoss",
    "SymRunConfig",
    "SymSolver",
    "RunResult",
    "run_sym_stability",
    "odd_even_content",
    "MONITOR_C",
    "RHIE_CHOW_BETA",
    "ARS_GAMMA",
    "ARS_DELTA",
    "ARS_SPLIT_RATIO",
    "ViscousLine",
]

# scheme constant for the energy-balance monitor gate tau = C (dt + h^2) E_peak;
# calibrated once on coarse/fine pairs of the acceptance configuration
MONITOR_C = 25.0

# weight of the Rhie-Chow pressure-gradient gap in the continuity face flux,
# in units of the acoustic time dr_f / c_f across the face
RHIE_CHOW_BETA = 0.1

# ARS(2,2,2): gamma is the implicit tableau's diagonal and delta the weight of
# the first explicit stage in the last one; both tableaux have the abscissae
# (0, gamma, 1), so a stationary state of the split rates is a fixed point
ARS_GAMMA = 1.0 - 1.0 / math.sqrt(2.0)
ARS_DELTA = 1.0 - 1.0 / (2.0 * ARS_GAMMA)
# the largest rho_ref / rho at which the frozen-density split is stable at
# every dt: on rho u_t = D_I u_xx + D_E u_xx, D_I implicit and D_E explicit,
# ARS(2,2,2) damps every mode at every dt iff -1 <= D_E / D_I <= 3 - 2 sqrt(2),
# and here D_E / D_I = rho_ref / rho - 1
ARS_SPLIT_RATIO = 4.0 - 2.0 * math.sqrt(2.0)


class CFLViolation(RuntimeError):
    pass


class PositivityLoss(RuntimeError):
    pass


def check_positive(rho: np.ndarray, t: float) -> None:
    """Raise PositivityLoss unless every density is positive (NaN is not)."""
    if not rho.min() > 0.0:
        raise PositivityLoss(f"density hit zero at t = {t:.6g}")


@dataclass
class SymRunConfig:
    """A relaxation run's settings; the defaults of the CLI's run keys too."""

    t_end: float = 200.0
    dt: float | None = None  # cap; None = pure CFL-driven
    cfl_safety: float = 0.4
    amplitude: float = 0.02
    support: tuple = (1.5, 3.0)
    # about 0.5-1 time units at the advective step of the acceptance grids,
    # so a t = 200 run keeps hundreds of samples for the envelope gate
    output_every: int = 15
    decay_target: float = 10.0
    reform_every: int = 0  # check the linearised-form residual every k steps

    def __post_init__(self):
        # written as not (x > 0) so that NaN is rejected too
        if not (self.t_end > 0.0 and np.isfinite(self.t_end)):
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        if self.dt is not None and not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not self.cfl_safety > 0.0:
            raise ValueError(f"cfl_safety must be positive, got {self.cfl_safety}")
        if not np.isfinite(self.amplitude):
            raise ValueError(f"amplitude must be finite, got {self.amplitude}")
        # a target below 1 passes a run that did not decay
        if not (self.decay_target >= 1.0 and np.isfinite(self.decay_target)):
            raise ValueError(f"decay_target must be finite and at least 1, "
                             f"got {self.decay_target}")
        if self.output_every < 1:
            raise ValueError(f"output_every must be at least 1, got {self.output_every}")
        if self.reform_every < 0:
            raise ValueError(f"reform_every must be at least 0, got {self.reform_every}")


def _floatwise(fn, x):
    """fn(x) of a float, or fn of each entry of an array in Python float
    arithmetic.  numpy's vectorised pow, exp and log round some arguments
    differently from the C library's, so the far-end arithmetic of both
    geometries goes through this one path."""
    if isinstance(x, float):
        return fn(x)
    return np.fromiter(map(fn, x.tolist()), float, x.size)


def tridiagonal_solver(d, e):
    """solve(b) for the symmetric tridiagonal matrix with diagonal d and
    off-diagonal e: LAPACK's LDL^T (pttrf/pttrs), in place of d and e, when
    it is real, which must be positive definite, and LU (gttrf/gttrs) when
    it is complex.  b may hold several right-hand sides as columns."""
    if np.iscomplexobj(d):
        *lu, info = lapack.zgttrf(e, d, e)
        solve = lapack.zgttrs
    else:
        *lu, info = lapack.dpttrf(d, e, overwrite_d=True, overwrite_e=True)
        solve = lapack.dpttrs
    if info != 0:
        raise np.linalg.LinAlgError(f"implicit viscous factor failed (info = {info})")
    return lambda b: solve(*lu, b, overwrite_b=True)[0]


def banded_jacobian(residual, z: np.ndarray, f: np.ndarray, lower: int, upper: int):
    """The finite-difference Jacobian at z of residual, f = residual(z), whose
    row i depends on z[i - lower..i + upper] alone, in `solve_banded`'s
    layout.  Columns width = lower + upper + 1 apart share no row, so such a
    colour takes one residual; column j moves rows j - upper..j + lower, its
    band column, so the colour's rows, zero past either end, are its block."""
    width, n = lower + upper + 1, z.size
    step = 1.5e-8 * np.maximum(np.abs(z), 1.0)
    band = np.zeros((width, n))
    for k in range(width):
        zk = z.copy()
        zk[k::width] += step[k::width]
        rows = np.zeros(band[:, k::width].size)  # rows k - upper, k - upper + 1, ...
        i0, i1 = max(k - upper, 0), min(k - upper + rows.size, n)
        rows[i0 - k + upper:i1 - k + upper] = (residual(zk) - f)[i0:i1]
        band[:, k::width] = (rows.reshape(-1, width) / (zk - z)[k::width, None]).T
    return band


class ViscousLine:
    """One velocity component's radial viscous rows R = diag(1/sigma) S
    diag(kappa) on the interior nodes 1..n-2, S the symmetric tridiagonal of
    the face conductances cond (S_{i,i+1} = cond_{i+1/2}, S_ii = -(cond_{i-1/2}
    + cond_{i+1/2})); the wall and far rows are empty.

    An implicit stage solves (rho_ref - a R) v = b for v = m / rho_ref, the
    end values of v given.  Scaled by sigma and written for q = kappa v it is
    the symmetric positive definite (sigma rho_ref / kappa - a S) q = sigma b
    plus S's end columns.  sigma (interior), kappa and rho_ref (every node)
    are radial; `scale` and `back` are their columns for a state of ndim
    axes, views that broadcast along its trailing axes.
    """

    def __init__(self, sigma, kappa, cond, rho_ref, ndim: int):
        self.sigma, self.kappa, self.cond, self.rho_ref = sigma, kappa, cond, rho_ref
        column = (-1,) + (1,) * (ndim - 1)
        self.scale = sigma.reshape(column)
        self.back = (rho_ref[1:-1] / kappa[1:-1]).reshape(column)  # m = back q
        self.ends = float(cond[0] * kappa[0]), float(cond[-1] * kappa[-1])
        c, k = cond, kappa
        self.d_rest = sigma * rho_ref[1:-1] / kappa[1:-1]
        self.d_visc = c[:-1] + c[1:]
        # R's three diagonals on the interior rows
        self.lo = c[:-1] * k[:-2] / sigma
        self.mid = -self.d_visc * k[1:-1] / sigma
        self.up = c[1:] * k[2:] / sigma
        self._out, self._term = np.empty(self.lo.shape), np.empty(self.lo.shape)

    def rows(self):
        """R as a sparse (n, n) CSR matrix."""
        n = self.kappa.size
        rows = np.repeat(np.arange(1, n - 1), 3)
        cols = rows + np.tile([-1, 0, 1], n - 2)
        vals = np.column_stack([self.lo, self.mid, self.up]).ravel()
        return sparse.csr_array((vals, (rows, cols)), shape=(n, n))

    def apply(self, f):
        """R f on the interior rows, summed in the order of a CSR row of
        `rows()`, so it has the bits of the sparse product; the next call
        overwrites it."""
        out, term = self._out, self._term
        np.multiply(self.lo, f[:-2], out)
        out += np.multiply(self.mid, f[1:-1], term)
        out += np.multiply(self.up, f[2:], term)
        return out

    def diagonals(self, a):
        """(d, e) of sigma rho_ref / kappa - a S on the interior nodes: d =
        d_rest + a d_visc."""
        return self.d_rest + a * self.d_visc, -a * self.cond[1:-1]

    def load(self, m_star, v_wall, v_far, a):
        """The scaled right-hand side: sigma m_star on the interior rows plus
        a S's columns of the end values of v."""
        b = self.scale * m_star[1:-1]
        b[0] += (a * self.ends[0]) * v_wall
        b[-1] += (a * self.ends[1]) * v_far
        return b


def odd_even_content(rho: np.ndarray) -> float:
    """Amplitude of the grid-scale (odd-even) density mode along r: the
    fourth difference max |rho_{i-2} - 4 rho_{i-1} + 6 rho_i - 4 rho_{i+1}
    + rho_{i+2}| / 16, which is 1 on a pure (-1)^i mode and O(h^4) on
    smooth data."""
    d4 = rho[:-4] - 4.0 * rho[1:-3] + 6.0 * rho[2:-2] - 4.0 * rho[3:-1] + rho[4:]
    return float(np.max(np.abs(d4))) / 16.0


class RadialScheme:
    """What both solvers share: the profile, the fluid, the radial
    finite-volume grid constants, the radial viscous rows K, the continuity
    row, the boundary rows and conditions and the ARS(2,2,2) step.

    K's interior rows are the `ViscousLine` K_line and its truncation row the
    sparse K_far; each other grid constant is built once, from the expression
    the right-hand side would evaluate per call, in the state's shape, lifted
    along the state's trailing axes by `self.ops.lift`, so a subclass sets
    `ops` before calling this constructor.  `r`, the radial nodes, is lifted
    too; `ops.r` keeps the nodes themselves.  The CFL cell `h_cell` and its
    square `h_cfl2` are the radial `h` here; a subclass with more axes
    overrides both.  `step` advances U = (rho, m_1, ..., m_k), m_i = rho u_i
    for each entry of `state.velocity`, as one (1 + k, *state shape) array.
    A subclass supplies `rhs(state, split)` returning its rates as one fresh
    array of that shape (split=True leaves out the implicit viscous rows),
    `_advective_limit`, `cfl_dt`, `state_of(rho, u)`, the state of a radial
    profile, `lines`, the `ViscousLine` of each velocity component, and
    `_factor(a)`, the solve of each component's implicit system at a = gamma dt.
    """

    def __init__(self, profile: SteadyProfile, params: FluidParams, forcing=None):
        if params.dim_n != 3:
            raise ValueError("the evolution solver is three-dimensional")
        self.profile = profile
        self.params = params
        self.forcing = forcing
        self.visc = 2.0 * params.mu + params.lam
        far_state = float(profile.rho_t[-1]), float(profile.u_t[-1])
        self.bc_far = lambda t: far_state
        lift = self.ops.lift
        r = profile.grid.nodes
        dr = np.diff(r)
        self.r = lift(r)
        r_face = 0.5 * (r[:-1] + r[1:])
        edges = np.concatenate([[r[0]], r_face, [r[-1]]])
        self.dual_vol = lift((edges[2:-1] ** 3 - edges[1:-2] ** 3) / 3.0)
        rf2 = r_face**2
        self.dr_pair = lift(r[2:] - r[:-2])  # centred pressure gradient
        # Rhie-Chow weights r_f^2 d_f / dr_f and r_f^2 d_f / 2 on faces
        # 1..M-2, with d_f = beta dr_f / c_f from the profile's sound speed
        c = sound_speed(profile.rho_t, params)
        d_face = RHIE_CHOW_BETA * dr[1:-1] / (0.5 * (c[1:-2] + c[2:-1]))
        self.rc_p = lift(rf2[1:-1] * d_face / dr[1:-1])
        self.rc_g = lift(rf2[1:-1] * d_face * 0.5)
        # face weights and dual volumes over a raveled stack of up to three
        # fields, w entries a node; a pair across two fields weighs 0
        w = self._stride = self.r[0].size
        face_w, dual_vol = np.zeros((3,) + self.r.shape), np.ones((3,) + self.r.shape)
        face_w[:, :-1], dual_vol[:, 1:-1] = lift(rf2 * 0.5), self.dual_vol
        self._face_w, self._dual_vol = face_w.reshape(-1)[:-w], dual_vol.reshape(-1)[w:-w]
        # the pressure, G and the Rhie-Chow gap, which never leave `rhs`
        self._prs, self._grad = np.empty(self.r.shape), np.empty(self.dr_pair.shape)
        self._gap, self._mean = np.empty(self.rc_p.shape), np.empty(self.rc_p.shape)
        # CFL cell size: the smaller of the two intervals at each node
        h = np.minimum(np.concatenate([dr[:1], dr]), np.concatenate([dr, dr[-1:]]))
        self.h = self.h_cell = lift(h)
        self.h_cfl2 = lift(h**2)
        # second-order one-sided first derivative at the wall, closed form
        h1, h2 = r[1] - r[0], r[2] - r[0]
        self.wall_w = (-(h1 + h2) / (h1 * h2), h2 / (h1 * (h2 - h1)),
                       -h1 / (h2 * (h2 - h1)))
        self.wall_r2, self.wall_rr = float(r[0] ** 2), tuple((r[:3] ** 2).tolist())
        # the truncation row's third-order one-sided stencils: d_r on the last
        # 4 nodes, as floats, and (2 mu + lam)(d_rr + (2/r) d_r - 2/r^2) on 5
        d1 = fornberg_weights(r[-1], r[-4:], 1)[1]
        visc_w = fornberg_weights(r[-1], r[-5:], 2)[2]
        visc_w[1:] += 2.0 / r[-1] * d1
        visc_w[-1] -= 2.0 / r[-1] ** 2
        self.far_d1 = tuple(d1.tolist())
        self.far_2_r = 2.0 / float(r[-1])
        # K, the radial viscous rows: (2 mu + lam) d_r[(r^2 u)_r / r^2] in flux
        # form inside, sigma the dual-cell widths and kappa = r^2, the
        # one-sided stencil at the truncation node (part of s_m in
        # `far_rates`, always explicit) and nothing at the wall.  The implicit
        # rows hold their density at the profile's, rho_ref.
        n = r.size
        self.inv_rho_ref = lift(1.0 / profile.rho_t)
        self.K_line = ViscousLine(np.diff(r_face), r**2, self.visc / (rf2 * dr),
                                  profile.rho_t, self.r.ndim)
        far_w = self.visc * visc_w
        self.far_w = tuple(far_w.tolist())
        self.K_far = sparse.csr_array((far_w, ([n - 1] * 5, range(n - 5, n))), (n, n))
        self._factor_a, self._solves = None, None
        # c = c_coeff rho^c_exp; the Riemann invariants are u -+ inv_a rho^c_exp
        # = u -+ 2c/(gamma-1), or u -+ inv_a log(rho) at gamma = 1
        self.c_coeff = float(np.sqrt(params.gamma * params.k_pressure))
        self.c_exp = p = 0.5 * (params.gamma - 1.0)
        self.inv_a = self.c_coeff / p if p else self.c_coeff
        self._c_pow = lambda v: v ** p
        self._inv_density = self._c_pow if p else math.log  # `_invariant` / inv_a
        self._density = (lambda v: v ** (1.0 / p)) if p else math.exp  # its inverse

    @property
    def K(self):
        """The radial viscous rows as one sparse (N, N) matrix."""
        return (self.K_line.rows() + self.K_far).tocsr()

    def _radial_rates(self, g, rho):
        """(F, raveled face fluxes, p, G) of the stack g = (m_1, m u_1), m_1 =
        rho u_1 the radial momentum, and of the pressure p of rho.

        F holds -(1/r^2)(r^2 F)_r on the interior nodes of the face fluxes
        r_f^2 (g_i + g_{i+1})/2 of each row of g: the continuity row, then the
        radial advection of each momentum.  On faces 1..M-2 the continuity
        flux carries the Rhie-Chow correction -r_f^2 d_f ((p_{i+1} - p_i)/dr_f
        - (G_i + G_{i+1})/2), G = (p_{i+1} - p_{i-1}) / (r_{i+1} - r_{i-1})
        the centred pressure gradient, which the momentum row uses too.  The
        wall row of rho_t is -(r^2 m_1)_r / r^2 by one-sided into-domain
        differences; the caller sets the other end rows.
        """
        prs = pressure_unchecked(rho, self.params, self._prs)
        grad = np.subtract(prs[2:], prs[:-2], self._grad)
        grad /= self.dr_pair
        w = self._stride
        flat = g.reshape(-1)
        flux = flat[:-w] + flat[w:]
        flux *= self._face_w[:flux.size]
        gap = np.subtract(prs[2:-1], prs[1:-2], self._gap)
        gap *= self.rc_p
        mean = np.add(grad[:-1], grad[1:], self._mean)
        mean *= self.rc_g
        gap -= mean
        flux[w:w + gap.size] -= gap.reshape(-1)
        F = np.zeros(g.shape)
        inner = F.reshape(-1)[w:-w]
        np.subtract(flux[:-w], flux[w:], inner)
        inner /= self._dual_vol[:inner.size]
        m0, m1, m2 = self._rows(g[0, :3], 3)
        (w0, w1, w2), (r0, r1, r2) = self.wall_w, self.wall_rr
        F[0, 0] = -(w0 * (r0 * m0) + w1 * (r1 * m1) + w2 * (r2 * m2)) / self.wall_r2
        return F, flux, prs, grad

    def _rows(self, f: np.ndarray, k: int):
        """The last k radial rows of f, as the arithmetic at either end takes
        them."""
        return f[-k:]

    def far_rates(self, rho, u, s_rho, s_m):
        """(rho_t, m_t) at the truncation node from the last four rows.

        The outgoing invariant w+ = u + 2c/(gamma-1) advances by
        w+_t = -(u + c) d_r w+ - 2cu/r + (s_m - u s_rho + c s_rho)/rho, s_m
        the momentum source plus the solver's viscous row there, and the
        incoming one w- = u - 2c/(gamma-1) is held (`apply_bc` imposes its
        value), so rho_t = rho w+_t / (2c) and u_t = w+_t / 2.  Plain
        arithmetic on `_rows`: floats for the spherical solver and
        (n_theta,) arrays for the axisymmetric one, with the power taken
        `_floatwise`.
        """
        rho, u = self._rows(rho, 4), self._rows(u, 4)
        a0, a1, a2, a3 = self.far_d1
        rho_n, u_n = rho[3], u[3]
        c = self.c_coeff * _floatwise(self._c_pow, rho_n)
        u_r = a0 * u[0] + a1 * u[1] + a2 * u[2] + a3 * u_n
        rho_r = a0 * rho[0] + a1 * rho[1] + a2 * rho[2] + a3 * rho_n
        speed = u_n + c
        w_t = (-speed * (u_r + c * rho_r / rho_n) - self.far_2_r * c * u_n
               + (s_m + (c - u_n) * s_rho) / rho_n)
        rho_t = 0.5 * rho_n * w_t / c
        return rho_t, rho_t * speed  # m_t = rho u_t + u rho_t

    def _invariant(self, rho):
        """int c(rho)/rho drho, the density part of the Riemann invariants."""
        return self.inv_a * _floatwise(self._inv_density, rho)

    def _sound_speed(self, rho):
        """c(rho) = c_coeff rho^c_exp; raises ValueError on a nonpositive
        density (NaN is not positive)."""
        if not rho.min() > 0.0:
            raise ValueError("density must be positive")
        c = rho ** self.c_exp
        c *= self.c_coeff
        return c

    def _viscous_limit(self, rho) -> float:
        """The explicit viscous limit min h_cfl2 rho / (2 mu + lam)."""
        return float((self.h_cfl2 * rho).min()) / self.visc

    def _remainder_limit(self, rho) -> float:
        """The limit of the explicit viscous remainder: none while
        rho_ref / rho <= ARS_SPLIT_RATIO at every node, the viscous one past
        that."""
        if (rho * self.inv_rho_ref).min() >= 1.0 / ARS_SPLIT_RATIO:
            return math.inf
        return self._viscous_limit(rho)

    def cfl_limits(self, state):
        """(advective, viscous): the advective limit and the explicit viscous
        limit, which together bound an explicit scheme's step.  `cfl_dt`
        takes the advective one with `_remainder_limit`.  Raises ValueError
        on a nonpositive density."""
        return self._advective_limit(state), self._viscous_limit(state.rho)

    def steady_residual(self) -> float:
        """max |rhs| on the profile."""
        rates = self.rhs(self.state_of(self.profile.rho_t, self.profile.u_t))
        return float(np.abs(rates).max())

    def apply_bc(self, state) -> None:
        """Wall: u_r = u_b.  Far end: the incoming invariant w- takes its
        value at bc_far(t) and the outgoing w+ keeps the state's.  No
        tangential velocity at either end."""
        rho_far, u_far = self.bc_far(state.t)
        u_r, *tangential = state.velocity
        u_r[0] = self.params.u_b
        (rho_n,), (u_n,) = self._rows(state.rho, 1), self._rows(u_r, 1)
        w_in = u_far - self._invariant(rho_far)
        w_out = u_n + self._invariant(rho_n)
        u_r[-1] = 0.5 * (w_out + w_in)
        state.rho[-1] = _floatwise(self._density, (w_out - w_in) * (0.5 / self.inv_a))
        for u in tangential:
            u[0] = 0.0
            u[-1] = 0.0

    def step(self, state, dt: float, safety: float = SymRunConfig.cfl_safety,
             limit: float | None = None):
        """One ARS(2,2,2) step; raises on CFL violation or positivity loss.

        With F_E the split rates of `rhs`, F_I the implicit viscous rows and
        a = gamma dt, the density advanced by the explicit tableau alone:
          U2 = U + a F_E(U) + a F_I(U2),
          U3 = U + dt (delta F_E(U) + (1 - delta) F_E(U2)
                       + (1 - gamma) F_I(U2)) + a F_I(U3),
        and U3 is the new state, U = (rho, m_1, ..., m_k) one array, so that
        each stage sum is one array operation per term.  F_I(U2) is recovered
        from the stage-2 solve as (m2 - m2*) / a, so each step evaluates `rhs`
        twice and solves each component's implicit system twice.

        limit is cfl_dt(state, 1.0), which also checks the density of state;
        a caller that has just computed it passes it on.
        """
        if limit is None:
            limit = self.cfl_dt(state, 1.0)
        # slack for a fixed dt on a drifting state; a NaN dt or limit fails too
        if not dt <= safety * limit * 1.05:
            raise CFLViolation(f"dt = {dt:.3e} exceeds {safety:.2f} x {limit:.3e}")
        a = ARS_GAMMA * dt
        u0 = np.array((state.rho,) + tuple(state.rho * v for v in state.velocity))
        f1 = self.rhs(state, split=True)
        u2 = a * f1
        u2 += u0
        s2, m2 = self._implicit_stage(state, state.t + a, u2, a)
        u3, f2 = f1, self.rhs(s2, split=True)  # summed in F_E(U)'s array
        u3 *= dt * ARS_DELTA
        u3 += u0
        f2 *= dt * (1.0 - ARS_DELTA)
        u3 += f2
        u3[1:, 1:-1] += (1.0 - ARS_GAMMA) / ARS_GAMMA * (m2 - u2[1:, 1:-1])
        out, _ = self._implicit_stage(state, state.t + dt, u3, a)
        return out

    def _implicit_stage(self, state, t: float, u, a: float):
        """The stage at time t of the explicit values u = (rho, *m_star): the
        boundary conditions on m_star / rho, then the implicit solve on the
        interior rows.  Returns the stage state and its interior momenta."""
        rho, *m_star = u
        check_positive(rho, t)
        velocity = [np.empty(rho.shape) for _ in m_star]
        for v, ms in zip(velocity, m_star):
            v[-1] = ms[-1] / rho[-1]  # `apply_bc` reads the far node and sets both ends
        st = state.advanced(t, rho, velocity)
        self.apply_bc(st)
        if a != self._factor_a:  # one factorisation per distinct gamma dt
            self._factor_a, self._solves = a, self._factor(a)
        inv = self.inv_rho_ref
        m = []
        for line, solve, ms, v in zip(self.lines, self._solves, m_star, velocity):
            b = line.load(ms, rho[0] * v[0] * inv[0], rho[-1] * v[-1] * inv[-1], a)
            mi = line.back * solve(b)
            np.divide(mi, rho[1:-1], v[1:-1])
            m.append(mi)
        return st, m


class SymSolver(RadialScheme):
    """Method-of-lines radial solver bound to a steady profile."""

    def __init__(self, profile: SteadyProfile, params: FluidParams, forcing=None):
        self.ops = SymOps(profile.grid, params.dim_n)
        super().__init__(profile, params, forcing)
        self.lines = (self.K_line,)
        self._remainder = np.empty(self.r.shape)

    def rhs(self, state: SymState, split: bool = False):
        """(rho_t, m_t) with m = rho u, one fresh (2, N) array; boundary nodes
        handled one-sided.

        split=True, the stage rates of `step`, leaves out the implicit part
        K(m / rho_ref) of the interior viscous rows, so they carry the
        remainder K(u - m / rho_ref), and skips the positivity scan: a
        stage's density is already scanned.
        """
        rho, u = state.rho, state.u_rad
        if not split:
            check_positive(rho, state.t)
        g = np.empty((2,) + rho.shape)  # (m, m u)
        m = np.multiply(rho, u, g[0])
        np.multiply(m, u, g[1])
        rates, _, _, grad = self._radial_rates(g, rho)
        rho_t, m_t = rates[0], rates[1]
        m_t[1:-1] -= grad
        e = self._remainder  # u - m / rho_ref, if split
        e = np.subtract(u, np.multiply(m, self.inv_rho_ref, e), e) if split else u
        m_t[1:-1] += self.K_line.apply(e)
        # K's truncation row, summed as a CSR row: the source of `far_rates`
        f0, f1, f2, f3, f4 = self.far_w
        u0, u1, u2, u3, u4 = u[-5:].tolist()
        s_rho, s_m = 0.0, f0 * u0 + f1 * u1 + f2 * u2 + f3 * u3 + f4 * u4
        if self.forcing is not None:
            f_rho, f_m = self.forcing(state.t, self.r)
            rho_t += f_rho
            m_t += f_m
            s_rho, s_m = f_rho[-1], s_m + f_m[-1]
        m_t[0] = 0.0
        rho_t[-1], m_t[-1] = self.far_rates(rho, u, s_rho, s_m)
        return rates

    def _rows(self, f: np.ndarray, k: int):
        return f[-k:].tolist()  # Python floats: faster than numpy scalars

    def _factor(self, a: float):
        return [tridiagonal_solver(*self.K_line.diagonals(a))]

    def _advective_limit(self, state: SymState) -> float:
        """min h / (|u| + c)."""
        speed = np.abs(state.u_rad)
        speed += self._sound_speed(state.rho)
        return float(np.divide(self.h_cell, speed, speed).min())

    def cfl_dt(self, state: SymState, safety: float) -> float:
        """safety x the advective and the remainder limit."""
        return safety * min(self._advective_limit(state), self._remainder_limit(state.rho))

    def mass_balance(self, state: SymState):
        """Rate of change of the finite-volume mass vs boundary fluxes."""
        rates, flux, *_ = self._radial_rates((state.rho * state.u_rad)[None], state.rho)
        interior = float(np.sum(self.dual_vol * rates[0, 1:-1]))
        boundary = float(flux[0] - flux[-1])
        return interior, boundary

    def state_of(self, rho: np.ndarray, u: np.ndarray) -> SymState:
        """The state of a radial density and velocity (copies)."""
        return SymState(0.0, self.profile.grid, rho.copy(), u.copy())

    def equilibrium(self) -> SteadyProfile:
        """The scheme's own stationary state: a fixed point of `step` up to
        round-off, by Newton's method from the profile.

        Unknowns: rho at every node and u at the interior ones, node by node,
        so the finite-difference Jacobian is banded and takes one rhs per
        colour of columns that share no row; u is u_b at the wall and keeps
        the incoming invariant of bc_far(0) at the far end.  Stops at
        max|rhs| <= 1e-13, after 10 steps or once it stops halving, and
        raises NonConvergence unless it is then <= 1e-10.  Returns a profile
        with the collocation derivatives of its fields and max|rhs| as
        residual_rst2.
        """
        grid, u_b = self.profile.grid, self.params.u_b
        rho_far, u_far = self.bc_far(0.0)
        w_in = u_far - self._invariant(rho_far)
        # z holds (rho_i, u_i) node by node, but u at both ends; perm takes
        # its entries from, and puts them into, the raveled stack (rho, u)
        n = self.r.size
        free = np.delete(np.arange(2 * n), [1, 2 * n - 1])
        perm = free % 2 * n + free // 2

        def state(z):
            x = np.empty(2 * n)
            x[perm] = z
            rho, u = x[:n], x[n:]
            u[0], u[-1] = u_b, w_in + self._invariant(rho[-1])
            return SymState(0.0, grid, rho, u)

        def residual(z):
            return self.rhs(state(z)).reshape(-1)[perm]

        # rows reach 4 columns up (the Rhie-Chow flux) and 8 down (the far row)
        lower, upper = 8, 4
        z = np.concatenate((self.profile.rho_t, self.profile.u_t))[perm]
        prev = np.inf
        for it in range(11):
            f = residual(z)
            res = float(np.max(np.abs(f)))
            if res <= 1e-13 or res > 0.5 * prev or it == 10:
                break
            prev = res
            jac = banded_jacobian(residual, z, f, lower, upper)
            z = z - solve_banded((lower, upper), jac, f)
        if not res <= 1e-10:
            raise NonConvergence(it, res, "the scheme's equilibrium did not "
                                 f"converge (iterations={it}, residual={res:.3e})")
        st = state(z)
        rho, u = st.rho, st.u_rad
        d1, d2 = self.ops.d1, self.ops.d2
        return replace(self.profile, rho_t=rho, u_t=u, d_rho=d1(rho), d_u=d1(u),
                       d2_rho=d2(rho), d2_u=d2(u), mass_flux=float(u_b * rho[0]),
                       residual_rst2=res)


@dataclass
class RunResult:
    passed: bool
    reason: str
    decay_factor: float
    corridor_ok: bool
    monitor_uphill: float
    tau_scheme: float
    envelope_ok: bool
    envelope_graded: bool  # enough samples for _envelope_ok to grade
    steps: int
    times: np.ndarray
    sup_series: np.ndarray
    reports: list[EnergyReport]
    final_state: object
    compat: tuple
    mode_series: dict  # ell -> its sampled Legendre amplitude, if measured
    reform_gap: float | None  # worst scaled linearisation gap, if tracked
    reform_checks: int

    def summary(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return (f"{flag} decay={self.decay_factor:.2f} corridor={self.corridor_ok} "
                f"uphill={self.monitor_uphill:.3e} tau={self.tau_scheme:.3e} "
                f"envelope={self.envelope_ok} "
                f"envelope_graded={self.envelope_graded} "
                f"steps={self.steps} ({self.reason})")


_ENVELOPE_WINDOWS = 20
_ENVELOPE_SLACK = 1.05  # the rise a window's maximum may show over the last


def _envelope_graded(times) -> bool:
    """Whether a run sampled often enough for `_envelope_ok` to grade it."""
    return len(times) >= 2 * _ENVELOPE_WINDOWS


def _envelope_ok(times, sups, target: float) -> bool:
    """Windowed maxima must be nonincreasing (within slack) after the peak.

    Enforcement stops once the envelope has fallen below peak/target: the
    monotone-decay claim is about reaching that line, and rattle far beneath
    it, at the round-off floor of the gap to the equilibrium, is not an
    instability.  A run with fewer than two samples per window passes
    ungraded; `_envelope_graded` tells which.
    """
    if not _envelope_graded(times):
        return True
    edges = np.linspace(times[0], times[-1], _ENVELOPE_WINDOWS + 1)
    env = []
    for a, b in zip(edges[:-1], edges[1:]):
        sel = (times >= a) & (times <= b)
        if np.any(sel):
            env.append(np.max(sups[sel]))
    k0 = int(np.argmax(env))
    floor = env[k0] / target  # `SymRunConfig` refuses a target below 1
    for k in range(k0, len(env) - 1):
        if env[k] <= floor:
            break
        if env[k + 1] > _ENVELOPE_SLACK * env[k] and env[k + 1] > floor:
            return False
    return True


def _decay_ratio(times, series, t_end: float) -> float:
    """The peak of a sampled series over its largest value in the last
    tenth of the run, t >= 0.9 t_end: the decay factor every gate grades."""
    tail = np.max(series[times >= 0.9 * t_end])
    return float(np.max(series) / max(tail, 1e-300))


def _relax(solver, state, reference: SteadyProfile, config, measure=None) -> RunResult:
    """Step a perturbed state and grade its gap to the scheme's equilibrium.

    reference is that equilibrium (`SymSolver.equilibrium`), radial in both
    geometries: the axisymmetric scheme reduces to the radial one on
    theta-independent states, so its lift is a fixed point of either step.
    A nonpositive initial density stops the run with PositivityLoss at once.
    Every `output_every` steps and at t_end the relative energy is taken
    against reference, and its `sup_perturbation` is the sampled sup norm;
    measure(state), if given, samples the amplitude of each Legendre mode
    of the density gap (`mode_series`).

    The run's verdict is decided here alone, from one table: decay, the
    density corridor, the energy-balance monitor, then the geometry's own
    criterion, which with a mode series is the decay of each mode carried
    (initial amplitude at least 1e-3 of the largest; the envelope is then
    only reported) and without one the envelope.  passed is their
    conjunction; reason is "decayed" on a pass, else names every miss.

    The monitor's bound tau = MONITOR_C (dt_x + h_min^2) E_peak takes h_min,
    the smallest CFL cell, and dt_x, the step an explicit scheme would take:
    cfl_safety x the advective and the explicit viscous limit of the
    initial state, capped by config.dt.  The implicit viscous rows let the
    run take longer steps, which must not loosen the gate.
    """
    check_positive(state.rho, state.t)
    profile, params = solver.profile, solver.params
    compat = compatibility_residual(state, profile, params)
    solver.apply_bc(state)
    dt_cap = math.inf if config.dt is None else config.dt
    adv, visc = solver.cfl_limits(state)
    dt_x = min(config.cfl_safety * min(adv, visc), dt_cap)

    times, samples, reports = [], [], []
    corridor_ok = True

    def sample(st):
        nonlocal corridor_ok
        times.append(st.t)
        if measure is not None:
            samples.append(measure(st))
        reports.append(relative_energy(st, reference, params))
        corridor_ok = corridor_ok and density_corridor(st, params)

    sample(state)
    steps = 0
    reform_gap = None
    reform_checks = 0
    terms = (reformulation_terms(profile, params, solver.ops)
             if config.reform_every else None)
    while state.t < config.t_end - 1e-12:
        limit = solver.cfl_dt(state, 1.0)
        dt = min(config.cfl_safety * limit, dt_cap, config.t_end - state.t)
        prev = state
        state = solver.step(state, dt, safety=config.cfl_safety, limit=limit)
        steps += 1
        if config.reform_every and steps % config.reform_every == 0:
            res = reformulation_residual(state, prev, dt, terms)
            gap = res.max_gap / (1.0 + res.orig_res)
            reform_gap = gap if reform_gap is None else max(reform_gap, gap)
            reform_checks += 1
        if steps % config.output_every == 0 or state.t >= config.t_end - 1e-12:
            sample(state)

    times = np.asarray(times)
    sups = np.asarray([r.sup_perturbation for r in reports])
    decay = _decay_ratio(times, sups, config.t_end)
    _, uphill = composite_monitor(reports)
    e_peak = max(r.total_relative_energy for r in reports)
    h_min = float(np.min(solver.h_cell))
    tau = MONITOR_C * (dt_x + h_min**2) * max(e_peak, 1e-300)
    env_ok = _envelope_ok(times, sups, target=config.decay_target)
    mode_series = dict(enumerate(np.asarray(samples).T))
    if mode_series:
        largest = max(series[0] for series in mode_series.values())
        own = (all(_decay_ratio(times, series, config.t_end) >= config.decay_target
                   for series in mode_series.values() if series[0] >= 1e-3 * largest),
               "mode decay target missed")
    else:
        own = env_ok, "envelope rose after its peak"
    criteria = ((decay >= config.decay_target, "decay target missed"),
                (corridor_ok, "density corridor broken"),
                (uphill <= tau, "energy monitor above tau"),
                own)
    missed = [what for met, what in criteria if not met]
    return RunResult(
        passed=not missed, reason="; ".join(missed) or "decayed", decay_factor=decay,
        corridor_ok=corridor_ok, monitor_uphill=uphill, tau_scheme=tau, envelope_ok=env_ok,
        envelope_graded=_envelope_graded(times), steps=steps,
        times=times, sup_series=sups, reports=reports, final_state=state, compat=compat,
        mode_series=mode_series, reform_gap=reform_gap, reform_checks=reform_checks,
    )


def run_sym_stability(profile: SteadyProfile, params: FluidParams,
                      config: SymRunConfig) -> RunResult:
    """Integrate a perturbed stationary wave and grade the relaxation run.

    The perturbation is measured against the scheme's own stationary state
    (`SymSolver.equilibrium`), so decay floors reflect the perturbation
    dynamics rather than the O(h^2) gap between the collocation profile and
    the stepper's fixed point.  Passes when the sup-norm decays by the
    target factor with a nonincreasing envelope, the density corridor never
    breaks, and the cumulative energy balance relative to the equilibrium is
    nonincreasing up to scheme tolerance.
    """
    solver = SymSolver(profile, params)
    reference = solver.equilibrium()
    state = perturb_sym(profile, config.amplitude, config.support)
    return _relax(solver, state, reference, config)
