"""Axisymmetric (r, theta) integration of the outflow system.

The non-spherical solver shares the radial flux kernels, the radial viscous
matrix K, the wall row, the boundary conditions and the ARS(2,2,2) step of
the spherically symmetric one (`evolve_sym.RadialScheme`): on a
theta-independent state it reproduces that solver's rates and steps bit for
bit.  Angular stencils live on staggered cell centers and close over the
poles by parity; angular advection uses sin(theta)-weighted edge fluxes,
which both telescopes mass exactly and makes the pole faces carry zero flux.

The implicit viscous rows of each velocity component are its radial line
plus its ring operator, R_c (x) I + diag(g_c(r)) (x) L_c, with the mixed
r-theta terms and the first-order u_r-u_theta couplings explicit.  A stage
solves them in the eigenbasis of L_c, one tridiagonal system per angular
mode, but for u_r's first theta column, which takes the radial solver's
factor: on theta-independent data the modal parts are exactly 0, so the
step is the radial one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy import sparse
from scipy.linalg import lapack
from scipy.special import eval_legendre

from .discrete import AxiOps
from .grids import AngularGrid
from .params import FluidParams
from .states import AxiState, perturb_axi
from .steady import SteadyProfile
from .evolve_sym import (
    RadialScheme,
    RunResult,
    SymRunConfig,
    SymSolver,
    ViscousLine,
    _relax,
    check_positive,
    tridiagonal_solver,
)

__all__ = [
    "AxiRunConfig",
    "AxiSolver",
    "run_axi_stability",
    "legendre_amplitudes",
    "COUPLING_K",
    "N_MODES",
]

# the explicit mixed r-theta viscous terms, of weight mu + lam, are damped by
# the implicit ones, of weight 2 mu + lam, while dt <= K rho dr r dtheta
# (2 mu + lam) / (mu + lam)^2.  Power iteration on the linearised viscous
# step puts the stability edge at K = 3.95 to 4.9 on 64 x 16 and 128 x 32
# cells for lam / mu in {0, 1, 2, 5}.
COUPLING_K = 3.5

N_MODES = 5  # a run projects its density gap onto the Legendre modes 0..N_MODES-1


@dataclass
class AxiRunConfig(SymRunConfig):
    decay_target: float = 5.0
    mode_ell: int = 1

    def __post_init__(self):
        super().__post_init__()
        # a mode outside the projection would be graded on aliasing residue
        if not 0 <= self.mode_ell < N_MODES:
            raise ValueError(f"mode_ell must satisfy 0 <= mode_ell < N_MODES = "
                             f"{N_MODES}, got {self.mode_ell}")


def legendre_amplitudes(phi: np.ndarray, agrid: AngularGrid):
    """Legendre-mode content of a (r, theta) scalar: the coefficients of the
    modes 0..N_MODES-1 per radius.

    The raw quadrature projection is corrected by the discrete Gram matrix of
    the sampled polynomials, so a field lying in the resolved mode span
    projects exactly: theta-independent data carry no spurious higher modes.
    """
    theta = agrid.centers
    mu = np.cos(theta)
    w = np.sin(theta) * agrid.dtheta
    p = np.stack([eval_legendre(ell, mu) for ell in range(N_MODES)])
    gram = (p * w) @ p.T
    rhs = (p * w) @ phi.T
    return np.linalg.solve(gram, rhs)


class AxiSolver(RadialScheme):
    """Method-of-lines axisymmetric solver bound to a steady profile.

    Every grid array it multiplies a field by is a C-contiguous array of the
    state's shape (n_r, n_theta), or of its face or interior rows, so no
    operand of the right-hand side is broadcast.
    """

    def __init__(self, profile: SteadyProfile, params: FluidParams,
                 agrid: AngularGrid, forcing=None):
        self.agrid = agrid
        self.ops = ops = AxiOps(profile.grid, agrid)
        super().__init__(profile, params, forcing)
        self.r_sin_dtheta = self.r * ops.sin * agrid.dtheta
        self.visc_split = self._viscous_operator()
        self._modes = None  # the rings' mode systems, built at the first step
        self.h_cell = np.minimum(self.h, self.r * agrid.dtheta)
        self.h_cfl2 = self.h_cell**2
        mu_lam = params.mu + params.lam  # the coupling limit is couple_h2 x rho
        self.couple_h2 = COUPLING_K * self.h * self.r * agrid.dtheta * self.visc / mu_lam**2
        # theta face weights sin(theta_face) / 2 over the raveled pairs
        # (k, k + 1) of a stack of up to three fields; the last pair of each
        # row straddles two rows and weighs 0
        face_w = np.zeros(self.r.shape)
        face_w[:, :-1] = np.sin(agrid.nodes)[1:-1] * 0.5
        self.theta_face_w = np.tile(face_w.ravel(), 3)[:-1]
        self._x = np.empty((6,) + self.r.shape)  # the operand of `visc_split`

    # -- angular flux divergence: (1/(r sin)) d_theta(sin q u_theta) ---------
    def _theta_flux_div(self, q: np.ndarray, u_theta: np.ndarray) -> np.ndarray:
        """Edge fluxes over the raveled q u_theta, q one field or a stack of
        up to three: flux[k] lies between its entries k - 1 and k.  Those at
        the ends of each row are pole faces, or pair two rows, and are set to
        +0, as a pole face carries no flux."""
        g = np.ravel(q * u_theta)
        flux = np.empty(g.size + 1)
        inner = flux[1:-1]
        np.add(g[:-1], g[1:], out=inner)
        inner *= self.theta_face_w[:inner.size]
        flux[::self.agrid.n_cells] = 0.0
        return (flux[1:] - flux[:-1]).reshape(q.shape) / self.r_sin_dtheta

    def _viscous_operator(self):
        """The viscous rows as one CSR matrix [V_I, V_E] on [e, x], x = [u_r,
        u_theta, w] with w = `ops.d_theta(u_r, parity=1)`, and e the same of
        the remainder u - m / rho_ref.  V = V_I + V_E; with
        a = d_theta(sin u_theta) / (r sin) it is
          radial: K u_r + mu (d_theta(sin w) / sin - 2 d_theta u_theta
                  - 2 cot u_theta) / r^2 + (mu + lam) d_r a,
          polar:  mu (L u_theta + (d_theta(sin d_theta u_theta) / sin - u_theta / sin^2
                  + 2 w) / r^2) + (mu + lam) (d_theta a + d_r(r^2 w) / r^2) / r,
        L the flux-form (1/r^2) d_r(r^2 d_r), the other d_r collocation stencils.
        V_I, the implicit rows, holds each component's radial line and ring
        operator on the interior nodes (`lines` and `rings`): K u_r and
        mu d_theta(sin w) / sin / r^2, and the u_theta terms of the polar row.
        V_E holds the rest: the truncation row and the u_theta terms of the
        radial rows, the w terms of the polar rows.  The wall rows and the far
        polar row are empty; the far radial row is the source of `far_rates`.

        w is exactly 0 on theta-independent data, so there the polar rows sum
        zeros and the radial rows sum K's entries in K's order.  The ring
        matrices, n_theta x n_theta, are kept for the implicit solve.
        """
        ops, mu, mu_lam = self.ops, self.params.mu, self.params.mu + self.params.lam
        r, s, n_t = ops.r, ops.sin, ops.theta.size
        diag, eye_t = sparse.diags_array, sparse.eye_array(n_t)
        kron = partial(sparse.kron, format="csr")  # CSR terms, int32 indices: least memory
        # `ops.d_theta` of each parity as a matrix, from the rows of the identity
        dp, dm = (sparse.csr_array(ops.d_theta(np.eye(n_t), parity).T) for parity in (1, -1))
        div_t = diag(1.0 / s) @ dp @ diag(s)  # d_theta(sin f) / sin
        ring_r = (div_t @ dp).toarray()
        ring_t = (mu * (diag(1.0 / s) @ dm @ diag(s) @ dm - diag(1.0 / s**2))
                  + mu_lam * dp @ div_t).toarray()
        d_r = sparse.csr_array((ops.d_r.wts.ravel(),
                                (np.repeat(np.arange(r.size), 3), ops.d_r.idx.ravel())))
        # each term is radial (x) angular; the radial factors zero the dropped rows
        wall = np.r_[0.0, np.ones(r.size - 1)]
        inner, far = np.r_[wall[:-1], 0.0], np.r_[np.zeros(r.size - 1), 1.0]
        r_face = 0.5 * (r[:-1] + r[1:])
        self.lines = (self.K_line,
                      ViscousLine(r[1:-1] ** 2 * self.K_line.sigma, np.ones(r.size),
                                  mu * r_face**2 / np.diff(r), self.profile.rho_t, 2))
        # (g, L) of each component's ring part g (x) L
        self.rings = ((mu * inner / r**2, ring_r), (inner / r**2, ring_t))
        zero = sparse.csr_array((r.size * n_t, r.size * n_t))
        rad_i = [kron(self.K_line.rows(), eye_t), zero, kron(diag(mu * inner / r**2), div_t)]
        rad_e = [kron(self.K_far, eye_t),
                 kron(diag(-2.0 * mu * wall / r**2), dm + diag(ops.cot_row[0]))
                 + kron(mu_lam * diag(wall) @ d_r @ diag(1.0 / r), div_t),
                 kron(diag(mu * far / r**2), div_t)]
        polar_i = [zero, kron(self.lines[1].rows(), eye_t) + kron(diag(inner / r**2), ring_t),
                   zero]
        polar_e = [zero, zero,
                   kron(diag(inner / r**2) @ (2.0 * mu * sparse.eye_array(r.size)
                                              + mu_lam * diag(1.0 / r) @ d_r @ diag(r**2)),
                        eye_t)]
        v = sparse.vstack([sparse.hstack(rad_i + rad_e, format="csr"),
                           sparse.hstack(polar_i + polar_e, format="csr")], format="csr")
        v.eliminate_zeros()
        v.indices, v.indptr = v.indices.astype(np.int32), v.indptr.astype(np.int32)
        return v

    @property
    def V(self):
        """The viscous rows V = V_I + V_E on [u_r, u_theta, w], sparse (2N, 3N)."""
        n = self.visc_split.shape[1] // 2
        return (self.visc_split[:, :n] + self.visc_split[:, n:]).tocsr()

    def _factor(self, a: float):
        """Each component's implicit solve at a, of (M (x) I - a w (x) L) q = b
        with M the scaled radial line (`ViscousLine.diagonals`), w = sigma g /
        kappa and L = S diag(lam) S^-1 the ring.  In L's eigenbasis it is the
        tridiagonal M - a lam_k w for each angular mode k, all solved in one
        tridiagonal solve of the diagonals that `_modal_system` tiles once.
        u_r's first column b0 takes the radial factor of `line.diagonals(a)`,
        the radial solver's arithmetic, lifted, which u_r's ring annihilates,
        and only b - b0 goes through the modes."""
        if self._modes is None:
            self._modes = [_modal_system(line, *ring)
                           for line, ring in zip(self.lines, self.rings)]
        modal = [partial(_modal_solve, tridiagonal_solver(d_rest + a * s, a * e), *basis)
                 for d_rest, s, e, *basis in self._modes]
        radial = tridiagonal_solver(*self.lines[0].diagonals(a))
        return [partial(_split_solve, radial, modal[0]), modal[1]]

    def rhs(self, state: AxiState, split: bool = False):
        """(rho_t, mr_t, mt_t), one fresh (3, n_r, n_theta) array, finished
        by `_close_rates` with the far radial viscous row as its source.

        split=True, the stage rates of `step`, leaves out the implicit part
        V_I(m / rho_ref) of the viscous rows, so V_I carries the remainder
        u - m / rho_ref, and skips the positivity scan: a stage's density is
        already scanned.
        """
        ops, r = self.ops, self.r
        rho, u_r, u_t = state.rho, state.u_r, state.u_theta
        if not split:
            check_positive(rho, state.t)
        q = np.array((rho, rho * u_r, rho * u_t))  # (rho, m_r, m_theta)
        rates, _, prs, grad = self._radial_rates(q * u_r, rho)
        rates -= self._theta_flux_div(q, u_t)
        # x = [e, (u_r, u_theta, w)], e the same of u - m / rho_ref if split
        x = self._x
        x[3], x[4], x[5] = u_r, u_t, ops.d_theta(u_r, parity=1)
        if split:
            e = np.multiply(q[1:], self.inv_rho_ref, x[:2])
            np.subtract(x[3:5], e, e)
            x[2] = ops.d_theta(e[0], parity=1)
        else:
            x[:3] = x[3:]
        visc_r, visc_t = (self.visc_split @ x.reshape(-1)).reshape((2,) + r.shape)
        _, mr_t, mt_t = rates
        mr_t += rho * u_t**2 / r
        mr_t[1:-1] -= grad
        mr_t += visc_r

        mt_t -= rho * u_r * u_t / r
        mt_t -= ops.d_theta(prs, parity=1) / r
        mt_t += visc_t

        return self._close_rates(state, rates, visc_r[-1])

    def _advective_limit(self, state: AxiState) -> float:
        """min h / (|u| + c) on the cell size h = min(dr, r dtheta)."""
        speed = np.hypot(state.u_r, state.u_theta)
        speed += self._sound_speed(state.rho)
        return float(np.divide(self.h_cell, speed, speed).min())

    def _remainder_limit(self, rho) -> float:
        """The split's limit, and that of the explicit mixed terms (`COUPLING_K`)."""
        return min(super()._remainder_limit(rho), float((self.couple_h2 * rho).min()))

    def cfl_dt(self, state: AxiState, safety: float) -> float:
        """safety x the advective and the remainder limit."""
        return safety * min(self._advective_limit(state), self._remainder_limit(state.rho))

    def state_of(self, rho: np.ndarray, u: np.ndarray) -> AxiState:
        """The theta-independent state of a radial density and velocity."""
        return AxiState(0.0, self.profile.grid, self.agrid, self.ops.lift(rho),
                        *self.ops.lift_velocity(u))

    def mass_balance(self, state: AxiState):
        """FV mass rate against boundary fluxes (theta fluxes telescope away)."""
        rates, flux, *_ = self._radial_rates((state.rho * state.u_r)[None], state.rho)
        rho_t = rates[0] - self._theta_flux_div(state.rho, state.u_theta)
        w_ang = self.ops.boundary_w
        interior = float(np.sum((self.dual_vol * rho_t[1:-1]) * w_ang[None, :]))
        boundary = float(np.sum((flux[:w_ang.size] - flux[-w_ang.size:]) * w_ang))
        return interior, boundary


def _modal_system(line: ViscousLine, g: np.ndarray, ring: np.ndarray):
    """(d_rest, s, e, S^-1, S^T): the diagonals d_rest + a s and a e of the
    mode systems M - a lam_k w, w = sigma g / kappa, stacked with zero
    couplings, and the basis maps of the ring L = S diag(lam) S^-1, real when
    its spectrum is real to round-off.  dgeev returns a conjugate pair as the
    real and imaginary parts of its vector; when rounding split the pair off
    a repeated real eigenvalue, those two columns span its real eigenspace."""
    lam, imag, _, vecs, info = lapack.dgeev(ring, compute_vl=0)
    if info != 0:
        raise np.linalg.LinAlgError(f"ring eigendecomposition failed (info = {info})")
    if np.max(np.abs(imag)) > 1e-10 * np.max(np.hypot(lam, imag)):
        first = np.flatnonzero(imag > 0.0)
        lam = lam + 1j * imag
        vecs = vecs.astype(complex)
        vecs[:, first] += 1j * vecs[:, first + 1]
        vecs[:, first + 1] = vecs[:, first].conj()
    w = line.sigma * g[1:-1] / line.kappa[1:-1]
    s = (line.d_visc - lam[:, None] * w).ravel()
    e = np.tile(np.r_[-line.cond[1:-1], 0.0], lam.size)[:-1]
    return np.tile(line.d_rest, lam.size), s, e, np.linalg.inv(vecs), vecs.T


def _modal_solve(solve, to_modes, from_modes, b):
    """q of (M (x) I - a w (x) L) q = b: b's rows in L's eigenbasis, b S^-T,
    taken mode by mode (S^-1 b^T, one contiguous row per mode) through the
    stacked mode systems and back, p S^T."""
    n, n_t = b.shape
    p = solve((to_modes @ b.T).reshape(-1)).reshape(n_t, n).T @ from_modes
    return p.real if np.iscomplexobj(p) else p


def _split_solve(radial, modal, b):
    """`_modal_solve` for u_r, whose ring annihilates the lifted radial solve
    of b's first column b0: b0 takes the radial factor and b - b0 the modes,
    so theta-independent b takes the radial arithmetic plus exact zeros."""
    b0 = np.ascontiguousarray(b[:, 0])
    return modal(b - b0[:, None]) + radial(b0)[:, None]


def run_axi_stability(profile: SteadyProfile, params: FluidParams,
                      agrid: AngularGrid, config: AxiRunConfig) -> RunResult:
    """Integrate a mode-perturbed profile; `_relax` grades the decay of
    each Legendre mode it carries and only reports the envelope."""
    solver = AxiSolver(profile, params, agrid)
    # the radial equilibrium, lifted: the radial scheme is shared, so it is
    # a fixed point of the axisymmetric step too
    reference = SymSolver(profile, params).equilibrium()
    rho_eq = solver.ops.lift(reference.rho_t)
    state = perturb_axi(profile, agrid, config.amplitude, config.support,
                        ell=config.mode_ell)

    def measure(st):
        amp = legendre_amplitudes(st.rho - rho_eq, agrid)
        return np.max(np.abs(amp), axis=1)

    return _relax(solver, state, reference, config, measure)
