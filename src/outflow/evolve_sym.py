"""Explicit time integration of the spherically symmetric outflow system.

Finite-volume mass/momentum update on the radial nodes: interface fluxes on
the dual mesh give exact discrete mass telescoping, the viscous term uses
the (r^2 u)_r / r^2 face form so the stationary profile is a near-fixed
point, and time stepping is a two-stage strong-stability-preserving scheme.
The boundary node evolves the density by one-sided into-domain stencils (no
density condition is needed at an outflow wall) while the velocity is pinned
to u_b; the truncation boundary holds the stationary profile values.

A relaxation run steps an unperturbed twin of the stationary wave beside the
perturbed state.  The twin is stepped by a child process forked for the run
(`_TwinProcess`), so the two lanes use two cores; the child is killed and
reaped when the run fails, and ends by itself once the run closes its pipe.
"""

from __future__ import annotations

import os
import pickle
import signal
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .discrete import SymOps
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
from .steady import SteadyProfile

__all__ = [
    "CFLViolation",
    "PositivityLoss",
    "SymRunConfig",
    "SymSolver",
    "RunResult",
    "run_sym_stability",
    "MONITOR_C",
]

# scheme constant for the energy-balance monitor gate tau = C (dt + h^2) E_peak;
# calibrated once on coarse/fine pairs of the acceptance configuration
MONITOR_C = 25.0


class CFLViolation(RuntimeError):
    pass


class PositivityLoss(RuntimeError):
    pass


def check_positive(rho: np.ndarray, t: float) -> None:
    if (rho <= 0.0).any():
        raise PositivityLoss(f"density hit zero at t = {t:.6g}")


@dataclass
class SymRunConfig:
    t_end: float = 200.0
    dt: float | None = None  # cap; None = pure CFL-driven
    cfl_safety: float = 0.4
    amplitude: float = 0.02
    support: tuple = (1.5, 3.0)
    output_every: int = 250
    decay_target: float = 10.0
    reform_every: int = 0  # check the linearised-form residual every k steps

    def __post_init__(self):
        # written as not (x > 0) so that NaN is rejected too
        if self.dt is not None and not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not self.cfl_safety > 0.0:
            raise ValueError(f"cfl_safety must be positive, got {self.cfl_safety}")
        if self.output_every < 1:
            raise ValueError(f"output_every must be at least 1, got {self.output_every}")
        if self.reform_every < 0:
            raise ValueError(f"reform_every must be at least 0, got {self.reform_every}")


# --- radial discrete pieces shared with the axisymmetric solver -------------
#
# Every grid array these take has the shape of the field it meets (RadialScheme
# builds them so), so no operand is broadcast.


def radial_flux_div(face_w, dual_vol, g):
    """-(1/r^2)(r^2 g)_r in interface-flux form on interior nodes.

    g is the advected quantity times velocity at the nodes; face_w is
    r_face**2 * 0.5.  Returns the divergence on nodes 1..M-1 (zeros at both
    ends, which carry boundary treatment instead) and the face fluxes.
    """
    flux = face_w * (g[:-1] + g[1:])
    out = np.zeros(g.shape)
    out[1:-1] = -(flux[1:] - flux[:-1]) / dual_vol
    return out, flux


def radial_visc_w(r2, dr_rf2, u):
    """Face values of (r^2 u)_r / r^2, the radial viscous stress kernel.

    r2 is r**2 at the nodes and dr_rf2 is dr * r_face**2 on the faces.
    """
    r2u = r2 * u
    return (r2u[1:] - r2u[:-1]) / dr_rf2


def radial_visc_div(dface, w):
    """Derivative of the face kernel back to interior nodes."""
    out_shape = (w.shape[0] + 1,) + w.shape[1:]
    out = np.zeros(out_shape)
    out[1:-1] = (w[1:] - w[:-1]) / dface
    return out


class RadialScheme:
    """What both explicit solvers share: the profile, the fluid, the radial
    finite-volume grid constants, the wall continuity row, the boundary
    conditions and the two-stage SSP step.

    Each grid constant is built once, from the expression the right-hand side
    would otherwise evaluate on every call, so the stepping is bitwise that of
    evaluating it per call.  It is stored in the state's shape, lifted along
    the state's trailing axes by `self.ops.lift`, so a subclass sets `ops`
    before calling this constructor.  `r` and `dr`, the radial nodes and
    intervals, are lifted too; `ops.r` keeps the nodes themselves.  A
    subclass supplies `rhs(state, checked)` returning (rho_t, *m_t), one
    momentum rate per entry of `state.velocity`, and `cfl_dt`.
    """

    def __init__(self, profile: SteadyProfile, params: FluidParams, forcing=None):
        if params.dim_n != 3:
            raise ValueError("the evolution solver is three-dimensional")
        self.profile = profile
        self.params = params
        self.forcing = forcing
        self.visc = 2.0 * params.mu + params.lam
        self.bc_far = lambda t: (profile.rho_t[-1], profile.u_t[-1])
        lift = self.ops.lift
        r = profile.grid.nodes
        dr = np.diff(r)
        self.r = lift(r)
        self.dr = lift(dr)
        r_face = 0.5 * (r[:-1] + r[1:])
        edges = np.concatenate([[r[0]], r_face, [r[-1]]])
        dface = np.diff(edges)[1:-1]
        self.dual_vol = lift((edges[2:-1] ** 3 - edges[1:-2] ** 3) / 3.0)
        self.dface = lift(dface)
        rf2 = r_face**2
        self.r2 = lift(r**2)
        self.rf2 = lift(rf2)
        self.face_w = lift(rf2 * 0.5)
        self.dr_rf2 = lift(dr * rf2)
        self.dr_pair = lift(r[2:] - r[:-2])  # centred pressure gradient
        # CFL cell size: the smaller of the two intervals at each node
        h = np.minimum(np.concatenate([dr[:1], dr]), np.concatenate([dr, dr[-1:]]))
        self.h = lift(h)
        self.h2 = lift(h**2)
        # second-order one-sided first derivative at the wall, closed form
        h1, h2 = r[1] - r[0], r[2] - r[0]
        self.wall_w = (-(h1 + h2) / (h1 * h2), h2 / (h1 * (h2 - h1)),
                       -h1 / (h2 * (h2 - h1)))
        self.wall_r2 = r[0] ** 2

    def wall_continuity(self, m: np.ndarray):
        """rho_t at the outflow wall: -(r^2 m)_r / r^2 by one-sided into-domain
        differences, so no density condition is needed there."""
        r2m = self.r2[:3] * m[:3]
        w0, w1, w2 = self.wall_w
        return -(w0 * r2m[0] + w1 * r2m[1] + w2 * r2m[2]) / self.wall_r2

    def dt_fields(self, state):
        """{"rho_t", "u_t"[, "utheta_t"]}: the time derivatives of the state."""
        rho_t, *m_t = self.rhs(state)
        fields = {"rho_t": rho_t}
        for name, u, mt in zip(("u_t", "utheta_t"), state.velocity, m_t):
            fields[name] = (mt - u * rho_t) / state.rho
        return fields

    def apply_bc(self, state) -> None:
        """Wall: u_r = u_b and no tangential velocity; far end: the profile."""
        rho_far, u_far = self.bc_far(state.t)
        u_r, *tangential = state.velocity
        u_r[0] = self.params.u_b
        state.rho[-1] = rho_far
        u_r[-1] = u_far
        for u in tangential:
            u[0] = 0.0
            u[-1] = 0.0

    def step(self, state, dt: float, safety: float = 0.4,
             limit: float | None = None):
        """One SSP two-stage step; raises on CFL violation or positivity loss.

        limit is cfl_dt(state, 1.0), which also checks the density of state;
        a caller that has just computed it passes it on.
        """
        if limit is None:
            limit = self.cfl_dt(state, 1.0)
        if dt > safety * limit * 1.05:  # slack for a fixed dt on a drifting state
            raise CFLViolation(f"dt = {dt:.3e} exceeds {safety:.2f} x {limit:.3e}")
        # each stage's momentum rho u, formed once for its Euler update and,
        # for the first stage, the final average
        m0 = [state.rho * u for u in state.velocity]
        s1 = self._euler(state, m0, dt)
        self.apply_bc(s1)
        s2 = self._euler(s1, [s1.rho * u for u in s1.velocity], dt)
        rho = 0.5 * (state.rho + s2.rho)
        m = [0.5 * (mk + s2.rho * u2) for mk, u2 in zip(m0, s2.velocity)]
        check_positive(rho, state.t + dt)
        out = state.advanced(state.t + dt, rho, [mk / rho for mk in m])
        self.apply_bc(out)
        return out

    def _euler(self, state, m: list, dt: float):
        """Forward Euler from state, whose momenta are m."""
        rho_t, *m_t = self.rhs(state, checked=True)
        rho = state.rho + dt * rho_t
        check_positive(rho, state.t + dt)
        m = [mk + dt * mt for mk, mt in zip(m, m_t)]
        return state.advanced(state.t + dt, rho, [mk / rho for mk in m])


class SymSolver(RadialScheme):
    """Method-of-lines radial solver bound to a steady profile."""

    def __init__(self, profile: SteadyProfile, params: FluidParams, forcing=None):
        self.ops = SymOps(profile.grid, params.dim_n)
        super().__init__(profile, params, forcing)

    def rhs(self, state: SymState, checked: bool = False):
        """(rho_t, m_t) with m = rho u; boundary nodes handled one-sided.

        checked=True skips the positivity scan of a density that the caller
        has already scanned (the stages of `step` do).
        """
        rho, u = state.rho, state.u_rad
        if not checked:
            check_positive(rho, state.t)
        m = rho * u

        rho_t, _ = radial_flux_div(self.face_w, self.dual_vol, m)
        rho_t[0] = self.wall_continuity(m)
        rho_t[-1] = 0.0  # Dirichlet-to-profile

        m_t, _ = radial_flux_div(self.face_w, self.dual_vol, m * u)
        prs = pressure_unchecked(rho, self.params)
        m_t[1:-1] -= (prs[2:] - prs[:-2]) / self.dr_pair
        w = radial_visc_w(self.r2, self.dr_rf2, u)
        m_t += self.visc * radial_visc_div(self.dface, w)
        m_t[0] = 0.0
        m_t[-1] = 0.0
        if self.forcing is not None:
            s_rho, s_m = self.forcing(state.t, self.r)
            rho_t = rho_t + s_rho
            m_t = m_t + s_m
            rho_t[-1] = 0.0
            m_t[-1] = 0.0
        return rho_t, m_t

    def cfl_dt(self, state: SymState, safety: float) -> float:
        """safety x the advective and viscous limit; raises ValueError on a
        nonpositive density."""
        c = sound_speed(state.rho, self.params)
        adv = self.h / (np.abs(state.u_rad) + c)
        visc = self.h2 * state.rho / self.visc
        return float(safety * min(np.min(adv), np.min(visc)))

    def mass_balance(self, state: SymState):
        """Rate of change of the finite-volume mass vs boundary fluxes."""
        m = state.rho * state.u_rad
        rho_t, flux = radial_flux_div(self.face_w, self.dual_vol, m)
        interior = float(np.sum(self.dual_vol * rho_t[1:-1]))
        boundary = float(flux[0] - flux[-1])
        return interior, boundary

    def steady_residual(self) -> float:
        s = SymState(0.0, self.profile.grid, self.profile.rho_t.copy(),
                     self.profile.u_t.copy())
        rho_t, m_t = self.rhs(s)
        return float(max(np.max(np.abs(rho_t)), np.max(np.abs(m_t))))


@dataclass
class RunResult:
    passed: bool
    reason: str
    decay_factor: float
    corridor_ok: bool
    monitor_uphill: float
    tau_scheme: float
    envelope_ok: bool
    steps: int
    times: np.ndarray
    sup_series: np.ndarray
    reports: list[EnergyReport]
    final_state: object
    compat: tuple
    mode_series: dict = field(default_factory=dict)
    reform_gap: float | None = None  # worst scaled linearisation gap, if tracked
    reform_checks: int = 0

    def summary(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return (f"{flag} decay={self.decay_factor:.2f} corridor={self.corridor_ok} "
                f"uphill={self.monitor_uphill:.3e} tau={self.tau_scheme:.3e} "
                f"envelope={self.envelope_ok} steps={self.steps} ({self.reason})")


def _envelope_ok(times, sups, n_windows: int = 20, slack: float = 1.05,
                 target: float = 10.0) -> bool:
    """Windowed maxima must be nonincreasing (within slack) after the peak.

    Enforcement stops once the envelope has fallen below peak/target: the
    monotone-decay claim is about reaching that line, and rattle at the
    residual twin-gap floor far beneath it is not an instability.
    """
    if len(times) < 2 * n_windows:
        return True
    edges = np.linspace(times[0], times[-1], n_windows + 1)
    env = []
    for a, b in zip(edges[:-1], edges[1:]):
        sel = (times >= a) & (times <= b)
        if np.any(sel):
            env.append(np.max(sups[sel]))
    k0 = int(np.argmax(env))
    floor = env[k0] / max(target, 1.0)
    for k in range(k0, len(env) - 1):
        if env[k] <= floor:
            break
        if env[k + 1] > slack * env[k] and env[k + 1] > floor:
            return False
    return True


# --- the unperturbed twin, stepped in a second process -----------------------
#
# The run writes one request per step and one per sample to the child; the
# child answers each sample request with the twin's time and raw field bytes,
# or with its first failure and the step that raised it.

_STEP, _FETCH = b"s", b"f"
_REQUEST = struct.Struct("<cd")  # kind, dt
_REPLY = struct.Struct("<?qdq")  # failed, step count, t, payload bytes


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _read_exact(fd: int, n: int) -> bytes:
    chunks = []
    while n:
        chunk = os.read(fd, n)
        if not chunk:
            raise EOFError("pipe closed")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def _serve_twin(twin: SymSolver, base: SymState, safety: float,
                requests: int, replies: int) -> None:
    """The child's loop, until its request pipe reaches end of file.

    It steps the twin as the serial run did, `twin.step(base, dt, safety)`,
    so the twin keeps its own CFL and positivity checks; after a failure it
    steps no further, as the serial run stopped there.
    """
    steps, failure = 0, None
    while True:
        try:
            kind, dt = _REQUEST.unpack(_read_exact(requests, _REQUEST.size))
        except EOFError:
            return
        if kind == _STEP:
            steps += 1
            if failure is None:
                try:
                    base = twin.step(base, dt, safety=safety)
                except Exception as exc:
                    failure = (steps, exc)
        elif failure is None:
            payload = base.rho.tobytes() + base.u_rad.tobytes()
            _write_all(replies, _REPLY.pack(False, steps, base.t, len(payload)) + payload)
        else:
            payload = pickle.dumps(failure[1])
            _write_all(replies, _REPLY.pack(True, failure[0], 0.0, len(payload)) + payload)


class _TwinProcess:
    """The twin of a relaxation run, stepped by a forked child process.

    `step(dt)` hands the child the next step and returns at once;
    `fetch(through)` waits for the twin after every step handed over.  Used
    as a context manager: on leaving normally the request pipe is closed, so
    the child ends, and the child is reaped; on leaving by an exception the
    child is killed first.  A parent killed from outside closes the pipe too.
    """

    def __init__(self, twin: SymSolver, base: SymState, safety: float):
        requests_r, requests_w = os.pipe()
        replies_r, replies_w = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child never returns into the caller's code
            code = 1
            try:
                os.close(requests_w)
                os.close(replies_r)
                _serve_twin(twin, base, safety, requests_r, replies_w)
                code = 0
            finally:
                os._exit(code)
        os.close(requests_r)
        os.close(replies_w)
        self.pid, self._requests, self._replies = pid, requests_w, replies_r
        self._grid = base.grid

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            os.kill(self.pid, signal.SIGKILL)
        os.close(self._requests)
        os.close(self._replies)
        os.waitpid(self.pid, 0)

    def step(self, dt: float) -> None:
        _write_all(self._requests, _REQUEST.pack(_STEP, dt))

    def fetch(self, through: int) -> SymState | None:
        """The twin after every step handed over, rebuilt bit for bit.

        If the twin failed at step `through` or earlier, its exception is
        raised here instead; if it failed at a later step, None is returned.
        """
        _write_all(self._requests, _REQUEST.pack(_FETCH, 0.0))
        failed, steps, t, size = _REPLY.unpack(_read_exact(self._replies, _REPLY.size))
        payload = _read_exact(self._replies, size)
        if failed:
            if steps <= through:
                raise pickle.loads(payload) from None
            return None
        fields = np.frombuffer(payload, dtype=np.float64).reshape(2, -1).copy()
        return SymState(t, self._grid, fields[0], fields[1])


def _relax(solver, twin: SymSolver, state, config, measure, h_min: float):
    """Step a perturbed state beside its unperturbed twin and grade the gap.

    The twin starts on the stationary wave and takes the same time steps;
    it is the spherical solver in both geometries (the axisymmetric scheme
    reduces to the radial one on theta-independent states).  It is stepped
    by a child process (`_TwinProcess`) while this one steps the state.  A
    failure of either lane ends the run as the serial loop did: the error of
    the earlier step is raised, the perturbed lane's when both fail in the
    same step, and the child is killed and reaped.  Every `output_every`
    steps and at t_end, measure(state, base) samples the perturbation as a
    list whose first entry is its sup norm.  The result is graded on decay,
    the density corridor and the energy-balance monitor; callers add their
    own criteria.  Returns the result and the samples.
    """
    profile, params = solver.profile, solver.params
    compat = compatibility_residual(state, profile, params)
    base = SymState(0.0, profile.grid, profile.rho_t.copy(), profile.u_t.copy())
    twin.apply_bc(base)
    solver.apply_bc(state)

    times, samples, reports = [], [], []
    corridor_ok = True

    def sample(st, b):
        nonlocal corridor_ok
        z = np.zeros_like(b.rho)
        view = SteadyProfile(grid=profile.grid, params=params, rho_t=b.rho,
                             u_t=b.u_rad, d_rho=z, d_u=z, d2_rho=z, d2_u=z,
                             mass_flux=float(params.u_b * b.rho[0]))
        times.append(st.t)
        samples.append(measure(st, b))
        reports.append(relative_energy(st, view, params,
                                       dt_fields=solver.dt_fields(st)))
        corridor_ok = corridor_ok and density_corridor(st, params)

    sample(state, base)
    steps = 0
    dt_used = []
    reform_gap = None
    reform_checks = 0
    terms = (reformulation_terms(profile, params, solver.ops)
             if config.reform_every else None)
    with _TwinProcess(twin, base, config.cfl_safety) as lane:
        try:
            while state.t < config.t_end - 1e-12:
                limit = solver.cfl_dt(state, 1.0)
                dt = config.cfl_safety * limit
                if config.dt is not None:
                    dt = min(dt, config.dt)
                dt = min(dt, config.t_end - state.t)
                lane.step(dt)
                prev = state
                state = solver.step(state, dt, safety=config.cfl_safety, limit=limit)
                steps += 1
                dt_used.append(dt)
                if config.reform_every and steps % config.reform_every == 0:
                    res = reformulation_residual(state, prev, dt, profile, params,
                                                 terms=terms)
                    gap = res.max_gap / (1.0 + res.orig_res)
                    reform_gap = gap if reform_gap is None else max(reform_gap, gap)
                    reform_checks += 1
                if steps % config.output_every == 0 or state.t >= config.t_end - 1e-12:
                    sample(state, lane.fetch(steps))
        except Exception:
            # a twin failure at step `steps` or earlier would have ended a
            # serial loop, which stepped the twin after the state, first
            lane.fetch(steps)
            raise

    times = np.asarray(times)
    sups = np.asarray([s[0] for s in samples])
    peak = float(np.max(sups))
    tail = float(np.max(sups[times >= 0.9 * config.t_end]))
    decay = peak / max(tail, 1e-300)
    _, uphill = composite_monitor(reports)
    e_peak = max(r.total_relative_energy for r in reports)
    tau = MONITOR_C * (float(np.mean(dt_used)) + h_min**2) * max(e_peak, 1e-300)
    env_ok = _envelope_ok(times, sups, target=config.decay_target)

    ok = (decay >= config.decay_target) and corridor_ok and (uphill <= tau)
    reason = "decayed" if decay >= config.decay_target else "DNF: decay target missed"
    return RunResult(
        passed=ok, reason=reason, decay_factor=decay, corridor_ok=corridor_ok,
        monitor_uphill=uphill, tau_scheme=tau, envelope_ok=env_ok, steps=steps,
        times=times, sup_series=sups, reports=reports, final_state=state,
        compat=compat, reform_gap=reform_gap, reform_checks=reform_checks,
    ), samples


def run_sym_stability(profile: SteadyProfile, params: FluidParams,
                      config: SymRunConfig) -> RunResult:
    """Integrate a perturbed stationary wave and grade the relaxation run.

    An unperturbed twin of the stationary wave is stepped alongside the
    perturbed state with the same time steps, in a second process that the
    run forks and reaps (see `_relax`; a twin failure is raised here as in a
    serial loop and the child is killed), and the perturbation is measured
    as the difference of the two trajectories.  Both converge to
    the scheme's own attractor, so decay floors reflect the perturbation
    dynamics rather than the O(h^2) gap between the collocation profile and
    the stepper's equilibrium.  Passes when the sup-norm decays by the
    target factor with a nonincreasing envelope, the density corridor never
    breaks, and the cumulative energy balance between the twins is
    nonincreasing up to scheme tolerance.
    """
    solver = SymSolver(profile, params)
    state = perturb_sym(profile, config.amplitude, config.support)

    def measure(st, base):
        return [float(np.max(np.hypot(st.rho - base.rho, st.u_rad - base.u_rad)))]

    res, _ = _relax(solver, solver, state, config, measure,
                    h_min=float(np.min(solver.dr)))
    return replace(res, passed=res.passed and res.envelope_ok)
