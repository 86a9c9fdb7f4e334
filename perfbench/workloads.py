"""The benchmark workloads: seeded inputs, timed set-up and run, and checks.

Each workload calls the program only through its public functions, looked
up on the `outflow` modules at call time so that the tracer's wrappers see
every call.  A round is one set-up, one run and the checks of that run; the
checks run outside the timed region.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import shutil
import time
from dataclasses import dataclass

import numpy as np

import checks

# acceptance fluid: gamma = 1.4, K = 1, mu = 1, lambda = 0, rho_+ = 1, u_b = -0.05
FLUID = dict(gamma=1.4, k_pressure=1.0, mu=1.0, lam=0.0, rho_plus=1.0,
             u_b=-0.05, dim_n=3)


def _m(name: str):
    return importlib.import_module(f"outflow.{name}")


@dataclass(frozen=True)
class Inputs:
    """Everything a workload draws from its seed."""

    seed: int
    amplitude: float
    support: tuple
    energy_seed: int

    @classmethod
    def draw(cls, seed: int) -> "Inputs":
        rng = np.random.default_rng(seed % 2**32)
        amplitude = 0.02 * float(rng.uniform(0.9, 1.1))
        support = (float(rng.uniform(1.4, 1.6)), float(rng.uniform(2.8, 3.2)))
        return cls(seed, amplitude, support, int(rng.integers(0, 2**31)))


class Round:
    """Outcome of one round: timings and the verdict of each operation."""

    def __init__(self):
        self.setup_s = 0.0
        self.run_s = 0.0
        self.stages: dict[str, float] = {}  # run time of each stage, when it ran
        self.ops: list[tuple[str, str, str]] = []  # (name, ok|wrong|error, detail)
        self.bytes_written = 0

    def record(self, name: str, outcome) -> None:
        ok, detail = outcome
        self.ops.append((name, "ok" if ok else "wrong", detail))

    def fail(self, name: str, detail: str) -> None:
        """The operation itself failed, so there is no output to judge."""
        self.ops.append((name, "error", detail))

    def error(self, name: str, exc: BaseException) -> None:
        self.fail(name, f"{type(exc).__name__}: {exc}")


class Workload:
    """One workload: `setup` and `run` are timed, `check` judges the run.

    `modules` are the program modules whose import counts as set-up;
    `op_names` lists the operations every round attempts, in the order
    `check` records them.
    """

    name: str
    modules: tuple
    op_names: tuple

    def __init__(self, inputs: Inputs, workdir: str):
        self.inputs = inputs
        self.workdir = workdir

    def prepare(self) -> None:
        """Untimed work before each round."""


class RelaxSym(Workload):
    """Spherical relaxation run at the acceptance configuration, to t = 5."""

    name = "relax_sym"
    modules = ("outflow", "outflow.evolve_sym")
    op_names = ("graded_run", "mass_flux", "relaxation", "reform_gap", "mass_balance",
                "energy_drops")
    T_END = 5.0
    DECAY = 10.0

    def setup(self):
        es, st = _m("evolve_sym"), _m("states")
        params = _m("params").FluidParams(**FLUID)
        grid = _m("grids").RadialGrid.uniform(100.0, 1023)
        profile = _m("steady").solve_steady(params, grid, tol=1e-8)
        solver = es.SymSolver(profile, params)
        _m("discrete").SymOps(grid, params.dim_n)  # operators of the reformulation check
        state = st.perturb_sym(profile, self.inputs.amplitude, self.inputs.support)
        solver.apply_bc(state)
        st.compatibility_residual(state, profile, params)
        cfg = es.SymRunConfig(t_end=self.T_END, amplitude=self.inputs.amplitude,
                              support=self.inputs.support, output_every=250,
                              decay_target=self.DECAY, reform_every=10)
        return params, profile, solver, cfg

    def run(self, ctx, stages, tracer=None):
        params, profile, _, cfg = ctx
        return _m("evolve_sym").run_sym_stability(profile, params, cfg)

    def check(self, ctx, res, rnd: Round) -> None:
        params, profile, solver, cfg = ctx
        rnd.record("graded_run", (res.passed, res.summary()))
        rnd.record("mass_flux", checks.mass_flux(profile.r, profile.rho_t, profile.u_t))
        reps = res.reports
        h_min = float(np.min(np.diff(profile.r)))
        tau = _m("evolve_sym").MONITOR_C * (cfg.t_end / res.steps + h_min**2) * max(
            r.total_relative_energy for r in reps)
        rnd.record("relaxation", checks.sym_relaxation(
            res.times, res.sup_series, self.DECAY, res.corridor_ok,
            res.final_state.rho, params.rho_plus, *_balance(reps), tau))
        rnd.record("reform_gap", checks.reform_gap(
            res.reform_gap, res.reform_checks, res.steps // cfg.reform_every))
        rnd.record("mass_balance", checks.mass_balance(*solver.mass_balance(res.final_state)))
        rnd.record("energy_drops", checks.energy_drops(
            reps[0].total_relative_energy, reps[-1].total_relative_energy))


class RelaxAxi(Workload):
    """Axisymmetric l = 1 relaxation run on 128 x 32 cells, to t = 3."""

    name = "relax_axi"
    modules = ("outflow", "outflow.evolve_sym", "outflow.evolve_axi")
    op_names = ("graded_run", "decay", "reform_gap", "reduction", "mass_balance")
    T_END = 3.0
    DECAY = 5.0

    def setup(self):
        ea, st = _m("evolve_axi"), _m("states")
        params = _m("params").FluidParams(**FLUID)
        grid = _m("grids").RadialGrid.uniform(20.0, 127)
        agrid = _m("grids").AngularGrid(n_cells=32)
        profile = _m("steady").solve_steady(params, grid, tol=1e-8)
        # the viscous self-check runs once per process; re-arm it so every
        # round pays what a fresh process pays
        if hasattr(ea, "_SELFCHECK_DONE"):
            ea._SELFCHECK_DONE = False
        solver = ea.AxiSolver(profile, params, agrid)
        twin = _m("evolve_sym").SymSolver(profile, params)
        state = st.perturb_axi(profile, agrid, self.inputs.amplitude,
                               self.inputs.support, ell=1)
        solver.apply_bc(state)
        st.compatibility_residual(state, profile, params)
        cfg = ea.AxiRunConfig(t_end=self.T_END, amplitude=self.inputs.amplitude,
                              support=self.inputs.support, mode_ell=1,
                              output_every=400, decay_target=self.DECAY,
                              reform_every=10)
        return params, profile, agrid, solver, twin, cfg

    def run(self, ctx, stages, tracer=None):
        params, profile, agrid, _, _, cfg = ctx
        return _m("evolve_axi").run_axi_stability(profile, params, agrid, cfg)

    def check(self, ctx, res, rnd: Round) -> None:
        params, profile, agrid, solver, twin, cfg = ctx
        rnd.record("graded_run", (res.passed, res.summary()))
        ok_sup, d_sup = checks.decays(res.times, res.sup_series, self.DECAY)
        ok_m1, d_m1 = checks.decays(res.times, res.mode_series[1], self.DECAY, "mode-1")
        rnd.record("decay", (ok_sup and ok_m1, f"{d_sup}; {d_m1}"))
        rnd.record("reform_gap", checks.reform_gap(
            res.reform_gap, res.reform_checks, res.steps // cfg.reform_every))
        st = _m("states")
        rho = profile.rho_t + self.inputs.amplitude * np.exp(-((profile.r - 2.5) / 0.5) ** 2)
        u = profile.u_t.copy()
        nt = agrid.n_cells
        flat = st.SymState(0.0, profile.grid, rho, u)
        ring = st.AxiState(0.0, profile.grid, agrid, np.repeat(rho[:, None], nt, 1),
                           np.repeat(u[:, None], nt, 1), np.zeros((rho.size, nt)))
        rnd.record("reduction", checks.reduction(twin.rhs(flat), solver.rhs(ring)))
        rnd.record("mass_balance", checks.mass_balance(*solver.mass_balance(res.final_state)))


class CliPipeline(Workload):
    """Five subcommands through outflow.cli.main in this process."""

    name = "cli_pipeline"
    modules = ("outflow", "outflow.cli")
    SUBCOMMANDS = ("steady", "evolve-sym", "report", "verify-ops", "verify-energy")
    op_names = SUBCOMMANDS + ("profile_rates", "step_count", "sup_decay",
                              "report_energy", "ops_rows")
    T_END = 5.0
    DT = 1e-3  # below the viscous limit of about 1.9e-3 on this grid
    OPS_SEED = 0

    def __init__(self, inputs: Inputs, workdir: str):
        super().__init__(inputs, workdir)
        self.out = os.path.join(workdir, "out")
        fluid = ["gamma = 1.4", "k_pressure = 1.0", "mu = 1.0", "lambda = 0.0",
                 "rho_plus = 1.0", "u_b = -0.05"]
        lo, hi = inputs.support
        self.steady_conf = self._write("steady.conf", fluid + [
            "r_max = 200.0", "nodes_r = 2048", "grid_kind = geometric"])
        self.sym_conf = self._write("sym.conf", fluid + [
            "r_max = 100.0", "nodes_r = 1023", "grid_kind = uniform",
            f"dt = {self.DT!r}", f"t_end = {self.T_END!r}",
            f"amplitude = {inputs.amplitude!r}", f"support_lo = {lo!r}",
            f"support_hi = {hi!r}", "output_every = 250"])

    def _write(self, name: str, lines: list[str]) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return path

    def _argv(self, sub: str) -> list[str]:
        out = os.path.join(self.out, sub)
        return {
            "steady": ["steady", "--config", self.steady_conf, "--out", out],
            "evolve-sym": ["evolve-sym", "--config", self.sym_conf, "--out", out],
            "report": ["report", "--config", self.sym_conf, "--out", out,
                       "--run-dir", os.path.join(self.out, "evolve-sym")],
            # a seeded corpus fails on some seeds (see CHANGES.md), so the
            # operator table runs on the command's default corpus
            "verify-ops": ["verify-ops", "--out", out, "--seed", str(self.OPS_SEED)],
            "verify-energy": ["verify-energy", "--out", out,
                              "--seed", str(self.inputs.energy_seed)],
        }[sub]

    def prepare(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def setup(self):
        return None

    def run(self, ctx, stages, tracer=None):
        cli = _m("cli")
        codes = {}
        for sub in self.SUBCOMMANDS:
            t0 = time.perf_counter()
            with tracer.span(f"cli.{sub}") if tracer else contextlib.nullcontext():
                codes[sub] = cli.main(self._argv(sub))
            stages[sub] = time.perf_counter() - t0
        return codes

    def check(self, ctx, codes, rnd: Round) -> None:
        manifests = {}
        for sub in self.SUBCOMMANDS:
            path = os.path.join(self.out, sub, "manifest.json")
            manifest = _read_json(path) if os.path.exists(path) else {}
            manifests[sub] = manifest
            if codes[sub] != 0:
                rnd.fail(sub, f"exit {codes[sub]}")
            else:
                rnd.record(sub, (manifest.get("passed") is True,
                                 f"passed {manifest.get('passed')}"))
        rnd.bytes_written = sum(
            os.path.getsize(os.path.join(d, f))
            for d, _, files in os.walk(self.out) for f in files)

        def out(sub, name):
            return os.path.join(self.out, sub, name)

        profile = checks.read_csv(out("steady", "profile.csv"))
        ok_rates, d_rates = checks.profile_rates(profile, FLUID["rho_plus"])
        ok_flux, d_flux = checks.mass_flux(profile["r"], profile["rho_t"], profile["u_t"])
        rnd.record("profile_rates", (ok_rates and ok_flux, f"{d_rates}; {d_flux}"))
        steps = manifests["evolve-sym"].get("criteria", {}).get("steps", -1)
        rnd.record("step_count", checks.step_count(steps, self.T_END, self.DT))
        energy = checks.read_csv(out("evolve-sym", "energy_sym.csv"))
        rnd.record("sup_decay", checks.decays(energy["t"], energy["sup_perturbation"], 10.0))
        report = checks.read_csv(out("report", "energy_report.csv"))
        rnd.record("report_energy", checks.energy_drops(
            float(energy["total_relative_energy"][0]),
            float(report["total_relative_energy"][-1])))
        rnd.record("ops_rows", checks.ops_rows(checks.read_csv(out("verify-ops", "verify_ops.csv"))))


def _balance(reports):
    """Times, energies and dissipation totals of a run's energy reports."""
    t = [r.t for r in reports]
    e = [r.total_relative_energy for r in reports]
    d = [r.viscous_dissipation + r.boundary_H + r.weighted_phi + r.weighted_radial_psi
         for r in reports]
    return t, e, d


def _read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


WORKLOADS = {w.name: w for w in (RelaxSym, RelaxAxi, CliPipeline)}


def play(workload, tracer=None) -> Round:
    """One round: timed set-up and run, then the checks.

    Every round attempts the same operations; one that raises counts as
    failed, and a failed set-up or run fails every operation of its round.
    """
    rnd = Round()
    workload.prepare()
    with tracer if tracer is not None else contextlib.nullcontext():
        try:
            t0 = time.perf_counter()
            ctx = workload.setup()
            t1 = time.perf_counter()
            stages = {}
            res = workload.run(ctx, stages, tracer)
            t2 = time.perf_counter()
        except Exception as exc:
            for name in workload.op_names:
                rnd.error(name, exc)
            return rnd
    rnd.setup_s, rnd.run_s = t1 - t0, t2 - t1
    rnd.stages = stages or {"run": rnd.run_s}
    try:
        workload.check(ctx, res, rnd)
    except Exception as exc:
        for name in workload.op_names[len(rnd.ops):]:
            rnd.error(name, exc)
    return rnd
