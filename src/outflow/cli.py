"""Command-line orchestration: subcommand dispatch and run artifacts.

All numeric output is CSV with 17 significant digits so runs are diffable;
the JSON run manifest is written last by atomic rename, and lists every
file the run produced together with its PASS/FAIL verdict.  A run that
stops on an error writes one too, with the exit code and the error.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import sys
import traceback

import numpy as np

from . import __version__
from .config import Config, ConfigError, config_text, parse_config
from .energy import (
    equivalence_constants,
    h_identities,
    potential_energy,
    potential_energy_quadrature,
    relative_energy,
)
from .evolve_axi import AxiRunConfig, CFLViolation, PositivityLoss, run_axi_stability
from .evolve_sym import SymRunConfig, run_sym_stability
from .grids import AngularGrid, RadialGrid
from .opchecks import TailNotConverged, run_verify_ops
from .params import FluidParams
from .states import AxiState, SymState
from .steady import FitWindowTooSmall, NonConvergence, div_u_profile, solve_steady, verify_decay

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_NONCONVERGENCE = 3
EXIT_STABILITY = 4
EXIT_CRITERIA = 5
EXIT_DIAGNOSTIC = 6

_FMT = "%.16e"


def _write_csv(path, header, columns):
    rows = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for row in rows:
            fh.write(",".join(_FMT % v for v in row) + "\r\n")


def _write_rows(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\r\n")


class Manifest:
    def __init__(self, subcommand: str, cfg: Config, out_dir: str):
        self.data = {
            "subcommand": subcommand,
            "config_sha256": hashlib.sha256(config_text(cfg).encode()).hexdigest(),
            "version": __version__,
            "started_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "outputs": [],
            "passed": None,
            "criteria": {},
        }
        self.out_dir = out_dir

    def add(self, name: str) -> str:
        self.data["outputs"].append(name)
        return os.path.join(self.out_dir, name)

    def finish(self, passed: bool, criteria: dict) -> None:
        """Write the manifest; a failed run lists only the outputs it wrote."""
        self.data["passed"] = bool(passed)
        self.data["criteria"] = criteria
        self.data["finished_at"] = datetime.datetime.now(
            datetime.timezone.utc).isoformat()
        missing = [name for name in self.data["outputs"]
                   if not os.path.exists(os.path.join(self.out_dir, name))]
        if passed and missing:
            raise RuntimeError(f"declared output missing: {missing[0]}")
        self.data["outputs"] = [n for n in self.data["outputs"] if n not in missing]
        tmp = os.path.join(self.out_dir, ".manifest.tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.data, fh, indent=2, sort_keys=True,
                      default=_json_scalar)
            fh.write("\n")
        os.replace(tmp, os.path.join(self.out_dir, "manifest.json"))


def _json_scalar(obj):
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _grids(cfg: Config):
    if cfg.grid_kind == "geometric":
        grid = RadialGrid.geometric(cfg.r_max, cfg.nodes_r)
    else:
        grid = RadialGrid.uniform(cfg.r_max, cfg.nodes_r)
    return grid, AngularGrid(n_cells=cfg.nodes_theta)


def _cmd_steady(cfg: Config, man: Manifest) -> int:
    grid, _ = _grids(cfg)
    profile = solve_steady(cfg.params, grid, tol=cfg.steady_tol)
    div1, div2 = div_u_profile(profile)
    _write_csv(
        man.add("profile.csv"),
        ["r", "rho_t", "u_t", "d_rho", "d_u", "d2_rho", "d2_u", "div_u"],
        [profile.r, profile.rho_t, profile.u_t, profile.d_rho, profile.d_u,
         profile.d2_rho, profile.d2_u, div1],
    )
    checks = {}
    m = profile.mass_flux
    if m != 0.0:
        mf = profile.r ** (profile.dim_n - 1) * profile.rho_t * profile.u_t
        checks["mass_flux_rel_dev"] = float(np.max(np.abs(mf - m)) / abs(m))
        checks["mass_flux_ok"] = checks["mass_flux_rel_dev"] <= 1e-10
        checks["rho_increasing"] = bool(np.all(np.diff(profile.rho_t) > 0))
        checks["speed_decreasing"] = bool(np.all(np.diff(np.abs(profile.u_t)) < 0))
        checks["div_positive"] = bool(np.min(div1) > 0)
        checks["div_routes_rel_gap"] = float(
            np.max(np.abs(div1 - div2) / np.max(np.abs(div2))))
    checks["residual"] = profile.residual_rst2
    checks["far_field_gap"] = float(
        abs(profile.rho_t[-1] - cfg.params.rho_plus) / cfg.params.rho_plus)

    lines = [f"mass_flux m = {m:.17g}", f"rho(1) = {float(profile.rho_t[0]):.17g}"]
    rates_ok = True  # a window too short to fit is reported, not failed
    try:
        rep = verify_decay(profile, slope_tol=cfg.slope_tol)
        lines.append(f"fit window: [{rep.window[0]:.6g}, {rep.window[1]:.6g}]")
        for key in rep.slopes:
            ok = abs(rep.slopes[key] - rep.targets[key]) <= rep.tolerances[key]
            rates_ok = rates_ok and bool(ok)
            lines.append(
                f"{key}: slope = {rep.slopes[key]:+.4f}  target = "
                f"{rep.targets[key]:+d}  prefactor_ratio = "
                f"{rep.prefactor_ratio[key]:.4g}  {'PASS' if ok else 'FAIL'}")
        checks["rate_report"] = "written"
        checks["rate_fit"] = rates_ok
    except FitWindowTooSmall as exc:
        lines.append(f"rate fit skipped: {exc}")
        checks["rate_fit"] = f"skipped: {exc}"
    with open(man.add("rate_report.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

    passed = rates_ok and all(checks.get(k, True) for k in
                              ("mass_flux_ok", "rho_increasing",
                               "speed_decreasing", "div_positive"))
    man.finish(passed, checks)
    return EXIT_OK if passed else EXIT_CRITERIA


def _dump_reports(path, reports):
    _write_csv(
        path,
        ["t", "total_relative_energy", "viscous_dissipation", "boundary_H",
         "weighted_phi", "weighted_radial_psi", "sup_perturbation"],
        [[r.t for r in reports],
         [r.total_relative_energy for r in reports],
         [r.viscous_dissipation for r in reports],
         [r.boundary_H for r in reports],
         [r.weighted_phi for r in reports],
         [r.weighted_radial_psi for r in reports],
         [r.sup_perturbation for r in reports]],
    )


def _cmd_evolve_sym(cfg: Config, man: Manifest) -> int:
    grid, _ = _grids(cfg)
    profile = solve_steady(cfg.params, grid, tol=cfg.steady_tol)
    run_cfg = SymRunConfig(
        t_end=cfg.t_end, dt=cfg.dt, cfl_safety=cfg.cfl_safety,
        amplitude=cfg.amplitude, support=(cfg.support_lo, cfg.support_hi),
        output_every=cfg.output_every,
        decay_target=cfg.decay_target if cfg.decay_target is not None else 10.0,
    )
    res = run_sym_stability(profile, cfg.params, run_cfg)
    st: SymState = res.final_state
    _write_csv(man.add("state_sym.csv"),
               ["t", "r", "rho", "u"],
               [np.full_like(st.rho, st.t), st.grid.nodes, st.rho, st.u_rad])
    _dump_reports(man.add("energy_sym.csv"), res.reports)
    with open(man.add("run_log.txt"), "w", encoding="utf-8") as fh:
        fh.write(res.summary() + "\n")
        fh.write(f"compatibility residuals: {res.compat}\n")
    man.finish(res.passed, {
        "decay_factor": res.decay_factor, "corridor": res.corridor_ok,
        "monitor_uphill": res.monitor_uphill, "tau_scheme": res.tau_scheme,
        "envelope": res.envelope_ok, "steps": res.steps,
    })
    return EXIT_OK if res.passed else EXIT_CRITERIA


def _cmd_evolve_axi(cfg: Config, man: Manifest) -> int:
    grid, agrid = _grids(cfg)
    profile = solve_steady(cfg.params, grid, tol=cfg.steady_tol)
    run_cfg = AxiRunConfig(
        t_end=cfg.t_end, dt=cfg.dt, cfl_safety=cfg.cfl_safety,
        amplitude=cfg.amplitude, support=(cfg.support_lo, cfg.support_hi),
        mode_ell=cfg.mode_ell, output_every=cfg.output_every,
        decay_target=cfg.decay_target if cfg.decay_target is not None else 5.0,
    )
    res = run_axi_stability(profile, cfg.params, agrid, run_cfg)
    st: AxiState = res.final_state
    rr, tt = np.meshgrid(st.grid.nodes, st.agrid.centers, indexing="ij")
    _write_csv(man.add("state_axi.csv"),
               ["t", "r", "theta", "rho", "u_r", "u_theta"],
               [np.full(rr.size, st.t), rr.ravel(), tt.ravel(),
                st.rho.ravel(), st.u_r.ravel(), st.u_theta.ravel()])
    _dump_reports(man.add("energy_axi.csv"), res.reports)
    mode_cols = [res.times] + [res.mode_series[ell] for ell in sorted(res.mode_series)]
    _write_csv(man.add("modes_axi.csv"),
               ["t"] + [f"ell_{ell}" for ell in sorted(res.mode_series)],
               mode_cols)
    with open(man.add("run_log.txt"), "w", encoding="utf-8") as fh:
        fh.write(res.summary() + "\n")
        fh.write(f"compatibility residuals: {res.compat}\n")
    man.finish(res.passed, {
        "decay_factor": res.decay_factor, "corridor": res.corridor_ok,
        "monitor_uphill": res.monitor_uphill, "tau_scheme": res.tau_scheme,
        "steps": res.steps,
    })
    return EXIT_OK if res.passed else EXIT_CRITERIA


def _cmd_verify_ops(cfg: Config, man: Manifest) -> int:
    rows = run_verify_ops(seed=cfg.seed)
    _write_rows(man.add("verify_ops.csv"),
                ["check", "value", "tol", "passed", "note"],
                [(r.name, _FMT % r.value,
                  "inf" if np.isinf(r.tol) else _FMT % r.tol,
                  int(r.passed), r.note) for r in rows])
    passed = all(r.passed for r in rows)
    man.finish(passed, {"checks": len(rows),
                        "failures": sum(not r.passed for r in rows)})
    return EXIT_OK if passed else EXIT_CRITERIA


def _cmd_verify_energy(cfg: Config, man: Manifest) -> int:
    rng = np.random.default_rng(cfg.seed)
    rows = []
    worst_quad = 0.0
    worst_iden = 0.0
    for gamma in (1.0, 1.4, 2.0):
        params = FluidParams(gamma=gamma, k_pressure=cfg.params.k_pressure)
        zs = np.linspace(0.4, 2.5, 20)
        xs = np.linspace(0.4, 2.5, 20)
        for z in zs:
            for x in xs:
                closed = float(potential_energy(z, x, params))
                quad = potential_energy_quadrature(z, x, params)
                worst_quad = max(worst_quad,
                                 abs(closed - quad) / (1.0 + abs(closed)))
        zg = rng.uniform(0.4, 2.5, 400)
        xg = rng.uniform(0.4, 2.5, 400)
        res = h_identities(zg, xg, params)
        worst_iden = max(worst_iden, float(max(np.max(np.abs(r)) for r in res)))
        rows.append((f"gamma_{gamma}", "done"))
    c_low, c_high = equivalence_constants(0.5, 2.0, cfg.params)
    checks = {
        "quadrature_rel_err": worst_quad,
        "quadrature_ok": worst_quad <= 1e-8,
        "identities_rel_err": worst_iden,
        "identities_ok": worst_iden <= 1e-6,
        "equivalence_c_low": c_low,
        "equivalence_c_high": c_high,
    }
    _write_rows(man.add("verify_energy.csv"),
                ["check", "value"],
                [(k, v) for k, v in checks.items()])
    passed = bool(checks["quadrature_ok"] and checks["identities_ok"])
    man.finish(passed, checks)
    return EXIT_OK if passed else EXIT_CRITERIA


def _check_nodes(path: str, data, **nodes) -> None:
    """A state dump is only read back onto the grid it was written on."""
    for name, expected in nodes.items():
        if not np.array_equal(data[name], expected):
            raise ConfigError(f"{path}: the dumped {name} nodes are not those "
                              "of the configured grid")


def _cmd_report(cfg: Config, man: Manifest, run_dir: str) -> int:
    grid, agrid = _grids(cfg)
    sym_path = os.path.join(run_dir, "state_sym.csv")
    axi_path = os.path.join(run_dir, "state_axi.csv")
    if os.path.exists(sym_path):
        data = np.genfromtxt(sym_path, delimiter=",", names=True)
        _check_nodes(sym_path, data, r=grid.nodes)
        state = SymState(float(data["t"][0]), grid,
                         np.asarray(data["rho"]), np.asarray(data["u"]))
    elif os.path.exists(axi_path):
        data = np.genfromtxt(axi_path, delimiter=",", names=True)
        rr, tt = np.meshgrid(grid.nodes, agrid.centers, indexing="ij")
        _check_nodes(axi_path, data, r=rr.ravel(), theta=tt.ravel())
        state = AxiState(float(data["t"][0]), grid, agrid,
                         np.asarray(data["rho"]).reshape(rr.shape),
                         np.asarray(data["u_r"]).reshape(rr.shape),
                         np.asarray(data["u_theta"]).reshape(rr.shape))
    else:
        raise ConfigError(f"no state dump (state_sym.csv or state_axi.csv) "
                          f"found under {run_dir!r}")
    profile = solve_steady(cfg.params, grid, tol=cfg.steady_tol)
    rep = relative_energy(state, profile, cfg.params)
    _dump_reports(man.add("energy_report.csv"), [rep])
    man.finish(True, {"source": run_dir})
    return EXIT_OK


def _failed(man: Manifest, code: int, exc: Exception, label: str = "error",
            **detail) -> int:
    """Report an error and record it in the manifest; returns the exit code."""
    print(f"{label}: {exc}", file=sys.stderr)
    man.finish(False, {"exit_code": code, "error": type(exc).__name__,
                       "message": str(exc), **detail})
    return code


def dispatch(subcommand: str, cfg: Config, out_dir: str, run_dir: str = ".") -> int:
    """Run one subcommand; every exit, failed ones included, writes a manifest."""
    os.makedirs(out_dir, exist_ok=True)
    man = Manifest(subcommand, cfg, out_dir)
    try:
        if subcommand == "steady":
            return _cmd_steady(cfg, man)
        if subcommand == "evolve-sym":
            return _cmd_evolve_sym(cfg, man)
        if subcommand == "evolve-axi":
            return _cmd_evolve_axi(cfg, man)
        if subcommand == "verify-ops":
            return _cmd_verify_ops(cfg, man)
        if subcommand == "verify-energy":
            return _cmd_verify_energy(cfg, man)
        if subcommand == "report":
            return _cmd_report(cfg, man, run_dir)
        raise ValueError(f"unknown subcommand {subcommand!r}")
    except ConfigError as exc:
        return _failed(man, EXIT_CONFIG, exc, "config error")
    except NonConvergence as exc:
        return _failed(man, EXIT_NONCONVERGENCE, exc, iterations=exc.iterations,
                       residual=exc.last_residual)
    except (CFLViolation, PositivityLoss) as exc:
        return _failed(man, EXIT_STABILITY, exc)
    except (FitWindowTooSmall, TailNotConverged) as exc:
        return _failed(man, EXIT_DIAGNOSTIC, exc)
    except Exception as exc:
        return _failed(man, EXIT_UNEXPECTED, exc, "unexpected error",
                       traceback=traceback.format_exc())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="outflow",
        description="Exterior-domain compressible outflow laboratory",
    )
    parser.add_argument("subcommand", choices=[
        "steady", "evolve-sym", "evolve-axi", "verify-ops", "verify-energy",
        "report"])
    parser.add_argument("--config", default=None, help="key=value config file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for manufactured-corpus sampling")
    parser.add_argument("--run-dir", default=".",
                        help="input directory for the report subcommand")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config) if args.config else Config()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.seed is not None:
        cfg.seed = args.seed
    try:
        return dispatch(args.subcommand, cfg, args.out, run_dir=args.run_dir)
    except Exception as exc:  # pragma: no cover - defensive
        print(f"unexpected error: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
