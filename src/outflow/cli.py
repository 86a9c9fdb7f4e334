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
from .config import (
    Config,
    ConfigError,
    ConstraintViolation,
    check_config,
    config_text,
    parse_config,
    run_config,
)
from .energy import (
    equivalence_constants,
    h_identities,
    potential_energy,
    potential_energy_quadrature,
    relative_energy,
)
from .evolve_axi import run_axi_stability
from .evolve_sym import (CFLViolation, PositivityLoss, SymSolver, odd_even_content,
                         run_sym_stability)
from .grids import AngularGrid, RadialGrid
from .opchecks import TailNotConverged, run_verify_ops
from .params import FluidParams, sound_speed
from .states import AxiState, SymState
from .steady import (FitWindowTooSmall, NonConvergence, div_u_profile, div_u_route_gap,
                     solve_steady, verify_decay)

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
    _write_rows(path, header, ([_FMT % v for v in row] for row in rows))


def _write_rows(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\r\n")


class Manifest:
    def __init__(self, subcommand: str, cfg: Config | None, out_dir: str):
        """cfg is None when the configuration failed to load."""
        self.data = {
            "subcommand": subcommand,
            "config_sha256": None if cfg is None else
            hashlib.sha256(config_text(cfg).encode()).hexdigest(),
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
    """The radial and angular grids of cfg; a grid that its constructor
    refuses is a configuration fault (exit 2)."""
    make = RadialGrid.geometric if cfg.grid_kind == "geometric" else RadialGrid.uniform
    try:
        grid = make(cfg.r_max, cfg.nodes_r)
    except ValueError as exc:
        raise ConstraintViolation(
            f"nodes_r = {cfg.nodes_r}, r_max = {cfg.r_max}: {exc}") from exc
    try:
        agrid = AngularGrid(n_cells=cfg.nodes_theta)
    except ValueError as exc:
        raise ConstraintViolation(f"nodes_theta = {cfg.nodes_theta}: {exc}") from exc
    return grid, agrid


def _cmd_steady(cfg: Config, man: Manifest) -> int:
    grid, _ = _grids(cfg)
    profile = solve_steady(cfg.params, grid, tol=cfg.steady_tol)
    div1, _ = div_u_profile(profile)
    _write_csv(
        man.add("profile.csv"),
        ["r", "rho_t", "u_t", "d_rho", "d_u", "d2_rho", "d2_u", "div_u"],
        [profile.r, profile.rho_t, profile.u_t, profile.d_rho, profile.d_u,
         profile.d2_rho, profile.d2_u, div1],
    )
    m = profile.mass_flux
    mf = profile.r ** (profile.dim_n - 1) * profile.rho_t * profile.u_t
    checks = {"mass_flux_rel_dev": float(np.max(np.abs(mf - m)) / abs(m))}
    checks["mass_flux_ok"] = checks["mass_flux_rel_dev"] <= 1e-10
    checks["rho_increasing"] = bool(np.all(np.diff(profile.rho_t) > 0))
    checks["speed_decreasing"] = bool(np.all(np.diff(np.abs(profile.u_t)) < 0))
    checks["div_positive"] = bool(np.min(div1) > 0)
    checks["div_routes_rel_gap"] = div_u_route_gap(profile)
    checks["residual"] = profile.residual_rst2
    checks["far_field_gap"] = float(
        abs(profile.rho_t[-1] - cfg.params.rho_plus) / cfg.params.rho_plus)
    # the regime the stability theorem covers; reported, not graded
    checks["boundary_mach"] = float(
        abs(cfg.params.u_b) / sound_speed(profile.rho_t[0], cfg.params))
    checks["subsonic"] = checks["boundary_mach"] < 1.0

    lines = [f"mass_flux m = {m:.17g}", f"rho(1) = {float(profile.rho_t[0]):.17g}"]
    rates_ok = True  # a window too short to fit is reported, not failed
    try:
        rep = verify_decay(profile, slope_tol=cfg.slope_tol)
        lines.append(f"fit window: [{rep.window[0]:.6g}, {rep.window[1]:.6g}]")
        rates_ok = rep.ok
        for key, ok in rep.verdicts.items():
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

    passed = rates_ok and all(checks[k] for k in ("mass_flux_ok", "rho_increasing",
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


# the velocity columns of each geometry's state dump `state_<geometry>.csv`,
# which holds t, the nodes, rho and these; `evolve-*` writes it and `report`
# reads it back by this one spec
_DUMP_VELOCITY = {"sym": ("u",), "axi": ("u_r", "u_theta")}


def _dump_layout(geometry: str, grid, agrid):
    """The node columns of a geometry's state dump, the shape of its fields
    and the state class and grids they are read into."""
    if geometry == "sym":
        return {"r": grid.nodes}, grid.nodes.shape, SymState, (grid,)
    rr, tt = np.meshgrid(grid.nodes, agrid.centers, indexing="ij")
    return {"r": rr.ravel(), "theta": tt.ravel()}, rr.shape, AxiState, (grid, agrid)


def _cmd_evolve(cfg: Config, man: Manifest, geometry: str) -> int:
    grid, agrid = _grids(cfg)
    run_cfg = run_config(cfg, geometry)
    profile = solve_steady(cfg.params, grid, tol=cfg.steady_tol)
    if geometry == "sym":
        res = run_sym_stability(profile, cfg.params, run_cfg)
    else:
        res = run_axi_stability(profile, cfg.params, agrid, run_cfg)
    st = res.final_state
    nodes = _dump_layout(geometry, grid, agrid)[0]
    fields = [np.ravel(f) for f in (st.rho, *st.velocity)]
    _write_csv(man.add(f"state_{geometry}.csv"),
               ["t", *nodes, "rho", *_DUMP_VELOCITY[geometry]],
               [np.full(fields[0].size, st.t), *nodes.values(), *fields])
    _dump_reports(man.add(f"energy_{geometry}.csv"), res.reports)
    if geometry == "sym":  # the spherical envelope is graded, the other reported
        return _finish_run(man, res, envelope=res.envelope_ok)
    ells = sorted(res.mode_series)
    _write_csv(man.add("modes_axi.csv"), ["t"] + [f"ell_{ell}" for ell in ells],
               [res.times] + [res.mode_series[ell] for ell in ells])
    return _finish_run(man, res)


def _finish_run(man: Manifest, res, **criteria) -> int:
    """Write the run log and the manifest of a relaxation run."""
    with open(man.add("run_log.txt"), "w", encoding="utf-8") as fh:
        fh.write(res.summary() + "\n")
        fh.write(f"compatibility residuals: {res.compat}\n")
    man.finish(res.passed, {
        "decay_factor": res.decay_factor, "corridor": res.corridor_ok,
        "monitor_uphill": res.monitor_uphill, "tau_scheme": res.tau_scheme,
        "steps": res.steps, "odd_even": odd_even_content(res.final_state.rho),
        "envelope_graded": res.envelope_graded, **criteria})
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
    worst_quad = 0.0
    worst_iden = 0.0
    densities = np.linspace(0.4, 2.5, 20)
    for gamma in (1.0, 1.4, 2.0):
        params = FluidParams(gamma=gamma, k_pressure=cfg.params.k_pressure)
        for z in densities:
            for x in densities:
                closed = float(potential_energy(z, x, params))
                quad = potential_energy_quadrature(z, x, params)
                worst_quad = max(worst_quad,
                                 abs(closed - quad) / (1.0 + abs(closed)))
        zg = rng.uniform(0.4, 2.5, 400)
        xg = rng.uniform(0.4, 2.5, 400)
        res = h_identities(zg, xg, params)
        worst_iden = max(worst_iden, float(max(np.max(np.abs(r)) for r in res)))
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


def _cmd_report(cfg: Config, man: Manifest, run_dir: str) -> int:
    grid, agrid = _grids(cfg)
    for geometry, velocity in _DUMP_VELOCITY.items():
        path = os.path.join(run_dir, f"state_{geometry}.csv")
        if os.path.exists(path):
            break
    else:
        raise ConfigError(f"no state dump (state_sym.csv or state_axi.csv) "
                          f"found under {run_dir!r}")
    data = np.genfromtxt(path, delimiter=",", names=True)
    nodes, shape, state_cls, grids = _dump_layout(geometry, grid, agrid)
    for name, expected in nodes.items():  # read back only onto the grid it was written on
        if not np.array_equal(data[name], expected):
            raise ConfigError(f"{path}: the dumped {name} nodes are not those "
                              "of the configured grid")
    state = state_cls(float(data["t"][0]), *grids,
                      *(np.asarray(data[col]).reshape(shape) for col in ("rho", *velocity)))
    # the reference of the run: the scheme's own equilibrium
    profile = solve_steady(cfg.params, grid, tol=cfg.steady_tol)
    reference = SymSolver(profile, cfg.params).equilibrium()
    rep = relative_energy(state, reference, cfg.params)
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
        # these step the three-dimensional solver; `steady` solves any n >= 2
        if subcommand in ("evolve-sym", "evolve-axi", "report") and cfg.params.dim_n != 3:
            raise ConstraintViolation(f"{subcommand} needs dim_n = 3, got "
                                      f"{cfg.params.dim_n}")
        if subcommand == "steady":
            return _cmd_steady(cfg, man)
        if subcommand in ("evolve-sym", "evolve-axi"):
            return _cmd_evolve(cfg, man, subcommand.removeprefix("evolve-"))
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
        if args.seed is not None:
            cfg.seed = args.seed
            check_config(cfg)
    except ConfigError as exc:
        os.makedirs(args.out, exist_ok=True)
        return _failed(Manifest(args.subcommand, None, args.out), EXIT_CONFIG,
                       exc, "config error")
    try:
        return dispatch(args.subcommand, cfg, args.out, run_dir=args.run_dir)
    except Exception as exc:  # pragma: no cover - defensive
        print(f"unexpected error: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
