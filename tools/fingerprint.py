"""Print one SHA-256 per artefact of a fixed set of small outflow runs.

    python tools/fingerprint.py [CHECKOUT] [--save DIR]
    python tools/fingerprint.py --drift BEFORE AFTER

CHECKOUT is the root of an outflow source tree (default: the one holding this
script); its `src/` is imported, and `tests/mms_cases.py` for the manufactured
forcing.  The artefacts are the `RunResult` fields of
three relaxation runs, the scheme's equilibrium that the runs of each
geometry measure against, the arrays of one reformulation check per geometry,
the arrays of the stepping kernels on the final states of the `sym_cfl` and
`axi` runs (`rhs` of both solvers, whole and split, one `step` of each at 0.4
x its CFL limit, the forced axisymmetric `rhs`, the angular stencil `d_theta`
and `mass_balance`), each axisymmetric component's implicit solve
of a seeded right-hand side for lambda = 0 and 2, the raw (lhs, rhs, ratio)
of `hardy_check` for each field of the Hardy corpus, the per-point arrays
behind the seed-0 `rr_cancel`
and `graddiv_expansion` rows, the cut-off profile and its
mollified form on the polar angles of the seed-0 cut-off sample, each row of
`run_verify_ops` for seeds 0, 99 and 12345 and the
`potential_energy_quadrature` values of `verify-energy`, term by term, and
every CSV and text file that the CLI
writes for `steady`, `evolve-sym`, `evolve-axi`, `report`, `verify-ops
--seed 0`, `verify-ops --seed 7` and `verify-energy`, plus each
subcommand's exit code.
A change meant to keep the numbers bitwise is checked by running this on both
trees and diffing the output; where the change moves a signature that this
script calls, each tree runs its own copy of the script.  It runs in about
five seconds on two cores.

With `--save DIR` each line's numbers (the arrays and scalars it hashes, in
hashing order, or the numbers written in a file) also go to
`DIR/<line label>.npy`.  A change that must move bits saves both trees and
runs `--drift` on the two directories, which names every line whose numbers
differ with its largest absolute and relative drift, and every line saved
under only one of them.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import os
import re
import struct
import sys
import tempfile

import numpy as np

FLUID = ["gamma = 1.4", "k_pressure = 1.0", "mu = 1.0", "lambda = 0.0",
         "rho_plus = 1.0", "u_b = -0.05"]


def _feed(h, obj) -> None:
    """Hash obj by value: arrays by dtype, shape and bytes, floats by bits."""
    if isinstance(obj, np.ndarray):
        h.update(f"nd{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (bool, np.bool_)):
        h.update(b"b1" if obj else b"b0")
    elif isinstance(obj, (int, np.integer)):
        h.update(f"i{int(obj)};".encode())
    elif isinstance(obj, (float, np.floating)):
        h.update(b"f" + struct.pack("<d", float(obj)))
    elif isinstance(obj, str):
        h.update(f"s{len(obj)}:".encode() + obj.encode())
    elif obj is None:
        h.update(b"N")
    elif isinstance(obj, (list, tuple)):
        h.update(f"l{len(obj)}[".encode())
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    elif isinstance(obj, dict):
        h.update(f"d{len(obj)}{{".encode())
        for key in sorted(obj):
            _feed(h, key)
            _feed(h, obj[key])
        h.update(b"}")
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            h.update(f.name.encode())
            _feed(h, getattr(obj, f.name))
    else:
        raise TypeError(f"cannot fingerprint {type(obj)!r}")


def _digest(obj) -> str:
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def _file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


SAVE_DIR = None  # set by --save: where each line's numbers are written


def _numbers(obj) -> list:
    """The numbers that `_feed` hashes, in its order, as float64 arrays."""
    if isinstance(obj, np.ndarray):
        return [np.ravel(obj).astype(np.float64)]
    if isinstance(obj, (bool, np.bool_, int, np.integer, float, np.floating)):
        return [np.array([float(obj)])]
    if isinstance(obj, (list, tuple)):
        return [a for item in obj for a in _numbers(item)]
    if isinstance(obj, dict):
        return [a for key in sorted(obj) for a in _numbers(obj[key])]
    if dataclasses.is_dataclass(obj):
        return [a for f in dataclasses.fields(obj) for a in _numbers(getattr(obj, f.name))]
    return []  # strings and None carry no numbers


def _save(label: str, parts: list) -> None:
    path = os.path.join(SAVE_DIR, label + ".npy")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    np.save(path, np.concatenate(parts) if parts else np.zeros(0))


def _emit(label: str, obj) -> None:
    """Print the digest line of obj and, under --save, write its numbers."""
    print(f"{_digest(obj)}  {label}")
    if SAVE_DIR is not None:
        _save(label, _numbers(obj))


def _emit_file(label: str, path: str) -> None:
    """Print the digest line of a file and, under --save, write every number
    written in it, in order."""
    print(f"{_file_digest(path)}  {label}")
    if SAVE_DIR is not None:
        with open(path, encoding="utf-8") as fh:
            nums = re.findall(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)",
                              fh.read())
        _save(label, [np.array(nums, dtype=float)])


def _labels(top: str) -> set:
    """The line labels saved under a --save directory."""
    return {os.path.relpath(os.path.join(root, name), top)[:-len(".npy")]
            for root, _, names in os.walk(top) for name in names}


def drift(before: str, after: str) -> None:
    """Print, for each line saved under both directories whose numbers
    differ, the largest absolute difference, that difference relative to the
    largest finite magnitude of the line's numbers in `before`, and how many
    of its numbers moved; then `missing` for each line saved under `before`
    only, and `added` for each saved under `after` only."""
    labels_a, labels_b = _labels(before), _labels(after)
    for label in sorted(labels_a & labels_b):
        a = np.load(os.path.join(before, label + ".npy"))
        b = np.load(os.path.join(after, label + ".npy"))
        if a.shape != b.shape:
            print(f"shape {a.shape} -> {b.shape}  {label}")
        elif not np.array_equal(a, b, equal_nan=True):
            # an inf on both sides (a CSV's "inf" tolerance) is no drift
            moved = (a != b) & ~(np.isnan(a) & np.isnan(b))
            with np.errstate(invalid="ignore"):
                diff = float(np.nanmax(np.abs(a - b)[moved]))
            finite = np.abs(a[np.isfinite(a)])
            scale = float(np.max(finite)) if finite.size else 0.0
            rel = diff / scale if scale > 0.0 else float("inf")
            print(f"abs {diff:.3e} rel {rel:.3e} in {int(moved.sum())} of "
                  f"{a.size}  {label}")
    for label in sorted(labels_a - labels_b):
        print(f"missing  {label}")
    for label in sorted(labels_b - labels_a):
        print(f"added  {label}")


def _emit_result(label: str, res) -> None:
    from outflow.energy import EnergyReport

    # the columns of `energy_<geometry>.csv`: what the CLI writes of each report
    columns = [f.name for f in dataclasses.fields(EnergyReport)]
    for f in dataclasses.fields(res):
        value = getattr(res, f.name)
        if f.name == "reports":
            value = [[getattr(rep, k) for k in columns] for rep in value]
        _emit(f"{label}.{f.name}", value)


def run_results() -> None:
    from outflow.energy import reformulation_residual, reformulation_terms
    from outflow.evolve_axi import AxiRunConfig, AxiSolver, run_axi_stability
    from outflow.evolve_sym import SymRunConfig, SymSolver, run_sym_stability
    from outflow.grids import AngularGrid, RadialGrid
    from outflow.params import FluidParams
    from outflow.states import perturb_axi, perturb_sym
    from outflow.steady import solve_steady

    params = FluidParams(gamma=1.4, k_pressure=1.0, mu=1.0, lam=0.0,
                         rho_plus=1.0, u_b=-0.05, dim_n=3)
    sym_profile = solve_steady(params, RadialGrid.uniform(100.0, 1023), tol=1e-8)
    final = {}
    for label, dt in (("sym_cfl", None), ("sym_dt", 1e-3)):
        cfg = SymRunConfig(t_end=1.0, dt=dt, output_every=100, reform_every=10)
        res = run_sym_stability(sym_profile, params, cfg)
        _emit_result(label, res)
        final[label] = res.final_state

    axi_profile = solve_steady(params, RadialGrid.uniform(20.0, 127), tol=1e-8)
    agrid = AngularGrid(n_cells=32)
    cfg = AxiRunConfig(t_end=0.5, output_every=100, reform_every=10)
    res = run_axi_stability(axi_profile, params, agrid, cfg)
    _emit_result("axi", res)
    equilibrium_results(params, sym_profile, axi_profile, agrid)
    kernel_results(params, sym_profile, final["sym_cfl"], axi_profile, agrid,
                   res.final_state)

    # the reformulation check on one step from the perturbed wave; arrays are
    # hashed raveled, so a change of shape alone leaves the digest alone
    for label, profile, solver, state in (
            ("reform_sym", sym_profile, SymSolver(sym_profile, params),
             perturb_sym(sym_profile, 0.02, (1.5, 3.0))),
            ("reform_axi", axi_profile, AxiSolver(axi_profile, params, agrid),
             perturb_axi(axi_profile, agrid, 0.02, (1.5, 3.0)))):
        dt = 0.4 * solver.cfl_dt(state, 1.0)
        terms = reformulation_terms(profile, params, solver.ops)
        res = reformulation_residual(solver.step(state, dt), state, dt, terms)
        for f in dataclasses.fields(res):
            _emit(f"{label}.{f.name}", np.ravel(getattr(res, f.name)))


def equilibrium_results(params, sym_profile, axi_profile, agrid) -> None:
    """The scheme's own stationary state as each geometry's run takes it:
    radial on the `sym_*` grid, lifted onto (r, theta) on the `axi` grids."""
    from outflow.evolve_axi import AxiSolver
    from outflow.evolve_sym import SymSolver

    eq = SymSolver(sym_profile, params).equilibrium()
    _emit("equilibrium/sym", [eq.rho_t, eq.u_t])
    eq = SymSolver(axi_profile, params).equilibrium()
    st = AxiSolver(axi_profile, params, agrid).state_of(eq.rho_t, eq.u_t)
    _emit("equilibrium/axi", [st.rho, st.u_r, st.u_theta])


def kernel_results(params, sym_profile, sym_state, axi_profile, agrid,
                   axi_state) -> None:
    """One digest per array of each stepping kernel, so that a changed term
    shows even where a run's totals stay the same.  The axisymmetric state is
    the final one of the `axi` run, where u_theta is nonzero."""
    from mms_cases import manufactured_axi

    from outflow.evolve_axi import AxiSolver
    from outflow.evolve_sym import SymSolver

    _rates_and_step("kernel/sym_cfl", SymSolver(sym_profile, params), sym_state,
                    ("rho_t", "m_t"))

    # the forcing lambdified without common subexpressions, on every tree, so
    # that these lines follow the solver and not the forcing's round-off
    fns = manufactured_axi(params, axi_profile.grid.r_max, cse=False)
    rr, tt = np.meshgrid(axi_profile.r, agrid.centers, indexing="ij")

    def forcing(t):
        return fns[3](rr, tt, t), fns[4](rr, tt, t), fns[5](rr, tt, t)

    solver = AxiSolver(axi_profile, params, agrid)
    names = ("rho_t", "mr_t", "mt_t")
    _rates_and_step("kernel/axi", solver, axi_state, names)
    forced = AxiSolver(axi_profile, params, agrid, forcing=forcing)
    for name, arr in zip(names, forced.rhs(axi_state)):
        _emit(f"kernel/axi/rhs_mms.{name}", arr)
    ops = solver.ops
    for field in ("rho", "u_r", "u_theta"):
        f = getattr(axi_state, field)
        for parity in (1, -1):
            _emit(f"kernel/axi/d_theta.{field}.{parity:+d}", ops.d_theta(f, parity=parity))
    _emit("kernel/axi/mass_balance", solver.mass_balance(axi_state))
    # the implicit solve at a fixed a, also for lambda = 2, where u_theta's
    # ring has complex eigenvalue pairs
    b = np.random.default_rng(0).standard_normal((axi_profile.r.size - 2, agrid.n_cells))
    for lam in (0.0, 2.0):
        s = AxiSolver(axi_profile, dataclasses.replace(params, lam=lam), agrid)
        for name, solve in zip(("u_r", "u_theta"), s._factor(0.01)):
            _emit(f"kernel/axi/solve.{name}.lam_{lam:g}", solve(b.copy()))


def _rates_and_step(group: str, solver, state, names) -> None:
    """The rates of `solver.rhs` on state, whole and split, row by row, and
    the fields of one step from it at 0.4 x its CFL limit."""
    for label, split in (("rhs", False), ("rhs_split", True)):
        for name, arr in zip(names, solver.rhs(state, split=split)):
            _emit(f"{group}/{label}.{name}", arr)
    out = solver.step(state, 0.4 * solver.cfl_dt(state, 1.0))
    _emit(f"{group}/step.t", out.t)
    for f in dataclasses.fields(out):
        if isinstance(getattr(out, f.name), np.ndarray):
            _emit(f"{group}/step.{f.name}", getattr(out, f.name))


def hardy_results() -> None:
    """The verification table prints a passing Hardy row as 0.0 and its
    sides to 6 digits; these lines see every bit of them, for each field of
    the Hardy corpus of `verify-ops`."""
    from outflow.opchecks import HARDY_FIELDS, hardy_check

    for name, u in HARDY_FIELDS.items():
        _emit(f"hardy/{name}", hardy_check(u))


def jet_point_results() -> None:
    """Per point, what the seed-0 `rr_cancel` and `graddiv_expansion` rows
    fold into one maximum: route1 and route2 of `rr_cancellation` on the
    100 corpus points of each chart and each vector field, and the value of
    `graddiv_expansion` on the first 30, so that a reordered jet sum that
    leaves a row's maximum alone still shows."""
    from outflow.opchecks import default_corpus, graddiv_expansion, rr_cancellation
    from outflow.sphops import chart_jet

    sample = default_corpus(seed=0)
    for chart in ("V", "H"):
        pts = sample.points[chart]
        fr, fr30 = chart_jet(pts, chart, 2), chart_jet(pts[:30], chart, 2)
        for name, V in sample.vector_fields.items():
            _emit(f"jet_points/rr_cancellation/{chart}/{name}",
                  list(rr_cancellation(V, fr)))
            _emit(f"jet_points/graddiv_expansion/{chart}/{name}",
                  graddiv_expansion(V(fr30.x), fr30).value)


def cutoff_point_results() -> None:
    """Per point, what the `cutoff/*` rows of `verify-ops` fold into maxima:
    the raw profile xi~ and its derivative, and the mollified xi and xi', on
    the V- and H-chart polar angles of a seeded 4,000-point sample drawn as
    the seed-0 `verify-ops` draws its cut-off sample."""
    from outflow.cutoffs import xi, xi_prime, xi_tilde, xi_tilde_prime
    from outflow.sphops import radius, to_spherical

    rng = np.random.default_rng(1)
    x = rng.normal(size=(4000, 3))
    x /= radius(x, keepdims=True)
    x *= rng.uniform(1.0, 6.0, (4000, 1))
    for chart in ("V", "H"):
        theta = to_spherical(x, chart)[1]
        for name, fn in (("xi_tilde", xi_tilde), ("xi_tilde_prime", xi_tilde_prime),
                         ("xi", xi), ("xi_prime", xi_prime)):
            _emit(f"cutoff_points/{chart}/{name}", fn(theta))


def verify_term_results() -> None:
    """Term by term what the verification CSVs print rounded or fold into
    one worst value: each `run_verify_ops` row (name, value, note) for seed 0
    and for seeds 99 and 12345, whose verdict once depended on the corpus,
    and the 400 `potential_energy_quadrature` values of each gamma on
    `verify-energy`'s (zeta, xi) grid, in the order the CLI takes them."""
    from outflow.energy import potential_energy_quadrature
    from outflow.opchecks import run_verify_ops
    from outflow.params import FluidParams

    for seed, group in ((0, "verify_ops_rows"), (99, "verify_ops_rows_seed99"),
                        (12345, "verify_ops_rows_seed12345")):
        for row in run_verify_ops(seed=seed):
            _emit(f"{group}/{row.name}", (row.name, row.value, row.note))
    grid = np.linspace(0.4, 2.5, 20)
    for gamma in (1.0, 1.4, 2.0):
        params = FluidParams(gamma=gamma, k_pressure=1.0)
        _emit(f"energy_quad/gamma_{gamma}",
              np.array([potential_energy_quadrature(z, x, params)
                        for z in grid for x in grid]))


def cli_outputs(work: str) -> None:
    from outflow.cli import main

    def conf(name: str, lines: list[str]) -> str:
        path = os.path.join(work, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(FLUID + lines) + "\n")
        return path

    steady = conf("steady.conf", ["r_max = 200.0", "nodes_r = 2048",
                                  "grid_kind = geometric"])
    sym = conf("sym.conf", ["r_max = 30.0", "nodes_r = 192", "t_end = 3.0",
                            "output_every = 50"])
    axi = conf("axi.conf", ["r_max = 20.0", "nodes_r = 128", "nodes_theta = 32",
                            "t_end = 1.0", "output_every = 50"])

    def out(sub: str) -> str:
        return os.path.join(work, sub)

    runs = [
        ("steady", ["steady", "--config", steady, "--out", out("steady")]),
        ("evolve-sym", ["evolve-sym", "--config", sym, "--out", out("evolve-sym")]),
        ("evolve-axi", ["evolve-axi", "--config", axi, "--out", out("evolve-axi")]),
        ("report-sym", ["report", "--config", sym, "--out", out("report-sym"),
                        "--run-dir", out("evolve-sym")]),
        ("report-axi", ["report", "--config", axi, "--out", out("report-axi"),
                        "--run-dir", out("evolve-axi")]),
        ("verify-ops", ["verify-ops", "--seed", "0", "--out", out("verify-ops")]),
        ("verify-ops-seed7", ["verify-ops", "--seed", "7", "--out",
                              out("verify-ops-seed7")]),
        ("verify-energy", ["verify-energy", "--out", out("verify-energy")]),
    ]
    for label, argv in runs:
        with contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        print(f"exit {code}  {label}")
        for name in sorted(os.listdir(out(label))):
            if name.endswith((".csv", ".txt")):
                _emit_file(f"{label}/{name}", os.path.join(out(label), name))


def main(argv=None) -> int:
    global SAVE_DIR
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?",
                        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    parser.add_argument("--save", metavar="DIR",
                        help="write each line's numbers to DIR/<line label>.npy")
    parser.add_argument("--drift", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="compare two --save directories instead of running")
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    if args.drift:
        drift(*args.drift)
        return 0
    SAVE_DIR = args.save and os.path.abspath(args.save)
    root = args.checkout
    sys.path.insert(0, os.path.join(os.path.abspath(root), "src"))
    sys.path.insert(0, os.path.join(os.path.abspath(root), "tests"))  # mms_cases
    run_results()
    hardy_results()
    jet_point_results()
    cutoff_point_results()
    verify_term_results()
    with tempfile.TemporaryDirectory() as work:
        cli_outputs(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
