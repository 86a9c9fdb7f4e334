"""Tests of the benchmark itself: each correctness check rejects a wrong output.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(1, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _profile(r_max=200.0, m=2048, d2_u_rate=-4.0, flux_noise=0.0):
    """Exact power-law columns shaped like profile.csv, mass flux r^2 rho u = -0.05."""
    r = np.exp(np.linspace(0.0, np.log(r_max), m + 1))
    rho = 1.0 - 0.01 * r**-4.0
    u = -0.05 / (r**2 * rho) * (1.0 + flux_noise * np.sin(r))
    return {"r": r, "rho_t": rho, "u_t": u, "d_u": 0.1 * r**-3.0,
            "d_rho": 0.04 * r**-5.0, "d2_u": -0.3 * r**d2_u_rate,
            "d2_rho": -0.2 * r**-6.0}


def test_profile_rates_accept_theoretical_slopes():
    ok, detail = checks.profile_rates(_profile(), rho_plus=1.0)
    assert ok, detail


def test_profile_rates_reject_d2_u_decaying_like_r_minus_6():
    ok, _ = checks.profile_rates(_profile(d2_u_rate=-6.0), rho_plus=1.0)
    assert not ok


def test_profile_rates_reject_wrong_far_field_density():
    ok, _ = checks.profile_rates(_profile(), rho_plus=1.001)
    assert not ok


def test_mass_flux_accepts_constant_and_rejects_drift():
    p = _profile()
    assert checks.mass_flux(p["r"], p["rho_t"], p["u_t"])[0]
    p = _profile(flux_noise=1e-8)
    assert not checks.mass_flux(p["r"], p["rho_t"], p["u_t"])[0]


def test_decay_accepts_decaying_and_rejects_flat_series():
    t = np.linspace(0.0, 5.0, 21)
    assert checks.decays(t, 0.02 * np.exp(-t), 10.0)[0]
    assert not checks.decays(t, np.full_like(t, 0.02), 10.0)[0]
    # decay that stalls above the target in the last tenth
    assert not checks.decays(t, 0.02 * np.maximum(np.exp(-t), 0.2), 10.0)[0]


def test_monitor_uphill_is_zero_for_a_balanced_run_and_sees_a_rise():
    t = np.linspace(0.0, 1.0, 11)
    e = 1.0 - 0.5 * t
    d = np.full_like(t, 0.5)  # E' = -d: the balance E + int d stays constant
    assert checks.monitor_uphill(t, e, d) < 1e-14
    e_bad = e.copy()
    e_bad[6] += 0.1
    assert checks.monitor_uphill(t, e_bad, d) > 0.09


def test_sym_relaxation_rejects_corridor_breach_and_uphill():
    t = np.linspace(0.0, 5.0, 21)
    sups = 0.02 * np.exp(-t)
    e = 1.0 - 0.1 * t
    args = dict(times=t, sups=sups, target=10.0, rho_plus=1.0, t=t,
                energy=e, dissipation=np.full_like(t, 0.1), tau=1e-3)
    assert checks.sym_relaxation(corridor_ok=True, rho_final=np.ones(5), **args)[0]
    assert not checks.sym_relaxation(corridor_ok=False, rho_final=np.ones(5), **args)[0]
    assert not checks.sym_relaxation(corridor_ok=True, rho_final=np.full(5, 1.6), **args)[0]
    e_up = e.copy()
    e_up[10] += 1e-2
    args["energy"] = e_up
    assert not checks.sym_relaxation(corridor_ok=True, rho_final=np.ones(5), **args)[0]


def test_reform_gap_rejects_large_missing_or_skipped_checks():
    assert checks.reform_gap(1e-14, 267, 267)[0]
    assert not checks.reform_gap(1e-6, 267, 267)[0]
    assert not checks.reform_gap(None, 0, 267)[0]
    assert not checks.reform_gap(1e-14, 100, 267)[0]


def test_mass_balance_rejects_a_leak():
    assert checks.mass_balance(0.012, 0.012 * (1 + 2e-16))[0]
    assert not checks.mass_balance(0.012, 0.012 * (1 + 1e-9))[0]


def test_energy_drops_rejects_growth():
    assert checks.energy_drops(1e-2, 5e-4)[0]
    assert not checks.energy_drops(1e-2, 2e-2)[0]


def test_reduction_rejects_gap_and_polar_momentum():
    rho_t, m_t = np.linspace(0, 1, 8), np.linspace(1, 2, 8)
    axi = (np.repeat(rho_t[:, None], 4, 1), np.repeat(m_t[:, None], 4, 1), np.zeros((8, 4)))
    assert checks.reduction((rho_t, m_t), axi)[0]
    bad = (axi[0], axi[1] + 1e-8, axi[2])
    assert not checks.reduction((rho_t, m_t), bad)[0]
    bad = (axi[0], axi[1], axi[2] + 1e-8)
    assert not checks.reduction((rho_t, m_t), bad)[0]


def test_step_count_is_exact():
    assert checks.step_count(5000, 5.0, 1e-3)[0]
    assert not checks.step_count(5001, 5.0, 1e-3)[0]
    assert not checks.step_count(2672, 5.0, 1e-3)[0]


def test_ops_rows_reject_a_failing_row(tmp_path):
    path = tmp_path / "verify_ops.csv"
    path.write_bytes(b"check,value,tol,passed,note\r\n"
                     b"hat/a,1e-9,1e-6,1,\r\nhardy/b,0.1,0,0,lhs=1 rhs=2\r\n")
    cols = checks.read_csv(str(path))
    ok, detail = checks.ops_rows(cols)
    assert not ok and "hardy/b" in detail
    path.write_bytes(b"check,value,tol,passed,note\r\nhat/a,1e-9,inf,1,\r\n")
    assert checks.ops_rows(checks.read_csv(str(path)))[0]


def test_inputs_follow_the_seed():
    a, b = workloads.Inputs.draw(7), workloads.Inputs.draw(7)
    assert a == b
    assert workloads.Inputs.draw(8) != a
    assert 0.018 <= a.amplitude <= 0.022
    assert 1.4 <= a.support[0] <= 1.6 and 2.8 <= a.support[1] <= 3.2


def test_self_time_subtracts_direct_children():
    tr = tracer.Tracer()
    tr.names, tr.parents = ["a", "b", "c"], [-1, 0, 1]
    tr.starts, tr.ends, tr.cells = [0.0, 1.0, 1.5], [10.0, 4.0, 2.0], [0, 0, 0]
    assert tr.self_times() == [7.0, 2.5, 0.5]


def test_tracer_patches_and_restores_the_program():
    import outflow.evolve_sym as es
    import outflow.steady as st

    solve, step = st.solve_steady, es.SymSolver.step
    with tracer.Tracer() as tr:
        assert st.solve_steady is not solve
        assert es.SymSolver.step is not step
        assert not tr.absent
    assert st.solve_steady is solve and es.SymSolver.step is step


def test_a_removed_entry_point_is_reported_absent(monkeypatch):
    monkeypatch.setitem(tracer.FUNCTIONS, "steady.solve_steady", ("steady", "renamed_away"))
    with tracer.Tracer() as tr:
        pass
    metrics, absent = tracer.layer_metrics(tr, {})
    assert absent == ["steady.solve_steady.ms_per_call"]
    assert metrics["steady.solve_steady.ms_per_call"]["value"] == 0.0


def test_benchmark_json_lists_the_metrics_the_benchmark_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "run_s", "peak_rss_mb"]
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == {k: v[0] for k, v in tracer.PER_LAYER.items()}


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "relax_sym",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert "correct" not in out.stdout


class _Broken:
    op_names = ("graded_run", "first_check", "second_check")

    def prepare(self):
        pass

    def setup(self):
        return None

    def run(self, ctx, stages, tracer=None):
        raise FloatingPointError("step blew up")


class _HalfChecked(_Broken):
    def run(self, ctx, stages, tracer=None):
        return 1.0

    def check(self, ctx, res, rnd):
        rnd.record("graded_run", (True, "ran"))
        raise KeyError("column missing")


def test_a_failing_run_fails_every_operation_of_its_round():
    rnd = workloads.play(_Broken())
    assert [name for name, _, _ in rnd.ops] == list(_Broken.op_names)
    assert all(status == "error" for _, status, _ in rnd.ops)


def test_a_failing_check_fails_the_rest_of_its_round():
    rnd = workloads.play(_HalfChecked())
    assert [status for _, status, _ in rnd.ops] == ["ok", "error", "error"]
