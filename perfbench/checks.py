"""Correctness checks the benchmark computes itself from the program's outputs.

Every check returns `(ok, detail)`.  None compares against a stored copy of
an earlier output: each one recomputes a quantity from the arrays the
program returned or wrote, or tests a property the method must have.
"""

from __future__ import annotations

import csv
import math

import numpy as np

# far-field decay exponents of the stationary profile in dimension n = 3:
# rho - rho_+ ~ r^(2-2n), U' ~ r^-n, rho' ~ r^(1-2n), U'' ~ r^-(n+1), rho'' ~ r^-2n
PROFILE_RATES = {"rho_minus_rho_plus": -4.0, "d_u": -3.0, "d_rho": -5.0,
                 "d2_u": -4.0, "d2_rho": -6.0}


def read_csv(path: str) -> dict:
    """Columns of a CSV file with a header row, as float arrays when numeric."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    cols = {}
    for j, name in enumerate(header):
        values = [row[j] for row in body]
        try:
            cols[name] = np.array([float(v) for v in values])
        except ValueError:
            cols[name] = values
    return cols


def mass_flux(r, rho, u, n: int = 3, tol: float = 1e-10):
    """r^(n-1) rho u is the same at every node of a stationary profile."""
    flux = np.asarray(r) ** (n - 1) * np.asarray(rho) * np.asarray(u)
    m = flux[0]
    dev = float(np.max(np.abs(flux - m)) / abs(m)) if m != 0.0 else math.inf
    return dev <= tol, f"mass-flux relative deviation {dev:.3e} (tol {tol:g})"


def decay_factor(times, series, tail_from: float = 0.9) -> float:
    """Peak of a series over its largest value in the last tenth of the run."""
    times = np.asarray(times, dtype=float)
    series = np.asarray(series, dtype=float)
    tail = float(np.max(series[times >= tail_from * times[-1]]))
    return float(np.max(series)) / max(tail, 1e-300)


def decays(times, series, target: float, label: str = "sup"):
    f = decay_factor(times, series)
    return f >= target, f"{label} decay {f:.3f} (target {target:g})"


def monitor_uphill(t, energy, dissipation) -> float:
    """Worst rise of E(t) plus the time-integrated dissipation terms.

    For an exact solution this cumulative balance never increases; its rise
    measures the scheme's error.
    """
    t = np.asarray(t, dtype=float)
    e = np.asarray(energy, dtype=float)
    d = np.asarray(dissipation, dtype=float)
    integral = np.concatenate([[0.0], np.cumsum(0.5 * (d[1:] + d[:-1]) * np.diff(t))])
    balance = e + integral
    return float(np.max(balance - np.minimum.accumulate(balance)))


def sym_relaxation(times, sups, target, corridor_ok, rho_final, rho_plus,
                   t, energy, dissipation, tau):
    """Decay target met, density corridor held, energy balance within tau."""
    ok_decay, detail = decays(times, sups, target)
    rho_final = np.asarray(rho_final)
    corridor = bool(corridor_ok) and bool(
        np.all(rho_final >= 0.5 * rho_plus) and np.all(rho_final <= 1.5 * rho_plus))
    uphill = monitor_uphill(t, energy, dissipation)
    ok = ok_decay and corridor and uphill <= tau
    return ok, f"{detail}; corridor {corridor}; uphill {uphill:.3e} <= tau {tau:.3e}"


def reform_gap(gap, n_checks: int, expected_checks: int, tol: float = 1e-8):
    """The linearised reformulation is an algebraic identity: gap at round-off."""
    ok = gap is not None and n_checks == expected_checks > 0 and gap <= tol
    return ok, f"reformulation gap {gap} over {n_checks}/{expected_checks} checks (tol {tol:g})"


def mass_balance(interior: float, boundary: float, tol: float = 1e-12):
    """Finite-volume mass rate equals the net boundary flux to round-off."""
    scale = max(abs(interior), abs(boundary), 1e-300)
    rel = abs(interior - boundary) / scale
    return rel <= tol, f"mass balance relative gap {rel:.3e} (tol {tol:g})"


def energy_drops(first: float, last: float, label: str = "relative energy"):
    return last < first, f"{label} {first:.6e} -> {last:.6e}"


def reduction(sym_rhs, axi_rhs, tol: float = 1e-10):
    """Axisymmetric right-hand side on theta-independent data = radial one."""
    rho_t1, m_t1 = (np.asarray(a) for a in sym_rhs)
    rho_t2, mr_t2, mt_t2 = (np.asarray(a) for a in axi_rhs)
    gap = float(max(np.max(np.abs(rho_t2 - rho_t1[:, None])),
                    np.max(np.abs(mr_t2 - m_t1[:, None])),
                    np.max(np.abs(mt_t2))))
    return gap <= tol, f"reduction gap {gap:.3e} (tol {tol:g})"


def loglog_slope(r, q) -> float:
    return float(np.polyfit(np.log(r), np.log(q), 1)[0])


def profile_rates(cols: dict, rho_plus: float, tol: float = 0.2):
    """Log-log slopes of the profile.csv columns over [R^0.4, R^0.9]."""
    r = cols["r"]
    r_max = float(r[-1])
    sel = (r >= r_max**0.4) & (r <= r_max**0.9)
    quantities = {
        "rho_minus_rho_plus": np.abs(cols["rho_t"] - rho_plus),
        "d_u": np.abs(cols["d_u"]),
        "d_rho": np.abs(cols["d_rho"]),
        "d2_u": np.abs(cols["d2_u"]),
        "d2_rho": np.abs(cols["d2_rho"]),
    }
    slopes = {k: loglog_slope(r[sel], q[sel]) for k, q in quantities.items()}
    ok = all(abs(slopes[k] - PROFILE_RATES[k]) <= tol for k in PROFILE_RATES)
    detail = ", ".join(f"{k} {slopes[k]:+.3f}/{PROFILE_RATES[k]:+.0f}" for k in slopes)
    return ok, f"slopes {detail} (tol {tol:g})"


def step_count(steps: int, t_end: float, dt: float):
    """A fixed-dt run takes ceil(t_end / dt) steps."""
    expected = math.ceil(round(t_end / dt, 9))
    return steps == expected, f"{steps} steps, expected {expected}"


def ops_rows(cols: dict):
    """Every row of verify_ops.csv carries passed = 1."""
    passed = [int(float(v)) for v in cols["passed"]]
    bad = [name for name, p in zip(cols["check"], passed) if p != 1]
    return bool(passed) and not bad, f"{len(passed)} rows, failing: {bad}"
