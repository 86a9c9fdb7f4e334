"""The unperturbed twin of a relaxation run, stepped in a second process.

The run must come out bitwise as it did when the twin was stepped in the
same process, a failure of either lane must end it as that serial loop did,
and no child process may outlive the run.
"""

import dataclasses
import os
import signal
import time

import numpy as np
import pytest

from outflow import AngularGrid, evolve_sym
from outflow.evolve_axi import AxiRunConfig, run_axi_stability
from outflow.evolve_sym import (
    CFLViolation,
    PositivityLoss,
    SymRunConfig,
    SymSolver,
    run_sym_stability,
)
from outflow.states import SymState


class _SerialTwin:
    """The twin stepped in this process, one step per dt as it is handed
    over: the reference for the bitwise comparison."""

    def __init__(self, twin, base, safety):
        self.twin, self.base, self.safety = twin, base, safety

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def step(self, dt):
        self.base = self.twin.step(self.base, dt, safety=self.safety)

    def fetch(self, through):
        return self.base


def _run_bits(res):
    """Every number of a RunResult as bytes, so that equality is bitwise."""
    st = res.final_state
    parts = [res.times, res.sup_series, st.rho, *st.velocity,
             [st.t, res.steps, res.decay_factor, res.monitor_uphill, res.tau_scheme,
              res.reform_gap, res.reform_checks]]
    for r in res.reports:
        parts.append([getattr(r, f.name) for f in dataclasses.fields(r)
                      if f.name not in ("norm_pieces", "unresolved")])
        parts.append([r.norm_pieces[k] for k in sorted(r.norm_pieces)])
    parts += [res.mode_series[ell] for ell in sorted(res.mode_series)]
    return [np.asarray(p, dtype=np.float64).tobytes() for p in parts]


def _serial_and_forked(monkeypatch, run):
    forked = run()
    monkeypatch.setattr(evolve_sym, "_TwinProcess", _SerialTwin)
    serial = run()
    return serial, forked


def test_sym_run_is_bitwise_the_serial_run(small_profile, acc_params, monkeypatch):
    cfg = SymRunConfig(t_end=0.3, output_every=7, decay_target=1.0, reform_every=5)
    serial, forked = _serial_and_forked(
        monkeypatch, lambda: run_sym_stability(small_profile, acc_params, cfg))
    assert serial.steps > 50
    assert len(serial.reports) > 5
    assert _run_bits(forked) == _run_bits(serial)


def test_axi_run_is_bitwise_the_serial_run(small_profile, acc_params, monkeypatch):
    agrid = AngularGrid(n_cells=16)
    cfg = AxiRunConfig(t_end=0.1, output_every=5, decay_target=1.0, reform_every=4)
    serial, forked = _serial_and_forked(
        monkeypatch, lambda: run_axi_stability(small_profile, acc_params, agrid, cfg))
    assert serial.steps > 20
    assert sorted(serial.mode_series) == list(range(cfg.n_modes))
    assert _run_bits(forked) == _run_bits(serial)


def _fail_steps(monkeypatch, run_at, twin_at):
    """The run's own step raises CFLViolation at its run_at-th call and the
    twin's raises PositivityLoss at its twin_at-th call (None: never).

    The patch is made before the twin's process is forked, so the child
    inherits it; the two lanes are told apart by process id.
    """
    parent = os.getpid()
    step = SymSolver.step
    calls = [0]  # each process counts its own calls after the fork

    def failing(self, state, dt, safety=0.4, limit=None):
        calls[0] += 1
        if os.getpid() == parent:
            if calls[0] == run_at:
                raise CFLViolation(f"run lane failed at step {run_at}")
        elif calls[0] == twin_at:
            raise PositivityLoss(f"twin lane failed at step {twin_at}")
        return step(self, state, dt, safety=safety, limit=limit)

    monkeypatch.setattr(SymSolver, "step", failing)


@pytest.mark.parametrize("run_at, twin_at, output_every, error, message", [
    # a twin failure surfaces at the next sample with its own type and message
    (None, 5, 1000, PositivityLoss, "twin lane failed at step 5"),
    (None, 5, 3, PositivityLoss, "twin lane failed at step 5"),
    # the earlier step wins, whichever lane reaches its failure first
    (8, 5, 1000, PositivityLoss, "twin lane failed at step 5"),
    (5, 8, 1000, CFLViolation, "run lane failed at step 5"),
    # within one step the perturbed step still goes first
    (5, 5, 1000, CFLViolation, "run lane failed at step 5"),
])
def test_a_failure_ends_the_run_as_the_serial_loop_did(
        small_profile, acc_params, monkeypatch, run_at, twin_at, output_every,
        error, message):
    _fail_steps(monkeypatch, run_at, twin_at)
    cfg = SymRunConfig(t_end=0.2, output_every=output_every, decay_target=1.0)
    with pytest.raises(Exception) as err:
        run_sym_stability(small_profile, acc_params, cfg)
    assert type(err.value) is error
    assert str(err.value) == message


def test_the_twin_process_ends_when_its_pipe_closes(small_profile, acc_params):
    """A run killed from outside closes the request pipe; the child then ends
    by itself, with status 0."""
    solver = SymSolver(small_profile, acc_params)
    base = SymState(0.0, small_profile.grid, small_profile.rho_t.copy(),
                    small_profile.u_t.copy())
    solver.apply_bc(base)
    dt = solver.cfl_dt(base, 0.4)
    lane = evolve_sym._TwinProcess(solver, base, 0.4)
    try:
        for _ in range(3):
            lane.step(dt)
            base = solver.step(base, dt)
        fetched = lane.fetch(3)
        assert fetched.t == base.t
        assert fetched.rho.tobytes() == base.rho.tobytes()
        assert fetched.u_rad.tobytes() == base.u_rad.tobytes()
        os.close(lane._requests)
        deadline = time.monotonic() + 30.0
        while True:
            pid, status = os.waitpid(lane.pid, os.WNOHANG)
            if pid or time.monotonic() > deadline:
                break
            time.sleep(0.01)
        if not pid:
            os.kill(lane.pid, signal.SIGKILL)
            os.waitpid(lane.pid, 0)
        assert pid == lane.pid
        assert os.waitstatus_to_exitcode(status) == 0
    finally:
        os.close(lane._replies)
