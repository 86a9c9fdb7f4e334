import dataclasses
import json

import numpy as np
import pytest

from outflow import cli
from outflow.cli import (EXIT_CONFIG, EXIT_CRITERIA, EXIT_NONCONVERGENCE, EXIT_OK,
                         EXIT_STABILITY, main)
from outflow.config import (
    Config,
    ConstraintViolation,
    ParseError,
    UnknownKey,
    config_text,
    parse_config,
)


def _write(tmp_path, text, name="run.conf"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_minimal_config_gets_defaults(tmp_path):
    cfg = parse_config(_write(tmp_path, "gamma = 1.4\nu_b = -0.02\n"))
    assert cfg.params.gamma == 1.4
    assert cfg.params.u_b == -0.02
    assert cfg.nodes_r == 512  # untouched default
    assert cfg.t_end == 200.0


def test_comments_and_blank_lines(tmp_path):
    text = "# full line comment\n\ngamma = 2.0  # trailing comment\n"
    cfg = parse_config(_write(tmp_path, text))
    assert cfg.params.gamma == 2.0


def test_unknown_key(tmp_path):
    with pytest.raises(UnknownKey) as err:
        parse_config(_write(tmp_path, "gamm = 1.4\n"))
    assert err.value.name == "gamm"


def test_constraint_violation(tmp_path):
    with pytest.raises(ConstraintViolation) as err:
        parse_config(_write(tmp_path, "u_b = 0.1\n"))
    assert "u_b < 0" in err.value.detail


def test_parse_error_reports_line(tmp_path):
    with pytest.raises(ParseError) as err:
        parse_config(_write(tmp_path, "gamma = 1.4\nnot a pair\n"))
    assert err.value.line_no == 2
    with pytest.raises(ParseError):
        parse_config(_write(tmp_path, "gamma = nope\n"))


def test_cli_exit_codes_for_bad_config(tmp_path):
    bad = _write(tmp_path, "gamm = 1.4\n")
    assert main(["steady", "--config", bad, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    bad2 = _write(tmp_path, "u_b = 0.1\n", name="b2.conf")
    assert main(["steady", "--config", bad2, "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_unknown_subcommand_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code != 0


def test_steady_subcommand_artifacts(tmp_path):
    conf = _write(tmp_path, "u_b = -0.05\nr_max = 60\nnodes_r = 256\n"
                            "grid_kind = geometric\n")
    out = tmp_path / "steady"
    assert main(["steady", "--config", conf, "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["passed"] is True
    for name in manifest["outputs"]:
        assert (out / name).exists()
    header = (out / "profile.csv").read_text().splitlines()[0]
    assert header.split(",") == ["r", "rho_t", "u_t", "d_rho", "d_u",
                                 "d2_rho", "d2_u", "div_u"]
    # r_max = 60 leaves a fit window under one decade, so the rate lines are
    # checked on the acceptance configuration
    conf = _write(tmp_path, "u_b = -0.05\nr_max = 200\nnodes_r = 2048\n"
                            "grid_kind = geometric\n", name="acc.conf")
    out = tmp_path / "steady_acc"
    assert main(["steady", "--config", conf, "--out", str(out)]) == EXIT_OK
    rate_lines = [line for line in
                  (out / "rate_report.txt").read_text().splitlines()
                  if ": slope = " in line]
    assert len(rate_lines) == 5
    assert all(line.endswith("PASS") for line in rate_lines)


def test_steady_outputs_deterministic(tmp_path):
    conf = _write(tmp_path, "u_b = -0.04\nr_max = 50\nnodes_r = 128\n")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["steady", "--config", conf, "--out", str(a)]) == EXIT_OK
    assert main(["steady", "--config", conf, "--out", str(b)]) == EXIT_OK
    assert (a / "profile.csv").read_bytes() == (b / "profile.csv").read_bytes()


def test_verify_energy_subcommand(tmp_path):
    out = tmp_path / "ve"
    assert main(["verify-energy", "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["passed"] is True
    assert manifest["criteria"]["identities_ok"] is True


def test_evolve_and_report_roundtrip(tmp_path):
    conf = _write(tmp_path, "\n".join([
        "u_b = -0.05", "r_max = 30", "nodes_r = 192", "t_end = 3.0",
        "amplitude = 0.02", "output_every = 100", "decay_target = 1.0", ""]))
    out = tmp_path / "run"
    assert main(["evolve-sym", "--config", conf, "--out", str(out)]) == EXIT_OK
    assert (out / "state_sym.csv").exists()
    assert (out / "energy_sym.csv").exists()
    rep_out = tmp_path / "rep"
    assert main(["report", "--config", conf, "--out", str(rep_out),
                 "--run-dir", str(out)]) == EXIT_OK
    data = np.genfromtxt(rep_out / "energy_report.csv", delimiter=",", names=True)
    assert data["total_relative_energy"] >= 0.0
    # report measures against the run's own reference, the scheme's equilibrium
    run = np.genfromtxt(out / "energy_sym.csv", delimiter=",", names=True)
    assert data["total_relative_energy"] == run["total_relative_energy"][-1]
    manifest = json.loads((out / "manifest.json").read_text())
    assert 0.0 <= manifest["criteria"]["odd_even"] < 1e-3
    # the dump is not read back onto a grid it was not written on
    other = _write(tmp_path, (tmp_path / "run.conf").read_text().replace(
        "r_max = 30", "r_max = 20"), name="other.conf")
    bad_out = tmp_path / "rep_other"
    assert main(["report", "--config", other, "--out", str(bad_out),
                 "--run-dir", str(out)]) == EXIT_CONFIG
    assert not (bad_out / "energy_report.csv").exists()


@pytest.mark.parametrize("sub, grid", [
    ("evolve-sym", ["r_max = 30", "nodes_r = 192"]),
    ("evolve-axi", ["r_max = 20", "nodes_r = 64", "nodes_theta = 8"]),
])
def test_run_manifest_says_whether_the_envelope_was_graded(tmp_path, sub, grid):
    """A short run has too few samples for the envelope windows: its manifest
    and run log say that the envelope went ungraded."""
    conf = _write(tmp_path, "\n".join(grid + [
        "u_b = -0.05", "t_end = 1.0", "amplitude = 0.02", "output_every = 100",
        "decay_target = 1.0", ""]))
    out = tmp_path / "run"
    main([sub, "--config", conf, "--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["criteria"]["envelope_graded"] is False
    assert "envelope_graded=False" in (out / "run_log.txt").read_text()


def test_failed_decay_gives_criteria_exit(tmp_path):
    conf = _write(tmp_path, "\n".join([
        "u_b = -0.05", "r_max = 30", "nodes_r = 192", "t_end = 1.0",
        "amplitude = 0.02", "output_every = 50", "decay_target = 1000.0", ""]))
    out = tmp_path / "run"
    assert main(["evolve-sym", "--config", conf, "--out", str(out)]) == EXIT_CRITERIA
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["passed"] is False
    assert "(decay target missed)" in (out / "run_log.txt").read_text()


def test_config_text_round_trips_keys(tmp_path):
    cfg = Config()
    text = config_text(cfg)
    assert "gamma" in text and "nodes_theta" in text
    # hash input is stable across calls
    assert text == config_text(Config())


def test_failed_runs_leave_a_manifest(tmp_path):
    """An error exit still writes manifest.json with the code and the error."""
    conf = _write(tmp_path, "u_b = -200\n")
    out = tmp_path / "steady"
    assert main(["steady", "--config", conf, "--out", str(out)]) == EXIT_NONCONVERGENCE
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["passed"] is False
    assert manifest["outputs"] == []
    crit = manifest["criteria"]
    assert crit["exit_code"] == EXIT_NONCONVERGENCE
    assert crit["error"] == "NonConvergence"
    assert "did not converge" in crit["message"]
    assert crit["iterations"] >= 1 and crit["residual"] > 0.0

    empty = tmp_path / "empty"
    empty.mkdir()
    out = tmp_path / "rep"
    assert main(["report", "--run-dir", str(empty), "--out", str(out)]) == EXIT_CONFIG
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["passed"] is False
    assert manifest["criteria"]["exit_code"] == EXIT_CONFIG
    assert manifest["criteria"]["error"] == "ConfigError"
    assert "no state dump" in manifest["criteria"]["message"]

    # a perturbation that leaves a nonpositive initial density stops at t = 0
    conf = _write(tmp_path, "u_b = -0.05\nr_max = 20\nnodes_r = 127\namplitude = -2.0\n",
                  name="dip.conf")
    out = tmp_path / "dip"
    assert main(["evolve-sym", "--config", conf, "--out", str(out)]) == EXIT_STABILITY
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == []
    assert manifest["criteria"]["exit_code"] == EXIT_STABILITY
    assert manifest["criteria"]["error"] == "PositivityLoss"
    assert "t = 0" in manifest["criteria"]["message"]

    # a config that fails to load, cannot be found or is not UTF-8 text
    bad = _write(tmp_path, "gamm = 1.4\n")
    missing = str(tmp_path / "nonexistent.conf")
    binary = tmp_path / "binary.conf"
    binary.write_bytes(b"gamma = 1.4\n\xff\xfe = 2\n")
    cases = ((bad, "UnknownKey"), (missing, "ConfigError"), (str(binary), "ConfigError"))
    for k, (conf, error) in enumerate(cases):
        out = tmp_path / f"conf_{k}"
        assert main(["steady", "--config", conf, "--out", str(out)]) == EXIT_CONFIG
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["passed"] is False
        assert manifest["config_sha256"] is None
        assert manifest["criteria"]["exit_code"] == EXIT_CONFIG
        assert manifest["criteria"]["error"] == error
        assert manifest["criteria"]["message"]


def test_steady_verdict_includes_the_rate_report(tmp_path, monkeypatch):
    # the default configuration fits all five rates
    out = tmp_path / "default"
    assert main(["steady", "--out", str(out)]) == EXIT_OK
    rate_lines = [line for line in (out / "rate_report.txt").read_text().splitlines()
                  if ": slope = " in line]
    assert len(rate_lines) == 5 and all(line.endswith("PASS") for line in rate_lines)
    assert json.loads((out / "manifest.json").read_text())["criteria"]["rate_fit"] is True

    # a window too short to fit is reported and does not fail the run
    conf = _write(tmp_path, "u_b = -0.05\nr_max = 60\nnodes_r = 256\n"
                            "grid_kind = geometric\n")
    out = tmp_path / "short"
    assert main(["steady", "--config", conf, "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["passed"] is True
    assert manifest["criteria"]["rate_fit"].startswith("skipped: ")

    # a failed rate line fails the run
    real = cli.verify_decay

    def off_target(profile, **kw):
        rep = real(profile, **kw)
        slopes = dict(rep.slopes, d_u=rep.slopes["d_u"] + 1.0)
        return dataclasses.replace(rep, slopes=slopes)

    monkeypatch.setattr(cli, "verify_decay", off_target)
    out = tmp_path / "fail"
    assert main(["steady", "--out", str(out)]) == EXIT_CRITERIA
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["passed"] is False
    assert manifest["criteria"]["rate_fit"] is False
    assert any(line.startswith("d_u:") and line.endswith("FAIL")
               for line in (out / "rate_report.txt").read_text().splitlines())


def test_steady_reports_its_regime(tmp_path):
    """boundary_mach and subsonic are recorded but do not grade the run."""
    regimes = {"fast": ("u_b = -20\nr_max = 60\nnodes_r = 256\n", False),
               "acceptance": ("u_b = -0.05\nr_max = 200\nnodes_r = 2048\n", True)}
    for name, (text, subsonic) in regimes.items():
        conf = _write(tmp_path, text + "grid_kind = geometric\n", name=f"{name}.conf")
        out = tmp_path / name
        assert main(["steady", "--config", conf, "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["passed"] is True
        crit = manifest["criteria"]
        assert crit["subsonic"] is subsonic
        params = parse_config(conf).params
        rho_1 = np.genfromtxt(out / "profile.csv", delimiter=",", names=True)["rho_t"][0]
        c_1 = np.sqrt(params.gamma * params.k_pressure * rho_1 ** (params.gamma - 1.0))
        assert crit["boundary_mach"] == pytest.approx(abs(params.u_b) / c_1, rel=1e-12)
        assert (crit["boundary_mach"] < 1.0) is subsonic


@pytest.mark.parametrize("sub, in_file", [("verify-ops", False),
                                          ("verify-energy", False),
                                          ("verify-ops", True)])
def test_negative_seed_is_a_config_error(tmp_path, sub, in_file):
    """seed < 0 is rejected up front (exit 2), on the command line or in a file."""
    seed = (["--config", _write(tmp_path, "seed = -1\n")] if in_file
            else ["--seed", "-1"])
    out = tmp_path / "out"
    assert main([sub, *seed, "--out", str(out)]) == EXIT_CONFIG
    crit = json.loads((out / "manifest.json").read_text())["criteria"]
    assert crit["exit_code"] == EXIT_CONFIG
    assert crit["error"] == "ConstraintViolation"
    assert "seed" in crit["message"]


@pytest.mark.parametrize("ell", [-1, -2, 5])
def test_mode_outside_the_graded_range_is_a_config_error(tmp_path, ell):
    """mode_ell = -1 would run as P_0, -2 as P_1, and 5 is not among the
    N_MODES = 5 projected modes: each exits 2 before any run, with a manifest."""
    conf = _write(tmp_path, f"mode_ell = {ell}\n")
    out = tmp_path / "out"
    assert main(["evolve-axi", "--config", conf, "--out", str(out)]) == EXIT_CONFIG
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["passed"] is False
    crit = manifest["criteria"]
    assert crit["exit_code"] == EXIT_CONFIG
    assert crit["error"] == "ConstraintViolation"
    assert "mode_ell" in crit["message"]
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


@pytest.mark.parametrize("sub, text, key", [
    ("steady", "nodes_r = 8\n", "nodes_r"),
    ("evolve-axi", "nodes_theta = 4\n", "nodes_theta"),
])
def test_a_grid_too_small_is_a_config_error(tmp_path, sub, text, key):
    """A grid that its constructor refuses exits 2, with a manifest."""
    conf = _write(tmp_path, text)
    out = tmp_path / "out"
    assert main([sub, "--config", conf, "--out", str(out)]) == EXIT_CONFIG
    crit = json.loads((out / "manifest.json").read_text())["criteria"]
    assert crit["exit_code"] == EXIT_CONFIG
    assert crit["error"] == "ConstraintViolation"
    assert key in crit["message"]


@pytest.mark.parametrize("text, key", [
    ("cfl_safety = 0.0\n", "cfl_safety"),  # dt = 0 would never advance t
    ("cfl_safety = -0.4\n", "cfl_safety"),
    ("cfl_safety = nan\n", "cfl_safety"),
    ("output_every = 0\n", "output_every"),
    ("dt = 0.0\n", "dt"),
    ("dt = -0.001\n", "dt"),
    ("t_end = 0.0\n", "t_end"),  # no step would be taken
    ("t_end = -1.0\n", "t_end"),
    ("t_end = nan\n", "t_end"),
    ("steady_tol = -1\n", "steady_tol"),
    ("steady_tol = nan\n", "steady_tol"),
    ("slope_tol = -1\n", "slope_tol"),
    ("slope_tol = nan\n", "slope_tol"),
    ("amplitude = nan\n", "amplitude"),
    ("decay_target = nan\n", "decay_target"),  # would fail every decay
    ("decay_target = inf\n", "decay_target"),
    ("decay_target = -1\n", "decay_target"),  # would pass a run that did not decay
    ("decay_target = 0.5\n", "decay_target"),
    ("dim_n = 2\n", "dim_n"),
    ("dim_n = 4\n", "dim_n"),
])
def test_a_run_value_the_run_cannot_use_is_a_config_error(tmp_path, monkeypatch,
                                                          text, key):
    """The run configuration's own rule rejects these before any solve: each
    stepping subcommand exits 2, with a manifest.  A file with dim_n != 3 is
    sound, as `steady` solves the profile in any dimension n >= 2; only the
    subcommands that step the three-dimensional solver refuse it."""
    conf = _write(tmp_path, text)
    if key == "dim_n":
        assert parse_config(conf).params.dim_n != 3
    else:
        with pytest.raises(ConstraintViolation, match=key):
            parse_config(conf)

    def no_solve(*args, **kwargs):
        raise AssertionError("a refused configuration was solved")

    monkeypatch.setattr(cli, "solve_steady", no_solve)
    for sub in ("evolve-sym", "evolve-axi", "report"):
        out = tmp_path / sub
        assert main([sub, "--config", conf, "--out", str(out)]) == EXIT_CONFIG
        crit = json.loads((out / "manifest.json").read_text())["criteria"]
        assert crit["error"] == "ConstraintViolation"
        assert key in crit["message"]
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
