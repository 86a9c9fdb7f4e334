import dataclasses
import json

import numpy as np
import pytest

from outflow import cli
from outflow.cli import EXIT_CONFIG, EXIT_CRITERIA, EXIT_NONCONVERGENCE, EXIT_OK, main
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
    # the dump is not read back onto a grid it was not written on
    other = _write(tmp_path, (tmp_path / "run.conf").read_text().replace(
        "r_max = 30", "r_max = 20"), name="other.conf")
    bad_out = tmp_path / "rep_other"
    assert main(["report", "--config", other, "--out", str(bad_out),
                 "--run-dir", str(out)]) == EXIT_CONFIG
    assert not (bad_out / "energy_report.csv").exists()


def test_failed_decay_gives_criteria_exit(tmp_path):
    conf = _write(tmp_path, "\n".join([
        "u_b = -0.05", "r_max = 30", "nodes_r = 192", "t_end = 1.0",
        "amplitude = 0.02", "output_every = 50", "decay_target = 1000.0", ""]))
    out = tmp_path / "run"
    assert main(["evolve-sym", "--config", conf, "--out", str(out)]) == EXIT_CRITERIA
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["passed"] is False


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
