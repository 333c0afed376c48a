"""CLI surface: subcommands, exit codes, output formats, determinism."""
import json

import pytest

from gridse.cli import cli_dispatch
from gridse.scenario import builtin_case_dir

SCALAR_CONFIG = str(builtin_case_dir("scalar_controller.json"))


def run(capsys, argv):
    code = cli_dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pf_stdout_json(capsys):
    code, out, err = run(capsys, ["pf", "--case", "ieee14"])
    assert code == 0
    payload = json.loads(out)
    assert payload["converged"] is True
    assert payload["iterations"] <= 10
    assert len(payload["buses"]) == 14
    assert payload["buses"][0]["angle_deg"] == 0.0


def test_pf_out_file(capsys, tmp_path):
    out_path = tmp_path / "pf.json"
    code, out, err = run(capsys, ["pf", "--case", "ieee14", "--out", str(out_path)])
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["converged"] is True


def test_pf_nonconvergence_exit_code(capsys):
    code, out, err = run(capsys, ["pf", "--case", "ieee14", "--max-iter", "1"])
    assert code == 1
    assert json.loads(out)["converged"] is False


def test_unknown_flag_is_usage_error(capsys):
    code, out, err = run(capsys, ["pf", "--case", "ieee14", "--bogus"])
    assert code == 2
    assert "usage" in err.lower()


def test_unknown_command_is_usage_error(capsys):
    code, out, err = run(capsys, ["frobnicate"])
    assert code == 2


def test_missing_required_flag(capsys):
    code, out, err = run(capsys, ["estimate", "--case", "ieee14"])
    assert code == 2


def test_bad_case_exits_2(capsys):
    code, out, err = run(capsys, ["pf", "--case", "no_such_case"])
    assert code == 2
    assert "error" in err


def test_estimate_noise_off_recovers(capsys):
    code, out, err = run(capsys, ["estimate", "--case", "ieee14", "--seed", "1", "--noise-off"])
    assert code == 0
    payload = json.loads(out)
    assert payload["converged"] is True
    assert payload["objective"] < 1e-10
    assert payload["measurement_count"] == 122


def test_estimate_seeded_noise(capsys):
    code, out, err = run(capsys, ["estimate", "--case", "ieee14", "--seed", "42"])
    assert code == 0
    payload = json.loads(out)
    assert payload["objective"] > 1.0  # noisy fit has chi-square-scale objective
    assert len(payload["buses"]) == 14


def test_snapshots_byte_identical(capsys, tmp_path):
    args = ["snapshots", "--case", "ieee14", "--count", "2", "--load-scale", "1.0,0.98", "--seed", "11"]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(capsys, args + ["--out", str(p1)])[0] == 0
    assert run(capsys, args + ["--out", str(p2)])[0] == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_snapshots_json_extension_selects_json(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, *_ = run(capsys, [
        "snapshots", "--case", "ieee14", "--count", "2",
        "--load-scale", "1.0,1.02", "--seed", "4", "--out", str(out_path),
    ])
    assert code == 0
    rows = json.loads(out_path.read_text())["rows"]
    assert len(rows) == 28


def test_snapshots_stdout_csv(capsys):
    code, out, err = run(capsys, [
        "snapshots", "--case", "ieee14", "--count", "1", "--load-scale", "1.0", "--seed", "0",
    ])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("snapshot,bus,")
    assert len(lines) == 15


def test_snapshots_scale_count_mismatch(capsys):
    code, out, err = run(capsys, [
        "snapshots", "--case", "ieee14", "--count", "3", "--load-scale", "1.0,0.98", "--seed", "0",
    ])
    assert code == 2
    assert "error" in err


def test_snapshots_failed_snapshot_exits_1(capsys):
    code, out, err = run(capsys, [
        "snapshots", "--case", "ieee14", "--count", "2", "--load-scale", "1.0,50.0", "--seed", "0",
    ])
    assert code == 1
    assert "snapshot 1 failed" in err


def test_controller_solve(capsys):
    code, out, err = run(capsys, ["controller", "solve", "--config", SCALAR_CONFIG])
    assert code == 0
    payload = json.loads(out)
    assert payload["P"][0][0] == pytest.approx(1.0 / (1.0 - 0.95 * 0.81), abs=1e-12)
    assert payload["max_affine_gap"] < 1e-9
    assert "closed_form_delta" in payload


def test_controller_solve_unstable_config(capsys, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({
        "A": [[1.2]], "b": [0.1], "alpha": 0.95, "beta": 0.1, "Q": [[1.0]], "r": [0.0],
    }))
    code, out, err = run(capsys, ["controller", "solve", "--config", str(cfg)])
    assert code == 2


def test_controller_config_json_list_exits_2(capsys, tmp_path):
    cfg = tmp_path / "list.json"
    cfg.write_text("[1,2]")
    code, out, err = run(capsys, ["controller", "solve", "--config", str(cfg)])
    assert code == 2
    assert "list.json" in err
    assert "config must be a JSON object" in err


def test_controller_simulate(capsys, tmp_path):
    traj = tmp_path / "traj.csv"
    code, out, err = run(capsys, [
        "controller", "simulate", "--config", SCALAR_CONFIG,
        "--steps", "50", "--x0", "0.0", "--z0", "0", "--out", str(traj),
    ])
    assert code == 0
    summary = json.loads(out)
    assert summary["discounted_total"] > 0
    lines = traj.read_text().strip().split("\n")
    assert lines[0] == "step,x1,u,stage_cost"
    assert len(lines) == 51


def test_controller_simulate_x0_dimension_check(capsys):
    code, out, err = run(capsys, [
        "controller", "simulate", "--config", SCALAR_CONFIG,
        "--steps", "10", "--x0", "0.0,1.0", "--z0", "0",
    ])
    assert code == 2


def test_controller_oracle(capsys, tmp_path):
    grid = tmp_path / "grid.csv"
    code, out, err = run(capsys, [
        "controller", "oracle", "--config", SCALAR_CONFIG,
        "--box", "-0.5,2.5", "--resolution", "201", "--out", str(grid),
    ])
    assert code == 0
    report = json.loads(out)
    assert report["final_residual"] < 1e-8
    assert report["clamped"] is False
    assert report["quadratic_comparison"]["points"] > 0
    lines = grid.read_text().strip().split("\n")
    assert lines[0] == "x1,v0,v1"
    assert len(lines) == 202


def test_controller_oracle_bad_box(capsys):
    code, out, err = run(capsys, [
        "controller", "oracle", "--config", SCALAR_CONFIG,
        "--box", "1,2,3", "--resolution", "11",
    ])
    assert code == 2


def test_help_exits_zero(capsys):
    code, out, err = run(capsys, ["--help"])
    assert code == 0
