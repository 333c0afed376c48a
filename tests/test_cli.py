"""CLI surface: subcommands, exit codes, output formats, determinism."""
import contextlib
import csv
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import gridse.cli
import gridse.controller
from gridse.cli import _write_table, cli_dispatch
from gridse.controller import MAX_GRID_POINTS, MAX_STEPS, LyapunovResidual, solve_quadratic_value
from gridse.scenario import _csv_text, builtin_case_dir, load_switched_system

SCALAR_CONFIG = str(builtin_case_dir("scalar_controller.json"))
CONFIG_2D = Path(__file__).parent / "golden" / "controller_2d.json"


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


def test_estimate_truth_nonconvergence_exits_1(capsys, tmp_path):
    """Loads x50 leave the truth power flow without a solution: exit 1, no JSON."""
    case = tmp_path / "case"
    shutil.copytree(builtin_case_dir("ieee14"), case)
    lines = (case / "buses.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        row[4], row[5] = repr(50 * float(row[4])), repr(50 * float(row[5]))
    (case / "buses.csv").write_text("\n".join([lines[0], *(",".join(r) for r in rows)]) + "\n")
    code, out, err = run(capsys, ["estimate", "--case", str(case), "--seed", "7"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: truth power flow did not converge")


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
    assert err == "error: --count: count 3 does not match the 2 load_scale entries\n"
    assert out == ""


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


@pytest.mark.parametrize("config", [
    # near a unit root: P ~ 3e4, theta ~ -5e3, quadratic forms ~ 8e11
    {"A": [[0.99999]], "b": [0.2], "alpha": 0.99999, "beta": 0.1, "Q": [[1.0]], "r": [1.0]},
    # the shipped scalar config with Q scaled by 1e6: quadratic forms ~ 4e6
    {"A": [[0.9]], "b": [0.2], "alpha": 0.95, "beta": 0.1, "Q": [[1e6]], "r": [1.0]},
])
def test_controller_solve_large_quadratic_forms_exits_0(capsys, tmp_path, config):
    cfg = tmp_path / "system.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run(capsys, ["controller", "solve", "--config", str(cfg)])
    assert code == 0, err
    payload = json.loads(out)
    p, theta = payload["P"][0][0], payload["theta"][0]
    b = config["b"][0]
    assert payload["delta"][0] == pytest.approx(2 * config["A"][0][0] * p * b, rel=1e-12)
    assert payload["zeta"] == pytest.approx(b * p * b - 2 * theta * p * b, rel=1e-12)


def test_controller_non_affine_residual_exits_1(capsys, tmp_path, monkeypatch):
    # a non-symmetric P breaks the symmetric expansion of V(Ax+b) - V(Ax):
    # a solver failure, reported without a traceback
    import gridse.cli
    from gridse.controller import QuadraticValue

    cfg = tmp_path / "system.json"
    cfg.write_text(json.dumps({
        "A": [[0.5, 0.0], [0.0, 0.6]], "b": [1.0, 0.0], "alpha": 0.9, "beta": 0.1,
        "Q": [[1.0, 0.0], [0.0, 1.0]], "r": [1.0, 1.0],
    }))
    bad_p = QuadraticValue(P=[[2.0, 1.0], [0.0, 2.0]], theta=[0.5, 0.5], v=0.0)
    monkeypatch.setattr(gridse.cli, "solve_quadratic_value", lambda system: bad_p)
    code, out, err = run(capsys, ["controller", "solve", "--config", str(cfg)])
    assert code == 1
    assert err.startswith("error: affinity check failed")
    assert "Traceback" not in err


_SCALAR = {"A": [[0.9]], "b": [0.2], "alpha": 0.95, "beta": 0.1, "Q": [[1.0]], "r": [1.0]}
_CONTINUOUS = {"continuous": {"a": [[-1.0]], "b": [2.0], "dt": 0.1},
               "alpha": 0.95, "beta": 0.1, "Q": [[1.0]], "r": [1.0]}


def _controller_commands(config: dict) -> list:
    """solve, simulate and oracle argv tails for a config of n = len(b) dimensions."""
    n = len(config["b"])
    return [["solve"], ["simulate", "--steps", "50", "--x0", ",".join(["0.1"] * n), "--z0", "0"],
            ["oracle", "--box", "-1,1.5", "--resolution", "21"]]


@pytest.mark.parametrize("config", [
    # P ~ 4.3e7, 4.3e9 and ~1e8: absolute fixed-point residuals 3.7e-09, 4.8e-07 and 3.0e-08
    {**_SCALAR, "Q": [[1e7]]},
    {**_SCALAR, "Q": [[1e9]]},
    {**json.loads(CONFIG_2D.read_text()), "Q": [[1e7, 0.0], [0.0, 1e7]]},
])
def test_controller_large_q_passes_the_relative_residual_gate(capsys, tmp_path, config):
    cfg = tmp_path / "system.json"
    cfg.write_text(json.dumps(config))
    for command in _controller_commands(config):
        code, out, err = run(capsys, ["controller", command[0], "--config", str(cfg), *command[1:]])
        assert code == 0, err
        assert "unavailable" not in err


def test_controller_lyapunov_residual_exits_1(capsys, tmp_path, monkeypatch):
    # a P off its fixed point by 1e-6 relative, far past the 1e-10 * max|P| gate
    solve = gridse.controller.solve_discrete_lyapunov
    monkeypatch.setattr(gridse.controller, "solve_discrete_lyapunov", lambda a, q: solve(a, q) * (1 + 1e-6))
    with pytest.raises(LyapunovResidual):
        solve_quadratic_value(load_switched_system(SCALAR_CONFIG)[0])
    for command in _controller_commands(_SCALAR):
        code, out, err = run(capsys, ["controller", command[0], "--config", SCALAR_CONFIG, *command[1:]])
        assert "Traceback" not in err
        if command[0] == "oracle":  # the comparison is reported unavailable, as for an unstable system
            assert code == 0, err
            assert json.loads(err)["quadratic_comparison"]["unavailable"].startswith("fixed-point residual")
        else:
            assert code == 1
            assert err.startswith("error: fixed-point residual") and out == ""


@pytest.mark.parametrize("config", [
    {**_SCALAR, "beta": float("nan")},
    {**_SCALAR, "alpha": float("nan")},
    {**_SCALAR, "r": [float("nan")]},
    {**_SCALAR, "A": [[float("inf")]]},
    {**_SCALAR, "b": [float("-inf")]},
    {**_SCALAR, "Q": [[float("nan")]]},
    {**_SCALAR, "output": [float("nan")]},
    {**_SCALAR, "beta": "0.1x"},
    {**_CONTINUOUS, "continuous": {"a": [[float("nan")]], "b": [2.0], "dt": 0.1}},
    {**_CONTINUOUS, "continuous": {"a": [[-1.0]], "b": [float("inf")], "dt": 0.1}},
    {**_CONTINUOUS, "continuous": {"a": [[-1.0]], "b": [2.0], "dt": float("inf")}},
])
@pytest.mark.parametrize("command", [["solve"], ["simulate", "--steps", "5", "--x0", "0", "--z0", "0"]])
def test_controller_non_finite_config_exits_2(capsys, tmp_path, config, command):
    cfg = tmp_path / "nonfinite.json"
    cfg.write_text(json.dumps(config))  # json writes NaN / Infinity literals
    code, out, err = run(capsys, ["controller", command[0], "--config", str(cfg), *command[1:]])
    assert code == 2
    assert "nonfinite.json" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("config, column, reason", [
    ({**_SCALAR, "alpha": 1.5}, "alpha", "alpha must be in (0, 1), got 1.5"),
    ({**_SCALAR, "alpha": [0.5, 0.2]}, "alpha", "expected one number"),
    ({**_SCALAR, "beta": -1.0}, "beta", "beta must be >= 0"),
    ({**_SCALAR, "A": [[0.9, 0.1]]}, "A", "A must be a square matrix"),
    ({**_SCALAR, "Q": [[-1.0]]}, "Q", "Q must be positive semidefinite"),
    ({**_SCALAR, "b": [0.2, 0.1]}, "b", "b must have length n = 1, got shape (2,)"),
    ({k: v for k, v in _SCALAR.items() if k != "r"}, "r", "missing config key"),
    ({**_CONTINUOUS, "continuous": {"a": [[-1.0]], "b": [2.0], "dt": 0}}, "dt", "dt must be finite and > 0"),
    ({**_CONTINUOUS, "continuous": {"a": [[-1.0]], "b": [2.0, 1.0], "dt": 0.1}}, "b",
     "b must have length n = 1, got shape (2,)"),
    ({**_CONTINUOUS, "continuous": [1.0]}, "continuous", "expected an object"),
    ({**_SCALAR, "r": [0.0, 1.0]}, "r", "r must have length n = 1, got shape (2,)"),
    ({**_SCALAR, "Q": [[1.0, 0.0], [0.0, 1.0]]}, "Q", "Q must be n x n with n = 1, got shape (2, 2)"),
    ({**_CONTINUOUS, "continuous": {"a": [[1e300]], "b": [1.0], "dt": 1e10}}, "a", "a and a * dt must be finite"),
    ({**_SCALAR, "beta": True}, "beta", "expected finite numbers, got True"),
    ({**_SCALAR, "A": [[True]]}, "A", "expected finite numbers, got [[True]]"),
    ({**_SCALAR, "output": [False]}, "output", "expected finite numbers, got [False]"),
    ({**_CONTINUOUS, "continuous": {"a": [[-1.0]], "b": [2.0], "dt": True}}, "dt", "expected finite numbers"),
    ({**_SCALAR, "Q": [[1.0, 0.0], [0.0, False]], "A": [[0.9, 0.0], [0.0, 0.9]], "b": [0.2, 0.2], "r": [1.0, 1.0]},
     "Q", "expected finite numbers"),
])
def test_controller_config_out_of_range_names_file_and_key(capsys, tmp_path, config, column, reason):
    cfg = tmp_path / "system.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run(capsys, ["controller", "solve", "--config", str(cfg)])
    assert code == 2
    assert err.startswith(f"error: {cfg}:0: column '{column}': ") and reason in err
    assert "Traceback" not in err and out == ""


def test_controller_simulate_output_that_overflows_exits_2(capsys, tmp_path):
    # y overflowed with a RuntimeWarning, inf in every y cell and exit 0
    cfg = tmp_path / "system.json"
    cfg.write_text(json.dumps({**_SCALAR, "output": [1e307]}))
    code, out, err = run(capsys, ["controller", "simulate", "--config", str(cfg), "--steps", "5", "--x0", "100",
                                  "--z0", "0"])
    assert (code, out) == (2, "")
    assert err == "error: --x0: the output y of the rollout from x0 = [100.0] leaves the float range within 5 steps\n"


@pytest.mark.parametrize("x0", ["nan", "inf", "1e999"])
def test_controller_simulate_non_finite_x0_exits_2(capsys, x0):
    code, out, err = run(capsys, [
        "controller", "simulate", "--config", SCALAR_CONFIG, "--steps", "5", "--x0", x0, "--z0", "0",
    ])
    assert code == 2
    assert "--x0" in err


@pytest.mark.parametrize("box", ["0,inf", "-1e999,1", "nan,1", "0,nan"])
def test_controller_oracle_non_finite_box_exits_2(capsys, box):
    code, out, err = run(capsys, [
        "controller", "oracle", "--config", SCALAR_CONFIG, "--box", box, "--resolution", "11",
    ])
    assert code == 2
    assert "--box" in err


@pytest.mark.parametrize("scales", ["nan", "inf", "1.0,nan", "-inf,1.0"])
def test_snapshots_non_finite_load_scale_exits_2(capsys, scales):
    count = str(len(scales.split(",")))
    code, out, err = run(capsys, [
        "snapshots", "--case", "ieee14", "--count", count, "--load-scale", scales, "--seed", "0",
    ])
    assert code == 2
    assert "--load-scale" in err
    assert out == ""


@pytest.mark.parametrize("flag, argv", [
    ("--x0", ["controller", "simulate", "--config", SCALAR_CONFIG, "--steps", "5", "--x0", "abc", "--z0", "0"]),
    ("--box", ["controller", "oracle", "--config", SCALAR_CONFIG, "--box", "a,b", "--resolution", "11"]),
    ("--load-scale", ["snapshots", "--case", "ieee14", "--count", "2", "--load-scale", "1.0,x", "--seed", "0"]),
])
def test_non_numeric_list_entry_names_the_flag(capsys, flag, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert err.startswith(f"error: {flag}: ")
    assert out == ""


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
def test_pf_bad_tol_exits_2(capsys, tol):
    code, out, err = run(capsys, ["pf", "--case", "ieee14", "--tol", tol])
    assert code == 2
    assert "tol must be finite and > 0" in err
    assert out == ""


_HUGE = "1" + "0" * 400  # a JSON int past the float range


def _nested(depth: int, leaf: str) -> str:
    return "[" * depth + leaf + "]" * depth


@pytest.mark.parametrize("config, key, raw", [
    # each used to run, reshaped to a vector or read as a number, or to end in a traceback
    ({**_SCALAR, "A": (np.eye(4) * 0.9).tolist(), "Q": np.eye(4).tolist(), "r": [[1.0, 0.0], [0.0, 1.0]]},
     "b", "[[0.1, 0.2], [0.3, 0.4]]"),
    (_SCALAR, "b", "0.2"), (_SCALAR, "b", "[[0.2]]"),
    (_SCALAR, "r", "1.0"), (_SCALAR, "r", "[[1.0]]"),
    (_SCALAR, "output", "2.0"), (_SCALAR, "output", "[[2.0]]"),
    (_SCALAR, "alpha", "[0.95]"),
    (_SCALAR, "beta", '" 1_0 "'), (_SCALAR, "A", '[["0.9"]]'), (_SCALAR, "output", '["2"]'),
    (_SCALAR, "beta", _HUGE), (_SCALAR, "A", f"[[{_HUGE}]]"), (_SCALAR, "output", f"[{_HUGE}]"),
    (_SCALAR, "b", _nested(40, "0.2")), (_SCALAR, "b", _nested(900, "0.2")),
    (_SCALAR, "beta", _nested(40, "0.1")), (_SCALAR, "beta", _nested(900, "0.1")),
], ids=["b-2x2-of-4-states", "b-number", "b-1x1", "r-number", "r-1x1", "output-number", "output-1x1",
        "alpha-list", "beta-string", "A-string", "output-string", "beta-huge-int", "A-huge-int",
        "output-huge-int", "b-depth-40", "b-depth-900", "beta-depth-40", "beta-depth-900"])
def test_controller_config_value_not_of_its_shape_exits_2(capsys, tmp_path, config, key, raw):
    cfg = tmp_path / "system.json"
    cfg.write_text(json.dumps({**config, key: "@"}).replace('"@"', raw))
    code, out, err = run(capsys, ["controller", "solve", "--config", str(cfg)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {cfg}:0: column '{key}': ") and "Traceback" not in err


@pytest.mark.parametrize("raw", ["-1.0", "[-1.0]"])
def test_controller_continuous_a_not_a_matrix_exits_2(capsys, tmp_path, raw):
    # np.atleast_2d used to take either one for [[-1.0]]
    cfg = tmp_path / "system.json"
    cfg.write_text(json.dumps({**_CONTINUOUS, "continuous": {**_CONTINUOUS["continuous"], "a": "@"}})
                   .replace('"@"', raw))
    code, out, err = run(capsys, ["controller", "solve", "--config", str(cfg)])
    assert (code, out) == (2, "")
    assert err == f"error: {cfg}:0: column 'a': a must be a square matrix\n"


@pytest.mark.parametrize("argv, name", [
    (["controller", "solve", "--config"], "system.json"),
    (["pf", "--case"], "case.json"),
])
def test_json_nested_past_the_recursion_limit_exits_2(capsys, tmp_path, argv, name):
    # json.loads raised RecursionError, a traceback with exit 1
    text = '{"A": ' + _nested(100_000, "") + "}"
    if name == "case.json":
        path = _case_dir(tmp_path, name, text)
    else:
        path = tmp_path / name
        path.write_text(text)
    code, out, err = run(capsys, [*argv, str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and name in err and "Traceback" not in err


@pytest.mark.parametrize("command", [["solve"], ["simulate", "--steps", "3", "--x0", "0", "--z0", "0"]])
def test_controller_output_gain_of_wrong_length_exits_2(capsys, tmp_path, command):
    config = json.loads(builtin_case_dir("scalar_controller.json").read_text())
    cfg = tmp_path / "gain.json"
    cfg.write_text(json.dumps({**config, "output": [1.0, 2.0]}))
    code, out, err = run(capsys, ["controller", command[0], "--config", str(cfg), *command[1:]])
    assert code == 2
    assert "gain.json" in err and "'output'" in err
    assert out == ""


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flag", ["--sigma-v", "--sigma-inj", "--sigma-flow"])
@pytest.mark.parametrize("value", ["inf", "nan", "0", "-0.01"])
def test_estimate_bad_sigma_exits_2(capsys, flag, value):
    code, out, err = run(capsys, ["estimate", "--case", "ieee14", "--seed", "7", flag, value])
    name = flag[2:].replace("-", "_")
    assert code == 2
    assert f"error: {flag}: {name} must be > 0 with a finite weight 1/{name}**2 > 0, got {float(value)}" in err
    assert out == ""


@pytest.mark.parametrize("flag, value", [("--sigma-inj", "1e-160"), ("--sigma-flow", "1e170"), ("--sigma-v", "1e-300")])
def test_estimate_sigma_without_a_finite_weight_exits_2(capsys, flag, value):
    code, out, err = run(capsys, ["estimate", "--case", "ieee14", "--seed", "7", flag, value])
    name = flag[2:].replace("-", "_")
    assert code == 2
    assert err == f"error: {flag}: {name} must be > 0 with a finite weight 1/{name}**2 > 0, got {float(value)}\n"
    assert out == ""


@pytest.mark.parametrize("flag", ["--sigma-inj", "--sigma-v"])
def test_estimate_sigma_whose_weight_overflows_the_gain_exits_2(capsys, flag):
    # 1/sigma^2 = 1e308 is finite, but the weighted SSE or H^T W H is not
    code, out, err = run(capsys, ["estimate", "--case", "ieee14", "--seed", "7", flag, "1e-154"])
    assert code == 2
    assert err == "error: sigma 1e-154 is too small: its weight 1/sigma^2 overflows the objective or the gain\n"
    assert out == ""


def _write_case(directory, buses, branches):
    directory.mkdir()
    (directory / "buses.csv").write_text(_csv_text(
        ["bus", "vsp_pu", "pg_mw", "qg_mvar", "pl_mw", "ql_mvar", "kind"],
        [[str(b.id), *map(repr, (b.v_setpoint, b.p_gen, b.q_gen, b.p_load, b.q_load)), b.kind.value if b.kind else ""]
         for b in buses]))
    (directory / "lines.csv").write_text(_csv_text(
        ["from_bus", "to_bus", "r_pu", "x_pu", "b_half_pu"],
        [[str(br.from_bus), str(br.to_bus), *map(repr, (br.resistance, br.reactance, br.half_charging))]
         for br in branches]))
    return str(directory)


@pytest.mark.parametrize("flag", ["--sigma-inj", "--sigma-v"])
def test_estimate_on_a_sparse_grid_with_a_sigma_whose_weight_overflows_exits_2(capsys, tmp_path, balanced_tiled_rows,
                                                                               flag):
    # 56 buses, 111 columns: H is CSR and the gain a sparse product
    case = _write_case(tmp_path / "tiled56", *balanced_tiled_rows(4))
    code, out, err = run(capsys, ["estimate", "--case", case, "--seed", "7"])
    assert code == 0 and err == "" and json.loads(out)["converged"] is True
    code, out, err = run(capsys, ["estimate", "--case", case, "--seed", "7", flag, "1e-154"])
    assert code == 2
    assert err == "error: sigma 1e-154 is too small: its weight 1/sigma^2 overflows the objective or the gain\n"
    assert out == ""


def test_estimate_smallest_flow_sigma_with_a_finite_gain_exits_0(capsys):
    code, out, err = run(capsys, ["estimate", "--case", "ieee14", "--seed", "7", "--sigma-flow", "1e-150"])
    assert code == 0 and err == ""


def test_snapshots_unwritable_out_exits_2(capsys, tmp_path):
    target = tmp_path / "missing_dir" / "r.csv"
    code, out, err = run(capsys, [
        "snapshots", "--case", "ieee14", "--count", "1", "--load-scale", "1.0", "--seed", "0",
        "--out", str(target),
    ])
    assert code == 2
    assert str(target) in err
    assert out == ""


@pytest.mark.parametrize("flag, argv", [
    ("--seed", ["snapshots", "--case", "ieee14", "--count", "1", "--load-scale", "1.0", "--seed", "-1"]),
    ("--load-scale", ["snapshots", "--case", "ieee14", "--count", "1", "--load-scale", "0", "--seed", "0"]),
    ("--seed", ["estimate", "--case", "ieee14", "--seed", "-3"]),
    ("--max-iter", ["pf", "--case", "ieee14", "--max-iter", "0"]),
    ("--tol", ["pf", "--case", "ieee14", "--tol", "0"]),
    ("--steps", ["controller", "simulate", "--config", SCALAR_CONFIG, "--steps", "0", "--x0", "0", "--z0", "0"]),
    ("--out", ["pf", "--case", "ieee14", "--out", "/nonexistent/x.json"]),
])
def test_out_of_range_flag_exits_2_naming_the_flag(capsys, flag, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert flag in err
    assert "Traceback" not in err and out == ""


def test_controller_simulate_steps_past_cap_exits_2(capsys):
    code, out, err = run(capsys, [
        "controller", "simulate", "--config", SCALAR_CONFIG,
        "--steps", str(MAX_STEPS + 1), "--x0", "0.0", "--z0", "0",
    ])
    assert code == 2
    assert f"steps must be in 1..{MAX_STEPS}" in err
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize("config, resolution", [
    (SCALAR_CONFIG, MAX_GRID_POINTS + 1),
    ("tests/golden/controller_2d.json", math.isqrt(MAX_GRID_POINTS) + 1),
    (SCALAR_CONFIG, 1),
])
def test_controller_oracle_resolution_past_cap_exits_2(capsys, config, resolution):
    config = str(Path(__file__).resolve().parents[1] / config)
    code, out, err = run(capsys, [
        "controller", "oracle", "--config", config, "--box", "-0.5,2.5", "--resolution", str(resolution),
    ])
    assert code == 2
    assert f"--resolution: resolution must be >= 2 with resolution**n <= {MAX_GRID_POINTS}" in err
    assert "Traceback" not in err and out == ""


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


def test_controller_simulate_output_gain_writes_y(capsys, tmp_path):
    cfg = tmp_path / "gain.json"
    cfg.write_text(json.dumps({**json.loads(CONFIG_2D.read_text()), "output": [2.0, -0.5]}))
    traj = tmp_path / "traj.csv"
    code, out, err = run(capsys, ["controller", "simulate", "--config", str(cfg), "--steps", "40",
                                  "--x0", "0.3,-0.2", "--z0", "1", "--out", str(traj)])
    assert code == 0, err
    rows = list(csv.reader(io.StringIO(traj.read_text())))
    assert rows[0] == ["step", "x1", "x2", "u", "stage_cost", "y"]
    table = np.array(rows[1:], dtype=float)
    assert table.shape == (40, 6)
    np.testing.assert_array_equal(table[:, 5], table[:, 1:3] @ np.array([2.0, -0.5]))


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


def test_controller_oracle_without_interior_points_exits_0(capsys, tmp_path):
    """At resolution 2 no grid point lies in the interior third of the box:
    the comparison is reported unavailable, as for an unstable system."""
    grid = tmp_path / "grid.csv"
    code, out, err = run(capsys, [
        "controller", "oracle", "--config", SCALAR_CONFIG,
        "--box", "-0.5,2.5", "--resolution", "2", "--out", str(grid),
    ])
    assert code == 0, err
    report = json.loads(out)
    assert report["quadratic_comparison"] == {"unavailable": "no grid point in the interior third of the box"}
    assert len(grid.read_text().strip().split("\n")) == 3


def test_controller_oracle_bad_box(capsys):
    for config, box in [(SCALAR_CONFIG, "1,2,3"), (SCALAR_CONFIG, "1,0"), (SCALAR_CONFIG, "0,0"),
                        (str(CONFIG_2D), "-1,1,1,-1")]:
        code, out, err = run(capsys, [
            "controller", "oracle", "--config", config,
            "--box", box, "--resolution", "11",
        ])
        assert code == 2
        assert "--box" in err


def test_controller_oracle_one_box_pair_covers_every_dimension(capsys, tmp_path):
    config = str(Path(__file__).parent / "golden" / "controller_2d.json")
    outputs = []
    for box in ("-1,1.5", "-1,1.5,-1,1.5"):
        grid = tmp_path / "grid.csv"
        code, out, err = run(capsys, [
            "controller", "oracle", "--config", config, "--box", box, "--resolution", "11", "--out", str(grid),
        ])
        assert code == 0
        outputs.append((grid.read_text(), out))
    assert outputs[0] == outputs[1]


def test_help_exits_zero(capsys):
    code, out, err = run(capsys, ["--help"])
    assert code == 0


# ---- table writer -------------------------------------------------------------

INT_COLUMNS = st.lists(st.one_of(st.sampled_from([0, -1, 2**53 + 1, -(2**53) - 1, 2**63 - 1, -(2**63)]),
                                 st.integers(-(2**63), 2**63 - 1)), min_size=1, max_size=20)
FLOAT_COLUMNS = st.lists(st.one_of(st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e308,
                                                    -1e308, 0.1, 1 / 3]), st.floats()), min_size=1, max_size=20)


@st.composite
def tables(draw):
    """(header, columns): one to five int64 or float64 columns of one length."""
    lists = draw(st.lists(st.one_of(INT_COLUMNS.map(lambda c: np.array(c, dtype=np.int64)),
                                    FLOAT_COLUMNS.map(lambda c: np.array(c, dtype=float))),
                          min_size=1, max_size=5))
    rows = min(len(c) for c in lists)
    return [f"c{i}" for i in range(len(lists))], [c[:rows] for c in lists]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(tables())
@example((["kind", "bus", "end", "value_pu", "converged"],  # string cells, which go to _csv_text as they are
          [np.array(["v_mag", "p_flow", "q_inj"]), np.array(["1", "", "14"]), np.array(["", "to", ""]),
           np.array(["", "-0.25", "1e-05"]), np.array(["true", "false", ""])]))
def test_write_table_matches_csv_writer(table):
    header, columns = table
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*(c.tolist() for c in columns)))
    if columns[0].dtype.kind == "U":
        assert _csv_text(header, zip(*(c.tolist() for c in columns))) == expected.getvalue()
        return
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        _write_table(header, columns, None)
    assert stdout.getvalue() == expected.getvalue()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        _write_table(header, columns, str(path))
        assert path.read_bytes() == expected.getvalue().encode()


# ---- malformed case files -----------------------------------------------------

def _case_dir(tmp_path, name, content):
    """A copy of ieee14 with one file replaced by content (str or bytes)."""
    case = tmp_path / "case"
    shutil.copytree(builtin_case_dir("ieee14"), case)
    if isinstance(content, bytes):
        (case / name).write_bytes(content)
    else:
        (case / name).write_text(content)
    return case


def _assert_case_error(capsys, case, file_name):
    code, out, err = run(capsys, ["pf", "--case", str(case)])
    assert code == 2
    assert err.startswith("error: ") and file_name in err
    assert "Traceback" not in err


@pytest.mark.parametrize("meta", ["[1, 2]", '"text"', "null"])
def test_case_json_not_an_object_exits_2(capsys, tmp_path, meta):
    _assert_case_error(capsys, _case_dir(tmp_path, "case.json", meta), "case.json")


@pytest.mark.parametrize("base_mva", ['"abc"', "NaN", "Infinity", "-5.0", "0", "null", "true", "[100]", "1e999"])
def test_case_json_bad_base_mva_exits_2(capsys, tmp_path, base_mva):
    case = _case_dir(tmp_path, "case.json", f'{{"base_mva": {base_mva}}}')
    _assert_case_error(capsys, case, "case.json")


@pytest.mark.parametrize("weights", ['{"3": -1.0}', "[1, 2]", '"3"', '{"x": 1.0}', '{"3.5": 1.0}',
                                     '{"3": NaN}', '{"3": Infinity}', '{"3": "heavy"}', '{"99": 1.0}'])
def test_case_json_bad_load_weights_exits_2(capsys, tmp_path, weights):
    case = _case_dir(tmp_path, "case.json", f'{{"bus_load_weights": {weights}}}')
    _assert_case_error(capsys, case, "case.json")


def test_unreadable_case_file_exits_2(capsys, tmp_path):
    case = _case_dir(tmp_path, "buses.csv", "")
    (case / "buses.csv").unlink()
    (case / "buses.csv").mkdir()
    _assert_case_error(capsys, case, "buses.csv:0: column '-': cannot read file")


def test_non_integer_seed_is_usage_error(capsys):
    code, out, err = run(capsys, ["estimate", "--case", "ieee14", "--seed", "abc"])
    assert code == 2
    assert "argument --seed: invalid int value: 'abc'" in err and out == ""


@pytest.mark.parametrize("name", ["buses.csv", "lines.csv", "case.json"])
def test_non_utf8_case_file_exits_2(capsys, tmp_path, name):
    original = (builtin_case_dir("ieee14") / name).read_bytes()
    broken = original.replace(b"\n", b"\n\xff\xfe", 1)
    _assert_case_error(capsys, _case_dir(tmp_path, name, broken), f"{name}:2:")


# ---- case topology errors name their file -------------------------------------

def _edited(name, line, row):
    """A shipped ieee14 file with 1-based `line` replaced by `row` (None
    deletes it; a line past the end appends it)."""
    lines = (builtin_case_dir("ieee14") / name).read_text().splitlines()
    lines[line - 1: line] = [] if row is None else [row]
    return "\n".join(lines) + "\n"


def _with_kinds(kinds):
    """The shipped buses.csv with a kind column; `kinds` maps bus id to kind."""
    lines = (builtin_case_dir("ieee14") / "buses.csv").read_text().splitlines()
    lines = [lines[0] + ",kind"] + [f"{row},{kinds.get(i, '')}" for i, row in enumerate(lines[1:], start=1)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name, content, where, reason", [
    ("lines.csv", _edited("lines.csv", 5, "2,99,0.05,0.17,0.02"), "lines.csv:5:", "bus 99 does not exist"),
    ("lines.csv", _edited("lines.csv", 15, None), "lines.csv:0:", "not connected to bus 1: [8]"),
    ("buses.csv", _edited("buses.csv", 6, "4,1.0,0,0,7.6,1.6"), "buses.csv:6:", "bus id 4 appears more than once"),
    ("buses.csv", _edited("buses.csv", 16, "16,1.0,0,0,0,0"), "buses.csv:16:", "contiguous"),
    ("buses.csv", _with_kinds({1: "pq"}), "buses.csv:0:", "no slack bus"),
    ("buses.csv", _with_kinds({5: "slack"}), "buses.csv:6:", "2 slack buses"),
])
def test_case_topology_error_names_its_file(capsys, tmp_path, name, content, where, reason):
    code, out, err = run(capsys, ["pf", "--case", str(_case_dir(tmp_path, name, content))])
    assert code == 2
    assert err.startswith("error: ") and where in err and reason in err
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize("name, content, where, bus", [
    ("case.json", '{"base_mva": 1e-320}', "buses.csv:3:", "bus 2"),
    ("buses.csv", _edited("buses.csv", 4, "3,1.010,1.7e308,23.4,-1.7e308,19.0"), "buses.csv:4:", "bus 3"),
])
def test_net_injection_that_overflows_exits_2_naming_the_bus(capsys, tmp_path, name, content, where, bus):
    code, out, err = run(capsys, ["pf", "--case", str(_case_dir(tmp_path, name, content))])
    assert code == 2
    assert err.startswith("error: ") and where in err and f"{bus}: net injection" in err and "overflows" in err
    assert "Traceback" not in err and out == ""


def _singular_jacobian_case(tmp_path):
    """ieee14 plus a bus 15 tied to bus 14 only by two lossless branches of
    reactance 0.1 and -0.1: their admittances cancel, so the graph is
    connected but bus 15's rows of the power-flow Jacobian are zero."""
    case = _case_dir(tmp_path, "buses.csv", _edited("buses.csv", 99, "15,1.0,0,0,0,0"))
    (case / "lines.csv").write_text(_edited("lines.csv", 99, "14,15,0,0.1,0\n14,15,0,-0.1,0"))
    return case


def test_singular_jacobian_exits_2_and_fails_its_snapshot(capsys, tmp_path):
    case = str(_singular_jacobian_case(tmp_path))
    code, out, err = run(capsys, ["pf", "--case", case])
    assert code == 2
    assert err.startswith("error: power-flow Jacobian is singular") and out == ""
    code, out, err = run(capsys, ["snapshots", "--case", case, "--count", "2", "--load-scale", "1.0,1.1",
                                  "--seed", "7"])
    assert code == 1
    assert out == "snapshot,bus,v_true_pu,v_est_pu,angle_true_deg,angle_est_deg,iterations,objective,converged\n"
    assert err.count("failed: power-flow Jacobian is singular") == 2


# ---- python -m gridse ---------------------------------------------------------

def test_module_entry_point(tmp_path):
    config = tmp_path / "large_q.json"
    config.write_text(json.dumps({**_SCALAR, "Q": [[1e7]]}))
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    for argv, code in [(["pf", "--case", "ieee14"], 0),
                       (["pf", "--case", str(_singular_jacobian_case(tmp_path))], 2),
                       (["controller", "solve", "--config", str(config)], 0)]:
        proc = subprocess.run([sys.executable, "-m", "gridse", *argv], env=env, capture_output=True, text=True)
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr


# ---- what each command imports ------------------------------------------------

# run in a fresh interpreter: the scipy modules loaded after `import gridse.cli`
# and after each argv in turn, with that argv's exit code
_IMPORT_PROBE = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

import gridse.cli
seen = {"import gridse.cli": [0, scipy_modules()]}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = gridse.cli.cli_dispatch(argv)
    seen[" ".join(argv)] = [code, scipy_modules()]
print(json.dumps(seen))
"""


def test_scipy_is_loaded_only_to_factor_a_gain():
    config = ["--config", SCALAR_CONFIG]
    argvs = [["pf", "--case", "ieee14"],
             ["pf", "--no-such-flag"],
             ["controller", "solve", *config],
             ["controller", "simulate", *config, "--steps", "20", "--x0", "0.0", "--z0", "0"],
             ["controller", "oracle", *config, "--box", "-0.5,2.5", "--resolution", "11"],
             ["estimate", "--case", "ieee14", "--seed", "7"]]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, json.dumps(argvs)], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    code, loaded = seen.pop("estimate --case ieee14 --seed 7")
    assert code == 0 and "scipy.linalg" in loaded
    assert seen == {"import gridse.cli": [0, []], "pf --case ieee14": [0, []], "pf --no-such-flag": [2, []],
                    **{" ".join(argv): [0, []] for argv in argvs[2:5]}}


# ---- argv fuzz and the typed catch --------------------------------------------

# a valid invocation of each command; the fuzz replaces one or two flag values
_FUZZ_BASES = [
    ["pf", "--case", "ieee14", "--tol", "1e-8", "--max-iter", "20"],
    ["estimate", "--case", "ieee14", "--seed", "7", "--sigma-v", "0.004", "--sigma-inj", "0.01",
     "--sigma-flow", "0.008"],
    ["snapshots", "--case", "ieee14", "--count", "2", "--load-scale", "1.0,0.98", "--seed", "7"],
    ["controller", "solve", "--config", SCALAR_CONFIG],
    ["controller", "simulate", "--config", str(CONFIG_2D), "--steps", "20", "--x0", "1.0,-0.5", "--z0", "0"],
    ["controller", "oracle", "--config", SCALAR_CONFIG, "--box", "-0.5,2.5", "--resolution", "11"],
]
_NUMBER_TEXT = st.one_of(
    st.sampled_from(["0", "-0.0", "-1", "1", "1.5", "nan", "inf", "-inf", "1e999", "-1e999", "2.2e-309",
                     "4.4e244", "1e-154", "1e154", "5e-324", "1e308", "-1e308", "abc", "", "1,2", "3"]),
    st.floats().map(repr),
    st.integers(-3, 60).map(str),
)
_SMALL_INT_TEXT = st.one_of(st.sampled_from(["0", "-1", "1.5", "nan", "abc", "", "2**3"]), st.integers(-3, 40).map(str))
_FUZZ_VALUES = {
    "--case": st.sampled_from(["ieee14", "no_such_case", str(CONFIG_2D.parent)]),
    "--config": st.sampled_from([SCALAR_CONFIG, str(CONFIG_2D), "no_such.json", str(CONFIG_2D.parent)]),
    "--tol": _NUMBER_TEXT,
    "--max-iter": st.one_of(_SMALL_INT_TEXT, st.integers(41, 50).map(str)),
    "--seed": st.one_of(_NUMBER_TEXT, st.integers(-(2**70), 2**70).map(str)),
    "--sigma-v": _NUMBER_TEXT,
    "--sigma-inj": _NUMBER_TEXT,
    "--sigma-flow": _NUMBER_TEXT,
    "--count": _SMALL_INT_TEXT.filter(lambda t: not t.isdigit() or int(t) <= 4),
    "--load-scale": st.lists(_NUMBER_TEXT.filter(lambda t: "," not in t), max_size=4).map(",".join),
    "--steps": st.one_of(_SMALL_INT_TEXT, st.integers(41, 50).map(str)),
    "--x0": st.lists(_NUMBER_TEXT.filter(lambda t: "," not in t), max_size=3).map(",".join),
    "--z0": st.sampled_from(["0", "1", "2", "-1", "x"]),
    "--box": st.lists(_NUMBER_TEXT.filter(lambda t: "," not in t), max_size=5).map(",".join),
    "--resolution": _SMALL_INT_TEXT,
}
# solver and weight failures whose messages name no flag: the inputs are in range, the numbers are not
_FLAGLESS = re.compile(r"error: (sigma \S+ is too small|gain matrix condition|power-flow Jacobian is singular"
                       r"|alpha \* rho\(A\)\^2|P is singular)")


@st.composite
def mutated_argv(draw):
    """A valid invocation with one or two flag values replaced; a snapshots
    run whose --load-scale changes and --count does not gets the new count."""
    argv = list(draw(st.sampled_from(_FUZZ_BASES)))
    positions = [i for i, token in enumerate(argv) if token in _FUZZ_VALUES]
    for i in draw(st.lists(st.sampled_from(positions), min_size=1, max_size=2, unique=True)):
        argv[i + 1] = draw(_FUZZ_VALUES[argv[i]])
        if argv[i] == "--load-scale" and argv[argv.index("--count") + 1] == "2":
            argv[argv.index("--count") + 1] = str(len([s for s in argv[i + 1].split(",") if s.strip()]))
    return argv


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(mutated_argv())
@example(["estimate", "--case", "ieee14", "--seed", "7", "--sigma-inj", "2.2e-309"])  # these two named no flag
@example(["estimate", "--case", "ieee14", "--seed", "7", "--sigma-flow", "4.4e244"])
@example(["controller", "simulate", "--config", str(CONFIG_2D), "--steps", "20", "--x0", "1e308,0", "--z0", "0"])
@example(["controller", "oracle", "--config", SCALAR_CONFIG, "--box", "-1e200,2", "--resolution", "11"])
@example(["controller", "oracle", "--config", str(CONFIG_2D), "--box", "0,5e-324", "--resolution", "11"])
@example(["controller", "oracle", "--config", SCALAR_CONFIG, "--box", "inf,inf", "--resolution", "11"])
def test_mutated_flag_values_exit_0_1_or_2_naming_the_flag(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli_dispatch(argv)  # anything raised here escaped cli_dispatch
    assert code in (0, 1, 2)
    if code == 2:
        named = [t for t in argv if t.startswith("--")] + [argv[argv.index(f) + 1] for f in ("--case", "--config")
                                                            if f in argv]
        for line in err.getvalue().splitlines():
            if "error:" in line:
                assert any(name in line for name in named) or _FLAGLESS.search(line), (argv, line)


def test_bare_value_and_os_errors_escape_cli_dispatch(monkeypatch):
    # a stray ValueError or OSError from inside a command is a bug, not a usage error
    for error in (ValueError("deep inside an iterate"), OSError("stdout closed")):
        def fail(*args, **kwargs):
            raise error
        monkeypatch.setattr(gridse.cli, "solve_power_flow", fail)
        with pytest.raises(type(error), match=str(error)):
            cli_dispatch(["pf", "--case", "ieee14"])


def test_oracle_on_a_3d_config_exits_2_without_a_flag(capsys, tmp_path):
    cfg = tmp_path / "three.json"
    cfg.write_text(json.dumps({"A": np.diag([0.5] * 3).tolist(), "b": [0.1] * 3, "alpha": 0.9, "beta": 0.1,
                               "Q": np.eye(3).tolist(), "r": [0.0] * 3}))
    code, out, err = run(capsys, ["controller", "oracle", "--config", str(cfg), "--box", "-1,1", "--resolution", "5"])
    assert code == 2
    assert err == "error: grid oracle supports only 1- or 2-dimensional systems\n" and out == ""
