"""CLI surface: subcommands, exit codes, output formats, determinism."""
import contextlib
import csv
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridse.cli import _write_table, cli_dispatch
from gridse.controller import MAX_GRID_POINTS, MAX_STEPS
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
    assert err == "error: --count 3 does not match the 2 --load-scale entries\n"
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
    ({**_CONTINUOUS, "continuous": {"a": [[-1.0]], "b": [2.0, 1.0], "dt": 0.1}}, "b", "b must have 1 entries"),
    ({**_CONTINUOUS, "continuous": [1.0]}, "continuous", "expected an object"),
    ({**_SCALAR, "r": [0.0, 1.0]}, "r", "r must have length n = 1, got shape (2,)"),
    ({**_SCALAR, "Q": [[1.0, 0.0], [0.0, 1.0]]}, "Q", "Q must be n x n with n = 1, got shape (2, 2)"),
])
def test_controller_config_out_of_range_names_file_and_key(capsys, tmp_path, config, column, reason):
    cfg = tmp_path / "system.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run(capsys, ["controller", "solve", "--config", str(cfg)])
    assert code == 2
    assert err.startswith(f"error: {cfg}:0: column '{column}': ") and reason in err
    assert "Traceback" not in err and out == ""


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
    assert code == 2
    assert f"{flag[2:].replace('-', '_')} must be finite and > 0" in err
    assert out == ""


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
    code, out, err = run(capsys, [
        "controller", "oracle", "--config", SCALAR_CONFIG,
        "--box", "1,2,3", "--resolution", "11",
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
def test_write_table_matches_csv_writer(table):
    header, columns = table
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*(c.tolist() for c in columns)))
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
