"""Golden CLI outputs: reruns the commands and compares with tests/golden/.

The snapshots CSV and the controller simulate and oracle CSVs must match
byte for byte. In the JSON outputs ints, bools
and strings must match exactly and floats within relative 1e-9, since
vectorised and looped arithmetic may round differently in the last bits.
The one exception is the converged power-flow mismatch: at ~1e-14 pu it is
rounding residue, which a last-bit change in the Newton steps moves by tens
of percent, so it is held to an absolute 1e-12 pu, far below the 1e-8 pu
convergence tolerance. The switching function's max_affine_gap, ~1e-15
rounding residue against an affinity gate of 1e-9 relative to the quadratic
forms it compares, is held the same way.

The controller commands run on the shipped scalar config and on the 2-d
config in tests/golden/controller_2d.json, a lightly damped rotation whose
value fixed point converges slowly.
"""
import json
import math
from pathlib import Path

import pytest

from gridse.cli import build_parser, cli_dispatch
from gridse.scenario import builtin_case_dir

GOLDEN = Path(__file__).resolve().parent / "golden"
FLOAT_RTOL = 1e-9
RESIDUE_KEYS = {"max_mismatch_pu", "max_affine_gap"}
RESIDUE_ATOL = 1e-12

# name -> (config, simulate flags, oracle flags)
CONTROLLER_CONFIGS = {
    "scalar": (builtin_case_dir("scalar_controller.json"),
               ["--steps", "2000", "--x0", "0.0", "--z0", "0"],
               ["--box", "-0.5,2.5", "--resolution", "801"]),
    "2d": (GOLDEN / "controller_2d.json",
           ["--steps", "2000", "--x0", "0.3,-0.2", "--z0", "1"],
           ["--box", "-1,1,-1,1.5", "--resolution", "21"]),
}


def run_stdout(capsys, argv):
    code = cli_dispatch(argv)
    out = capsys.readouterr().out
    assert code == 0
    return out


def assert_json_close(got, want, where="$"):
    """Compare two parsed JSON trees under the rules in the module docstring."""
    assert type(got) is type(want), f"{where}: {type(got).__name__} != {type(want).__name__}"
    if isinstance(want, dict):
        assert list(got) == list(want), f"{where}: keys differ"
        for key in want:
            assert_json_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: length differs"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_json_close(g, w, f"{where}[{i}]")
    elif isinstance(want, float) and where.rsplit(".", 1)[-1] in RESIDUE_KEYS:
        assert abs(got - want) <= RESIDUE_ATOL, f"{where}: {got!r} != {want!r}"
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=FLOAT_RTOL, abs_tol=0.0), f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("estimate_ieee14_seed7.json", ["estimate", "--case", "ieee14", "--seed", "7"]),
        ("pf_ieee14.json", ["pf", "--case", "ieee14"]),
        ("estimate_ieee14_seed7_noise_off.json", ["estimate", "--case", "ieee14", "--seed", "7", "--noise-off"]),
    ],
)
def test_json_output_matches_golden(capsys, golden, argv):
    got = json.loads(run_stdout(capsys, argv))
    want = json.loads((GOLDEN / golden).read_text())
    assert_json_close(got, want)


SNAPSHOTS_ARGV = ["snapshots", "--case", "ieee14", "--count", "3", "--load-scale", "1.0,0.98,1.02", "--seed", "7"]


def test_snapshots_csv_matches_golden_bytes(capsys):
    out = run_stdout(capsys, SNAPSHOTS_ARGV)
    assert out == (GOLDEN / "snapshots_ieee14_seed7.csv").read_text()


def test_snapshots_json_matches_golden(capsys, tmp_path):
    out = tmp_path / "report.json"
    assert run_stdout(capsys, [*SNAPSHOTS_ARGV, "--out", str(out)]) == ""
    assert_json_close(json.loads(out.read_text()), json.loads((GOLDEN / "snapshots_ieee14_seed7.json").read_text()))


@pytest.mark.parametrize("name", sorted(CONTROLLER_CONFIGS))
def test_controller_solve_matches_golden(capsys, name):
    config = CONTROLLER_CONFIGS[name][0]
    got = json.loads(run_stdout(capsys, ["controller", "solve", "--config", str(config)]))
    want = json.loads((GOLDEN / f"controller_{name}_solve.json").read_text())
    assert_json_close(got, want)


@pytest.mark.parametrize("command", ["simulate", "oracle"])
@pytest.mark.parametrize("name", sorted(CONTROLLER_CONFIGS))
def test_controller_csv_and_summary_match_golden(capsys, tmp_path, name, command):
    config, simulate_flags, oracle_flags = CONTROLLER_CONFIGS[name]
    flags = simulate_flags if command == "simulate" else oracle_flags
    out = tmp_path / "out.csv"
    summary = run_stdout(capsys, ["controller", command, "--config", str(config), *flags, "--out", str(out)])
    stem = GOLDEN / f"controller_{name}_{command}"
    assert out.read_text() == stem.with_suffix(".csv").read_text()
    assert_json_close(json.loads(summary), json.loads(stem.with_suffix(".json").read_text()))


def test_reused_parser_carries_no_flag_value_over(capsys, tmp_path):
    """The CLI builds its parser once per process. Each call must parse from
    the defaults: no flag given to one call may show up in the next."""
    parser = build_parser()
    # a usage error after --noise-off was parsed, then the noisy run
    assert cli_dispatch(["estimate", "--case", "ieee14", "--seed", "7", "--noise-off", "--bogus"]) == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    noisy = ["estimate", "--case", "ieee14", "--seed", "7"]
    for argv, golden in [(noisy + ["--noise-off"], "estimate_ieee14_seed7_noise_off.json"),
                         (noisy, "estimate_ieee14_seed7.json")]:
        assert_json_close(json.loads(run_stdout(capsys, argv)), json.loads((GOLDEN / golden).read_text()))

    config, flags, _ = CONTROLLER_CONFIGS["scalar"]
    argv = ["controller", "simulate", "--config", str(config), *flags]
    out = tmp_path / "out.csv"
    summary = run_stdout(capsys, [*argv, "--out", str(out)])
    assert_json_close(json.loads(summary), json.loads((GOLDEN / "controller_scalar_simulate.json").read_text()))
    golden_csv = (GOLDEN / "controller_scalar_simulate.csv").read_text()
    assert out.read_text() == golden_csv
    out.unlink()
    assert cli_dispatch(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == golden_csv and not out.exists()
    assert_json_close(json.loads(captured.err), json.loads((GOLDEN / "controller_scalar_simulate.json").read_text()))
    assert build_parser() is parser
