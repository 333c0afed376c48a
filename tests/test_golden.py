"""Golden CLI outputs: reruns the commands and compares with tests/golden/.

The snapshots CSV and the controller simulate and oracle CSVs must match
byte for byte. In the JSON outputs ints, bools
and strings must match exactly and floats within relative 1e-9, since
vectorised and looped arithmetic may round differently in the last bits.
The one exception is the converged power-flow mismatch: at ~1e-14 pu it is
rounding residue, which a last-bit change in the Newton steps moves by tens
of percent, so it is held to an absolute 1e-12 pu, far below the 1e-8 pu
convergence tolerance. The switching function's max_affine_gap, ~1e-15
rounding residue against a 1e-9 affinity gate, is held the same way.

The controller commands run on the shipped scalar config and on the 2-d
config in tests/golden/controller_2d.json, a lightly damped rotation whose
value fixed point converges slowly.
"""
import json
import math
from pathlib import Path

import pytest

from gridse.cli import cli_dispatch
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
    ],
)
def test_json_output_matches_golden(capsys, golden, argv):
    got = json.loads(run_stdout(capsys, argv))
    want = json.loads((GOLDEN / golden).read_text())
    assert_json_close(got, want)


def test_snapshots_csv_matches_golden_bytes(capsys):
    out = run_stdout(capsys, ["snapshots", "--case", "ieee14", "--count", "3",
                              "--load-scale", "1.0,0.98,1.02", "--seed", "7"])
    assert out == (GOLDEN / "snapshots_ieee14_seed7.csv").read_text()


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
