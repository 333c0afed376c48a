import csv
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import pytest

from gridse.network import Branch, Bus, build_ybus
from gridse.powerflow import solve_power_flow
from gridse.scenario import builtin_case_dir, load_case, resolve_case_dir


@pytest.fixture(scope="session")
def ieee14_bundle():
    return load_case(resolve_case_dir("ieee14"))


@pytest.fixture(scope="session")
def ieee14(ieee14_bundle):
    return ieee14_bundle.network


@pytest.fixture(scope="session")
def ieee14_rows():
    """ieee14 as (Bus rows, Branch rows), for tests that build variant grids;
    the bus kinds are left to build_network's inference, as in the case file."""
    case = builtin_case_dir("ieee14")
    with open(case / "buses.csv", newline="") as fh:
        buses = tuple(Bus(int(r["bus"]), float(r["vsp_pu"]), float(r["pg_mw"]), float(r["qg_mvar"]),
                          float(r["pl_mw"]), float(r["ql_mvar"])) for r in csv.DictReader(fh))
    with open(case / "lines.csv", newline="") as fh:
        branches = tuple(Branch(int(r["from_bus"]), int(r["to_bus"]), float(r["r_pu"]), float(r["x_pu"]),
                                float(r["b_half_pu"])) for r in csv.DictReader(fh))
    return buses, branches


@pytest.fixture(scope="session")
def ieee14_ybus(ieee14):
    return build_ybus(ieee14)


@pytest.fixture(scope="session")
def ieee14_truth(ieee14):
    result = solve_power_flow(ieee14, tol=1e-10, max_iter=20)
    assert result.converged
    return result.state
