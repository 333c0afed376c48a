import csv
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np
import pytest

from gridse.measurements import QUANTITIES, MeasurementColumns, MeasurementSet, evaluate_h
from gridse.network import Branch, Bus, BusKind, build_network, build_ybus
from gridse.powerflow import StateVector, solve_power_flow
from gridse.scenario import builtin_case_dir, load_case, resolve_case_dir


def measurement_set(rows, values=None, sigmas=None):
    """A MeasurementSet from (quantity name, bus, branch, to_end) rows in the
    column encoding: 0-based indices, -1 where an entry does not apply.
    Values default to zeros and sigmas to 0.01; MeasurementSet makes every check."""
    table = np.array([(QUANTITIES.index(q), *index) for q, *index in rows], dtype=np.intp).reshape(-1, 4)
    m = table.shape[0]
    return MeasurementSet(MeasurementColumns(*table.T), np.zeros(m) if values is None else values,
                          np.full(m, 0.01) if sigmas is None else sigmas)


def central_difference_jacobian(mset, state, network, ybus, step=1e-6):
    """Central differences of h at `state`, one column per column of H:
    column k perturbs free[k], the k-th stacked [theta; |V|] coordinate that
    is not the slack angle."""
    n = network.n_buses
    x = np.concatenate([state.angles, state.magnitudes])
    free = np.delete(np.arange(2 * n), network.slack_index)
    fd = np.empty((len(mset), free.size))
    for k, coordinate in enumerate(free):
        hi, lo = x.copy(), x.copy()
        hi[coordinate] += step
        lo[coordinate] -= step
        fd[:, k] = (evaluate_h(mset, StateVector(angles=hi[:n], magnitudes=hi[n:]), network, ybus)
                    - evaluate_h(mset, StateVector(angles=lo[:n], magnitudes=lo[n:]), network, ybus)) / (2 * step)
    return fd


def slack_at_bus3(ieee14_rows):
    """ieee14 with every kind given explicitly and bus 3 as the slack."""
    buses, branches = ieee14_rows

    def kind(bus_id):
        return BusKind.SLACK if bus_id == 3 else BusKind.PV if bus_id in (1, 2, 6, 8) else BusKind.PQ

    rows = [Bus(id=b.id, v_setpoint=b.v_setpoint, p_gen=b.p_gen, q_gen=b.q_gen, p_load=b.p_load,
                q_load=b.q_load, kind=kind(b.id)) for b in buses]
    network = build_network(rows, branches)
    assert network.slack_index == 2
    return network


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
def tiled_rows(ieee14_rows):
    """tiled_rows(tiles): Bus and Branch rows of `tiles` copies of ieee14
    chained by one tie line each; the first copy's bus 1 stays the slack,
    later copies' are PV."""
    buses, branches = ieee14_rows
    n = len(buses)

    def build(tiles):
        tiled_buses, tiled_branches = [], []
        for t in range(tiles):
            for bus in buses:
                kind = BusKind.PV if (t and bus.id == 1) else bus.kind
                tiled_buses.append(Bus(id=bus.id + t * n, kind=kind, v_setpoint=bus.v_setpoint, p_gen=bus.p_gen,
                                       q_gen=bus.q_gen, p_load=bus.p_load, q_load=bus.q_load))
            for br in branches:
                tiled_branches.append(Branch(br.from_bus + t * n, br.to_bus + t * n, br.resistance,
                                             br.reactance, br.half_charging))
            if t:
                tiled_branches.append(Branch(t * n, t * n + 4, 0.02, 0.12, 0.015))
        return tiled_buses, tiled_branches

    return build


@pytest.fixture(scope="session")
def ieee14_ybus(ieee14):
    return build_ybus(ieee14)


@pytest.fixture(scope="session")
def ieee14_truth(ieee14):
    result = solve_power_flow(ieee14, tol=1e-10, max_iter=20)
    assert result.converged
    return result.state
