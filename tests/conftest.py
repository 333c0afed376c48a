import csv
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np
import pytest
from hypothesis import strategies as st

from gridse.measurements import (P_FLOW, P_INJ, Q_FLOW, Q_INJ, QUANTITIES, V_MAG, MeasurementColumns,
                                 MeasurementSet, evaluate_h)
from gridse.network import Branch, Bus, BusKind, build_network, build_ybus
from gridse.powerflow import StateVector, calc_injections, solve_power_flow
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


@st.composite
def meshed_grids(draw):
    """(buses, branches, rows, state): the Bus and Branch rows of a random
    connected meshed network with random r/x/b_sh and small PQ loads, a
    partial plan holding at least one to-end flow pair, and a perturbed state
    with the slack angle at zero."""
    n = draw(st.integers(3, 9))
    bus = st.integers(0, n - 1)
    pairs = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]  # spanning tree
    pairs += draw(st.lists(st.tuples(bus, bus).filter(lambda p: p[0] != p[1]), min_size=1, max_size=n))
    branches = []
    for f, t in pairs:
        if draw(st.booleans()):
            f, t = t, f
        branches.append(Branch(f + 1, t + 1, draw(st.floats(0.0, 0.1)), draw(st.floats(0.02, 0.5)),
                               draw(st.floats(0.0, 0.05))))
    slack = draw(bus)

    every = [(q, i, -1, -1) for q in (V_MAG, P_INJ, Q_INJ) for i in range(n)]
    every += [(q, -1, k, to_end) for q in (P_FLOW, Q_FLOW) for k in range(len(branches)) for to_end in (0, 1)]
    k_to = draw(st.integers(0, len(branches) - 1))
    rows = draw(st.lists(st.sampled_from(every), min_size=1, max_size=3 * n, unique=True))
    rows += [row for row in ((P_FLOW, -1, k_to, 1), (Q_FLOW, -1, k_to, 1)) if row not in rows]

    angles = np.array(draw(st.lists(st.floats(-0.4, 0.4), min_size=n, max_size=n)))
    angles[slack] = 0.0
    magnitudes = np.array(draw(st.lists(st.floats(0.85, 1.15), min_size=n, max_size=n)))
    loads = draw(st.lists(st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 5.0)), min_size=n, max_size=n))
    buses = [Bus(id=i + 1, kind=BusKind.SLACK if i == slack else BusKind.PQ, v_setpoint=1.0,
                 p_gen=0, q_gen=0, p_load=p_load, q_load=q_load) for i, (p_load, q_load) in enumerate(loads)]
    return buses, branches, rows, StateVector(angles=angles, magnitudes=magnitudes)


@st.composite
def meshed_cases(draw):
    """(network, rows, state) of meshed_grids."""
    buses, branches, rows, state = draw(meshed_grids())
    return build_network(buses, branches), rows, state


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
def balanced_tiled_rows(tiled_rows, ieee14, ieee14_truth):
    """balanced_tiled_rows(tiles): tiled_rows in which every later copy's bus
    1 generates the slack output of ieee14's power flow, so each copy
    balances and the grid has a power-flow solution."""
    slack_p = float(calc_injections(ieee14_truth, ieee14.ybus)[ieee14.slack_index]) * ieee14.base_mva

    def build(tiles):
        buses, branches = tiled_rows(tiles)
        return [replace(b, p_gen=slack_p + b.p_load) if b.kind == BusKind.PV and b.id % 14 == 1 else b
                for b in buses], branches

    return build


@pytest.fixture(scope="session")
def ieee14_ybus(ieee14):
    return build_ybus(ieee14)


@pytest.fixture(scope="session")
def ieee14_truth(ieee14):
    result = solve_power_flow(ieee14, tol=1e-10, max_iter=20)
    assert result.converged
    return result.state
