"""Network model: bus-kind inference, validation, admittance construction."""
import numpy as np
import pytest

from gridse.network import (
    Branch,
    Bus,
    BusKind,
    BusRow,
    DanglingBranchEndpoint,
    DisconnectedGraph,
    DuplicateBusId,
    MultipleSlackBuses,
    NetworkError,
    NoSlackBus,
    ZeroImpedanceBranch,
    build_network,
    build_ybus,
    buses_from_rows,
    infer_bus_kinds,
    net_injection_pu,
    with_scaled_loads,
)


def _pq_bus(bus_id, p_load=0.0, q_load=0.0):
    return Bus(id=bus_id, kind=BusKind.PQ, v_setpoint=1.0, p_gen=0.0, q_gen=0.0,
               p_load=p_load, q_load=q_load)


def _slack_bus(bus_id=1, vsp=1.06):
    return Bus(id=bus_id, kind=BusKind.SLACK, v_setpoint=vsp, p_gen=0.0, q_gen=0.0,
               p_load=0.0, q_load=0.0)


# ---- bus-kind inference -----------------------------------------------------

def test_infer_kinds_on_shipped_bus_table(ieee14):
    # reconstruct raw rows from the loaded buses and re-infer
    rows = [BusRow(b.id, b.v_setpoint, b.p_gen, b.q_gen, b.p_load, b.q_load) for b in ieee14.buses]
    kinds = infer_bus_kinds(rows)
    assert kinds[0] is BusKind.SLACK
    pv = {i + 1 for i, k in enumerate(kinds) if k is BusKind.PV}
    assert pv == {2, 3, 6, 8}
    assert all(k is BusKind.PQ for i, k in enumerate(kinds) if i != 0 and (i + 1) not in pv)


def test_infer_kinds_single_bus():
    assert infer_bus_kinds([BusRow(1, 1.06)]) == [BusKind.SLACK]


def test_infer_kinds_no_pv_condition():
    rows = [BusRow(1, 1.0), BusRow(2, 1.0), BusRow(3, 1.0)]
    assert infer_bus_kinds(rows) == [BusKind.SLACK, BusKind.PQ, BusKind.PQ]


def test_infer_kinds_explicit_override():
    rows = [BusRow(1, 1.06), BusRow(2, 1.0, kind=BusKind.PV)]
    buses = buses_from_rows(rows)
    assert buses[1].kind is BusKind.PV  # rule would say PQ


def test_infer_kinds_empty_rows_rejected():
    with pytest.raises(NetworkError):
        infer_bus_kinds([])


# ---- build_network validation -----------------------------------------------

def test_shipped_case_is_valid(ieee14):
    assert ieee14.n_buses == 14
    assert len(ieee14.branches) == 20
    assert ieee14.slack_index == 0
    assert ieee14.base_mva == 100.0


def test_dangling_branch_endpoint(ieee14):
    branches = list(ieee14.branches) + [Branch(1, 15, 0.01, 0.05, 0.0)]
    with pytest.raises(DanglingBranchEndpoint):
        build_network(list(ieee14.buses), branches)


def test_disconnected_two_buses_no_branches():
    with pytest.raises(DisconnectedGraph):
        build_network([_slack_bus(), _pq_bus(2)], [])


def test_duplicate_bus_id():
    buses = [_slack_bus(), _pq_bus(2), _pq_bus(2)]
    with pytest.raises(DuplicateBusId):
        build_network(buses, [Branch(1, 2, 0.01, 0.05, 0.0)])


def test_non_contiguous_ids_rejected():
    buses = [_slack_bus(), _pq_bus(3)]
    with pytest.raises(NetworkError):
        build_network(buses, [Branch(1, 3, 0.01, 0.05, 0.0)])


def test_no_slack_bus():
    with pytest.raises(NoSlackBus):
        build_network([_pq_bus(1), _pq_bus(2)], [Branch(1, 2, 0.01, 0.05, 0.0)])


def test_multiple_slack_buses():
    with pytest.raises(MultipleSlackBuses):
        build_network([_slack_bus(1), _slack_bus(2)], [Branch(1, 2, 0.01, 0.05, 0.0)])


def test_bus_invariants():
    with pytest.raises(NetworkError):
        Bus(id=1, kind=BusKind.PQ, v_setpoint=0.0, p_gen=0, q_gen=0, p_load=0, q_load=0)
    with pytest.raises(NetworkError):
        Bus(id=1, kind=BusKind.PQ, v_setpoint=1.0, p_gen=0, q_gen=0, p_load=float("nan"), q_load=0)
    # negative reactive load is fine (bus 4 of the shipped table)
    _pq_bus(4, p_load=47.8, q_load=-3.9)


def test_branch_invariants():
    with pytest.raises(NetworkError):
        Branch(1, 1, 0.01, 0.05, 0.0)
    with pytest.raises(ZeroImpedanceBranch):
        Branch(1, 2, 0.0, 0.0, 0.0)
    with pytest.raises(NetworkError):
        Branch(1, 2, 0.01, 0.0, 0.0)  # nonzero r but zero x still invalid
    with pytest.raises(NetworkError):
        Branch(1, 2, -0.01, 0.05, 0.0)
    Branch(1, 2, 0.0, 0.17615, 0.0)  # r = 0 alone is allowed
    Branch(1, 2, 0.01, -0.1, 0.0)    # negative reactance allowed


# ---- net injections ---------------------------------------------------------

def test_net_injection_bus3(ieee14):
    p, q = net_injection_pu(ieee14.buses[2], 100.0)
    assert p == pytest.approx(-0.942, abs=1e-12)
    assert q == pytest.approx((23.4 - 19.0) / 100.0, abs=1e-12)


def test_net_injection_zero_bus(ieee14):
    assert net_injection_pu(ieee14.buses[6], 100.0) == (0.0, 0.0)


def test_net_injection_bus2(ieee14):
    p, q = net_injection_pu(ieee14.buses[1], 100.0)
    assert p == pytest.approx(0.183, abs=1e-12)
    assert q == pytest.approx(0.297, abs=1e-12)


def test_net_injection_requires_positive_base(ieee14):
    with pytest.raises(NetworkError):
        net_injection_pu(ieee14.buses[0], 0.0)


# ---- admittance matrix ------------------------------------------------------

def test_ybus_branch_7_8_entry(ieee14, ieee14_ybus):
    # pure reactance 0.17615 between buses 7 and 8: off-diagonal +j / x
    expected = 1j * (1.0 / 0.17615)
    assert ieee14_ybus[6, 7] == pytest.approx(expected, abs=1e-9)
    assert ieee14_ybus[7, 6] == pytest.approx(expected, abs=1e-9)


def test_ybus_shape_and_sparsity(ieee14_ybus, ieee14):
    assert ieee14_ybus.shape == (14, 14)
    off_diag_pairs = sum(
        1 for i in range(14) for j in range(i + 1, 14) if ieee14_ybus[i, j] != 0
    )
    assert off_diag_pairs == 20
    # off-diagonal nonzero iff a branch connects the pair
    connected = {tuple(sorted((b.from_bus - 1, b.to_bus - 1))) for b in ieee14.branches}
    for i in range(14):
        for j in range(i + 1, 14):
            assert (ieee14_ybus[i, j] != 0) == ((i, j) in connected)


def test_ybus_symmetric_exactly(ieee14_ybus):
    assert np.array_equal(ieee14_ybus, ieee14_ybus.T)


def test_ybus_zero_shunt_rows_sum_to_zero():
    buses = [_slack_bus(), _pq_bus(2)]
    net = build_network(buses, [Branch(1, 2, 0.01, 0.05, 0.0)])
    y = build_ybus(net)
    assert np.max(np.abs(y.sum(axis=1))) < 1e-12


def test_ybus_zero_shunt_14bus_variant(ieee14):
    branches = [Branch(b.from_bus, b.to_bus, b.resistance, b.reactance, 0.0) for b in ieee14.branches]
    net = build_network(list(ieee14.buses), branches)
    y = build_ybus(net)
    assert np.max(np.abs(y.sum(axis=1))) < 1e-12


def test_ybus_branch_permutation_invariant(ieee14):
    rng = np.random.default_rng(5)
    y_ref = build_ybus(ieee14)
    for _ in range(3):
        perm = list(ieee14.branches)
        rng.shuffle(perm)
        net = build_network(list(ieee14.buses), perm)
        assert np.array_equal(build_ybus(net), y_ref)


def test_network_ybus_built_once_per_network_object(ieee14, monkeypatch):
    import gridse.network

    calls = []
    monkeypatch.setattr(gridse.network, "build_ybus", lambda net: calls.append(net) or build_ybus(net))
    net = with_scaled_loads(ieee14, 1.0)
    y = net.ybus
    assert net.ybus is y
    assert len(calls) == 1
    assert np.array_equal(y, build_ybus(ieee14))
    assert not y.flags.writeable
    with_scaled_loads(net, 0.9).ybus
    assert len(calls) == 2


def test_branch_arrays_follow_branch_order(ieee14):
    arrays = ieee14.branch_arrays
    for k, br in enumerate(ieee14.branches):
        ys = br.series_admittance()
        assert (arrays.from_idx[k], arrays.to_idx[k]) == (br.from_bus - 1, br.to_bus - 1)
        assert (arrays.g[k], arrays.b[k], arrays.b_sh[k]) == (ys.real, ys.imag, br.half_charging)
    assert all(not column.flags.writeable for column in arrays)


# ---- load scaling -----------------------------------------------------------

def test_with_scaled_loads(ieee14):
    scaled = with_scaled_loads(ieee14, 0.5)
    assert scaled.buses[2].p_load == pytest.approx(94.2 * 0.5)
    assert scaled.buses[2].p_gen == ieee14.buses[2].p_gen
    weighted = with_scaled_loads(ieee14, 1.0, {3: 2.0})
    assert weighted.buses[2].p_load == pytest.approx(188.4)
    assert weighted.buses[3].p_load == pytest.approx(47.8)
    with pytest.raises(NetworkError):
        with_scaled_loads(ieee14, 0.0)
