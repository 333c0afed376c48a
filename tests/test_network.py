"""Network model: bus-kind inference, validation, columns, admittance construction."""
import numpy as np
import pytest

from gridse.network import (
    Branch,
    Bus,
    BusKind,
    DanglingBranchEndpoint,
    DisconnectedGraph,
    DuplicateBusId,
    MultipleSlackBuses,
    NetworkError,
    NoSlackBus,
    ZeroImpedanceBranch,
    build_network,
    build_ybus,
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
    # the shipped bus table has no kind column: every kind is inferred
    kinds = list(ieee14.kinds)
    assert kinds[0] is BusKind.SLACK
    pv = {i + 1 for i, k in enumerate(kinds) if k is BusKind.PV}
    assert pv == {2, 3, 6, 8}
    assert all(k is BusKind.PQ for i, k in enumerate(kinds) if i != 0 and (i + 1) not in pv)


def test_infer_kinds_single_bus():
    assert list(build_network([Bus(1, 1.06)], []).kinds) == [BusKind.SLACK]


def test_infer_kinds_no_pv_condition():
    buses = [Bus(1, 1.0), Bus(2, 1.0, p_gen=10.0), Bus(3, 1.05)]  # unity setpoint / not generating
    net = build_network(buses, [Branch(1, 2, 0.01, 0.05, 0.0), Branch(2, 3, 0.01, 0.05, 0.0)])
    assert list(net.kinds) == [BusKind.SLACK, BusKind.PQ, BusKind.PQ]


def test_infer_kinds_explicit_override():
    net = build_network([Bus(1, 1.06), Bus(2, 1.0, kind=BusKind.PV)], [Branch(1, 2, 0.01, 0.05, 0.0)])
    assert net.kinds[1] is BusKind.PV  # rule would say PQ


def test_infer_kinds_empty_rows_rejected():
    with pytest.raises(NetworkError):
        build_network([], [])


# ---- build_network validation -----------------------------------------------

def test_shipped_case_is_valid(ieee14):
    assert ieee14.n_buses == 14
    assert ieee14.n_branches == 20
    assert ieee14.slack_index == 0
    assert ieee14.pq_indices.tolist() == [3, 4, 6, 8, 9, 10, 11, 12, 13]
    assert not ieee14.pq_indices.flags.writeable
    assert ieee14.pq_indices is ieee14.pq_indices  # derived once per network
    assert ieee14.base_mva == 100.0


def test_dangling_branch_endpoint(ieee14_rows):
    buses, branches = ieee14_rows
    with pytest.raises(DanglingBranchEndpoint) as info:
        build_network(buses, list(branches) + [Branch(1, 15, 0.01, 0.05, 0.0)])
    assert info.value.row == 20


def test_disconnected_two_buses_no_branches():
    with pytest.raises(DisconnectedGraph) as info:
        build_network([_slack_bus(), _pq_bus(2)], [])
    assert info.value.row is None


def test_disconnected_island_of_meshed_buses():
    buses = [_slack_bus(), _pq_bus(2), _pq_bus(3), _pq_bus(4), _pq_bus(5)]
    branches = [Branch(1, 2, 0.01, 0.05, 0.0), Branch(4, 3, 0.01, 0.05, 0.0),
                Branch(5, 4, 0.01, 0.05, 0.0), Branch(3, 5, 0.01, 0.05, 0.0)]
    with pytest.raises(DisconnectedGraph, match=r"\[3, 4, 5\]"):
        build_network(buses, branches)
    build_network(buses, branches + [Branch(5, 2, 0.01, 0.05, 0.0)])


def test_duplicate_bus_id():
    buses = [_slack_bus(), _pq_bus(2), _pq_bus(2)]
    with pytest.raises(DuplicateBusId) as info:
        build_network(buses, [Branch(1, 2, 0.01, 0.05, 0.0)])
    assert info.value.row == 2


def test_non_contiguous_ids_rejected():
    buses = [_slack_bus(), _pq_bus(3)]
    with pytest.raises(NetworkError) as info:
        build_network(buses, [Branch(1, 3, 0.01, 0.05, 0.0)])
    assert info.value.row == 1


def test_no_slack_bus():
    with pytest.raises(NoSlackBus):
        build_network([_pq_bus(1), _pq_bus(2)], [Branch(1, 2, 0.01, 0.05, 0.0)])


def test_multiple_slack_buses():
    with pytest.raises(MultipleSlackBuses) as info:
        build_network([_slack_bus(1), _slack_bus(2)], [Branch(1, 2, 0.01, 0.05, 0.0)])
    assert info.value.row == 1


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


# ---- bus columns and net injections ------------------------------------------

def _net_injection_pu(network, i):
    return ((network.p_gen[i] - network.p_load[i]) / network.base_mva,
            (network.q_gen[i] - network.q_load[i]) / network.base_mva)


def test_net_injection_bus3(ieee14):
    p, q = _net_injection_pu(ieee14, 2)
    assert p == pytest.approx(-0.942, abs=1e-12)
    assert q == pytest.approx((23.4 - 19.0) / 100.0, abs=1e-12)


def test_net_injection_zero_bus(ieee14):
    assert _net_injection_pu(ieee14, 6) == (0.0, 0.0)


def test_net_injection_bus2(ieee14):
    p, q = _net_injection_pu(ieee14, 1)
    assert p == pytest.approx(0.183, abs=1e-12)
    assert q == pytest.approx(0.297, abs=1e-12)


def test_net_injection_requires_positive_base(ieee14_rows):
    for base_mva in (0.0, -100.0, float("nan")):
        with pytest.raises(NetworkError):
            build_network(*ieee14_rows, base_mva=base_mva)


def test_bus_columns_follow_bus_rows(ieee14, ieee14_rows):
    buses, _ = ieee14_rows
    for name in ("v_setpoint", "p_gen", "q_gen", "p_load", "q_load"):
        column = getattr(ieee14, name)
        assert column.tolist() == [getattr(b, name) for b in buses]
        assert not column.flags.writeable
    assert not ieee14.kinds.flags.writeable


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
    br = ieee14.branch_arrays
    connected = {tuple(sorted(ends)) for ends in zip(br.from_idx.tolist(), br.to_idx.tolist())}
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


def test_ybus_zero_shunt_14bus_variant(ieee14_rows):
    buses, branches = ieee14_rows
    net = build_network(buses, [Branch(b.from_bus, b.to_bus, b.resistance, b.reactance, 0.0) for b in branches])
    y = build_ybus(net)
    assert np.max(np.abs(y.sum(axis=1))) < 1e-12


def test_ybus_branch_permutation_invariant(ieee14, ieee14_rows):
    buses, branches = ieee14_rows
    rng = np.random.default_rng(5)
    y_ref = build_ybus(ieee14)
    for _ in range(3):
        perm = list(branches)
        rng.shuffle(perm)
        net = build_network(buses, perm)
        assert np.array_equal(build_ybus(net), y_ref)
        assert np.array_equal(net.ybus, y_ref)


def test_network_ybus_built_once_per_network_object(ieee14, ieee14_rows, monkeypatch):
    import gridse.network

    calls = []
    monkeypatch.setattr(gridse.network, "build_ybus", lambda net: calls.append(net) or build_ybus(net))
    net = build_network(*ieee14_rows)
    assert len(calls) == 1
    assert np.array_equal(net.ybus, ieee14.ybus)
    assert not net.ybus.flags.writeable
    scaled = with_scaled_loads(net, 0.9)
    assert scaled.ybus is net.ybus
    assert scaled.branch_arrays is net.branch_arrays
    assert len(calls) == 1


def test_branch_arrays_follow_branch_order(ieee14, ieee14_rows):
    arrays = ieee14.branch_arrays
    for k, br in enumerate(ieee14_rows[1]):
        ys = 1.0 / complex(br.resistance, br.reactance)
        assert (arrays.from_idx[k], arrays.to_idx[k]) == (br.from_bus - 1, br.to_bus - 1)
        assert (arrays.g[k], arrays.b[k], arrays.b_sh[k]) == (ys.real, ys.imag, br.half_charging)
    assert all(not column.flags.writeable for column in arrays)


# ---- load scaling -----------------------------------------------------------

def test_with_scaled_loads(ieee14):
    scaled = with_scaled_loads(ieee14, 0.5)
    assert scaled.p_load[2] == pytest.approx(94.2 * 0.5)
    assert scaled.q_load[2] == pytest.approx(19.0 * 0.5)
    assert scaled.p_gen is ieee14.p_gen and scaled.kinds is ieee14.kinds
    assert not scaled.p_load.flags.writeable
    weighted = with_scaled_loads(ieee14, 1.0, {3: 2.0})
    assert weighted.p_load[2] == pytest.approx(188.4)
    assert weighted.p_load[3] == pytest.approx(47.8)
    assert ieee14.p_load[2] == 94.2
    raising = [
        (0.0, None, "load scale"),
        (float("inf"), None, "load scale"),
        (float("nan"), None, "load scale"),
        (-1.0, None, "load scale"),
        (1.0, {2: float("nan")}, "bus 2"),
        (1.0, {3: -1.0}, "bus 3"),
        (1.0, {99: 2.0}, "bus 99"),
        (1.0, {0: 1.0}, "bus 0"),
    ]
    for scale, weights, named in raising:
        with pytest.raises(NetworkError, match=named):
            with_scaled_loads(ieee14, scale, weights)
