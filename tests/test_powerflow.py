"""Newton-Raphson power flow: convergence, injections, Jacobian, balance."""
import numpy as np
import pytest

from gridse.network import Branch, Bus, BusKind, build_network, build_ybus
from gridse.powerflow import (
    StateVector,
    calc_injections,
    flat_start,
    injection_jacobian,
    solve_power_flow,
)


def _two_bus_net(r=0.0, x=0.1):
    buses = [
        Bus(id=1, kind=BusKind.SLACK, v_setpoint=1.0, p_gen=0, q_gen=0, p_load=0, q_load=0),
        Bus(id=2, kind=BusKind.PQ, v_setpoint=1.0, p_gen=0, q_gen=0, p_load=0, q_load=0),
    ]
    return build_network(buses, [Branch(1, 2, r, x, 0.0)])


def test_converges_on_shipped_case(ieee14):
    result = solve_power_flow(ieee14, tol=1e-8, max_iter=20)
    assert result.converged
    assert result.max_mismatch < 1e-8
    assert result.iterations <= 10
    assert result.state.angles[ieee14.slack_index] == 0.0
    # PV magnitudes pinned at setpoints
    pv = np.flatnonzero(ieee14.kinds == BusKind.PV)
    assert pv.tolist() == [1, 2, 5, 7]
    assert np.array_equal(result.state.magnitudes[pv], ieee14.v_setpoint[pv])


def test_zero_injection_network_converges_immediately():
    buses = [
        Bus(id=1, kind=BusKind.SLACK, v_setpoint=1.0, p_gen=0, q_gen=0, p_load=0, q_load=0),
        Bus(id=2, kind=BusKind.PQ, v_setpoint=1.0, p_gen=0, q_gen=0, p_load=0, q_load=0),
        Bus(id=3, kind=BusKind.PQ, v_setpoint=1.0, p_gen=0, q_gen=0, p_load=0, q_load=0),
    ]
    net = build_network(buses, [Branch(1, 2, 0.01, 0.05, 0.0), Branch(2, 3, 0.01, 0.05, 0.0)])
    result = solve_power_flow(net)
    assert result.converged
    assert result.iterations == 1  # zero mismatch at the flat start
    assert np.array_equal(result.state.angles, np.zeros(3))
    assert np.array_equal(result.state.magnitudes, np.ones(3))


def test_single_iteration_does_not_converge_from_flat(ieee14):
    result = solve_power_flow(ieee14, tol=1e-8, max_iter=1)
    assert not result.converged
    assert result.iterations == 1


def test_max_iter_precondition(ieee14):
    with pytest.raises(ValueError):
        solve_power_flow(ieee14, max_iter=0)
    for tol in (0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            solve_power_flow(ieee14, tol=tol)


def test_calc_injections_flat_zero_shunt(ieee14_rows):
    buses, branches = ieee14_rows
    net = build_network(buses, [Branch(b.from_bus, b.to_bus, b.resistance, b.reactance, 0.0) for b in branches])
    state = StateVector(angles=np.zeros(14), magnitudes=np.ones(14))
    p, q = calc_injections(state, build_ybus(net)).reshape(2, -1)
    assert np.max(np.abs(p)) < 1e-12
    assert np.max(np.abs(q)) < 1e-12


def test_calc_injections_two_bus_closed_form():
    net = _two_bus_net(r=0.0, x=0.1)
    state = StateVector(angles=np.array([0.0, -0.1]), magnitudes=np.array([1.0, 1.0]))
    p, q = calc_injections(state, build_ybus(net)).reshape(2, -1)
    # P1 = (V1 V2 / x) sin(th1 - th2)
    assert p[0] == pytest.approx(10.0 * np.sin(0.1), abs=1e-12)
    assert p[1] == pytest.approx(-10.0 * np.sin(0.1), abs=1e-12)


def test_solution_matches_specified_injections(ieee14, ieee14_rows, ieee14_truth, ieee14_ybus):
    p, q = calc_injections(ieee14_truth, ieee14_ybus).reshape(2, -1)
    for i, bus in enumerate(ieee14_rows[0]):
        if i == ieee14.slack_index:
            continue
        assert p[i] == pytest.approx((bus.p_gen - bus.p_load) / ieee14.base_mva, abs=1e-8)
        if ieee14.kinds[i] is BusKind.PQ:
            assert q[i] == pytest.approx((bus.q_gen - bus.q_load) / ieee14.base_mva, abs=1e-8)


def test_injection_jacobian_matches_finite_differences(ieee14, ieee14_ybus):
    rng = np.random.default_rng(17)
    step = 1e-6
    for _ in range(20):
        ang = rng.uniform(-0.35, 0.35, 14)
        mag = rng.uniform(0.9, 1.1, 14)
        state = StateVector(angles=ang, magnitudes=mag)
        jac = injection_jacobian(state, ieee14)
        dp_dth, dp_dv, dq_dth, dq_dv = jac[:14, :14], jac[:14, 14:], jac[14:, :14], jac[14:, 14:]
        for j in range(14):
            for which in ("ang", "mag"):
                hi = ang.copy() if which == "ang" else mag.copy()
                lo = hi.copy()
                hi[j] += step
                lo[j] -= step
                if which == "ang":
                    sp = calc_injections(StateVector(hi, mag), ieee14_ybus).reshape(2, -1)
                    sq = calc_injections(StateVector(lo, mag), ieee14_ybus).reshape(2, -1)
                    an_p, an_q = dp_dth[:, j], dq_dth[:, j]
                else:
                    sp = calc_injections(StateVector(ang, hi), ieee14_ybus).reshape(2, -1)
                    sq = calc_injections(StateVector(ang, lo), ieee14_ybus).reshape(2, -1)
                    an_p, an_q = dp_dv[:, j], dq_dv[:, j]
                fd_p = (sp[0] - sq[0]) / (2 * step)
                fd_q = (sp[1] - sq[1]) / (2 * step)
                scale_p = np.maximum(1.0, np.abs(an_p))
                scale_q = np.maximum(1.0, np.abs(an_q))
                assert np.max(np.abs(fd_p - an_p) / scale_p) < 1e-6
                assert np.max(np.abs(fd_q - an_q) / scale_q) < 1e-6


def test_total_injection_equals_series_losses(ieee14_rows, ieee14_truth, ieee14_ybus):
    p, _ = calc_injections(ieee14_truth, ieee14_ybus).reshape(2, -1)
    v = ieee14_truth.magnitudes * np.exp(1j * ieee14_truth.angles)
    loss = 0.0
    for br in ieee14_rows[1]:
        f, t = br.from_bus - 1, br.to_bus - 1
        i_series = (v[f] - v[t]) / complex(br.resistance, br.reactance)
        loss += abs(i_series) ** 2 * br.resistance
    assert np.sum(p) == pytest.approx(loss, abs=1e-6)


def test_flat_start_uses_setpoints(ieee14):
    start = flat_start(ieee14)
    assert start.magnitudes[0] == 1.06
    assert start.magnitudes[1] == 1.045
    assert start.magnitudes[3] == 1.0
    assert np.array_equal(start.angles, np.zeros(14))


def test_state_vector_invariants():
    with pytest.raises(ValueError):
        StateVector(angles=np.zeros(3), magnitudes=np.array([1.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        StateVector(angles=np.zeros(2), magnitudes=np.ones(3))
    state = StateVector(angles=np.zeros(3), magnitudes=np.ones(3))
    with pytest.raises(ValueError):
        state.angles[0] = 1.0  # read-only storage
