"""Newton power flow against the four-block loop reference.

The reference below keeps the angle and magnitude iterates apart, assembles
the Jacobian from four `np.ix_` blocks and re-evaluates the mismatch after
the loop. Both do the same arithmetic on the same operands: every Jacobian
entry, mismatch entry and update is the same float operation, only gathered
differently. So the state must match bit for bit, and `iterations`,
`max_mismatch` and `converged` exactly, on converged runs, on runs that use
up `max_iter` and on runs that take the divergence break.
"""
import numpy as np
import pytest

from gridse.network import Branch, Bus, BusKind, build_network, with_scaled_loads
from gridse.powerflow import (
    PowerFlowResult,
    SingularJacobian,
    StateVector,
    calc_injections,
    flat_start,
    injection_jacobian,
    solve_power_flow,
)


# ---- four-block reference ---------------------------------------------------

def four_block_power_flow(network, tol=1e-8, max_iter=20):
    ybus = network.ybus
    slack = network.slack_index
    pq = network.pq_indices
    non_slack = np.delete(np.arange(network.n_buses), slack)
    # specified net injections (generation - load), pu
    p_spec = (network.p_gen - network.p_load) / network.base_mva
    q_spec = (network.q_gen - network.q_load) / network.base_mva

    def mismatch_at(state: StateVector):
        p_calc, q_calc = calc_injections(state, ybus).reshape(2, -1)
        mismatch = np.concatenate([(p_spec - p_calc)[non_slack], (q_spec - q_calc)[pq]])
        return mismatch, float(np.max(np.abs(mismatch))) if mismatch.size else 0.0

    start = flat_start(network)
    ang = np.array(start.angles)
    mag = np.array(start.magnitudes)

    n_ang = len(non_slack)
    iterations = 0
    converged = False
    for _ in range(max_iter):
        iterations += 1
        state = StateVector(angles=ang, magnitudes=mag)
        mismatch, mm = mismatch_at(state)
        if mm < tol:
            converged = True
            break
        jac, n = injection_jacobian(state, network), network.n_buses
        dp_dth, dp_dv, dq_dth, dq_dv = jac[:n, :n], jac[:n, n:], jac[n:, :n], jac[n:, n:]
        jac = np.block(
            [
                [dp_dth[np.ix_(non_slack, non_slack)], dp_dv[np.ix_(non_slack, pq)]],
                [dq_dth[np.ix_(pq, non_slack)], dq_dv[np.ix_(pq, pq)]],
            ]
        )
        try:
            step = np.linalg.solve(jac, mismatch)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(f"power-flow Jacobian is singular: {exc}") from exc
        new_ang = ang.copy()
        new_mag = mag.copy()
        new_ang[non_slack] += step[:n_ang]
        new_mag[pq] += step[n_ang:]
        if not (np.all(np.isfinite(new_ang)) and np.all(np.isfinite(new_mag)) and np.all(new_mag > 0)):
            break  # diverged; keep the last physical iterate
        ang, mag = new_ang, new_mag

    state = StateVector(angles=ang, magnitudes=mag)
    if not converged:
        mm = mismatch_at(state)[1]
        converged = mm < tol
    return PowerFlowResult(state=state, iterations=iterations, max_mismatch=mm, converged=converged)


# ---- comparison -------------------------------------------------------------

def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def assert_matches_reference(network, **kwargs):
    expected = four_block_power_flow(network, **kwargs)
    result = solve_power_flow(network, **kwargs)
    assert_same_bits(result.state.angles, expected.state.angles)
    assert_same_bits(result.state.magnitudes, expected.state.magnitudes)
    assert type(result.iterations) is int and result.iterations == expected.iterations
    assert type(result.max_mismatch) is float
    assert_same_bits(result.max_mismatch, expected.max_mismatch)
    assert result.converged is expected.converged
    return result


@pytest.mark.parametrize("max_iter", [1, 2, 3, 20])
@pytest.mark.parametrize("scale", [1, 2, 3, 4, 5, 8, 20])
def test_ieee14_matches_four_block_loop(ieee14, scale, max_iter):
    result = assert_matches_reference(with_scaled_loads(ieee14, scale), max_iter=max_iter)
    assert result.iterations <= max_iter


def test_heavy_loads_take_the_divergence_break(ieee14):
    # at 8x and 20x load a Newton step leaves the physical region before
    # max_iter runs out: the run stops early, unconverged, at its last iterate
    for scale in (8, 20):
        result = assert_matches_reference(with_scaled_loads(ieee14, scale), max_iter=20)
        assert not result.converged and result.iterations < 20


def test_one_bus_grid_matches_four_block_loop():
    net = build_network([Bus(id=1, kind=BusKind.SLACK, v_setpoint=1.02, p_load=10.0)], [])
    result = assert_matches_reference(net)
    assert result.converged and result.iterations == 1 and result.max_mismatch == 0.0


def test_slack_and_pv_grid_without_pq_bus_matches_four_block_loop():
    buses = [
        Bus(id=1, kind=BusKind.SLACK, v_setpoint=1.05),
        Bus(id=2, kind=BusKind.PV, v_setpoint=1.01, p_gen=40.0, p_load=90.0, q_load=20.0),
    ]
    net = build_network(buses, [Branch(1, 2, 0.02, 0.08, 0.01)])
    result = assert_matches_reference(net)
    assert result.converged and result.iterations > 1


@pytest.mark.parametrize("max_iter", [2, 20])
def test_tiled_56_bus_grid_matches_four_block_loop(tiled_rows, max_iter):
    net = build_network(*tiled_rows(4))
    assert net.n_buses == 56
    assert_matches_reference(net, max_iter=max_iter)
