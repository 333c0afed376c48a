"""`estimate` against the Gauss-Newton loop on the reduced [non-slack theta; |V|] vector.

The reference below iterates on a length 2n - 1 vector: the start's slack
angle is dropped with `np.delete`, and every iterate's state is rebuilt with
the slack angle put back as 0 by `np.insert`. The library steps the same free
coordinates of the stacked [theta; |V|] instead, with the same float
operations on the same operands, so every result must match bit for bit,
including the runs that stop through the divergence guard and the plans that
raise SingularGain.
"""
import numpy as np
import pytest

from conftest import measurement_set, slack_at_bus3
from gridse.estimator import (
    MAX_ITER,
    STEP_TOL,
    EstimationResult,
    SingularGain,
    _exact_condition,
    _weighted_sse,
    estimate,
    solve_normal_equations,
)
from gridse.measurements import V_MAG, evaluate_h, full_measurement_plan, generate_measurements, jacobian_h
from gridse.network import Bus, build_network, with_scaled_loads
from gridse.powerflow import StateVector, flat_start, solve_power_flow


def estimate_reference(network, mset, start=None):
    n = network.n_buses
    slack = network.slack_index
    start = flat_start(network) if start is None else start
    ybus = network.ybus
    x = np.concatenate([np.delete(start.angles, slack), start.magnitudes])
    z, sigmas = mset.values, mset.sigmas

    state = StateVector(angles=np.insert(x[: n - 1], slack, 0.0), magnitudes=x[n - 1 :])
    r = z - evaluate_h(mset, state, network, ybus)
    history = [_weighted_sse(r, sigmas)]
    converged = False
    for iterations in range(1, MAX_ITER + 1):
        h_matrix = jacobian_h(mset, state, network, ybus)
        dx, gain, _ = solve_normal_equations(h_matrix, sigmas, r)
        new_x = x + dx
        if not (np.all(np.isfinite(new_x)) and np.all(new_x[network.n_buses - 1 :] > 0)):
            break  # diverged; keep the last physical iterate
        x = new_x
        state = StateVector(angles=np.insert(x[: n - 1], slack, 0.0), magnitudes=x[n - 1 :])
        r = z - evaluate_h(mset, state, network, ybus)
        history.append(_weighted_sse(r, sigmas))
        converged = float(np.max(np.abs(dx))) < STEP_TOL
        if converged:
            break

    return EstimationResult(
        state=state,
        iterations=iterations,
        objective=history[-1],
        objective_history=tuple(history),
        residuals=r,
        converged=converged,
        gain_condition=_exact_condition(gain),
    )


def assert_same_result(got, want):
    assert np.array_equal(got.state.angles, want.state.angles)
    assert np.array_equal(got.state.magnitudes, want.state.magnitudes)
    assert np.array_equal(got.residuals, want.residuals)
    assert got.objective_history == want.objective_history
    assert got.objective == want.objective
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    assert got.gain_condition == want.gain_condition


def metered(network, seed, noise=True, plan=None, truth=None):
    """The plan (full by default) metered at `truth`, by default the power-flow solution."""
    if truth is None:
        pf = solve_power_flow(network)
        assert pf.converged
        truth = pf.state
    return generate_measurements(truth, plan or full_measurement_plan(network), seed, network, network.ybus,
                                 noise=noise)


@pytest.mark.parametrize("seed", [7, 13])
@pytest.mark.parametrize("noise", [True, False])
@pytest.mark.parametrize("warm", [False, True])
def test_ieee14_matches_reference(ieee14, seed, noise, warm):
    mset = metered(ieee14, seed, noise)
    # a warm start as a snapshot run gives one: the estimate at slightly higher loads
    start = estimate(ieee14, metered(with_scaled_loads(ieee14, 1.05), seed + 1, noise)).state if warm else None
    assert_same_result(estimate(ieee14, mset, start), estimate_reference(ieee14, mset, start))


def test_start_with_nonzero_slack_angle_matches_reference(ieee14):
    mset = metered(ieee14, 7)
    start = StateVector(angles=np.full(14, 0.3), magnitudes=np.ones(14))
    result = estimate(ieee14, mset, start)
    assert_same_result(result, estimate_reference(ieee14, mset, start))
    assert result.state.angles[ieee14.slack_index] == 0.0


@pytest.mark.parametrize("grid", ["slack-bus3", "tiled56"])
def test_other_grids_match_reference(ieee14_rows, tiled_rows, grid):
    if grid == "slack-bus3":
        network, truth = slack_at_bus3(ieee14_rows), None
    else:  # the tiled rows have no power-flow solution: meter a perturbed state instead
        network = build_network(*tiled_rows(4))
        rng = np.random.default_rng(2024)
        angles = rng.uniform(-0.35, 0.35, 56)
        angles[network.slack_index] = 0.0
        truth = StateVector(angles=angles, magnitudes=rng.uniform(0.9, 1.1, 56))
    mset = metered(network, 7, truth=truth)
    result = estimate(network, mset)
    assert result.converged
    assert_same_result(result, estimate_reference(network, mset))


def test_one_bus_grid_matches_reference():
    network = build_network([Bus(id=1, v_setpoint=1.02)], [])
    mset = metered(network, 7)
    result = estimate(network, mset)
    assert result.converged
    assert_same_result(result, estimate_reference(network, mset))


def test_random_starts_match_reference_through_the_divergence_break(ieee14):
    mset = metered(ieee14, 7)
    rng = np.random.default_rng(0)
    diverged = 0
    for _ in range(60):
        start = StateVector(angles=rng.uniform(-3, 3, 14), magnitudes=rng.uniform(0.05, 3, 14))
        result = estimate(ieee14, mset, start)
        assert_same_result(result, estimate_reference(ieee14, mset, start))
        diverged += not result.converged
    assert diverged == 46


def test_voltage_only_plan_raises_the_reference_condition(ieee14):
    rows = [(V_MAG, i, -1, -1) for i in range(14)]
    mset = metered(ieee14, 3, plan=measurement_set(rows * 2, np.full(28, np.nan), np.full(28, 0.004)))
    with pytest.raises(SingularGain) as want:
        estimate_reference(ieee14, mset)
    with pytest.raises(SingularGain) as got:
        estimate(ieee14, mset)
    assert got.value.condition == want.value.condition
