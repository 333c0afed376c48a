"""Relabel, reorder, reverse: results that must not depend on how a grid is written down.

Relabelling the buses (which moves the slack), reordering the branch list and
reversing branches (which swaps the measured end of each flow row on them)
describe the same physical grid. On every description the power flow, h(x),
H(x) up to a permutation of its columns and the estimate must agree within
1e-10 relative. A relabelling cannot see an index bug that is relabelled along
with the grid, such as Q injection rows that read the P entries, so h and H
are also checked against Kirchhoff's current law: each bus's injection row
equals the sum of the flow rows measured at that bus's end of its branches.
"""
from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import meshed_grids
from gridse.estimator import estimate
from gridse.measurements import (
    MeasurementColumns,
    MeasurementSet,
    evaluate_h,
    full_measurement_plan,
    generate_measurements,
    jacobian_h,
)
from gridse.network import Branch, build_network
from gridse.powerflow import StateVector, solve_power_flow

RTOL = 1e-10


def assert_close(got, want):
    """Equal within RTOL relative to max(1, |want|), entry by entry."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= RTOL * np.maximum(1.0, np.abs(want)))


def dense(h_matrix):
    return h_matrix if isinstance(h_matrix, np.ndarray) else h_matrix.toarray()


def redescribed(buses, branches, network, rng):
    """The grid written down again: buses relabelled by a random permutation
    that moves the slack, branches shuffled and about half of them reversed.
    Returns (network, perm, pos, flip): old bus i is new bus perm[i], old
    branch k is new branch pos[k], reversed where flip[k]."""
    n, slack = len(buses), network.slack_index
    perm = rng.permutation(n)
    if perm[slack] == slack:
        other = (slack + 1) % n
        perm[[slack, other]] = perm[[other, slack]]
    new_buses = [None] * n
    for i, bus in enumerate(buses):  # kinds given explicitly: bus 1 is no longer the inferred slack
        new_buses[perm[i]] = replace(bus, id=int(perm[i]) + 1, kind=network.kinds[i])
    order = rng.permutation(len(branches))
    flip = rng.random(len(branches)) < 0.5
    new_branches = []
    for k in order:
        br = branches[k]
        ends = (int(perm[br.from_bus - 1]) + 1, int(perm[br.to_bus - 1]) + 1)
        if flip[k]:
            ends = ends[::-1]
        new_branches.append(Branch(*ends, br.resistance, br.reactance, br.half_charging))
    return build_network(new_buses, new_branches), perm, np.argsort(order), flip


def redescribed_set(mset, perm, pos, flip):
    """The same measurements, row for row, on the redescribed grid."""
    cols = mset.columns
    is_flow = cols.branch >= 0
    columns = MeasurementColumns(cols.quantity, np.where(is_flow, -1, perm[cols.bus]),
                                 np.where(is_flow, pos[cols.branch], -1),
                                 np.where(is_flow, cols.to_end ^ flip[cols.branch], -1))
    return MeasurementSet(columns, mset.values, mset.sigmas)


def redescribed_state(state, perm):
    angles, magnitudes = np.empty_like(state.angles), np.empty_like(state.magnitudes)
    angles[perm], magnitudes[perm] = state.angles, state.magnitudes
    return StateVector(angles=angles, magnitudes=magnitudes)


def assert_kirchhoff(values, network):
    """Rows of the full plan (h, or H's rows): P and Q injection rows equal the
    sums of the P and Q flow rows measured at each bus."""
    n, br = network.n_buses, network.branch_arrays
    flows = values[3 * n:].reshape(network.n_branches, 4, *values.shape[1:])  # P from, P to, Q from, Q to
    for injection, (at_from, at_to) in ((values[n:2 * n], (0, 1)), (values[2 * n:3 * n], (2, 3))):
        total = np.zeros_like(injection)
        np.add.at(total, br.from_idx, flows[:, at_from])
        np.add.at(total, br.to_idx, flows[:, at_to])
        assert_close(injection, total)


def assert_same_grid(buses, branches, state, rng):
    network = build_network(buses, branches)
    other, perm, pos, flip = redescribed(buses, branches, network, rng)
    n = network.n_buses
    assert other.slack_index != network.slack_index or n == 1

    pf, pf_other = solve_power_flow(network), solve_power_flow(other)
    assert (pf.converged, pf.iterations) == (pf_other.converged, pf_other.iterations)
    if pf.converged:
        assert_close(pf_other.state.angles[perm], pf.state.angles)
        assert_close(pf_other.state.magnitudes[perm], pf.state.magnitudes)

    plan = full_measurement_plan(network)
    plan_other = redescribed_set(plan, perm, pos, flip)
    state_other = redescribed_state(state, perm)
    h = evaluate_h(plan, state, network, network.ybus)
    assert_close(evaluate_h(plan_other, state_other, other, other.ybus), h)
    assert_kirchhoff(h, network)
    h_mat = dense(jacobian_h(plan, state, network, network.ybus))
    assert_kirchhoff(h_mat, network)
    # H's column k is stacked coordinate free[k]; on the other grid that coordinate is moved[free[k]]
    moved = np.concatenate([perm, n + perm])[np.delete(np.arange(2 * n), network.slack_index)]
    columns = moved - (moved > other.slack_index)
    assert_close(dense(jacobian_h(plan_other, state_other, other, other.ybus))[:, columns], h_mat)

    mset = generate_measurements(state, plan, 7, network, network.ybus)
    result, result_other = estimate(network, mset), estimate(other, redescribed_set(mset, perm, pos, flip))
    assert (result.converged, result.iterations) == (result_other.converged, result_other.iterations)
    assert_close(result_other.state.angles[perm], result.state.angles)
    assert_close(result_other.state.magnitudes[perm], result.state.magnitudes)
    assert abs(result_other.objective - result.objective) <= RTOL * result.objective
    assert abs(result_other.gain_condition - result.gain_condition) <= RTOL * result.gain_condition


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(meshed_grids(), st.integers(0, 2**32 - 1))
def test_relabelled_reordered_reversed_meshed_grids_agree(grid, seed):
    buses, branches, _, state = grid
    assert_same_grid(buses, branches, state, np.random.default_rng(seed))


def test_relabelled_reordered_reversed_tiled56_agrees(balanced_tiled_rows):
    # 111 columns: H is CSR on both descriptions
    buses, branches = balanced_tiled_rows(4)
    network = build_network(buses, branches)
    pf = solve_power_flow(network)
    assert pf.converged
    rng = np.random.default_rng(56)
    perturbed = StateVector(angles=pf.state.angles + np.where(np.arange(56) == network.slack_index, 0.0,
                                                                rng.uniform(-0.05, 0.05, 56)),
                            magnitudes=pf.state.magnitudes * rng.uniform(0.98, 1.02, 56))
    assert_same_grid(buses, branches, perturbed, rng)
