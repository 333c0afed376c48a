"""Columnar Y, h(x), H(x) and the broadcast injection Jacobian against
per-row loop references.

The references below are the per-branch admittance loop, the straightforward
per-measurement loops and the diagonal-matrix form of the injection
derivatives. Y does the same additions in the same order as its loop, so it
must match bit for bit. h and H round differently in the last bits
(vectorised cos/sin, elementwise complex products instead of BLAS products
with diagonal matrices), so their agreement is required to 1e-12 times the
largest entry.
"""
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import measurement_set
from gridse.measurements import (
    P_FLOW,
    P_INJ,
    Q_FLOW,
    Q_INJ,
    QUANTITIES,
    V_MAG,
    evaluate_h,
    full_measurement_plan,
    jacobian_h,
)
from gridse.network import Branch, Bus, build_network, build_ybus
from gridse.powerflow import StateVector, calc_injections, injection_jacobian

RTOL = 1e-12


class Row(NamedTuple):
    """One measurement row in the column encoding: 0-based bus and branch,
    to_end 1 for a flow metered at the to end, -1 where an entry does not apply."""

    quantity: str
    bus: int
    branch: int
    to_end: int


# ---- loop references --------------------------------------------------------

def ybus_loop(buses, branches):
    """Y accumulated branch by branch over the canonical order (end ids, then
    g, b and half charging)."""
    n = len(buses)
    y = np.zeros((n, n), dtype=complex)

    def key(br):
        ys = 1.0 / complex(br.resistance, br.reactance)
        return br.from_bus, br.to_bus, ys.real, ys.imag, br.half_charging

    for br in sorted(branches, key=key):
        ys = 1.0 / complex(br.resistance, br.reactance)
        f = br.from_bus - 1
        t = br.to_bus - 1
        y[f, t] -= ys
        y[t, f] -= ys
        y[f, f] += ys + 1j * br.half_charging
        y[t, t] += ys + 1j * br.half_charging
    return y


def _branch_constants(network, branch_idx):
    br = network.branch_arrays
    k = branch_idx
    return br.from_idx[k], br.to_idx[k], br.g[k], br.b[k], br.b_sh[k]


def _flow_value(row, state, network):
    f, t, g, b, bsh = _branch_constants(network, row.branch)
    i, j = (t, f) if row.to_end else (f, t)
    vi = state.magnitudes[i]
    vj = state.magnitudes[j]
    thij = state.angles[i] - state.angles[j]
    c, s = np.cos(thij), np.sin(thij)
    if row.quantity == P_FLOW:
        return vi * vi * g - vi * vj * (g * c + b * s)
    return -vi * vi * (b + bsh) - vi * vj * (g * s - b * c)


def evaluate_rows_loop(rows, state, network, ybus):
    p_inj, q_inj = calc_injections(state, ybus)
    out = np.empty(len(rows))
    for i, row in enumerate(rows):
        if row.quantity == V_MAG:
            out[i] = state.magnitudes[row.bus]
        elif row.quantity == P_INJ:
            out[i] = p_inj[row.bus]
        elif row.quantity == Q_INJ:
            out[i] = q_inj[row.bus]
        else:
            out[i] = _flow_value(row, state, network)
    return out


def jacobian_loop(rows, state, network, ybus):
    n = network.n_buses
    slack = network.slack_index
    ang_col = np.full(n, -1, dtype=int)
    col = 0
    for i in range(n):
        if i != slack:
            ang_col[i] = col
            col += 1
    v_col0 = n - 1
    dp_dth, dp_dv, dq_dth, dq_dv = injection_jacobian_diag(state, ybus)
    h_mat = np.zeros((len(rows), 2 * n - 1))
    vm = state.magnitudes
    th = state.angles
    for k, row in enumerate(rows):
        if row.quantity == V_MAG:
            h_mat[k, v_col0 + row.bus] = 1.0
        elif row.quantity in (P_INJ, Q_INJ):
            i = row.bus
            dth = dp_dth[i] if row.quantity == P_INJ else dq_dth[i]
            dv = dp_dv[i] if row.quantity == P_INJ else dq_dv[i]
            for j in range(n):
                if j != slack:
                    h_mat[k, ang_col[j]] = dth[j]
                h_mat[k, v_col0 + j] = dv[j]
        else:
            f, t, g, b, bsh = _branch_constants(network, row.branch)
            i, j = (t, f) if row.to_end else (f, t)
            vi, vj = vm[i], vm[j]
            thij = th[i] - th[j]
            c, s = np.cos(thij), np.sin(thij)
            if row.quantity == P_FLOW:
                dth_i = vi * vj * (g * s - b * c)
                dv_i = 2 * vi * g - vj * (g * c + b * s)
                dv_j = -vi * (g * c + b * s)
            else:
                dth_i = -vi * vj * (g * c + b * s)
                dv_i = -2 * vi * (b + bsh) - vj * (g * s - b * c)
                dv_j = -vi * (g * s - b * c)
            if i != slack:
                h_mat[k, ang_col[i]] = dth_i
            if j != slack:
                h_mat[k, ang_col[j]] = -dth_i
            h_mat[k, v_col0 + i] = dv_i
            h_mat[k, v_col0 + j] = dv_j
    return h_mat


def injection_jacobian_diag(state, ybus):
    v = state.magnitudes * np.exp(1j * state.angles)
    i_bus = ybus @ v
    diag_v = np.diag(v)
    diag_i = np.diag(i_bus)
    diag_vn = np.diag(np.exp(1j * state.angles))
    ds_dth = 1j * diag_v @ np.conj(diag_i - ybus @ diag_v)
    ds_dv = diag_v @ np.conj(ybus @ diag_vn) + np.conj(diag_i) @ diag_vn
    return ds_dth.real, ds_dv.real, ds_dth.imag, ds_dv.imag


# ---- cases ------------------------------------------------------------------

def _perturbed_state(rng, network):
    n = network.n_buses
    ang = rng.uniform(-0.35, 0.35, n)
    ang[network.slack_index] = 0.0
    return StateVector(angles=ang, magnitudes=rng.uniform(0.9, 1.1, n))


def _plan_rows(network):
    """The rows of the network's full measurement plan."""
    columns = full_measurement_plan(network).columns
    return [Row(QUANTITIES[q], *index) for q, *index in zip(*(c.tolist() for c in columns))]


def _slack_partial_rows(network):
    """To-end and from-end flows of every branch touching the slack bus, plus
    the slack bus's own voltage and injections and one far injection."""
    slack = network.slack_index
    rows = [Row(V_MAG, slack, -1, -1), Row(P_INJ, slack, -1, -1), Row(Q_INJ, network.n_buses - 1, -1, -1)]
    br = network.branch_arrays
    for idx, ends in enumerate(zip(br.from_idx.tolist(), br.to_idx.tolist())):
        if slack in ends:
            rows += [Row(P_FLOW, -1, idx, 1), Row(Q_FLOW, -1, idx, 1), Row(Q_FLOW, -1, idx, 0)]
    rows.append(Row(P_FLOW, -1, network.n_branches - 1, 1))
    return rows


def _case(ieee14, tiled_rows, name):
    """(network, rows, perturbed state) of a named case."""
    rng = np.random.default_rng(2024)
    if name == "ieee14-full":
        return ieee14, _plan_rows(ieee14), _perturbed_state(rng, ieee14)
    if name == "ieee14-slack-partial":
        return ieee14, _slack_partial_rows(ieee14), _perturbed_state(rng, ieee14)
    tiled = build_network(*tiled_rows(4))
    assert tiled.n_buses == 56
    return tiled, _plan_rows(tiled), _perturbed_state(rng, tiled)


def _assert_close(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= RTOL * np.max(np.abs(want))


@pytest.mark.parametrize("name", ["ieee14-full", "ieee14-slack-partial", "tiled56-full"])
def test_columnar_h_and_jacobian_match_loop_reference(ieee14, tiled_rows, name):
    network, rows, state = _case(ieee14, tiled_rows, name)
    ybus = build_ybus(network)
    mset = measurement_set(rows)
    _assert_close(evaluate_h(mset, state, network, ybus), evaluate_rows_loop(rows, state, network, ybus))
    _assert_close(jacobian_h(mset, state, network, ybus), jacobian_loop(rows, state, network, ybus))


@pytest.mark.parametrize("name", ["ieee14-full", "tiled56-full"])
def test_broadcast_injection_jacobian_matches_diag_formula(ieee14, tiled_rows, name):
    network, _, state = _case(ieee14, tiled_rows, name)
    ybus = build_ybus(network)
    for got, want in zip(injection_jacobian(state, ybus), injection_jacobian_diag(state, ybus)):
        _assert_close(got, want)


@pytest.mark.parametrize("tiles", [1, 4])
def test_ybus_matches_loop_reference(tiled_rows, tiles):
    buses, branches = tiled_rows(tiles)
    network = build_network(buses, branches)
    assert network.n_buses == 14 * tiles
    assert np.array_equal(network.ybus, ybus_loop(buses, branches))
    assert np.array_equal(build_ybus(network), network.ybus)


@st.composite
def meshed_rows(draw):
    """(buses, branches, permuted branches): a random connected meshed grid
    with random r/x/b_sh in which some branches have parallel copies, either
    way round, with their own impedances."""
    n = draw(st.integers(2, 9))
    bus = st.integers(0, n - 1)
    pairs = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]  # spanning tree
    pairs += draw(st.lists(st.tuples(bus, bus).filter(lambda p: p[0] != p[1]), max_size=n))
    pairs += draw(st.lists(st.sampled_from(pairs).map(lambda p: p[::-1]) | st.sampled_from(pairs),
                           min_size=1, max_size=n))
    branches = [Branch(f + 1, t + 1, draw(st.floats(0.0, 0.1)), draw(st.floats(0.02, 0.5) | st.floats(-0.5, -0.02)),
                       draw(st.floats(0.0, 0.05))) for f, t in pairs]
    buses = [Bus(i + 1, 1.0) for i in range(n)]
    return buses, branches, draw(st.permutations(branches))


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(meshed_rows())
def test_ybus_matches_loop_reference_on_random_meshed_networks(rows):
    buses, branches, permuted = rows
    y_ref = ybus_loop(buses, branches)
    assert np.array_equal(build_network(buses, branches).ybus, y_ref)
    assert np.array_equal(build_network(buses, permuted).ybus, y_ref)
