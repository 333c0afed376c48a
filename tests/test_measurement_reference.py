"""h(x), H(x) and the stacked injections against the per-quantity reference.

The references below gather P and Q injections with one pass per quantity,
scatter H's angle and magnitude columns through an explicit angle-column map
and `n - 1 +` offsets, and build the injection Jacobian as four n x n blocks.
The library does the same float operations on the same operands, only
gathered differently, so h and H must match bit for bit, a dense H with the
same memory layout (a column slice of a C-ordered (m, 2n) array), and the
stacked injection Jacobian must equal the four blocks put together.
"""
import numpy as np
import pytest

from conftest import slack_at_bus3
from gridse.measurements import (
    QUANTITIES,
    MeasurementColumns,
    MeasurementSet,
    P_FLOW,
    P_INJ,
    Q_FLOW,
    Q_INJ,
    V_MAG,
    evaluate_h,
    full_measurement_plan,
    jacobian_h,
)
from gridse.network import build_network
from gridse.powerflow import StateVector, calc_injections, injection_jacobian

_V, _P, _Q, _PF, _QF = (QUANTITIES.index(q) for q in (V_MAG, P_INJ, Q_INJ, P_FLOW, Q_FLOW))


# ---- per-quantity reference ---------------------------------------------------

def injections_pair(state, ybus):
    v = state.magnitudes * np.exp(1j * state.angles)
    s = v * np.conj(ybus @ v)
    return s.real, s.imag


def four_block_injection_jacobian(state, ybus):
    vn = np.exp(1j * state.angles)
    v = state.magnitudes * vn
    i_bus = ybus @ v
    diag = np.diag_indices(v.shape[0])
    ds_dth = -1j * v[:, None] * np.conj(ybus * v[None, :])
    ds_dth[diag] += 1j * v * np.conj(i_bus)
    ds_dv = v[:, None] * np.conj(ybus * vn[None, :])
    ds_dv[diag] += np.conj(i_bus) * vn
    return ds_dth.real, ds_dv.real, ds_dth.imag, ds_dv.imag


def flow_terms(cols, rows, state, network):
    br = network.branch_arrays
    k = cols.branch[rows]
    to_end = cols.to_end[rows]
    i = np.where(to_end, br.to_idx[k], br.from_idx[k])
    j = np.where(to_end, br.from_idx[k], br.to_idx[k])
    vm, th = state.magnitudes, state.angles
    thij = th[i] - th[j]
    return i, j, vm[i], vm[j], np.cos(thij), np.sin(thij), br.g[k], br.b[k], br.b_sh[k]


def evaluate_h_reference(mset, state, network, ybus):
    cols = mset.columns
    q = cols.quantity
    h = np.empty(q.shape[0])
    rows = np.flatnonzero(q == _V)
    h[rows] = state.magnitudes[cols.bus[rows]]
    rows = np.flatnonzero((q == _P) | (q == _Q))
    if rows.size:
        p_inj, q_inj = injections_pair(state, ybus)
        bus = cols.bus[rows]
        h[rows] = np.where(q[rows] == _P, p_inj[bus], q_inj[bus])
    rows = np.flatnonzero(q >= _PF)
    if rows.size:
        _, _, vi, vj, c, s, g, b, bsh = flow_terms(cols, rows, state, network)
        h[rows] = np.where(q[rows] == _PF, vi * vi * g - vi * vj * (g * c + b * s),
                           -vi * vi * (b + bsh) - vi * vj * (g * s - b * c))
    return h


def jacobian_h_reference(mset, state, network, ybus):
    cols = mset.columns
    q = cols.quantity
    n = network.n_buses
    slack = network.slack_index
    ang_col = np.arange(n) - (np.arange(n) > slack)
    ang_col[slack] = 2 * n - 1
    h_mat = np.zeros((q.shape[0], 2 * n))

    rows = np.flatnonzero(q == _V)
    h_mat[rows, n - 1 + cols.bus[rows]] = 1.0

    if np.any((q == _P) | (q == _Q)):
        dp_dth, dp_dv, dq_dth, dq_dv = four_block_injection_jacobian(state, ybus)
        for code, dth, dv in ((_P, dp_dth, dp_dv), (_Q, dq_dth, dq_dv)):
            rows = np.flatnonzero(q == code)
            bus = cols.bus[rows]
            h_mat[np.ix_(rows, ang_col)] = dth[bus]
            h_mat[rows, n - 1 : 2 * n - 1] = dv[bus]

    rows = np.flatnonzero(q >= _PF)
    if rows.size:
        i, j, vi, vj, c, s, g, b, bsh = flow_terms(cols, rows, state, network)
        is_p = q[rows] == _PF
        dth_i = np.where(is_p, vi * vj * (g * s - b * c), -vi * vj * (g * c + b * s))
        h_mat[rows, ang_col[i]] = dth_i
        h_mat[rows, ang_col[j]] = -dth_i
        h_mat[rows, n - 1 + i] = np.where(is_p, 2 * vi * g - vj * (g * c + b * s),
                                          -2 * vi * (b + bsh) - vj * (g * s - b * c))
        h_mat[rows, n - 1 + j] = np.where(is_p, -vi * (g * c + b * s), -vi * (g * s - b * c))
    return h_mat[:, : 2 * n - 1]


# ---- cases --------------------------------------------------------------------

def perturbed_state(network, seed=2024):
    rng = np.random.default_rng(seed)
    n = network.n_buses
    ang = rng.uniform(-0.35, 0.35, n)
    ang[network.slack_index] = 0.0
    return StateVector(angles=ang, magnitudes=rng.uniform(0.9, 1.1, n))


def plan_subset(network, keep):
    """The rows of the network's full plan whose quantity code passes `keep`."""
    plan = full_measurement_plan(network)
    rows = keep(plan.columns.quantity)
    return MeasurementSet(MeasurementColumns(*(c[rows] for c in plan.columns)), plan.values[rows],
                          plan.sigmas[rows])


def slack_partial_plan(network):
    """Both-end flows of every branch touching the slack bus, the slack bus's
    voltage and P injection, and one far Q injection and flow."""
    slack = network.slack_index
    rows = [(_V, slack, -1, -1), (_P, slack, -1, -1), (_Q, network.n_buses - 1, -1, -1)]
    br = network.branch_arrays
    for k, ends in enumerate(zip(br.from_idx.tolist(), br.to_idx.tolist())):
        if slack in ends:
            rows += [(_PF, -1, k, 1), (_QF, -1, k, 1), (_QF, -1, k, 0), (_PF, -1, k, 0)]
    rows.append((_PF, -1, network.n_branches - 1, 1))
    table = np.array(rows, dtype=np.intp)
    return MeasurementSet(MeasurementColumns(*table.T), np.full(len(rows), np.nan), np.full(len(rows), 0.01))


CASES = ["ieee14-full-truth", "ieee14-full-perturbed", "ieee14-slack-partial", "tiled56-full",
         "slack-bus3-full", "slack-bus3-partial", "no-injections", "no-flows", "flows-only"]


def case(name, ieee14, ieee14_truth, ieee14_rows, tiled_rows):
    """(network, plan, state) of a named case."""
    full = full_measurement_plan
    if name == "ieee14-full-truth":
        return ieee14, full(ieee14), ieee14_truth
    if name == "ieee14-full-perturbed":
        return ieee14, full(ieee14), perturbed_state(ieee14)
    if name == "ieee14-slack-partial":
        return ieee14, slack_partial_plan(ieee14), perturbed_state(ieee14)
    if name == "tiled56-full":
        network = build_network(*tiled_rows(4))
        assert network.n_buses == 56
        return network, full(network), perturbed_state(network)
    if name.startswith("slack-bus3"):
        network = slack_at_bus3(ieee14_rows)
        plan = full(network) if name.endswith("full") else slack_partial_plan(network)
        return network, plan, perturbed_state(network, seed=3)
    keep = {"no-injections": lambda q: (q != _P) & (q != _Q),
            "no-flows": lambda q: q < _PF,
            "flows-only": lambda q: q >= _PF}[name]
    return ieee14, plan_subset(ieee14, keep), perturbed_state(ieee14, seed=5)


def assert_same_array(got, want):
    """Equal entries, dtype, shape and strides."""
    assert got.dtype == want.dtype and got.shape == want.shape and got.strides == want.strides
    assert got.flags.c_contiguous == want.flags.c_contiguous
    assert np.array_equal(got, want)


# ---- tests --------------------------------------------------------------------

@pytest.mark.parametrize("name", CASES)
def test_h_and_jacobian_match_reference_bit_for_bit(ieee14, ieee14_truth, ieee14_rows, tiled_rows, name):
    network, plan, state = case(name, ieee14, ieee14_truth, ieee14_rows, tiled_rows)
    ybus = network.ybus
    assert_same_array(evaluate_h(plan, state, network, ybus), evaluate_h_reference(plan, state, network, ybus))
    got, want = jacobian_h(plan, state, network, ybus), jacobian_h_reference(plan, state, network, ybus)
    if name == "tiled56-full":  # 111 columns: stored as CSR, which has no strides
        assert np.array_equal(got.toarray(), want)
    else:
        assert_same_array(got, want)


@pytest.mark.parametrize("name", ["ieee14-full-truth", "ieee14-full-perturbed", "tiled56-full", "slack-bus3-full",
                                  "zero-diagonal", "parallel-branches"])
def test_stacked_injections_and_jacobian_equal_four_blocks(ieee14, ieee14_truth, ieee14_rows, tiled_rows, name):
    if name in ("zero-diagonal", "parallel-branches"):
        # Y_ii = 0 and Y_ij = 0 exactly at places of Y's pattern; imported here, as
        # test_measurements imports this module
        from test_measurements import _parallel_branches_net, _zero_diagonal_net
        network = _zero_diagonal_net() if name == "zero-diagonal" else _parallel_branches_net(ieee14_rows)
        state = perturbed_state(network)
    else:
        network, _, state = case(name, ieee14, ieee14_truth, ieee14_rows, tiled_rows)
    ybus = network.ybus
    assert np.array_equal(calc_injections(state, ybus), np.concatenate(injections_pair(state, ybus)))
    dp_dth, dp_dv, dq_dth, dq_dv = four_block_injection_jacobian(state, ybus)
    assert np.array_equal(injection_jacobian(state, network), np.block([[dp_dth, dp_dv], [dq_dth, dq_dv]]))
