"""Columnar h(x), H(x) and the broadcast injection Jacobian against per-row
loop references.

The references below are the straightforward per-measurement loops and the
diagonal-matrix form of the injection derivatives. The array versions round
differently in the last bits (vectorised cos/sin, elementwise complex
products instead of BLAS products with diagonal matrices), so agreement is
required to 1e-12 times the largest entry rather than bit for bit.
"""
import numpy as np
import pytest

from gridse.measurements import (
    FROM,
    P_FLOW,
    P_INJ,
    Q_INJ,
    TO,
    V_MAG,
    MeasurementKind,
    MeasurementSet,
    evaluate_h,
    full_measurement_plan,
    jacobian_h,
)
from gridse.network import Branch, Bus, BusKind, build_network, build_ybus
from gridse.powerflow import StateVector, calc_injections, injection_jacobian

RTOL = 1e-12


# ---- loop references --------------------------------------------------------

def _branch_constants(network, branch_idx):
    br = network.branches[branch_idx]
    ys = br.series_admittance()
    return br.from_bus - 1, br.to_bus - 1, ys.real, ys.imag, br.half_charging


def _flow_value(kind, state, network):
    f, t, g, b, bsh = _branch_constants(network, kind.branch)
    i, j = (f, t) if kind.end == FROM else (t, f)
    vi = state.magnitudes[i]
    vj = state.magnitudes[j]
    thij = state.angles[i] - state.angles[j]
    c, s = np.cos(thij), np.sin(thij)
    if kind.quantity == P_FLOW:
        return vi * vi * g - vi * vj * (g * c + b * s)
    return -vi * vi * (b + bsh) - vi * vj * (g * s - b * c)


def evaluate_kinds_loop(kinds, state, network, ybus):
    p_inj, q_inj = calc_injections(state, ybus)
    out = np.empty(len(kinds))
    for i, kind in enumerate(kinds):
        if kind.quantity == V_MAG:
            out[i] = state.magnitudes[kind.bus - 1]
        elif kind.quantity == P_INJ:
            out[i] = p_inj[kind.bus - 1]
        elif kind.quantity == Q_INJ:
            out[i] = q_inj[kind.bus - 1]
        else:
            out[i] = _flow_value(kind, state, network)
    return out


def jacobian_loop(kinds, state, network, ybus):
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
    h_mat = np.zeros((len(kinds), 2 * n - 1))
    vm = state.magnitudes
    th = state.angles
    for row, kind in enumerate(kinds):
        if kind.quantity == V_MAG:
            h_mat[row, v_col0 + kind.bus - 1] = 1.0
        elif kind.quantity in (P_INJ, Q_INJ):
            i = kind.bus - 1
            dth = dp_dth[i] if kind.quantity == P_INJ else dq_dth[i]
            dv = dp_dv[i] if kind.quantity == P_INJ else dq_dv[i]
            for j in range(n):
                if j != slack:
                    h_mat[row, ang_col[j]] = dth[j]
                h_mat[row, v_col0 + j] = dv[j]
        else:
            f, t, g, b, bsh = _branch_constants(network, kind.branch)
            i, j = (f, t) if kind.end == FROM else (t, f)
            vi, vj = vm[i], vm[j]
            thij = th[i] - th[j]
            c, s = np.cos(thij), np.sin(thij)
            if kind.quantity == P_FLOW:
                dth_i = vi * vj * (g * s - b * c)
                dv_i = 2 * vi * g - vj * (g * c + b * s)
                dv_j = -vi * (g * c + b * s)
            else:
                dth_i = -vi * vj * (g * c + b * s)
                dv_i = -2 * vi * (b + bsh) - vj * (g * s - b * c)
                dv_j = -vi * (g * s - b * c)
            if i != slack:
                h_mat[row, ang_col[i]] = dth_i
            if j != slack:
                h_mat[row, ang_col[j]] = -dth_i
            h_mat[row, v_col0 + i] = dv_i
            h_mat[row, v_col0 + j] = dv_j
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


def _mset(kinds):
    return MeasurementSet.from_kinds(kinds, np.zeros(len(kinds)), np.full(len(kinds), 0.01))


def _slack_partial_kinds(network):
    """To-end and from-end flows of every branch touching the slack bus, plus
    the slack bus's own voltage and injections and one far injection."""
    slack_id = network.slack_index + 1
    kinds = [MeasurementKind.voltage_magnitude(slack_id),
             MeasurementKind.active_injection(slack_id),
             MeasurementKind.reactive_injection(network.n_buses)]
    for idx, br in enumerate(network.branches):
        if slack_id in (br.from_bus, br.to_bus):
            kinds += [MeasurementKind.active_flow(idx, TO), MeasurementKind.reactive_flow(idx, TO),
                      MeasurementKind.reactive_flow(idx, FROM)]
    kinds.append(MeasurementKind.active_flow(len(network.branches) - 1, TO))
    return kinds


def _tiled(network, tiles):
    """`tiles` copies of a network chained by one tie line each; only the
    first copy keeps its slack bus."""
    n = network.n_buses
    buses, branches = [], []
    for t in range(tiles):
        for bus in network.buses:
            kind = BusKind.PV if (t and bus.kind is BusKind.SLACK) else bus.kind
            buses.append(Bus(id=bus.id + t * n, kind=kind, v_setpoint=bus.v_setpoint, p_gen=bus.p_gen,
                             q_gen=bus.q_gen, p_load=bus.p_load, q_load=bus.q_load))
        for br in network.branches:
            branches.append(Branch(br.from_bus + t * n, br.to_bus + t * n, br.resistance,
                                   br.reactance, br.half_charging))
        if t:
            branches.append(Branch(t * n, t * n + 4, 0.02, 0.12, 0.015))
    return build_network(buses, branches, network.base_mva)


def _case(ieee14, name):
    """(network, kinds, perturbed state) of a named case."""
    rng = np.random.default_rng(2024)
    if name == "ieee14-full":
        return ieee14, full_measurement_plan(ieee14).kinds, _perturbed_state(rng, ieee14)
    if name == "ieee14-slack-partial":
        return ieee14, _slack_partial_kinds(ieee14), _perturbed_state(rng, ieee14)
    tiled = _tiled(ieee14, 4)
    assert tiled.n_buses == 56
    return tiled, full_measurement_plan(tiled).kinds, _perturbed_state(rng, tiled)


def _assert_close(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= RTOL * np.max(np.abs(want))


@pytest.mark.parametrize("name", ["ieee14-full", "ieee14-slack-partial", "tiled56-full"])
def test_columnar_h_and_jacobian_match_loop_reference(ieee14, name):
    network, kinds, state = _case(ieee14, name)
    ybus = build_ybus(network)
    mset = _mset(kinds)
    _assert_close(evaluate_h(mset, state, network, ybus), evaluate_kinds_loop(kinds, state, network, ybus))
    _assert_close(jacobian_h(mset, state, network, ybus), jacobian_loop(kinds, state, network, ybus))


@pytest.mark.parametrize("name", ["ieee14-full", "tiled56-full"])
def test_broadcast_injection_jacobian_matches_diag_formula(ieee14, name):
    network, _, state = _case(ieee14, name)
    ybus = build_ybus(network)
    for got, want in zip(injection_jacobian(state, ybus), injection_jacobian_diag(state, ybus)):
        _assert_close(got, want)
