"""Measurement functions, analytic Jacobian vs finite differences, metering."""
import re
import warnings

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
    MeasurementColumns,
    MeasurementRowError,
    MeasurementSet,
    _stream_state_words,
    check_columns,
    evaluate_h,
    full_measurement_plan,
    generate_measurements,
    jacobian_h,
    state_size,
    state_to_vector,
    vector_to_state,
)
from gridse.network import Branch, Bus, BusKind, build_network, build_ybus
from gridse.powerflow import StateVector, calc_injections


def _two_bus_net(r=0.0, x=0.1):
    buses = [
        Bus(id=1, kind=BusKind.SLACK, v_setpoint=1.0, p_gen=0, q_gen=0, p_load=0, q_load=0),
        Bus(id=2, kind=BusKind.PQ, v_setpoint=1.0, p_gen=0, q_gen=0, p_load=0, q_load=0),
    ]
    return build_network(buses, [Branch(1, 2, r, x, 0.0)])


def _head(mset, m):
    """The first m rows of a set."""
    return MeasurementSet(MeasurementColumns(*(c[:m] for c in mset.columns)), mset.values[:m], mset.sigmas[:m])


def _random_state(rng, n, slack=0):
    ang = rng.uniform(-0.35, 0.35, n)
    ang[slack] = 0.0  # feasible states carry the slack reference angle
    return StateVector(angles=ang, magnitudes=rng.uniform(0.9, 1.1, n))


# ---- evaluation -------------------------------------------------------------

def test_voltage_measurement_is_identity(ieee14, ieee14_ybus):
    state = StateVector(angles=np.zeros(14), magnitudes=np.ones(14))
    h = evaluate_h(measurement_set([(V_MAG, 4, -1, -1)]), state, ieee14, ieee14_ybus)
    assert h[0] == 1.0


def test_two_bus_flow_closed_form():
    net = _two_bus_net()
    ybus = build_ybus(net)
    state = StateVector(angles=np.array([0.0, -0.1]), magnitudes=np.array([1.0, 1.0]))
    h = evaluate_h(measurement_set([(P_FLOW, -1, 0, 0), (P_INJ, 0, -1, -1)]), state, net, ybus)
    assert h[0] == pytest.approx(10.0 * np.sin(0.1), abs=1e-12)
    assert h[0] == pytest.approx(h[1], abs=1e-12)  # flow equals injection on a 2-bus net


def test_lossless_branch_flows_cancel():
    net = _two_bus_net(r=0.0, x=0.1)
    ybus = build_ybus(net)
    state = StateVector(angles=np.array([0.0, -0.17]), magnitudes=np.array([1.02, 0.97]))
    h = evaluate_h(measurement_set([(P_FLOW, -1, 0, 0), (P_FLOW, -1, 0, 1)]), state, net, ybus)
    assert h[0] + h[1] == pytest.approx(0.0, abs=1e-12)


def test_branch_loss_is_nonnegative_and_matches_i2r(ieee14, ieee14_rows, ieee14_ybus):
    rng = np.random.default_rng(11)
    for _ in range(5):
        state = _random_state(rng, 14)
        v = state.magnitudes * np.exp(1j * state.angles)
        for idx, br in enumerate(ieee14_rows[1]):
            rows = [(P_FLOW, -1, idx, 0), (P_FLOW, -1, idx, 1)]
            h = evaluate_h(measurement_set(rows), state, ieee14, ieee14_ybus)
            f, t = br.from_bus - 1, br.to_bus - 1
            i_series = (v[f] - v[t]) / complex(br.resistance, br.reactance)
            loss = abs(i_series) ** 2 * br.resistance
            assert loss >= 0
            assert h[0] + h[1] == pytest.approx(loss, abs=1e-10)


def test_injection_measurements_equal_calc_injections(ieee14, ieee14_ybus):
    rng = np.random.default_rng(2)
    state = _random_state(rng, 14)
    rows = [(P_INJ, i, -1, -1) for i in range(14)] + [(Q_INJ, i, -1, -1) for i in range(14)]
    h = evaluate_h(measurement_set(rows), state, ieee14, ieee14_ybus)
    p, q = calc_injections(state, ieee14_ybus)
    assert np.array_equal(h[:14], p)
    assert np.array_equal(h[14:], q)


def test_kind_validation(ieee14):
    with pytest.raises(ValueError, match="bus 99 does not exist"):
        check_columns(measurement_set([(V_MAG, 98, -1, -1)]).columns, ieee14)
    with pytest.raises(ValueError, match="measurement 1: branch index 77 does not exist"):
        check_columns(measurement_set([(V_MAG, 0, -1, -1), (P_FLOW, -1, 77, 0)]).columns, ieee14)
    with pytest.raises(ValueError, match="measurement 0: a v_mag row needs bus >= 0"):
        measurement_set([(V_MAG, -1, -1, -1)])
    check_columns(full_measurement_plan(ieee14).columns, ieee14)


def test_sigma_must_be_positive():
    for sigma in (0.0, -0.01, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            measurement_set([(V_MAG, 0, -1, -1)], [1.0], [sigma])


def test_set_needs_one_entry_per_row():
    rows = [(V_MAG, 0, -1, -1), (V_MAG, 1, -1, -1)]
    with pytest.raises(ValueError):
        measurement_set(rows, [1.0], [0.01, 0.01])
    with pytest.raises(ValueError):
        measurement_set(rows, [1.0, 1.0], [0.01])
    columns = measurement_set(rows).columns
    with pytest.raises(ValueError):
        MeasurementSet(columns._replace(bus=columns.bus[:1]), [1.0, 1.0], [0.01, 0.01])
    with pytest.raises(ValueError):
        MeasurementSet(columns._replace(quantity=np.array([0, len(QUANTITIES)])), [1.0, 1.0], [0.01, 0.01])


@pytest.mark.parametrize("row, reason", [
    ((QUANTITIES.index(P_FLOW), 5, 0, 7), "a p_flow row needs bus -1, branch >= 0, to_end 0 or 1, got bus 5"),
    ((QUANTITIES.index(Q_FLOW), -1, -1, 0), "a q_flow row needs bus -1, branch >= 0"),
    ((QUANTITIES.index(P_FLOW), -1, 2, 2), "got bus -1, branch 2, to_end 2"),
    ((QUANTITIES.index(V_MAG), 2, 9, 3), "a v_mag row needs bus >= 0, branch -1, to_end -1, got bus 2, branch 9"),
    ((QUANTITIES.index(P_INJ), -1, -1, 0), "a p_inj row needs bus >= 0"),
    ((QUANTITIES.index(Q_INJ), 0, -1, 1), "got bus 0, branch -1, to_end 1"),
    ((QUANTITIES.index(V_MAG), 1, -1, 0), "a v_mag row needs bus >= 0, branch -1, to_end -1, got bus 1, branch -1, "
                                          "to_end 0"),
])
def test_set_rejects_a_row_of_the_wrong_shape(row, reason):
    good = measurement_set([(V_MAG, 0, -1, -1), (P_FLOW, -1, 0, 1)]).columns
    columns = MeasurementColumns(*(np.append(c, x) for c, x in zip(good, row)))
    with pytest.raises(MeasurementRowError, match="^measurement 2: ") as info:
        MeasurementSet(columns, [1.0, 1.0, 1.0], [0.01, 0.01, 0.01])
    assert reason in str(info.value)
    assert (info.value.row, info.value.reason) == (2, str(info.value).removeprefix("measurement 2: "))


@pytest.mark.parametrize("field, entry", [
    ("bus", 2.7),            # would meter bus 2
    ("quantity", 0.9),       # would become v_mag
    ("bus", float("nan")),   # numpy's cast message names no column
    ("branch", float("-inf")),
    ("to_end", 1e300),       # out of intp range
])
def test_set_rejects_a_non_integral_index_entry(field, entry):
    good = measurement_set([(V_MAG, 0, -1, -1), (P_INJ, 2, -1, -1)]).columns
    column = getattr(good, field).astype(float)
    column[1] = entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = f"measurement {field} column needs integer entries, got {entry} at row 1"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MeasurementSet(good._replace(**{field: column}), [1.0, 1.0], [0.01, 0.01])


def test_set_takes_integral_floats_as_indices():
    rows = [(V_MAG, 0, -1, -1), (P_FLOW, -1, 3, 1)]
    as_floats = MeasurementColumns(*(c.astype(float) for c in measurement_set(rows).columns))
    assert MeasurementSet(as_floats, [1.0, 1.0], [0.01, 0.01]) == measurement_set(rows, [1.0, 1.0], [0.01, 0.01])


# ---- Jacobian ---------------------------------------------------------------

def test_voltage_rows_are_unit_vectors(ieee14, ieee14_ybus):
    rng = np.random.default_rng(4)
    state = _random_state(rng, 14)
    mset = measurement_set([(V_MAG, k - 1, -1, -1) for k in (1, 5, 14)])
    h_mat = jacobian_h(mset, state, ieee14, ieee14_ybus)
    n = 14
    for row, bus in zip(h_mat, (1, 5, 14)):
        expected = np.zeros(2 * n - 1)
        expected[n - 1 + bus - 1] = 1.0
        assert np.array_equal(row, expected)


def test_jacobian_matches_central_differences(ieee14, ieee14_ybus):
    """The single most important numerical test: analytic H vs central FD."""
    rng = np.random.default_rng(123)
    mset = full_measurement_plan(ieee14)  # h and H read the rows only
    step = 1e-6
    for _ in range(20):
        state = _random_state(rng, 14)
        h_analytic = jacobian_h(mset, state, ieee14, ieee14_ybus)
        x = state_to_vector(state, ieee14)
        fd = np.empty_like(h_analytic)
        for j in range(x.size):
            hi = x.copy()
            lo = x.copy()
            hi[j] += step
            lo[j] -= step
            fd[:, j] = (
                evaluate_h(mset, vector_to_state(hi, ieee14), ieee14, ieee14_ybus)
                - evaluate_h(mset, vector_to_state(lo, ieee14), ieee14, ieee14_ybus)
            ) / (2 * step)
        scale = np.maximum(1.0, np.abs(h_analytic))
        assert np.max(np.abs(fd - h_analytic) / scale) < 1e-6


@st.composite
def meshed_cases(draw):
    """(network, rows, state): a random connected meshed network with random
    r/x/b_sh, a partial plan holding at least one to-end flow pair, and a
    perturbed state with the slack angle at zero."""
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
    buses = [Bus(id=i + 1, kind=BusKind.SLACK if i == slack else BusKind.PQ, v_setpoint=1.0,
                 p_gen=0, q_gen=0, p_load=0, q_load=0) for i in range(n)]
    network = build_network(buses, branches)

    every = [(q, i, -1, -1) for q in (V_MAG, P_INJ, Q_INJ) for i in range(n)]
    every += [(q, -1, k, to_end) for q in (P_FLOW, Q_FLOW) for k in range(len(branches)) for to_end in (0, 1)]
    k_to = draw(st.integers(0, len(branches) - 1))
    rows = draw(st.lists(st.sampled_from(every), min_size=1, max_size=3 * n, unique=True))
    rows += [row for row in ((P_FLOW, -1, k_to, 1), (Q_FLOW, -1, k_to, 1)) if row not in rows]

    angles = np.array(draw(st.lists(st.floats(-0.4, 0.4), min_size=n, max_size=n)))
    angles[slack] = 0.0
    magnitudes = np.array(draw(st.lists(st.floats(0.85, 1.15), min_size=n, max_size=n)))
    return network, rows, StateVector(angles=angles, magnitudes=magnitudes)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(meshed_cases())
def test_jacobian_matches_central_differences_on_random_meshed_networks(case):
    network, rows, state = case
    mset = measurement_set(rows)
    ybus = build_ybus(network)
    h_analytic = jacobian_h(mset, state, network, ybus)
    x = state_to_vector(state, network)
    step = 1e-6
    fd = np.empty_like(h_analytic)
    for j in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[j] += step
        lo[j] -= step
        fd[:, j] = (
            evaluate_h(mset, vector_to_state(hi, network), network, ybus)
            - evaluate_h(mset, vector_to_state(lo, network), network, ybus)
        ) / (2 * step)
    scale = np.maximum(1.0, np.abs(h_analytic))
    assert np.max(np.abs(fd - h_analytic) / scale) < 1e-6


def test_injection_rows_reproduce_conductance_pattern_at_flat(ieee14_rows):
    # zero-shunt variant at the flat state: dP/dV equals the G matrix exactly
    buses, branches = ieee14_rows
    net = build_network(buses, [Branch(b.from_bus, b.to_bus, b.resistance, b.reactance, 0.0) for b in branches])
    ybus = build_ybus(net)
    state = StateVector(angles=np.zeros(14), magnitudes=np.ones(14))
    mset = measurement_set([(P_INJ, i, -1, -1) for i in range(14)])
    h_mat = jacobian_h(mset, state, net, ybus)
    dp_dv = h_mat[:, 13:]
    assert np.max(np.abs(dp_dv - ybus.real)) < 1e-12


def test_measurement_set_arrays_are_stored_read_only(ieee14, ieee14_truth, ieee14_ybus):
    mset = generate_measurements(ieee14_truth, full_measurement_plan(ieee14), 7, ieee14, ieee14_ybus)
    for column in (mset.values, mset.sigmas, *mset.columns):
        assert not column.flags.writeable


def test_set_does_not_freeze_caller_arrays():
    values, sigmas = np.ones(2), np.full(2, 0.01)
    mset = measurement_set([(V_MAG, 0, -1, -1)] * 2, values, sigmas)
    assert values.flags.writeable and sigmas.flags.writeable
    values[0] = 5.0
    assert mset.values[0] == 1.0


def test_empty_measurement_set_has_empty_columns():
    mset = measurement_set([], [], [])
    assert len(mset) == 0
    assert mset.values.shape == (0,)
    assert all(column.shape == (0,) for column in mset.columns)


def test_state_vector_round_trip(ieee14, ieee14_truth):
    x = state_to_vector(ieee14_truth, ieee14)
    assert x.shape == (state_size(ieee14),)
    back = vector_to_state(x, ieee14)
    assert np.array_equal(back.angles, ieee14_truth.angles)
    assert np.array_equal(back.magnitudes, ieee14_truth.magnitudes)
    assert back.angles[ieee14.slack_index] == 0.0


# ---- synthetic metering -----------------------------------------------------

def test_noise_off_is_exact(ieee14, ieee14_truth, ieee14_ybus):
    plan = full_measurement_plan(ieee14)
    mset = generate_measurements(ieee14_truth, plan, 99, ieee14, ieee14_ybus, noise=False)
    h = evaluate_h(mset, ieee14_truth, ieee14, ieee14_ybus)
    assert np.array_equal(mset.values, h)


def test_tiny_sigma_limit(ieee14, ieee14_truth, ieee14_ybus):
    full = full_measurement_plan(ieee14)
    plan = MeasurementSet(full.columns, full.values, np.full(len(full), 1e-300))
    mset = generate_measurements(ieee14_truth, plan, 99, ieee14, ieee14_ybus)
    h = evaluate_h(mset, ieee14_truth, ieee14, ieee14_ybus)
    assert np.allclose(mset.values, h, atol=1e-290)


def test_same_seed_reproduces(ieee14, ieee14_truth, ieee14_ybus):
    plan = full_measurement_plan(ieee14)
    a = generate_measurements(ieee14_truth, plan, 7, ieee14, ieee14_ybus)
    b = generate_measurements(ieee14_truth, plan, 7, ieee14, ieee14_ybus)
    assert a == b
    c = generate_measurements(ieee14_truth, plan, 8, ieee14, ieee14_ybus)
    assert not np.array_equal(a.values, c.values)


def test_adding_measurement_does_not_perturb_others(ieee14, ieee14_truth, ieee14_ybus):
    plan = full_measurement_plan(ieee14)
    short = generate_measurements(ieee14_truth, _head(plan, 10), 7, ieee14, ieee14_ybus)
    longer = generate_measurements(ieee14_truth, _head(plan, 11), 7, ieee14, ieee14_ybus)
    assert np.array_equal(short.values, longer.values[:10])


def test_noise_statistics():
    # 10k draws of one measurement at sigma = 0.01: sample std within 5%
    net = _two_bus_net()
    ybus = build_ybus(net)
    truth = StateVector(angles=np.zeros(2), magnitudes=np.ones(2))
    plan = measurement_set([(V_MAG, 0, -1, -1)], [np.nan], [0.01])
    vals = np.array(
        [generate_measurements(truth, plan, seed, net, ybus).values[0] for seed in range(10000)]
    )
    noise = vals - 1.0
    assert abs(noise.std(ddof=1) - 0.01) < 0.0005
    assert abs(noise.mean()) < 0.0005


# seeds at every word-count boundary of numpy's uint32 seed coercion; 2**96 and
# above give 4+ seed words, so [seed, index] overflows the 4-word pool
_EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**64 + 1, 2**96 - 1, 2**96, 2**128, 2**200 + 12345]
_SEEDS = st.one_of(st.sampled_from(_EDGE_SEEDS), st.integers(0, 2**64), st.integers(2**96, 2**256))


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(seed=_SEEDS, indices=st.lists(st.integers(0, 121), min_size=1, max_size=8))
def test_metering_streams_equal_numpy_seed_sequence(ieee14, ieee14_truth, ieee14_ybus, seed, indices):
    plan = full_measurement_plan(ieee14)
    assert len(plan) == 122
    words = _stream_state_words(seed, len(plan))
    assert words.shape == (122, 4) and words.dtype == np.uint64
    mset = generate_measurements(ieee14_truth, plan, seed, ieee14, ieee14_ybus)
    h = evaluate_h(plan, ieee14_truth, ieee14, ieee14_ybus)
    for i in indices:
        assert np.array_equal(words[i], np.random.SeedSequence([seed, i]).generate_state(4, np.uint64))
        draw = np.random.default_rng([seed, i]).standard_normal()
        assert mset.values[i] == h[i] + plan.sigmas[i] * draw


def test_stream_index_must_fit_one_word():
    assert _stream_state_words(7, 0).shape == (0, 4)
    with pytest.raises(ValueError, match="2\\*\\*32"):
        _stream_state_words(7, 2**32)


@pytest.mark.parametrize("seed", [0, 7, 2**64 + 1, 2**130 + 3])
def test_metering_raises_no_overflow_warning(ieee14, ieee14_truth, ieee14_ybus, seed):
    plan = full_measurement_plan(ieee14)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        generate_measurements(ieee14_truth, plan, seed, ieee14, ieee14_ybus)
        generate_measurements(ieee14_truth, _head(plan, 1), seed, ieee14, ieee14_ybus)


@pytest.mark.parametrize("n", [5, 20])
def test_truth_of_the_wrong_size_rejected(ieee14, ieee14_ybus, n):
    truth = StateVector(angles=np.zeros(n), magnitudes=np.ones(n))
    with pytest.raises(ValueError, match=f"^truth state has {n} buses, the network has 14$"):
        generate_measurements(truth, full_measurement_plan(ieee14), 7, ieee14, ieee14_ybus)


def test_negative_seed_rejected(ieee14, ieee14_truth, ieee14_ybus):
    plan = _head(full_measurement_plan(ieee14), 1)
    with pytest.raises(ValueError):
        generate_measurements(ieee14_truth, plan, -1, ieee14, ieee14_ybus)


# ---- plan construction ------------------------------------------------------

def test_full_plan_counts(ieee14):
    plan = full_measurement_plan(ieee14)
    assert len(plan) == 14 + 28 + 80 == 122
    assert state_size(ieee14) == 27


def test_full_plan_two_bus():
    net = _two_bus_net()
    assert len(full_measurement_plan(net)) == 2 + 4 + 4 == 10


def test_plan_sigma_validation(ieee14):
    for name in ("sigma_v", "sigma_inj", "sigma_flow"):
        for sigma in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match=name):
                full_measurement_plan(ieee14, **{name: sigma})


def test_full_plan_is_unmetered_in_row_order(ieee14):
    """Voltages, then P and Q injections bus by bus, then per branch P from,
    P to, Q from, Q to; values NaN. Bus rows have branch and to_end -1, flow rows bus -1."""
    rows = [(q, i, -1, -1) for q in (V_MAG, P_INJ, Q_INJ) for i in range(14)]
    rows += [(q, -1, idx, to_end) for idx in range(ieee14.n_branches) for q in (P_FLOW, Q_FLOW) for to_end in (0, 1)]
    sigmas = [0.004] * 14 + [0.01] * 28 + [0.008] * 80
    plan = full_measurement_plan(ieee14)
    assert plan == measurement_set(rows, np.full(122, np.nan), sigmas)
    assert np.all(np.isnan(plan.values))


def test_metered_set_shares_the_plan_columns(ieee14, ieee14_truth, ieee14_ybus):
    plan = full_measurement_plan(ieee14)
    mset = generate_measurements(ieee14_truth, plan, 7, ieee14, ieee14_ybus)
    assert all(a is b for a, b in zip(mset.columns, plan.columns))
    assert mset.sigmas is plan.sigmas
    assert np.all(np.isfinite(mset.values))
