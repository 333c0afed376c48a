"""Gauss-Newton WLS estimator: objective, gain matrix, steps, recovery."""
import numpy as np
import pytest
from scipy.linalg import cho_factor

import gridse.estimator
from conftest import measurement_set
from gridse.estimator import (
    CONDITION_LIMIT,
    ESTIMATE_SLACK,
    MAX_ITER,
    SingularGain,
    estimate,
    gain_matrix,
    objective_j,
    solve_normal_equations,
)
from gridse.measurements import (
    V_MAG,
    MeasurementColumns,
    MeasurementSet,
    evaluate_h,
    full_measurement_plan,
    generate_measurements,
    jacobian_h,
    state_to_vector,
)
from gridse.network import build_network
from gridse.powerflow import StateVector
from gridse.scenario import run_estimation


def _rows(mset, rows):
    """The set's rows at `rows`, in that order."""
    return MeasurementSet(MeasurementColumns(*(c[rows] for c in mset.columns)),
                          mset.values[rows], mset.sigmas[rows])


def _noise_free_set(network, truth, ybus, plan=None):
    plan = plan or full_measurement_plan(network)
    return generate_measurements(truth, plan, 0, network, ybus, noise=False)


# ---- objective --------------------------------------------------------------

def test_objective_zero_at_exact_fit(ieee14, ieee14_truth, ieee14_ybus):
    mset = _noise_free_set(ieee14, ieee14_truth, ieee14_ybus)
    assert objective_j(mset, ieee14_truth, ieee14, ieee14_ybus) == 0.0


def test_objective_single_measurement(ieee14, ieee14_truth, ieee14_ybus):
    rows = [(V_MAG, 2, -1, -1)]
    h = evaluate_h(measurement_set(rows), ieee14_truth, ieee14, ieee14_ybus)[0]
    mset = measurement_set(rows, [h + 0.02])
    assert objective_j(mset, ieee14_truth, ieee14, ieee14_ybus) == pytest.approx(4.0, rel=1e-12)


def test_objective_sigma_scaling(ieee14, ieee14_truth, ieee14_ybus):
    plan = full_measurement_plan(ieee14)
    mset = generate_measurements(ieee14_truth, plan, 5, ieee14, ieee14_ybus)
    doubled = MeasurementSet(mset.columns, mset.values, 2 * mset.sigmas)
    j1 = objective_j(mset, ieee14_truth, ieee14, ieee14_ybus)
    j2 = objective_j(doubled, ieee14_truth, ieee14, ieee14_ybus)
    assert j2 == pytest.approx(j1 / 4.0, rel=1e-12)


# ---- gain matrix ------------------------------------------------------------

def test_gain_identity():
    h = np.eye(5)
    g = gain_matrix(h, np.ones(5))
    assert np.array_equal(g, np.eye(5))


def test_gain_symmetric(ieee14, ieee14_truth, ieee14_ybus):
    mset = _noise_free_set(ieee14, ieee14_truth, ieee14_ybus)
    h = jacobian_h(mset, ieee14_truth, ieee14, ieee14_ybus)
    g = gain_matrix(h, mset.sigmas)
    assert np.max(np.abs(g - g.T)) < 1e-12


def test_gain_rank_deficiency_detected():
    # duplicated rows only: the gain matrix cannot have full rank
    row = np.array([[1.0, 2.0, 0.0]])
    h = np.repeat(row, 4, axis=0)
    g = gain_matrix(h, np.full(4, 0.5))
    eigs = np.linalg.eigvalsh(g)
    assert eigs[0] == pytest.approx(0.0, abs=1e-10)
    assert eigs[1] == pytest.approx(0.0, abs=1e-10)


# ---- normal-equation solve (scalar toy, hand-derived) ------------------------

def test_scalar_toy_first_step():
    # one measurement h(x) = x^2, z = 4, sigma = 1, x0 = 1:
    # H = 2, G = 4, dx = 2*(4-1)/4 = 1.5
    dx, gain, cond = solve_normal_equations(np.array([[2.0]]), np.array([1.0]), np.array([3.0]))
    assert dx[0] == pytest.approx(1.5, abs=1e-12)
    assert gain[0, 0] == pytest.approx(4.0, abs=1e-12)
    assert cond == pytest.approx(1.0)


def test_scalar_toy_second_step():
    # continue from x1 = 2.5: dx = (4 - 6.25) * 5 / 25 = -0.45 -> x2 = 2.05
    x1 = 2.5
    h_row = np.array([[2 * x1]])
    dx, _, _ = solve_normal_equations(h_row, np.array([1.0]), np.array([4.0 - x1**2]))
    assert dx[0] == pytest.approx(-0.45, abs=1e-12)
    assert x1 + dx[0] == pytest.approx(2.05, abs=1e-12)


def _gn_step(state, mset, network, ybus):
    """One Gauss-Newton step from `state`, as estimate() takes it."""
    r = mset.values - evaluate_h(mset, state, network, ybus)
    h = jacobian_h(mset, state, network, ybus)
    dx, gain, _ = solve_normal_equations(h, mset.sigmas, r)
    return dx, gain


def test_gn_step_zero_residual_gives_zero_step(ieee14, ieee14_truth, ieee14_ybus):
    mset = _noise_free_set(ieee14, ieee14_truth, ieee14_ybus)
    dx, gain = _gn_step(ieee14_truth, mset, ieee14, ieee14_ybus)
    assert np.max(np.abs(dx)) < 1e-14
    assert gain.shape == (27, 27)


def test_gn_step_cross_checked_against_dense_least_squares(ieee14, ieee14_truth, ieee14_ybus):
    plan = full_measurement_plan(ieee14)
    mset = generate_measurements(ieee14_truth, plan, 21, ieee14, ieee14_ybus)
    start = StateVector(
        angles=np.where(np.arange(14) == 0, 0.0, ieee14_truth.angles * 0.9),
        magnitudes=ieee14_truth.magnitudes * 1.01,
    )
    dx, _ = _gn_step(start, mset, ieee14, ieee14_ybus)
    # independent route: weighted least squares via lstsq on R^(-1/2) H
    h = jacobian_h(mset, start, ieee14, ieee14_ybus)
    r = mset.values - evaluate_h(mset, start, ieee14, ieee14_ybus)
    w = 1.0 / mset.sigmas
    dx_ref, *_ = np.linalg.lstsq(h * w[:, None], r * w, rcond=None)
    assert np.max(np.abs(dx - dx_ref)) < 1e-10


# ---- estimate ---------------------------------------------------------------

def test_zero_noise_recovery(ieee14, ieee14_truth, ieee14_ybus):
    mset = _noise_free_set(ieee14, ieee14_truth, ieee14_ybus)
    result = estimate(ieee14, mset)
    assert result.converged
    assert np.max(np.abs(result.state.magnitudes - ieee14_truth.magnitudes)) < 1e-6
    assert np.max(np.abs(result.state.angles - ieee14_truth.angles)) < 1e-6
    assert result.objective < 1e-10


def test_warm_start_at_truth_converges_in_one_iteration(ieee14, ieee14_truth, ieee14_ybus):
    mset = _noise_free_set(ieee14, ieee14_truth, ieee14_ybus)
    result = estimate(ieee14, mset, start=ieee14_truth)
    assert result.converged
    assert result.iterations == 1


def test_voltage_only_plan_is_unobservable(ieee14, ieee14_truth, ieee14_ybus):
    rows = [(V_MAG, i, -1, -1) for i in range(14)]
    # pad with duplicates to satisfy m >= n while keeping angles unobservable
    plan = measurement_set(rows * 2, np.full(28, np.nan), np.full(28, 0.004))
    mset = generate_measurements(ieee14_truth, plan, 3, ieee14, ieee14_ybus)
    with pytest.raises(SingularGain):
        estimate(ieee14, mset)


@pytest.mark.parametrize("n", [5, 20])
def test_start_of_the_wrong_size_rejected(ieee14, ieee14_truth, ieee14_ybus, n):
    mset = _noise_free_set(ieee14, ieee14_truth, ieee14_ybus)
    start = StateVector(angles=np.zeros(n), magnitudes=np.ones(n))
    with pytest.raises(ValueError, match=f"^state has {n} buses, the network has 14$"):
        estimate(ieee14, mset, start=start)


def test_too_few_measurements_rejected(ieee14, ieee14_truth, ieee14_ybus):
    plan = _rows(full_measurement_plan(ieee14), np.arange(20))
    mset = generate_measurements(ieee14_truth, plan, 3, ieee14, ieee14_ybus)
    with pytest.raises(ValueError):
        estimate(ieee14, mset)


def test_unmetered_plan_rejected(ieee14):
    with pytest.raises(ValueError, match="finite"):
        estimate(ieee14, full_measurement_plan(ieee14))


def test_divergent_step_returns_last_physical_iterate(ieee14, ieee14_truth, ieee14_ybus):
    # from magnitudes of 0.2 pu a Gauss-Newton step drives some magnitude <= 0
    mset = generate_measurements(ieee14_truth, full_measurement_plan(ieee14), 7, ieee14, ieee14_ybus)
    start = StateVector(angles=np.zeros(14), magnitudes=np.full(14, 0.2))
    result = estimate(ieee14, mset, start=start)
    assert not result.converged
    assert result.iterations < MAX_ITER
    assert np.all(result.state.magnitudes > 0)
    assert np.all(np.isfinite(result.state.angles))
    # the reported objective and residuals belong to the returned state
    assert len(result.objective_history) == result.iterations
    assert result.objective == objective_j(mset, result.state, ieee14, ieee14_ybus)
    assert np.array_equal(result.residuals, mset.values - evaluate_h(mset, result.state, ieee14, ieee14_ybus))


def test_estimate_evaluates_h_once_per_iterate(ieee14, ieee14_truth, ieee14_ybus, monkeypatch):
    import gridse.estimator

    calls = []
    monkeypatch.setattr(gridse.estimator, "evaluate_h", lambda *a: calls.append(1) or evaluate_h(*a))
    mset = generate_measurements(ieee14_truth, full_measurement_plan(ieee14), 7, ieee14, ieee14_ybus)
    result = estimate(ieee14, mset)
    assert result.converged
    assert len(calls) == result.iterations + 1 == len(result.objective_history)
    assert result.objective == objective_j(mset, result.state, ieee14, ieee14_ybus)


def test_objective_history_monotone_tail(ieee14, ieee14_truth, ieee14_ybus):
    plan = full_measurement_plan(ieee14)
    for seed in range(5):
        mset = generate_measurements(ieee14_truth, plan, seed, ieee14, ieee14_ybus)
        result = estimate(ieee14, mset)
        tail = result.objective_history[-3:]
        for a, b in zip(tail, tail[1:]):
            assert b <= a + 1e-9 * max(1.0, a)  # non-increasing up to float noise


def test_measurement_order_invariance(ieee14, ieee14_truth, ieee14_ybus):
    plan = full_measurement_plan(ieee14)
    mset = generate_measurements(ieee14_truth, plan, 13, ieee14, ieee14_ybus)
    rng = np.random.default_rng(0)
    perm = rng.permutation(len(mset))
    shuffled = _rows(mset, perm)
    a = estimate(ieee14, mset)
    b = estimate(ieee14, shuffled)
    assert np.max(np.abs(state_to_vector(a.state, ieee14) - state_to_vector(b.state, ieee14))) < 1e-12


def test_chi_square_sanity_band(ieee14, ieee14_truth, ieee14_ybus):
    plan = full_measurement_plan(ieee14)
    js = []
    for seed in range(20):
        mset = generate_measurements(ieee14_truth, plan, seed, ieee14, ieee14_ybus)
        js.append(estimate(ieee14, mset).objective)
    mean = np.mean(js)
    assert 0.7 * 95 < mean < 1.3 * 95


def test_iteration_cap_returns_not_converged(ieee14, ieee14_truth, ieee14_ybus, monkeypatch):
    import gridse.estimator

    monkeypatch.setattr(gridse.estimator, "MAX_ITER", 2)
    mset = generate_measurements(ieee14_truth, full_measurement_plan(ieee14), 7, ieee14, ieee14_ybus)
    result = estimate(ieee14, mset)
    assert not result.converged
    assert result.iterations == 2 and len(result.objective_history) == 3


# ---- observability gate -----------------------------------------------------

def _random_sub_plans(network, seed, count):
    """(H rows, sigmas) of `count` seeded random sub-plans of the full plan,
    each of n..3n rows, with H taken at a seeded random state."""
    rng = np.random.default_rng(seed)
    n_bus = network.n_buses
    state = StateVector(np.r_[0.0, rng.uniform(-0.3, 0.0, n_bus - 1)], rng.uniform(0.95, 1.05, n_bus))
    plan = full_measurement_plan(network)
    h_full = jacobian_h(plan, state, network, network.ybus)
    m, n = h_full.shape
    for _ in range(count):
        rows = np.sort(rng.choice(m, rng.integers(n, min(m, 3 * n) + 1), replace=False))
        yield h_full[rows], plan.sigmas[rows]


@pytest.mark.parametrize("grid", ["ieee14", "tiled56"])
def test_gate_rejects_exactly_the_plans_whose_exact_condition_exceeds_the_limit(ieee14, tiled_rows, grid):
    network = ieee14 if grid == "ieee14" else build_network(*tiled_rows(4))
    observable = rejected = 0
    for h, sigmas in _random_sub_plans(network, 12, 200):
        gain = gain_matrix(h, sigmas)
        exact = float(np.linalg.cond(gain))
        if exact > CONDITION_LIMIT:
            with pytest.raises(SingularGain) as info:
                solve_normal_equations(h, sigmas, np.zeros(len(sigmas)))
            assert info.value.condition == exact
            rejected += 1
            continue
        _, _, estimate_1 = solve_normal_equations(h, sigmas, np.zeros(len(sigmas)))
        # dpocon's estimate never exceeds the exact 1-norm condition (up to rounding),
        # and falls below the 2-norm condition by less than the gate's slack
        assert exact / ESTIMATE_SLACK <= estimate_1 <= np.linalg.cond(gain, 1) * (1 + 1e-6)
        observable += 1
    assert observable >= 50 and rejected >= 30


def test_unmeasured_angle_raises_singular_gain_not_linalg_error(ieee14, ieee14_truth, ieee14_ybus):
    # drop every row that sees bus 5's angle: H gets an all-zero column
    plan = full_measurement_plan(ieee14)
    h_full = jacobian_h(plan, ieee14_truth, ieee14, ieee14_ybus)
    rows = h_full[:, 3] == 0.0
    h, sigmas = h_full[rows], plan.sigmas[rows]
    assert not np.any(h[:, 3]) and len(sigmas) >= h.shape[1]
    with pytest.raises(np.linalg.LinAlgError):
        cho_factor(gain_matrix(h, sigmas))
    with pytest.raises(SingularGain):
        solve_normal_equations(h, sigmas, np.zeros(len(sigmas)))


def test_gain_condition_is_the_exact_condition_of_the_last_gain(ieee14, monkeypatch):
    gains = []

    def recording(h_matrix, sigmas, residuals):
        dx, gain, condition = solve_normal_equations(h_matrix, sigmas, residuals)
        gains.append(gain)
        return dx, gain, condition

    monkeypatch.setattr(gridse.estimator, "solve_normal_equations", recording)
    _, result = run_estimation(ieee14, full_measurement_plan(ieee14), 7)
    assert result.converged and len(gains) == result.iterations
    assert result.gain_condition == float(np.linalg.cond(gains[-1]))


def test_converged_estimate_runs_one_exact_condition(ieee14, monkeypatch):
    calls = []
    cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda *a, **k: calls.append(1) or cond(*a, **k))
    _, result = run_estimation(ieee14, full_measurement_plan(ieee14), 7)
    assert result.converged and result.iterations > 1
    assert len(calls) == 1
