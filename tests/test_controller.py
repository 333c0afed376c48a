"""Switching controller: fixed point, switching function, policy, grid oracle."""
import numpy as np
import pytest

from gridse import controller
from gridse.controller import (
    MaxSweepsExceeded,
    SingularP,
    SwitchedSystem,
    UnstableSystem,
    bellman_value_iteration,
    compare_value_functions,
    discretize,
    evaluate_constant_policy,
    policy_decide,
    simulate,
    solve_quadratic_value,
    switching_function,
)

# the scalar system used throughout the acceptance checks
SCALAR = SwitchedSystem(A=[[0.9]], b=[0.2], alpha=0.95, beta=0.1, Q=[[1.0]], r=[1.0])


def _random_stable_system(rng, n=2, alpha=0.95):
    a = rng.standard_normal((n, n))
    rho = max(abs(np.linalg.eigvals(a)))
    a = a * (rng.uniform(0.3, 0.9) / rho)
    m = rng.standard_normal((n, n))
    q = m.T @ m + 0.1 * np.eye(n)
    return SwitchedSystem(
        A=a, b=rng.standard_normal(n), alpha=alpha,
        beta=float(rng.uniform(0.0, 1.0)), Q=q, r=rng.standard_normal(n),
    )


# ---- discretization ---------------------------------------------------------

def test_discretize_zero_dynamics():
    a, b = discretize([[0.0]], [1.0], 0.1)
    assert a[0, 0] == 1.0
    assert b[0] == pytest.approx(0.1)


def test_discretize_scalar_decay():
    a, b = discretize([[-1.0]], [1.0], 0.1)
    assert a[0, 0] == pytest.approx(0.9)
    assert b[0] == pytest.approx(0.1)


def test_discretize_flags_unstable_step():
    # too large a step turns a stable decay into rho(A) = 1.5; the system
    # built from it is rejected by the solver, not by discretize
    a, b = discretize([[-1.0]], [1.0], 2.5)
    assert a[0, 0] == pytest.approx(-1.5)
    system = SwitchedSystem(A=a, b=b, alpha=0.95, beta=0.1, Q=[[1.0]], r=[0.0])
    assert system.spectral_radius == pytest.approx(1.5)
    with pytest.raises(UnstableSystem):
        solve_quadratic_value(system)


def test_discretize_validation():
    for dt in (0.0, -0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            discretize([[0.0]], [1.0], dt)


# ---- stage cost -------------------------------------------------------------

SYS2 = SwitchedSystem(A=[[0.5]], b=[0.0], alpha=0.5, beta=0.3, Q=[[2.0]], r=[0.5])


@pytest.mark.parametrize("system, x, z, u, cost", [
    (SCALAR, [1.0], 0, 0, 0.0),   # at the reference, no switch
    (SCALAR, [1.0], 0, 1, 0.1),   # switching charge only
    (SYS2, [1.5], 1, 1, 2.0),     # quadratic term only
    (SYS2, [1.5], 0, 1, 2.3),     # both
])
def test_stage_cost(system, x, z, u, cost):
    # a one-step rollout's discounted total is its step-0 stage cost; every
    # term here is exact in binary floating point
    assert evaluate_constant_policy(system, u, x, z, steps=1) == cost


# ---- quadratic value fixed point ---------------------------------------------

def test_scalar_fixed_point_closed_form():
    sys1 = SwitchedSystem(A=[[0.9]], b=[0.0], alpha=0.95, beta=0.0, Q=[[1.0]], r=[0.0])
    qv = solve_quadratic_value(sys1)
    assert abs(qv.P[0, 0] - 1.0 / (1.0 - 0.95 * 0.81)) < 1e-12


def test_scalar_fixed_point_small_alpha():
    sys1 = SwitchedSystem(A=[[0.9]], b=[0.0], alpha=0.01, beta=0.0, Q=[[1.0]], r=[0.0])
    qv = solve_quadratic_value(sys1)
    assert abs(qv.P[0, 0] - 1.0 / (1.0 - 0.01 * 0.81)) < 1e-12


def test_degenerate_stage_cost_rejected():
    sys1 = SwitchedSystem(A=[[0.9]], b=[0.1], alpha=0.9, beta=0.1, Q=[[0.0]], r=[0.0])
    with pytest.raises(SingularP):
        solve_quadratic_value(sys1)


def test_unstable_system_rejected():
    sys1 = SwitchedSystem(A=[[1.1]], b=[0.1], alpha=0.95, beta=0.1, Q=[[1.0]], r=[0.0])
    with pytest.raises(UnstableSystem):
        solve_quadratic_value(sys1)


def test_fixed_point_residual_and_spd():
    rng = np.random.default_rng(31)
    for _ in range(10):
        system = _random_stable_system(rng)
        qv = solve_quadratic_value(system)
        resid = np.max(np.abs(qv.P - system.Q - system.alpha * system.A.T @ qv.P @ system.A))
        assert resid < 1e-10
        assert np.max(np.abs(qv.P - qv.P.T)) < 1e-12
        assert np.min(np.linalg.eigvalsh(qv.P)) > 0  # Q was positive definite


def test_near_unit_root_solves_directly():
    # alpha * rho^2 = 0.99997: a fixed-point iteration from P0 = Q would need
    # ~10^6 steps to reach the 1e-10 residual gate
    a, alpha = 0.99999, 0.99999
    system = SwitchedSystem(A=[[a]], b=[0.2], alpha=alpha, beta=0.1, Q=[[1.0]], r=[1.0])
    qv = solve_quadratic_value(system)
    assert qv.P[0, 0] == pytest.approx(1.0 / (1.0 - alpha * a * a), rel=1e-9)


def test_system_validation():
    with pytest.raises(ValueError):
        SwitchedSystem(A=[[0.9]], b=[0.1], alpha=1.0, beta=0.1, Q=[[1.0]], r=[0.0])
    with pytest.raises(ValueError):
        SwitchedSystem(A=[[0.9]], b=[0.1], alpha=0.9, beta=-0.1, Q=[[1.0]], r=[0.0])
    with pytest.raises(ValueError):
        SwitchedSystem(A=[[0.9, 0.1], [0.0, 0.8]], b=[0.1, 0.1], alpha=0.9, beta=0.1,
                       Q=[[1.0, 0.5], [0.0, 1.0]], r=[0.0, 0.0])  # asymmetric Q
    with pytest.raises(ValueError):
        SwitchedSystem(A=[[0.9]], b=[0.1], alpha=0.9, beta=0.1, Q=[[-1.0]], r=[0.0])


@pytest.mark.parametrize("field", ["A", "b", "Q", "r", "alpha", "beta"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_system_rejects_non_finite(field, bad):
    fields = dict(A=[[0.9]], b=[0.1], alpha=0.9, beta=0.1, Q=[[1.0]], r=[0.0])
    fields[field] = bad if field in ("alpha", "beta") else np.full(np.shape(fields[field]), bad)
    with pytest.raises(ValueError):
        SwitchedSystem(**fields)


# ---- switching function -----------------------------------------------------

def test_zero_input_vector_gives_zero_switching_function():
    sys1 = SwitchedSystem(A=[[0.9]], b=[0.0], alpha=0.95, beta=0.1, Q=[[1.0]], r=[0.5])
    qv = solve_quadratic_value(sys1)
    sf = switching_function(sys1, qv)
    assert sf.delta[0] == 0.0
    assert sf.zeta == 0.0


def test_switching_function_matches_expansion():
    qv = solve_quadratic_value(SCALAR)
    sf = switching_function(SCALAR, qv)
    a, b, p, th = 0.9, 0.2, qv.P[0, 0], qv.theta[0]
    # expansion of the quadratic-form difference: delta = 2 A P b, zeta = b P b - 2 th P b
    assert sf.delta[0] == pytest.approx(2 * a * p * b, rel=1e-12)
    assert sf.zeta == pytest.approx(b * p * b - 2 * th * p * b, rel=1e-12)
    # the alternative closed-form candidates are reported, not substituted
    assert sf.closed_form_delta[0] == pytest.approx(-2 * a * p * th, rel=1e-12)
    assert sf.closed_form_zeta == pytest.approx(th * p * th - 2 * b * p * th, rel=1e-12)
    assert sf.max_affine_gap < 1e-9


def test_affinity_on_random_systems():
    rng = np.random.default_rng(8)
    for _ in range(10):
        system = _random_stable_system(rng)
        qv = solve_quadratic_value(system)
        sf = switching_function(system, qv)
        for x in rng.standard_normal((50, 2)):
            d1 = system.A @ x + system.b - qv.theta
            d0 = system.A @ x - qv.theta
            f_direct = d1 @ qv.P @ d1 - d0 @ qv.P @ d0
            assert abs(f_direct - sf.evaluate(x)) < 1e-9


# ---- policy -----------------------------------------------------------------

def test_policy_large_beta_locks():
    big = SwitchedSystem(A=[[0.9]], b=[0.2], alpha=0.95, beta=1e9, Q=[[1.0]], r=[1.0])
    qv = solve_quadratic_value(big)
    sf = switching_function(big, qv)
    rng = np.random.default_rng(1)
    for x in rng.uniform(-5, 5, 20):
        assert policy_decide([x], 0, big, sf) == 0
        assert policy_decide([x], 1, big, sf) == 1


def test_policy_zero_beta_is_myopic():
    free = SwitchedSystem(A=[[0.9]], b=[0.2], alpha=0.95, beta=0.0, Q=[[1.0]], r=[1.0])
    qv = solve_quadratic_value(free)
    sf = switching_function(free, qv)
    rng = np.random.default_rng(2)
    for x in rng.uniform(-5, 5, 20):
        f = sf.evaluate([x])
        expected = (1 if f < 0 else 0) if f != 0 else None
        if expected is not None:
            assert policy_decide([x], 0, free, sf) == expected
            assert policy_decide([x], 1, free, sf) == expected


def test_policy_tie_keeps_state():
    qv = solve_quadratic_value(SCALAR)
    sf = switching_function(SCALAR, qv)
    x_zero = -sf.zeta / sf.delta[0]  # f(x_zero) = 0
    assert abs(sf.evaluate([x_zero])) < 1e-12
    assert policy_decide([x_zero], 0, SCALAR, sf) == 0
    assert policy_decide([x_zero], 1, SCALAR, sf) == 1


def test_hysteresis_band_is_alpha_f():
    qv = solve_quadratic_value(SCALAR)
    sf = switching_function(SCALAR, qv)
    x = [0.3]
    f = sf.evaluate(x)
    threshold = SCALAR.alpha * abs(f)
    for beta in np.linspace(0.0, 2 * threshold, 41):
        system = SwitchedSystem(A=[[0.9]], b=[0.2], alpha=0.95, beta=float(beta), Q=[[1.0]], r=[1.0])
        holds = policy_decide(x, 0, system, sf) == 0 and policy_decide(x, 1, system, sf) == 1
        assert holds == (beta >= threshold)


def test_policy_scale_invariance():
    rng = np.random.default_rng(44)
    base = _random_stable_system(rng)
    for c in (0.5, 3.0, 10.0):
        scaled = SwitchedSystem(A=base.A, b=base.b, alpha=base.alpha,
                                beta=c * base.beta, Q=c * base.Q, r=base.r)
        qv_b = solve_quadratic_value(base)
        qv_s = solve_quadratic_value(scaled)
        sf_b = switching_function(base, qv_b)
        sf_s = switching_function(scaled, qv_s)
        for x in rng.standard_normal((25, 2)):
            for z in (0, 1):
                assert policy_decide(x, z, base, sf_b) == policy_decide(x, z, scaled, sf_s)


# ---- grid oracle ------------------------------------------------------------

def test_trapping_grid_geometric_sum(monkeypatch):
    # A = I, b = 0, beta = 0: every point maps to itself, so V = q / (1 - alpha)
    # pointwise; at x = 1 with q(1) = 1 that is 1 / (1 - 0.5) = 2.
    system = SwitchedSystem(A=[[1.0]], b=[0.0], alpha=0.5, beta=0.0, Q=[[1.0]], r=[0.0])
    monkeypatch.setattr(controller, "SWEEP_TOL", 1e-10)
    oracle = bellman_value_iteration(system, ([0.0], [2.0]), 201)
    xs = oracle.points[:, 0]
    expected = xs**2 / (1 - 0.5)
    assert np.max(np.abs(oracle.v0 - expected)) < 1e-8
    assert np.max(np.abs(oracle.v1 - expected)) < 1e-8
    i_one = np.argmin(np.abs(xs - 1.0))
    assert oracle.v0[i_one] == pytest.approx(2.0, abs=1e-8)


def test_value_iteration_contracts():
    oracle = bellman_value_iteration(SCALAR, ([-0.5], [2.5]), 401)
    assert oracle.residuals[-1] < 1e-8
    ratios = [
        oracle.residuals[i + 1] / oracle.residuals[i]
        for i in range(2, len(oracle.residuals) - 1)
    ]
    assert max(ratios) <= SCALAR.alpha + 0.01


def test_value_iteration_max_sweeps(monkeypatch):
    monkeypatch.setattr(controller, "MAX_SWEEPS", 5)
    with pytest.raises(MaxSweepsExceeded, match="after 5 sweeps"):
        bellman_value_iteration(SCALAR, ([-0.5], [2.5]), 101)


def test_oracle_dimension_guard():
    sys3 = SwitchedSystem(A=np.eye(3) * 0.5, b=np.zeros(3), alpha=0.5, beta=0.0,
                          Q=np.eye(3), r=np.zeros(3))
    with pytest.raises(ValueError):
        bellman_value_iteration(sys3, ([-1.0] * 3, [1.0] * 3), 11)


def test_oracle_comparison_report():
    oracle = bellman_value_iteration(SCALAR, ([-0.5], [2.5]), 401)
    qv = solve_quadratic_value(SCALAR)
    cmp = compare_value_functions(oracle, qv)
    assert cmp.points > 0
    assert np.isfinite(cmp.max_gap_v0) and cmp.max_gap_v0 >= cmp.mean_gap_v0 >= 0
    assert np.isfinite(cmp.max_gap_v1)
    assert not oracle.clamped  # box chosen to contain all successors


def test_oracle_clamping_advisory():
    wide_dynamics = SwitchedSystem(A=[[0.9]], b=[5.0], alpha=0.9, beta=0.0, Q=[[1.0]], r=[0.0])
    oracle = bellman_value_iteration(wide_dynamics, ([-1.0], [1.0]), 51)
    assert oracle.clamped


def test_oracle_interpolation_2d():
    system = SwitchedSystem(A=[[0.8, 0.1], [0.0, 0.7]], b=[0.1, 0.2], alpha=0.9,
                            beta=0.05, Q=np.eye(2), r=[0.5, 0.5])
    oracle = bellman_value_iteration(system, ([-1.0, -1.0], [2.0, 2.0]), 41)
    assert oracle.v0.shape == (41, 41)
    # the tables satisfy the Bellman equation with successor values read by
    # scipy's bilinear interpolation (the box holds every successor)
    from scipy.interpolate import RegularGridInterpolator

    assert not oracle.clamped
    axes = (oracle.points[::41, 0], oracle.points[:41, 1])
    ev0 = RegularGridInterpolator(axes, oracle.v0)(oracle.points @ system.A.T)
    ev1 = RegularGridInterpolator(axes, oracle.v1)(oracle.points @ system.A.T + system.b)
    d = oracle.points - system.r
    q = np.sum(d * d, axis=1)
    alpha, beta = system.alpha, system.beta
    assert np.allclose(oracle.v0.reshape(-1), q + np.minimum(alpha * ev0, beta + alpha * ev1), atol=1e-7)
    assert np.allclose(oracle.v1.reshape(-1), q + np.minimum(beta + alpha * ev0, alpha * ev1), atol=1e-7)


# ---- simulation -------------------------------------------------------------

def test_simulate_stays_at_fixed_point():
    system = SwitchedSystem(A=[[0.9]], b=[0.2], alpha=0.95, beta=0.1, Q=[[1.0]], r=[0.0])
    qv = solve_quadratic_value(system)
    sf = switching_function(system, qv)
    sim = simulate(system, [0.0], 0, 100, sf)
    assert sim.discounted_total == 0.0
    assert sim.switch_count == 0
    assert np.all(sim.inputs == 0)


def test_simulate_zero_b_matches_open_loop():
    system = SwitchedSystem(A=[[0.9]], b=[0.0], alpha=0.95, beta=0.0, Q=[[1.0]], r=[0.5])
    qv = solve_quadratic_value(system)
    sf = switching_function(system, qv)
    sim = simulate(system, [2.0], 0, 150, sf)
    x = 2.0
    expected = 0.0
    for k in range(150):
        expected += 0.95**k * (x - 0.5) ** 2
        x *= 0.9
    assert sim.discounted_total == pytest.approx(expected, rel=1e-12)


def test_simulate_beats_constant_policies():
    qv = solve_quadratic_value(SCALAR)
    sf = switching_function(SCALAR, qv)
    sim = simulate(SCALAR, [0.0], 0, 200, sf)
    c0 = evaluate_constant_policy(SCALAR, 0, [0.0], 0, 200)
    c1 = evaluate_constant_policy(SCALAR, 1, [0.0], 0, 200)
    assert sim.discounted_total <= c0
    assert sim.discounted_total <= c1
    assert sim.switch_count > 0  # a genuine thermostat, not a degenerate lock


def test_simulate_discounted_total_recomputes():
    qv = solve_quadratic_value(SCALAR)
    sf = switching_function(SCALAR, qv)
    sim = simulate(SCALAR, [0.0], 0, 120, sf)
    recomputed = sum(SCALAR.alpha**k * c for k, c in enumerate(sim.stage_costs))
    assert abs(sim.discounted_total - recomputed) < 1e-12


def test_simulate_scalar_output_reported():
    qv = solve_quadratic_value(SCALAR)
    sf = switching_function(SCALAR, qv)
    sim = simulate(SCALAR, [0.5], 0, 10, sf, output=np.array([2.0]))
    assert sim.outputs is not None
    assert sim.outputs[0] == pytest.approx(1.0)


def test_constant_policy_costs():
    system = SwitchedSystem(A=[[0.7]], b=[0.1], alpha=0.9, beta=0.25, Q=[[0.0]], r=[0.0])
    assert evaluate_constant_policy(system, 0, [1.0], 0, 50) == 0.0
    assert evaluate_constant_policy(system, 1, [1.0], 0, 50) == pytest.approx(0.25)
    assert evaluate_constant_policy(system, 1, [1.0], 1, 50) == 0.0
