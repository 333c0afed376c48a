"""The batched rollout and quadratic forms against per-step loops.

`controller._rollout` keeps only the state recursion inside its loop and
computes stage costs and switches from the stored arrays afterwards. The
reference below is the per-step loop: the policy, the stage cost
(x - r)^T Q (x - r) plus beta on a switch, and the switch count, all step by
step. The recursion and every quadratic form have the same operands in the
same order, so states, inputs, stage costs, the discounted total and the
switch count must match bit for bit, on the golden configs, for constant
policies and on random stable systems. The quadratic value V(x) and the
oracle comparison share the batched quadratic form, and must equal the
one-point d @ P @ d + v bit for bit too.
"""
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridse import controller
from gridse.controller import (
    SwitchedSystem,
    bellman_value_iteration,
    compare_value_functions,
    evaluate_constant_policy,
    policy_decide,
    simulate,
    solve_quadratic_value,
    switching_function,
)
from gridse.scenario import builtin_case_dir, load_switched_system

GOLDEN = Path(__file__).resolve().parent / "golden"


# ---- per-step reference -----------------------------------------------------------

def reference_rollout(system, x0, z0, steps, sf=None, u_const=0):
    """(states, inputs, stage_costs, discounted_total, switch_count), step by step."""
    x = np.reshape(np.asarray(x0, dtype=float), (system.n,)).copy()
    z = z0
    states, inputs, costs = [], [], []
    switch_count = 0
    for _ in range(steps):
        u = u_const if sf is None else policy_decide(x, z, system, sf)
        d = x - system.r
        cost = float(d @ system.Q @ d)
        if u != z:
            cost += system.beta
        states.append(x)
        inputs.append(u)
        costs.append(cost)
        switch_count += u != z
        x = system.A @ x + system.b * u
        z = u
    costs = np.array(costs)
    total = float(np.sum(system.alpha ** np.arange(steps) * costs))
    return np.array(states), np.array(inputs), costs, total, switch_count


def reference_value(qv, x):
    d = np.asarray(x, dtype=float) - qv.theta
    return float(d @ qv.P @ d + qv.v)


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def assert_matches_reference(sim, reference):
    states, inputs, costs, total, switch_count = reference
    assert_same_bits(sim.states, states)
    assert_same_bits(sim.inputs, inputs)
    assert_same_bits(sim.stage_costs, costs)
    assert_same_bits(sim.discounted_total, total)
    assert type(sim.switch_count) is int and sim.switch_count == switch_count


def assert_policy_matches(system, x0, z0, steps):
    qv = solve_quadratic_value(system)
    sf = switching_function(system, qv)
    sim = simulate(system, x0, z0, steps, sf)
    assert_matches_reference(sim, reference_rollout(system, x0, z0, steps, sf))
    for x in sim.states[:50]:
        assert_same_bits(controller._quadratic_forms(np.atleast_2d(x), qv.theta, qv.P)[0] + qv.v,
                         reference_value(qv, x))
    return sim


def assert_constant_matches(system, x0, z0, steps):
    for u in (0, 1):
        reference = reference_rollout(system, x0, z0, steps, u_const=u)
        assert_matches_reference(controller._rollout(system, x0, z0, steps, None, u), reference)
        assert_same_bits(evaluate_constant_policy(system, u, x0, z0, steps), reference[3])


# ---- golden configs and edge cases -----------------------------------------------

GOLDEN_RUNS = [
    (builtin_case_dir("scalar_controller.json"), [0.0], 0),
    (GOLDEN / "controller_2d.json", [0.3, -0.2], 1),
]


@pytest.mark.parametrize("config, x0, z0", GOLDEN_RUNS, ids=["scalar", "2d"])
def test_golden_configs_match_per_step_loop(config, x0, z0):
    system, _ = load_switched_system(config)
    sim = assert_policy_matches(system, x0, z0, 2000)
    assert sim.switch_count > 0


@pytest.mark.parametrize("config, x0, z0", GOLDEN_RUNS, ids=["scalar", "2d"])
@pytest.mark.parametrize("start", [0, 1])
def test_constant_policies_match_per_step_loop(config, x0, z0, start):
    system, _ = load_switched_system(config)
    assert_constant_matches(system, x0, start, 300)


@pytest.mark.parametrize("config, x0, z0", GOLDEN_RUNS, ids=["scalar", "2d"])
def test_one_step_matches_per_step_loop(config, x0, z0):
    system, _ = load_switched_system(config)
    for start in (0, 1):
        assert_policy_matches(system, x0, start, 1)
        assert_constant_matches(system, x0, start, 1)


@pytest.mark.parametrize("config, box, resolution", [
    (builtin_case_dir("scalar_controller.json"), ([-0.5], [2.5]), 801),
    (GOLDEN / "controller_2d.json", ([-1.0, -1.0], [1.0, 1.5]), 21),
], ids=["scalar", "2d"])
def test_value_comparison_matches_per_point_loop(config, box, resolution):
    system, _ = load_switched_system(config)
    qv = solve_quadratic_value(system)
    oracle = bellman_value_iteration(system, box, resolution)
    span = oracle.upper - oracle.lower
    points = oracle.points
    inner = np.all((points >= oracle.lower + span / 3.0) & (points <= oracle.upper - span / 3.0), axis=1)
    quad = np.array([reference_value(qv, p) for p in points[inner]])
    gaps = [np.abs(quad - v.reshape(-1)[inner]) for v in (oracle.v0, oracle.v1)]
    comparison = compare_value_functions(oracle, qv)
    for got, want in [(comparison.max_gap_v0, np.max(gaps[0])), (comparison.mean_gap_v0, np.mean(gaps[0])),
                      (comparison.max_gap_v1, np.max(gaps[1])), (comparison.mean_gap_v1, np.mean(gaps[1]))]:
        assert_same_bits(got, float(want))
    assert comparison.points == quad.size


# ---- random stable systems ------------------------------------------------------

unit = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def rollout_cases(draw):
    """(system, x0, z0, steps): rho(A) <= 0.95, Q = M^T M + 0.1 I with M
    random (so not the identity), some |r_k| >= 0.1 and some b_k < 0."""
    n = draw(st.sampled_from([1, 2]))
    a = np.array(draw(st.lists(unit, min_size=n * n, max_size=n * n))).reshape(n, n)
    rho = float(np.max(np.abs(np.linalg.eigvals(a))))
    a *= draw(st.floats(0.05, 0.95)) / max(rho, 1e-3)
    b = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    k = draw(st.integers(0, n - 1))
    b[k] = -max(abs(b[k]), 0.05)
    r = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    r[k] = np.copysign(max(abs(r[k]), 0.1), r[k])
    m = np.array(draw(st.lists(unit, min_size=n * n, max_size=n * n))).reshape(n, n)
    system = SwitchedSystem(
        A=a, b=b, alpha=draw(st.floats(0.3, 0.99)), beta=draw(st.floats(0.0, 1.0)),
        Q=m.T @ m + 0.1 * np.eye(n), r=r,
    )
    x0 = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
    return system, x0, draw(st.sampled_from([0, 1])), draw(st.integers(1, 300))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(rollout_cases())
def test_random_systems_match_per_step_loop(case):
    system, x0, z0, steps = case
    assert_policy_matches(system, x0, z0, steps)
    assert_constant_matches(system, x0, z0, steps)
