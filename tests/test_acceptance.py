"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion. The exact per-snapshot state table of the published experiment
is not reproducible (measurement set, noise realization and inter-snapshot
perturbation are unspecified), so estimation acceptance is property-based
plus qualitative pattern agreement.
"""
import time

import numpy as np

from conftest import central_difference_jacobian
from gridse.controller import (
    SwitchedSystem,
    bellman_value_iteration,
    compare_value_functions,
    evaluate_constant_policy,
    simulate,
    solve_quadratic_value,
    switching_function,
)
from gridse.estimator import estimate
from gridse.measurements import full_measurement_plan, generate_measurements, jacobian_h
from gridse.network import build_ybus, with_scaled_loads
from gridse.powerflow import StateVector, solve_power_flow
from gridse.scenario import derive_snapshot_seed, run_snapshots

# scalar acceptance system: A and Q and alpha are pinned by criterion 7; the
# remaining parameters are frozen choices (see README) that make the policy a
# genuine thermostat around the reference
ACCEPT_SYS = SwitchedSystem(A=[[0.9]], b=[0.2], alpha=0.95, beta=0.1, Q=[[1.0]], r=[1.0])
ACCEPT_BOX = ([-0.5], [2.5])
ACCEPT_RESOLUTION = 801


def _report(criterion, detail):
    print(f"[criterion {criterion}] PASS — {detail}")


def test_criterion_01_power_flow_convergence(ieee14):
    t0 = time.perf_counter()
    result = solve_power_flow(ieee14, tol=1e-8, max_iter=20)
    elapsed = time.perf_counter() - t0
    assert result.converged, "power flow must converge from flat start"
    assert result.max_mismatch < 1e-8
    assert result.iterations <= 10
    assert elapsed < 1.0
    _report(1, f"{result.iterations} iterations, mismatch {result.max_mismatch:.2e}, {elapsed:.3f}s")


def test_criterion_02_zero_noise_recovery(ieee14, ieee14_truth, ieee14_ybus):
    t0 = time.perf_counter()
    plan = full_measurement_plan(ieee14)
    assert len(plan) == 122
    mset = generate_measurements(ieee14_truth, plan, 0, ieee14, ieee14_ybus, noise=False)
    result = estimate(ieee14, mset)
    elapsed = time.perf_counter() - t0
    dv = float(np.max(np.abs(result.state.magnitudes - ieee14_truth.magnitudes)))
    dth = float(np.max(np.abs(result.state.angles - ieee14_truth.angles)))
    assert result.converged
    assert dv < 1e-6
    assert dth < 1e-6
    assert result.objective < 1e-10
    assert elapsed < 5.0
    _report(2, f"|dV| {dv:.2e}, |dth| {dth:.2e}, J {result.objective:.2e}, {elapsed:.2f}s")


def test_criterion_03_jacobian_vs_finite_differences(ieee14, ieee14_ybus):
    rng = np.random.default_rng(2026)
    mset = full_measurement_plan(ieee14)  # h and H read the rows only
    worst = 0.0
    for _ in range(20):
        ang = rng.uniform(-0.35, 0.35, 14)
        ang[0] = 0.0
        state = StateVector(angles=ang, magnitudes=rng.uniform(0.9, 1.1, 14))
        analytic = jacobian_h(mset, state, ieee14, ieee14_ybus)
        fd = central_difference_jacobian(mset, state, ieee14, ieee14_ybus, step=1e-6)
        rel = np.abs(fd - analytic) / np.maximum(1.0, np.abs(analytic))
        worst = max(worst, float(np.max(rel)))
    assert worst < 1e-6
    _report(3, f"20 random states, max relative error {worst:.2e}")


def test_criterion_04_chi_square_consistency(ieee14, ieee14_truth, ieee14_ybus):
    t0 = time.perf_counter()
    plan = full_measurement_plan(ieee14)
    m, n = 122, 27
    objectives = []
    for seed in range(200):
        mset = generate_measurements(ieee14_truth, plan, seed, ieee14, ieee14_ybus)
        result = estimate(ieee14, mset)
        assert result.converged
        objectives.append(result.objective)
    elapsed = time.perf_counter() - t0
    mean_j = float(np.mean(objectives))
    assert 0.85 * (m - n) <= mean_j <= 1.15 * (m - n)
    assert elapsed < 120.0
    _report(4, f"mean J over 200 seeds {mean_j:.2f} (target {m - n}), {elapsed:.1f}s")


def test_criterion_05_qualitative_angle_pattern(ieee14_bundle):
    records = run_snapshots(ieee14_bundle, (1.0, 1.0), 2026)
    assert len(records) == 2
    for rec in records:
        assert rec.error is None and rec.result.converged
        for state in (rec.truth, rec.result.state):
            ang = np.degrees(state.angles)
            assert ang[0] == 0.0
            assert f"{ang[0]:.4f}" == "0.0000"
            assert np.all(ang[1:] < 0.0), "all non-slack angles strictly negative"
            assert int(np.argmin(ang)) == 13, "bus 14 has the most negative angle"
    _report(5, "slack 0.0000, all other angles negative, bus 14 most negative (both snapshots)")


def test_criterion_06_snapshot_memory_no_regressions(ieee14_bundle):
    network = ieee14_bundle.network
    net1 = with_scaled_loads(network, 0.98)
    truth1 = solve_power_flow(net1, tol=1e-8, max_iter=20).state
    ybus1 = build_ybus(net1)
    mplan = full_measurement_plan(net1)
    regressions = []
    for seed in range(20):
        warm_iters = run_snapshots(ieee14_bundle, (1.0, 0.98), seed)[1].result.iterations
        mset = generate_measurements(truth1, mplan, derive_snapshot_seed(seed, 1), net1, ybus1)
        flat = estimate(net1, mset)
        if warm_iters > flat.iterations:
            regressions.append((seed, warm_iters, flat.iterations))
    assert not regressions, f"warm start took more iterations than flat start: {regressions}"
    _report(6, "20 seeded trials, warm-start iterations <= flat-start iterations in every trial")


def test_criterion_07_quadratic_fixed_point():
    system = SwitchedSystem(A=[[0.9]], b=[0.0], alpha=0.95, beta=0.0, Q=[[1.0]], r=[0.0])
    qv = solve_quadratic_value(system)
    closed_form = 1.0 / (1.0 - 0.95 * 0.81)
    gap = abs(qv.P[0, 0] - closed_form)
    assert gap < 1e-12
    _report(7, f"iterated P {qv.P[0, 0]:.12f} vs closed form, gap {gap:.2e}")


def test_criterion_08_switching_function_affinity():
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(10):
        a = rng.standard_normal((2, 2))
        a *= rng.uniform(0.3, 0.9) / max(abs(np.linalg.eigvals(a)))
        m = rng.standard_normal((2, 2))
        system = SwitchedSystem(
            A=a, b=rng.standard_normal(2), alpha=0.95,
            beta=float(rng.uniform(0.0, 1.0)), Q=m.T @ m + 0.1 * np.eye(2),
            r=rng.standard_normal(2),
        )
        qv = solve_quadratic_value(system)
        sf = switching_function(system, qv)
        for x in rng.standard_normal((50, 2)):
            d1 = system.A @ x + system.b - qv.theta
            d0 = system.A @ x - qv.theta
            f_direct = float(d1 @ qv.P @ d1 - d0 @ qv.P @ d0)
            worst = max(worst, abs(f_direct - sf.evaluate(x)))
    assert worst < 1e-9
    _report(8, f"10 random stable 2-d systems, 50 points each, max deviation {worst:.2e}")


def test_criterion_09_grid_oracle_and_comparison_report():
    oracle = bellman_value_iteration(ACCEPT_SYS, ACCEPT_BOX, ACCEPT_RESOLUTION)
    assert oracle.residuals[-1] < 1e-8
    late = oracle.residuals[-6:]
    ratios = [late[i + 1] / late[i] for i in range(len(late) - 1)]
    assert max(ratios) <= ACCEPT_SYS.alpha + 0.01
    qv = solve_quadratic_value(ACCEPT_SYS)
    cmp = compare_value_functions(oracle, qv)
    assert np.isfinite(cmp.max_gap_v0) and np.isfinite(cmp.mean_gap_v0)
    # no accuracy threshold asserted for the gap: reported, not gated
    _report(
        9,
        f"residual {oracle.residuals[-1]:.2e} after {oracle.sweeps} sweeps, "
        f"contraction <= {max(ratios):.4f}; quadratic-vs-grid gap over interior third: "
        f"max {cmp.max_gap_v0:.4f}, mean {cmp.mean_gap_v0:.4f} ({cmp.points} points)",
    )


def test_criterion_10_policy_sanity():
    qv = solve_quadratic_value(ACCEPT_SYS)
    sf = switching_function(ACCEPT_SYS, qv)
    sim = simulate(ACCEPT_SYS, [0.0], 0, 200, sf)
    c0 = evaluate_constant_policy(ACCEPT_SYS, 0, [0.0], 0, 200)
    c1 = evaluate_constant_policy(ACCEPT_SYS, 1, [0.0], 0, 200)
    assert sim.discounted_total <= c0
    assert sim.discounted_total <= c1

    frozen = SwitchedSystem(A=[[0.9]], b=[0.2], alpha=0.95, beta=1e9, Q=[[1.0]], r=[1.0])
    qv_f = solve_quadratic_value(frozen)
    sf_f = switching_function(frozen, qv_f)
    sim_f = simulate(frozen, [0.0], 0, 200, sf_f)
    assert sim_f.switch_count == 0

    myopic = SwitchedSystem(A=[[0.9]], b=[0.2], alpha=0.95, beta=0.0, Q=[[1.0]], r=[1.0])
    qv_m = solve_quadratic_value(myopic)
    sf_m = switching_function(myopic, qv_m)
    sim_m = simulate(myopic, [0.0], 0, 200, sf_m)
    z = 0
    for k in range(200):
        f = sf_m.evaluate(sim_m.states[k])
        expected = z if f == 0 else (1 if f < 0 else 0)
        assert sim_m.inputs[k] == expected, f"step {k}: not the sign-of-f policy"
        z = sim_m.inputs[k]
    _report(
        10,
        f"policy cost {sim.discounted_total:.4f} <= baselines ({c0:.4f}, {c1:.4f}); "
        f"large beta: 0 switches; beta=0: myopic at all 200 steps",
    )


def test_criterion_11_end_to_end_determinism(tmp_path, capsys):
    from gridse.cli import cli_dispatch

    args = [
        "snapshots", "--case", "ieee14", "--count", "3",
        "--load-scale", "1.0,0.98,1.02", "--seed", "7",
    ]
    p1, p2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    assert cli_dispatch(args + ["--out", str(p1)]) == 0
    assert cli_dispatch(args + ["--out", str(p2)]) == 0
    capsys.readouterr()
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    j1, j2 = tmp_path / "run1.json", tmp_path / "run2.json"
    assert cli_dispatch(args + ["--out", str(j1)]) == 0
    assert cli_dispatch(args + ["--out", str(j2)]) == 0
    capsys.readouterr()
    assert j1.read_bytes() == j2.read_bytes()
    _report(11, f"two identical runs, byte-identical CSV ({len(b1)} bytes) and JSON reports")
