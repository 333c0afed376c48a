"""The stacked-table value iteration against the two-table Jacobi sweep.

`bellman_value_iteration` holds V0 and V1 as one table [V0; V1] and
interpolates both halves with one stencil. The reference below keeps V0 and
V1 apart: one stencil per input u, fancy-indexed corner values multiplied by
their weight factors left to right, and the two Bellman updates written out.
Every elementwise operation of the stacked sweep has the same operands in the
same order, so the tables, residuals, sweep count and clamping flag must match
bit for bit, on the golden configs and on random stable systems.
"""
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gridse.controller import MaxSweepsExceeded, SwitchedSystem, bellman_value_iteration
from gridse.scenario import builtin_case_dir, load_switched_system

GOLDEN = Path(__file__).resolve().parent / "golden"


# ---- two-table reference ------------------------------------------------------

def _grid_points(lower, upper, resolution):
    axes = [np.linspace(lo, hi, resolution) for lo, hi in zip(lower, upper)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def _stencil(points, lower, upper, resolution):
    pos = (points - lower) / ((upper - lower) / (resolution - 1))
    i0 = np.clip(np.floor(pos).astype(int), 0, resolution - 2)
    w = (pos - i0).T
    strides = resolution ** np.arange(points.shape[1])[::-1]
    return [((i0 + corner) @ strides, [w[d] if c else 1 - w[d] for d, c in enumerate(corner)])
            for corner in np.ndindex((2,) * points.shape[1])]


def _interpolate(table, stencil):
    total = None
    for index, factors in stencil:
        term = table[index]
        for f in factors:
            term = term * f
        total = term if total is None else total + term
    return total


def two_table_value_iteration(system, lower, upper, resolution, tol=1e-8, max_sweeps=10000):
    """(v0, v1, residuals, clamped) from separate V0 and V1 sweeps."""
    points = _grid_points(lower, upper, resolution)
    d = points - system.r
    q_vals = np.einsum("ij,jk,ik->i", d, system.Q, d)
    clamped = False
    stencils = []
    for u in (0, 1):
        succ = points @ system.A.T + u * system.b
        clipped = np.clip(succ, lower, upper)
        clamped = clamped or bool(np.any(clipped != succ))
        stencils.append(_stencil(clipped, lower, upper, resolution))
    alpha, beta = system.alpha, system.beta
    v0 = np.zeros(points.shape[0])
    v1 = np.zeros(points.shape[0])
    residuals = []
    for _ in range(max_sweeps):
        ev0 = _interpolate(v0, stencils[0])
        ev1 = _interpolate(v1, stencils[1])
        new_v0 = q_vals + np.minimum(alpha * ev0, beta + alpha * ev1)
        new_v1 = q_vals + np.minimum(beta + alpha * ev0, alpha * ev1)
        resid = max(float(np.max(np.abs(new_v0 - v0))), float(np.max(np.abs(new_v1 - v1))))
        residuals.append(resid)
        v0, v1 = new_v0, new_v1
        if resid < tol:
            return v0, v1, residuals, clamped
    raise MaxSweepsExceeded(f"residual {residuals[-1]:.3e} after {max_sweeps} sweeps")


def assert_matches_reference(system, lower, upper, resolution):
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    v0, v1, residuals, clamped = two_table_value_iteration(system, lower, upper, resolution)
    oracle = bellman_value_iteration(system, (lower, upper), resolution)
    assert np.array_equal(oracle.v0.reshape(-1), v0)
    assert np.array_equal(oracle.v1.reshape(-1), v1)
    assert np.array_equal(np.array(oracle.residuals), np.array(residuals))
    assert oracle.sweeps == len(residuals)
    assert oracle.clamped is clamped
    return oracle


# ---- golden configs -------------------------------------------------------------

@pytest.mark.parametrize("config, lower, upper, resolution", [
    (builtin_case_dir("scalar_controller.json"), [-0.5], [2.5], 801),
    (GOLDEN / "controller_2d.json", [-1.0, -1.0], [1.0, 1.5], 21),
], ids=["scalar", "2d"])
def test_golden_configs_match_two_table_sweep(config, lower, upper, resolution):
    system, _ = load_switched_system(config)
    assert_matches_reference(system, lower, upper, resolution)


# ---- random stable systems ------------------------------------------------------

unit = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def oracle_cases(draw):
    """(system, lower, upper, resolution, clamps), with the row sums of |A| at
    most 0.9. Without clamping the box is [-L, L]^n and the row sums of |A|
    and |b| are each at most 0.45 L, so every successor stays inside. With
    clamping the box's center c has |c| <= 0.2 L and some |b_k| >= 1.5 L, so
    under u = 1 the corner that A moves furthest along b_k leaves the box."""
    n = draw(st.sampled_from([1, 2]))
    clamps = draw(st.booleans())
    a = np.array(draw(st.lists(unit, min_size=n * n, max_size=n * n))).reshape(n, n)
    a *= draw(st.floats(0.05, 0.9)) / max(float(np.max(np.sum(np.abs(a), axis=1))), 1e-3)
    half = draw(st.floats(0.2, 3.0))
    direction = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    direction /= max(float(np.max(np.abs(direction))), 1e-3)
    if clamps:
        direction[np.argmax(np.abs(direction))] = 1.0
        b = direction * half * draw(st.floats(1.5, 3.0))
        center = np.array(draw(st.lists(unit, min_size=n, max_size=n))) * 0.2 * half
    else:
        a *= 0.45 / max(float(np.max(np.sum(np.abs(a), axis=1))), 0.45)
        b = direction * half * draw(st.floats(0.0, 0.45))
        center = np.zeros(n)
    m = np.array(draw(st.lists(unit, min_size=n * n, max_size=n * n))).reshape(n, n)
    system = SwitchedSystem(
        A=a, b=b, alpha=draw(st.floats(0.3, 0.9)), beta=draw(st.floats(0.0, 1.0)),
        Q=m.T @ m + 0.1 * np.eye(n), r=np.array(draw(st.lists(unit, min_size=n, max_size=n))),
    )
    resolution = draw(st.integers(2, 60))
    return system, center - half, center + half, resolution, clamps


@settings(max_examples=60, deadline=None, derandomize=True)
@given(oracle_cases())
@example((SwitchedSystem(A=[[0.9]], b=[5.0], alpha=0.9, beta=0.0, Q=[[1.0]], r=[0.0]),
          np.array([-1.0]), np.array([1.0]), 51, True))
@example((SwitchedSystem(A=[[0.4, 0.0], [0.0, 0.4]], b=[0.2, -0.2], alpha=0.8, beta=0.3,
                         Q=np.eye(2), r=[0.1, 0.0]), np.array([-1.0, -1.0]), np.array([1.0, 1.0]), 2, False))
def test_random_systems_match_two_table_sweep(case):
    system, lower, upper, resolution, clamps = case
    oracle = assert_matches_reference(system, lower, upper, resolution)
    assert oracle.clamped is clamps
