"""Gauss-Newton weighted least squares state estimation.

Minimizes J(x) = sum_i (z_i - h_i(x))^2 / sigma_i^2 by repeatedly solving the
normal equations G dx = H^T R^-1 (z - h(x)) with gain matrix G = H^T R^-1 H,
factorized as symmetric positive definite rather than inverted. Iteration
stops when max|dx| drops below the configured tolerance. h(x) is evaluated
once per iterate: its residual gives both that iterate's objective and the
right-hand side of the next step. A gain matrix whose condition estimate
exceeds CONDITION_LIMIT signals an unobservable measurement set and
raises SingularGain; a step that leaves a non-finite entry or a magnitude
<= 0 stops the iteration with converged=False at the last physical iterate.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .measurements import (
    MeasurementSet,
    check_columns,
    evaluate_h,
    jacobian_h,
    state_size,
    state_to_vector,
    vector_to_state,
)
from .network import Network
from .powerflow import StateVector, flat_start

CONDITION_LIMIT = 1e12  # gain condition above which the state counts as unobservable


class SingularGain(RuntimeError):
    """Gain matrix numerically singular: the state is not observable."""

    def __init__(self, condition: float):
        super().__init__(f"gain matrix condition estimate {condition:.3e} exceeds limit")
        self.condition = condition


@dataclass(frozen=True)
class EstimatorConfig:
    tol: float = 1e-6           # step infinity-norm threshold (pu / rad)
    max_iter: int = 50
    start: Optional[StateVector] = None  # warm start; None means flat start

    def __post_init__(self):
        if not (0 < self.tol < np.inf):
            raise ValueError(f"tol must be finite and > 0, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass(frozen=True)
class EstimationResult:
    state: StateVector
    iterations: int
    objective: float
    objective_history: tuple
    residuals: np.ndarray  # z - h(state)
    converged: bool
    gain_condition: float

    def __post_init__(self):
        res = np.array(self.residuals, dtype=float)
        res.setflags(write=False)
        object.__setattr__(self, "residuals", res)
        object.__setattr__(self, "objective_history", tuple(self.objective_history))


def _weighted_sse(residuals: np.ndarray, sigmas: np.ndarray) -> float:
    return float(np.sum((residuals / sigmas) ** 2))


def objective_j(mset: MeasurementSet, state: StateVector, network: Network, ybus: np.ndarray) -> float:
    """Weighted sum of squared residuals, [z - h]^T R^-1 [z - h] with R_ii = sigma_i^2."""
    return _weighted_sse(mset.values - evaluate_h(mset, state, network, ybus), mset.sigmas)


def gain_matrix(h_matrix: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """G = H^T R^-1 H; symmetric positive semidefinite by construction.

    Symmetry is enforced structurally, since the raw matrix product leaves
    float asymmetry of order eps times the (large) entry scale.
    """
    w = 1.0 / np.asarray(sigmas, dtype=float) ** 2
    g = (h_matrix * w[:, None]).T @ h_matrix
    return (g + g.T) / 2.0


def solve_normal_equations(h_matrix: np.ndarray, sigmas: np.ndarray, residuals: np.ndarray):
    """Solve G dx = H^T R^-1 r via Cholesky; returns (dx, G, condition estimate)."""
    gain = gain_matrix(h_matrix, sigmas)
    condition = float(np.linalg.cond(gain))
    if not np.isfinite(condition) or condition > CONDITION_LIMIT:
        raise SingularGain(condition)
    w = 1.0 / np.asarray(sigmas, dtype=float) ** 2
    rhs = h_matrix.T @ (w * residuals)
    try:
        dx = cho_solve(cho_factor(gain), rhs)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - caught by cond check
        raise SingularGain(condition) from exc
    return dx, gain, condition


def estimate(network: Network, mset: MeasurementSet, config: EstimatorConfig | None = None) -> EstimationResult:
    """Iterated Gauss-Newton WLS estimate of the network state."""
    config = config or EstimatorConfig()
    n_state = state_size(network)
    if len(mset) < n_state:
        raise ValueError(
            f"measurement set has m={len(mset)} < n={n_state}; state not estimable"
        )
    if not np.all(np.isfinite(mset.values)):
        raise ValueError("measurement values must be finite; an unmetered plan has NaN values")
    check_columns(mset.columns, network)

    ybus = network.ybus
    start = config.start if config.start is not None else flat_start(network)
    x = state_to_vector(start, network)
    z, sigmas = mset.values, mset.sigmas

    state = vector_to_state(x, network)
    r = z - evaluate_h(mset, state, network, ybus)
    history = [_weighted_sse(r, sigmas)]
    converged = False
    condition = float("nan")
    iterations = 0
    for _ in range(config.max_iter):
        iterations += 1
        h_matrix = jacobian_h(mset, state, network, ybus)
        dx, _, condition = solve_normal_equations(h_matrix, sigmas, r)
        new_x = x + dx
        if not (np.all(np.isfinite(new_x)) and np.all(new_x[network.n_buses - 1 :] > 0)):
            break  # diverged; keep the last physical iterate
        x = new_x
        state = vector_to_state(x, network)
        r = z - evaluate_h(mset, state, network, ybus)
        history.append(_weighted_sse(r, sigmas))
        if float(np.max(np.abs(dx))) < config.tol:
            converged = True
            break

    return EstimationResult(
        state=state,
        iterations=iterations,
        objective=history[-1],
        objective_history=tuple(history),
        residuals=r,
        converged=converged,
        gain_condition=condition,
    )
