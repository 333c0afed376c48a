"""Gauss-Newton weighted least squares state estimation.

Minimizes J(x) = sum_i (z_i - h_i(x))^2 / sigma_i^2 by repeatedly solving the
normal equations G dx = H^T R^-1 (z - h(x)) with gain matrix G = H^T R^-1 H,
factorized as symmetric positive definite rather than inverted. Iteration
stops when max|dx| drops below STEP_TOL, or after MAX_ITER steps with
converged=False. h(x) is evaluated once per iterate: its residual gives both
that iterate's objective and the right-hand side of the next step. A step
that leaves a non-finite entry or a magnitude <= 0 stops the iteration with
converged=False at the last physical iterate.

Observability gate: a gain matrix whose 2-norm condition exceeds
CONDITION_LIMIT signals an unobservable measurement set and raises
SingularGain. Each step reads LAPACK dpocon's 1-norm condition estimate from
the Cholesky factor it solves with, O(n^2) on top of the factorization (Hager
1984; Higham 1988). The estimate is not a bound on the 2-norm condition (it
can fall below it by a factor of about 2), so only a step whose estimate
exceeds CONDITION_LIMIT / ESTIMATE_SLACK, or whose gain fails to factorize,
pays for the exact 2-norm condition (a full SVD); that exact value decides,
and a failed factorization always raises. After the last step the exact
2-norm condition of the final gain is computed once, gated again, and
reported as gain_condition.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dpocon

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
ESTIMATE_SLACK = 10.0   # a step whose condition estimate exceeds CONDITION_LIMIT / this is checked exactly
STEP_TOL = 1e-6         # converged once max|dx| (pu / rad) drops below this
MAX_ITER = 50           # Gauss-Newton iterations before giving up with converged=False


class SingularGain(RuntimeError):
    """Gain matrix numerically singular: the state is not observable."""

    def __init__(self, condition: float):
        super().__init__(f"gain matrix condition estimate {condition:.3e} exceeds limit")
        self.condition = condition


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


def _exact_condition(gain: np.ndarray) -> float:
    """The 2-norm condition of `gain`; raises SingularGain above CONDITION_LIMIT."""
    condition = float(np.linalg.cond(gain))
    if not condition <= CONDITION_LIMIT:
        raise SingularGain(condition)
    return condition


def solve_normal_equations(h_matrix: np.ndarray, sigmas: np.ndarray, residuals: np.ndarray):
    """Solve G dx = H^T R^-1 r via Cholesky; returns (dx, G, condition estimate).

    The condition estimate is dpocon's 1-norm estimate from the Cholesky
    factor. When it exceeds CONDITION_LIMIT / ESTIMATE_SLACK, or the
    factorization fails, the exact 2-norm condition decides: SingularGain
    carries that exact value, and a failed factorization raises even below
    the limit.
    """
    gain = gain_matrix(h_matrix, sigmas)
    try:
        factor = cho_factor(gain)
    except np.linalg.LinAlgError:
        raise SingularGain(float(np.linalg.cond(gain))) from None
    rcond, _ = dpocon(factor[0], np.linalg.norm(gain, 1))
    condition = 1.0 / rcond if rcond > 0 else float("inf")
    if not condition <= CONDITION_LIMIT / ESTIMATE_SLACK:
        _exact_condition(gain)
    w = 1.0 / np.asarray(sigmas, dtype=float) ** 2
    rhs = h_matrix.T @ (w * residuals)
    return cho_solve(factor, rhs), gain, condition


def estimate(network: Network, mset: MeasurementSet, start: Optional[StateVector] = None) -> EstimationResult:
    """Iterated Gauss-Newton WLS estimate of the network state, warm-started
    from `start` (flat start when None)."""
    n_state = state_size(network)
    if len(mset) < n_state:
        raise ValueError(
            f"measurement set has m={len(mset)} < n={n_state}; state not estimable"
        )
    if not np.all(np.isfinite(mset.values)):
        raise ValueError("measurement values must be finite; an unmetered plan has NaN values")
    check_columns(mset.columns, network)

    ybus = network.ybus
    x = state_to_vector(flat_start(network) if start is None else start, network)
    z, sigmas = mset.values, mset.sigmas

    state = vector_to_state(x, network)
    r = z - evaluate_h(mset, state, network, ybus)
    history = [_weighted_sse(r, sigmas)]
    converged = False
    for iterations in range(1, MAX_ITER + 1):
        h_matrix = jacobian_h(mset, state, network, ybus)
        dx, gain, _ = solve_normal_equations(h_matrix, sigmas, r)
        new_x = x + dx
        if not (np.all(np.isfinite(new_x)) and np.all(new_x[network.n_buses - 1 :] > 0)):
            break  # diverged; keep the last physical iterate
        x = new_x
        state = vector_to_state(x, network)
        r = z - evaluate_h(mset, state, network, ybus)
        history.append(_weighted_sse(r, sigmas))
        converged = float(np.max(np.abs(dx))) < STEP_TOL
        if converged:
            break

    return EstimationResult(
        state=state,
        iterations=iterations,
        objective=history[-1],
        objective_history=tuple(history),
        residuals=r,
        converged=converged,
        gain_condition=_exact_condition(gain),
    )
