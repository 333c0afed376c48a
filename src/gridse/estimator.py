"""Gauss-Newton weighted least squares state estimation.

Minimizes J(x) = sum_i (z_i - h_i(x))^2 / sigma_i^2 by repeatedly solving the
normal equations G dx = H^T R^-1 (z - h(x)) with gain matrix G = H^T R^-1 H,
factorized as symmetric positive definite rather than inverted. x is the power
flow's stacked [theta; |V|], slack angle 0; dx steps the rest. Iteration
stops when max|dx| drops below STEP_TOL, or after MAX_ITER steps with
converged=False. h(x) is evaluated once per iterate: its residual gives both
that iterate's objective and the right-hand side of the next step. A step
that leaves a non-finite entry or a magnitude <= 0 stops the iteration with
converged=False at the last physical iterate.

H comes from jacobian_h: dense on small grids, a scipy.sparse.csr_array
from measurements.SPARSE_MIN_COLUMNS columns up. From CSR the gain is a sparse
product, densified, so the factorization and every check below see a dense
gain either way.

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

scipy is imported at the first factorization, not with this module, so the
commands that never estimate (pf, controller) do not load it. cho_factor and
cho_solve are module functions, not imports inside solve_normal_equations,
because bench/tracer.py spans them by name as estimator.cholesky; once spans
are recorded from inside the package, they can fold into their caller.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .measurements import MeasurementSet, _check_bus_count, _row_model, evaluate_h, jacobian_h
from .network import Network, _read_only
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


class WeightOverflow(ValueError):
    """A weight 1/sigma^2 so large that the weighted residuals or the gain overflow."""


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
        object.__setattr__(self, "residuals", _read_only(self.residuals))
        object.__setattr__(self, "objective_history", tuple(self.objective_history))


def _weighted_sse(residuals: np.ndarray, sigmas: np.ndarray) -> float:
    with np.errstate(over="ignore"):  # inf, which solve_normal_equations rejects
        return float(np.sum((residuals / sigmas) ** 2))


def objective_j(mset: MeasurementSet, state: StateVector, network: Network, ybus: np.ndarray) -> float:
    """Weighted sum of squared residuals, [z - h]^T R^-1 [z - h] with R_ii = sigma_i^2."""
    return _weighted_sse(mset.values - evaluate_h(mset, state, network, ybus), mset.sigmas)


def gain_matrix(h_matrix, sigmas: np.ndarray) -> np.ndarray:
    """G = H^T R^-1 H as a dense array; symmetric positive semidefinite by construction.

    H is a dense array or a scipy.sparse.csr_array (see jacobian_h); from CSR
    the product is formed sparse and then densified. Symmetry is enforced
    structurally, since the raw matrix product leaves float asymmetry of order
    eps times the (large) entry scale. Weights too large for the product leave
    non-finite entries, without a warning.
    """
    w = 1.0 / np.asarray(sigmas, dtype=float) ** 2
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(h_matrix, np.ndarray):
            g = (h_matrix * w[:, None]).T @ h_matrix
        else:
            weighted = h_matrix.copy()
            weighted.data *= np.repeat(w, np.diff(h_matrix.indptr))
            g = (h_matrix.T @ weighted).toarray()
        return (g + g.T) / 2.0


def _exact_condition(gain: np.ndarray) -> float:
    """The 2-norm condition of `gain`; raises SingularGain above CONDITION_LIMIT."""
    condition = float(np.linalg.cond(gain))
    if not condition <= CONDITION_LIMIT:
        raise SingularGain(condition)
    return condition


def cho_factor(gain: np.ndarray):
    """scipy.linalg.cho_factor(gain), scipy imported on the first call."""
    from scipy.linalg import cho_factor as factor
    return factor(gain)


def cho_solve(factor, rhs: np.ndarray) -> np.ndarray:
    """scipy.linalg.cho_solve(factor, rhs), scipy imported on the first call."""
    from scipy.linalg import cho_solve as solve
    return solve(factor, rhs)


def solve_normal_equations(h_matrix, sigmas: np.ndarray, residuals: np.ndarray):
    """Solve G dx = H^T R^-1 r via Cholesky; returns (dx, G, condition estimate).

    H is a dense array or a scipy.sparse.csr_array; G is dense either way.

    The condition estimate is dpocon's 1-norm estimate from the Cholesky
    factor. When it exceeds CONDITION_LIMIT / ESTIMATE_SLACK, or the
    factorization fails, the exact 2-norm condition decides: SingularGain
    carries that exact value, and a failed factorization raises even below
    the limit. A weighted SSE of `residuals` or a gain that overflows raises
    WeightOverflow naming the smallest sigma.
    """
    gain = gain_matrix(h_matrix, sigmas)
    if not (np.isfinite(_weighted_sse(residuals, sigmas)) and np.all(np.isfinite(gain))):
        raise WeightOverflow(f"sigma {float(np.min(sigmas))!r} is too small: its weight 1/sigma^2 overflows "
                             "the objective or the gain")
    try:
        factor = cho_factor(gain)
    except np.linalg.LinAlgError:
        raise SingularGain(float(np.linalg.cond(gain))) from None
    from scipy.linalg.lapack import dpocon
    rcond, _ = dpocon(factor[0], np.linalg.norm(gain, 1))
    condition = 1.0 / rcond if rcond > 0 else float("inf")
    if not condition <= CONDITION_LIMIT / ESTIMATE_SLACK:
        _exact_condition(gain)
    w = 1.0 / np.asarray(sigmas, dtype=float) ** 2
    rhs = h_matrix.T @ (w * residuals)
    return cho_solve(factor, rhs), gain, condition


def estimate(network: Network, mset: MeasurementSet, start: Optional[StateVector] = None) -> EstimationResult:
    """Iterated Gauss-Newton WLS estimate of the network state, warm-started
    from `start` (flat start when None; its slack angle is taken as 0)."""
    n = network.n_buses
    free = np.delete(np.arange(2 * n), network.slack_index)
    if len(mset) < free.size:
        raise ValueError(f"measurement set has m={len(mset)} < n={free.size}; state not estimable")
    if not np.all(np.isfinite(mset.values)):
        raise ValueError("measurement values must be finite; an unmetered plan has NaN values")
    _row_model(mset, network)  # checks the columns, unless metering derived it on this network
    start = flat_start(network) if start is None else start
    _check_bus_count(start, network, "state")

    ybus = network.ybus
    x = np.concatenate([start.angles, start.magnitudes])
    x[network.slack_index] = 0.0
    z, sigmas = mset.values, mset.sigmas

    state = StateVector(angles=x[:n], magnitudes=x[n:])
    r = z - evaluate_h(mset, state, network, ybus)
    history = [_weighted_sse(r, sigmas)]
    converged = False
    for iterations in range(1, MAX_ITER + 1):
        h_matrix = jacobian_h(mset, state, network, ybus)
        dx, gain, _ = solve_normal_equations(h_matrix, sigmas, r)
        x[free] += dx
        if not (np.all(np.isfinite(x)) and np.all(x[n:] > 0)):
            break  # diverged; `state` holds a copy of the last physical iterate
        state = StateVector(angles=x[:n], magnitudes=x[n:])
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
