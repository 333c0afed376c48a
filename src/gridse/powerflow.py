"""Newton-Raphson AC power flow in polar coordinates.

Solves for voltage angles at non-slack buses and magnitudes at PQ buses; PV
and slack magnitudes are held at their setpoints and the slack angle at zero.
The converged state is the ground truth used to synthesize measurements and
to benchmark the estimator.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import BusKind, Network


class SingularJacobian(RuntimeError):
    """The power-flow Jacobian could not be factorized."""


@dataclass(frozen=True)
class StateVector:
    """Per-bus voltage angles (rad) and magnitudes (pu).

    Constructors in this package pin the slack angle to exactly 0.
    """

    angles: np.ndarray
    magnitudes: np.ndarray

    def __post_init__(self):
        ang = np.array(self.angles, dtype=float)
        mag = np.array(self.magnitudes, dtype=float)
        if ang.ndim != 1 or mag.shape != ang.shape:
            raise ValueError("angles and magnitudes must be 1-d arrays of equal length")
        if not np.all(np.isfinite(ang)) or not np.all(np.isfinite(mag)):
            raise ValueError("state entries must be finite")
        if not np.all(mag > 0):
            raise ValueError("voltage magnitudes must be > 0")
        ang.setflags(write=False)
        mag.setflags(write=False)
        object.__setattr__(self, "angles", ang)
        object.__setattr__(self, "magnitudes", mag)

    @property
    def n_buses(self) -> int:
        return self.angles.shape[0]


@dataclass(frozen=True)
class PowerFlowResult:
    state: StateVector
    iterations: int
    max_mismatch: float  # pu, infinity norm
    converged: bool


def flat_start(network: Network) -> StateVector:
    """Zero angles; setpoint magnitudes at slack and PV buses, 1.0 at PQ."""
    mag = np.where(network.kinds == BusKind.PQ, 1.0, network.v_setpoint)
    return StateVector(angles=np.zeros(network.n_buses), magnitudes=mag)


def calc_injections(state: StateVector, ybus: np.ndarray):
    """Bus active/reactive injections (pu) implied by a state.

    P_i = V_i sum_j V_j (G_ij cos th_ij + B_ij sin th_ij),
    Q_i = V_i sum_j V_j (G_ij sin th_ij - B_ij cos th_ij).
    """
    v = state.magnitudes * np.exp(1j * state.angles)
    s = v * np.conj(ybus @ v)
    return s.real, s.imag


def injection_jacobian(state: StateVector, ybus: np.ndarray):
    """Partial derivatives of all bus injections w.r.t. all angles and magnitudes.

    The complex form dS/dtheta = j diag(V) conj(diag(I) - Y diag(V)) and
    dS/d|V| = diag(V) conj(Y diag(V/|V|)) + conj(diag(I)) diag(V/|V|), with
    I = Y V, is evaluated by broadcasting instead of diagonal-matrix products.
    Returns (dp_dth, dp_dv, dq_dth, dq_dv), each n x n.
    """
    vn = np.exp(1j * state.angles)
    v = state.magnitudes * vn
    i_bus = ybus @ v
    diag = np.diag_indices(v.shape[0])
    ds_dth = -1j * v[:, None] * np.conj(ybus * v[None, :])
    ds_dth[diag] += 1j * v * np.conj(i_bus)
    ds_dv = v[:, None] * np.conj(ybus * vn[None, :])
    ds_dv[diag] += np.conj(i_bus) * vn
    return ds_dth.real, ds_dv.real, ds_dth.imag, ds_dv.imag


def solve_power_flow(
    network: Network,
    tol: float = 1e-8,
    max_iter: int = 20,
) -> PowerFlowResult:
    """Full Newton power flow.

    Mismatch is (P_spec - P_calc) at non-slack buses and (Q_spec - Q_calc) at
    PQ buses, measured in the infinity norm. `iterations` counts mismatch
    evaluations, so a start already inside tolerance reports 1. On
    non-convergence the best iterate is returned with converged=False.
    """
    if not (0 < tol < np.inf):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")

    ybus = network.ybus
    slack = network.slack_index
    pq = network.pq_indices
    non_slack = np.delete(np.arange(network.n_buses), slack)
    # specified net injections (generation - load), pu
    p_spec = (network.p_gen - network.p_load) / network.base_mva
    q_spec = (network.q_gen - network.q_load) / network.base_mva

    def mismatch_at(state: StateVector):
        p_calc, q_calc = calc_injections(state, ybus)
        mismatch = np.concatenate([(p_spec - p_calc)[non_slack], (q_spec - q_calc)[pq]])
        return mismatch, float(np.max(np.abs(mismatch))) if mismatch.size else 0.0

    start = flat_start(network)
    ang = np.array(start.angles)
    mag = np.array(start.magnitudes)

    n_ang = len(non_slack)
    iterations = 0
    converged = False
    for _ in range(max_iter):
        iterations += 1
        state = StateVector(angles=ang, magnitudes=mag)
        mismatch, mm = mismatch_at(state)
        if mm < tol:
            converged = True
            break
        dp_dth, dp_dv, dq_dth, dq_dv = injection_jacobian(state, ybus)
        jac = np.block(
            [
                [dp_dth[np.ix_(non_slack, non_slack)], dp_dv[np.ix_(non_slack, pq)]],
                [dq_dth[np.ix_(pq, non_slack)], dq_dv[np.ix_(pq, pq)]],
            ]
        )
        try:
            step = np.linalg.solve(jac, mismatch)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(f"power-flow Jacobian is singular: {exc}") from exc
        new_ang = ang.copy()
        new_mag = mag.copy()
        new_ang[non_slack] += step[:n_ang]
        new_mag[pq] += step[n_ang:]
        if not (np.all(np.isfinite(new_ang)) and np.all(np.isfinite(new_mag)) and np.all(new_mag > 0)):
            break  # diverged; keep the last physical iterate
        ang, mag = new_ang, new_mag

    state = StateVector(angles=ang, magnitudes=mag)
    if not converged:
        mm = mismatch_at(state)[1]
        converged = mm < tol
    return PowerFlowResult(state=state, iterations=iterations, max_mismatch=mm, converged=converged)
