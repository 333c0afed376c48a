"""Newton-Raphson AC power flow in polar coordinates.

Solves for voltage angles at non-slack buses and magnitudes at PQ buses; PV
and slack magnitudes are held at their setpoints and the slack angle at zero.
The converged state is the ground truth used to synthesize measurements and
to benchmark the estimator. Its Newton Jacobian and the estimator's H take
MATPOWER's dS/dV from one function, evaluated at Y's pattern alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import BusKind, Network, ParameterError, _read_only


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
        ang, mag = _read_only(self.angles), _read_only(self.magnitudes)
        if ang.ndim != 1 or mag.shape != ang.shape:
            raise ValueError("angles and magnitudes must be 1-d arrays of equal length")
        if not np.all(np.isfinite(ang)) or not np.all(np.isfinite(mag)):
            raise ValueError("state entries must be finite")
        if not np.all(mag > 0):
            raise ValueError("voltage magnitudes must be > 0")
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


def calc_injections(state: StateVector, ybus: np.ndarray) -> np.ndarray:
    """Bus injections (pu) implied by a state, stacked as [P; Q] (length 2n).

    P_i = V_i sum_j V_j (G_ij cos th_ij + B_ij sin th_ij),
    Q_i = V_i sum_j V_j (G_ij sin th_ij - B_ij cos th_ij).
    """
    v = state.magnitudes * np.exp(1j * state.angles)
    s = v * np.conj(ybus @ v)
    return np.concatenate([s.real, s.imag])


def injection_jacobian(state: StateVector, network: Network) -> np.ndarray:
    """d[P; Q]/d[theta; |V|], one 2n x 2n array: the real and imaginary parts of
    MATPOWER's stacked complex [dS/dtheta, dS/d|V|], scattered from their
    entries at Y's pattern; every other entry is 0."""
    rows, cols = network.admittance_pattern
    n = network.n_buses
    ds = np.zeros((n, 2 * n), dtype=complex)
    ds[rows, cols], ds[rows, n + cols] = _ds_dv_entries(state, network.ybus, rows, cols)
    return np.concatenate([ds.real, ds.imag])


def _ds_dv_entries(state: StateVector, ybus: np.ndarray, rows: np.ndarray, cols: np.ndarray):
    """MATPOWER's complex dS/dtheta and dS/d|V| at the entries [rows, cols]
    alone, with I = Y V: dS/dtheta = j diag(V) conj(diag(I) - Y diag(V)) and
    dS/d|V| = diag(V) conj(Y diag(V/|V|)) + conj(diag(I)) diag(V/|V|). The
    one dS/dV of both Newton solvers: the power flow's and H's injection rows."""
    vn = np.exp(1j * state.angles)
    v = state.magnitudes * vn
    i_bus = ybus @ v
    y = ybus[rows, cols]
    d_theta = (-1j * v)[rows] * np.conj(y * v[cols])
    d_vm = v[rows] * np.conj(y * vn[cols])
    diag = rows == cols
    d_theta[diag] += (1j * v * np.conj(i_bus))[rows[diag]]
    d_vm[diag] += (np.conj(i_bus) * vn)[rows[diag]]
    return d_theta, d_vm


def solve_power_flow(
    network: Network,
    tol: float = 1e-8,
    max_iter: int = 20,
) -> PowerFlowResult:
    """Full Newton power flow on the stacked state x = [theta; |V|].

    One index set, free = [non-slack buses; n + PQ buses], picks both the
    equations from the stacked injections [P; Q] and the unknowns from x: the
    mismatch is (S_spec - [P; Q])[free], measured in the infinity norm, and
    the Jacobian is d[P; Q]/dx restricted to free rows and columns.
    `iterations` counts mismatch evaluations, so a start already inside
    tolerance reports 1. A run that uses up max_iter reports max_iter and
    checks convergence once more at its last iterate, uncounted. On
    non-convergence the best iterate is returned with converged=False.
    """
    if not (0 < tol < np.inf):
        raise ParameterError("tol", f"tol must be finite and > 0, got {tol}")
    if max_iter < 1:
        raise ParameterError("max_iter", f"max_iter must be >= 1, got {max_iter}")

    ybus = network.ybus
    n = network.n_buses
    free = np.concatenate([np.delete(np.arange(n), network.slack_index), n + network.pq_indices])
    # specified net injections [P; Q] (generation - load), pu
    s_spec = np.concatenate([network.p_gen - network.p_load, network.q_gen - network.q_load]) / network.base_mva

    start = flat_start(network)
    x = np.concatenate([start.angles, start.magnitudes])
    for iterations in range(1, max_iter + 2):
        state = StateVector(angles=x[:n], magnitudes=x[n:])
        mismatch = (s_spec - calc_injections(state, ybus))[free]
        mm = float(np.max(np.abs(mismatch))) if mismatch.size else 0.0
        if mm < tol or iterations > max_iter:
            break
        jac = injection_jacobian(state, network)[np.ix_(free, free)]
        try:
            step = np.linalg.solve(jac, mismatch)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(f"power-flow Jacobian is singular: {exc}") from exc
        x[free] += step
        if not (np.all(np.isfinite(x)) and np.all(x[n:] > 0)):
            break  # diverged; `state` holds a copy of the last physical iterate
    return PowerFlowResult(state=state, iterations=min(iterations, max_iter), max_mismatch=mm,
                           converged=mm < tol)
