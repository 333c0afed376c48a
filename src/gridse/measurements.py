"""Measurement functions, their analytic Jacobian, and synthetic metering.

A measurement set holds values z and standard deviations sigma; h(x) covers
voltage magnitude, bus injection and branch flow quantities. Each set is
compiled once into read-only index columns (quantity code, bus index, branch
index, measured end), so h(x) and H(x) are array expressions over all rows:
gathers from the bus injections and their derivatives for bus quantities,
and pi-model flow terms over the network's per-branch arrays for flows.
State coordinates are ordered as all non-slack angles followed by all
magnitudes, so the Jacobian has shape (m, 2*n_buses - 1).

Synthetic measurements are drawn from independent per-measurement PCG64
streams keyed by (seed, measurement index), so generation is a pure function
of its inputs and adding a measurement never perturbs the draws of others.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .network import Network
from .powerflow import StateVector, calc_injections, injection_jacobian

V_MAG = "v_mag"
P_INJ = "p_inj"
Q_INJ = "q_inj"
P_FLOW = "p_flow"
Q_FLOW = "q_flow"

FROM = "from"
TO = "to"

DEFAULT_SIGMA_V = 0.004
DEFAULT_SIGMA_INJ = 0.01
DEFAULT_SIGMA_FLOW = 0.008

_BUS_QUANTITIES = (V_MAG, P_INJ, Q_INJ)
_FLOW_QUANTITIES = (P_FLOW, Q_FLOW)
# quantity codes of the compiled columns: index into QUANTITIES
QUANTITIES = _BUS_QUANTITIES + _FLOW_QUANTITIES
_V, _P, _Q, _PF, _QF = range(len(QUANTITIES))


@dataclass(frozen=True)
class MeasurementKind:
    quantity: str
    bus: Optional[int] = None     # 1-based bus id for bus quantities
    branch: Optional[int] = None  # 0-based index into network.branches
    end: Optional[str] = None     # FROM or TO for flow quantities

    def __post_init__(self):
        if self.quantity in _BUS_QUANTITIES:
            if self.bus is None or self.branch is not None or self.end is not None:
                raise ValueError(f"{self.quantity} measurement must reference a bus only")
        elif self.quantity in _FLOW_QUANTITIES:
            if self.branch is None or self.end not in (FROM, TO) or self.bus is not None:
                raise ValueError(f"{self.quantity} measurement must reference a branch and an end")
        else:
            raise ValueError(f"unknown measurement quantity {self.quantity!r}")

    @classmethod
    def voltage_magnitude(cls, bus: int):
        return cls(V_MAG, bus=bus)

    @classmethod
    def active_injection(cls, bus: int):
        return cls(P_INJ, bus=bus)

    @classmethod
    def reactive_injection(cls, bus: int):
        return cls(Q_INJ, bus=bus)

    @classmethod
    def active_flow(cls, branch: int, end: str = FROM):
        return cls(P_FLOW, branch=branch, end=end)

    @classmethod
    def reactive_flow(cls, branch: int, end: str = FROM):
        return cls(Q_FLOW, branch=branch, end=end)


@dataclass(frozen=True)
class Measurement:
    kind: MeasurementKind
    value: float  # pu
    sigma: float  # pu

    def __post_init__(self):
        if not (self.sigma > 0):
            raise ValueError(f"sigma must be > 0, got {self.sigma}")


class MeasurementColumns(NamedTuple):
    """Read-only index columns of a measurement list, one entry per row."""

    quantity: np.ndarray  # code into QUANTITIES
    bus: np.ndarray       # 0-based bus index of bus quantities, -1 for flows
    branch: np.ndarray    # 0-based branch index of flows, -1 for bus quantities
    to_end: np.ndarray    # 1 for flows measured at the branch's to end, else 0


def _compile_columns(kinds: Sequence[MeasurementKind]) -> MeasurementColumns:
    table = np.array(
        [(QUANTITIES.index(k.quantity), -1 if k.bus is None else k.bus - 1,
          -1 if k.branch is None else k.branch, k.end == TO) for k in kinds],
        dtype=np.intp,
    ).reshape(-1, 4)
    table.setflags(write=False)
    return MeasurementColumns(*table.T)


@dataclass(frozen=True)
class MeasurementSet:
    """Measurements plus arrays compiled once at construction: `values`,
    `sigmas` and the index `columns`, all read-only."""

    measurements: tuple
    values: np.ndarray = field(init=False, repr=False, compare=False)
    sigmas: np.ndarray = field(init=False, repr=False, compare=False)
    columns: MeasurementColumns = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ms = tuple(self.measurements)
        numbers = np.array([(m.value, m.sigma) for m in ms], dtype=float).reshape(-1, 2)
        numbers.setflags(write=False)
        object.__setattr__(self, "measurements", ms)
        object.__setattr__(self, "values", numbers[:, 0])
        object.__setattr__(self, "sigmas", numbers[:, 1])
        object.__setattr__(self, "columns", _compile_columns([m.kind for m in ms]))

    def __len__(self) -> int:
        return len(self.measurements)

    def __iter__(self):
        return iter(self.measurements)

    @property
    def kinds(self) -> list:
        return [m.kind for m in self.measurements]


def validate_kinds(kinds: Sequence[MeasurementKind], network: Network) -> None:
    n = network.n_buses
    nbr = len(network.branches)
    for i, kind in enumerate(kinds):
        if kind.bus is not None and not (1 <= kind.bus <= n):
            raise ValueError(f"measurement {i}: bus {kind.bus} does not exist")
        if kind.branch is not None and not (0 <= kind.branch < nbr):
            raise ValueError(f"measurement {i}: branch index {kind.branch} does not exist")


def state_size(network: Network) -> int:
    """Number of state coordinates: non-slack angles plus all magnitudes."""
    return 2 * network.n_buses - 1


def state_to_vector(state: StateVector, network: Network) -> np.ndarray:
    """Flatten a state into [theta at non-slack buses, all magnitudes]."""
    return np.concatenate([np.delete(state.angles, network.slack_index), state.magnitudes])


def vector_to_state(x: np.ndarray, network: Network) -> StateVector:
    """Inverse of state_to_vector; the slack angle is pinned to 0."""
    n = network.n_buses
    return StateVector(angles=np.insert(x[: n - 1], network.slack_index, 0.0), magnitudes=x[n - 1 :])


def _flow_terms(cols: MeasurementColumns, rows: np.ndarray, state: StateVector, network: Network):
    """Per flow row: measured-end bus i, far-end bus j, V_i, V_j, cos and sin
    of theta_i - theta_j, and the branch's g, b and b_sh."""
    br = network.branch_arrays
    k = cols.branch[rows]
    to_end = cols.to_end[rows]
    i = np.where(to_end, br.to_idx[k], br.from_idx[k])
    j = np.where(to_end, br.from_idx[k], br.to_idx[k])
    vm, th = state.magnitudes, state.angles
    thij = th[i] - th[j]
    return i, j, vm[i], vm[j], np.cos(thij), np.sin(thij), br.g[k], br.b[k], br.b_sh[k]


def _evaluate(cols: MeasurementColumns, state: StateVector, network: Network, ybus: np.ndarray) -> np.ndarray:
    """h(x) for compiled columns, in row order."""
    q = cols.quantity
    h = np.empty(q.shape[0])
    rows = np.flatnonzero(q == _V)
    h[rows] = state.magnitudes[cols.bus[rows]]
    rows = np.flatnonzero((q == _P) | (q == _Q))
    if rows.size:
        p_inj, q_inj = calc_injections(state, ybus)
        bus = cols.bus[rows]
        h[rows] = np.where(q[rows] == _P, p_inj[bus], q_inj[bus])
    rows = np.flatnonzero(q >= _PF)
    if rows.size:
        _, _, vi, vj, c, s, g, b, bsh = _flow_terms(cols, rows, state, network)
        h[rows] = np.where(q[rows] == _PF, vi * vi * g - vi * vj * (g * c + b * s),
                           -vi * vi * (b + bsh) - vi * vj * (g * s - b * c))
    return h


def evaluate_h(mset: MeasurementSet, state: StateVector, network: Network, ybus: np.ndarray) -> np.ndarray:
    return _evaluate(mset.columns, state, network, ybus)


def jacobian_h(mset: MeasurementSet, state: StateVector, network: Network, ybus: np.ndarray) -> np.ndarray:
    """Analytic Jacobian of h w.r.t. [theta at non-slack buses, all magnitudes]."""
    cols = mset.columns
    q = cols.quantity
    n = network.n_buses
    slack = network.slack_index
    # column of each bus angle; the slack's is a spare last column, cut off on return
    ang_col = np.arange(n) - (np.arange(n) > slack)
    ang_col[slack] = 2 * n - 1
    h_mat = np.zeros((q.shape[0], 2 * n))

    rows = np.flatnonzero(q == _V)
    h_mat[rows, n - 1 + cols.bus[rows]] = 1.0

    if np.any((q == _P) | (q == _Q)):
        dp_dth, dp_dv, dq_dth, dq_dv = injection_jacobian(state, ybus)
        for code, dth, dv in ((_P, dp_dth, dp_dv), (_Q, dq_dth, dq_dv)):
            rows = np.flatnonzero(q == code)
            bus = cols.bus[rows]
            h_mat[np.ix_(rows, ang_col)] = dth[bus]
            h_mat[rows, n - 1 : 2 * n - 1] = dv[bus]

    rows = np.flatnonzero(q >= _PF)
    if rows.size:
        i, j, vi, vj, c, s, g, b, bsh = _flow_terms(cols, rows, state, network)
        is_p = q[rows] == _PF
        dth_i = np.where(is_p, vi * vj * (g * s - b * c), -vi * vj * (g * c + b * s))
        h_mat[rows, ang_col[i]] = dth_i
        h_mat[rows, ang_col[j]] = -dth_i
        h_mat[rows, n - 1 + i] = np.where(is_p, 2 * vi * g - vj * (g * c + b * s),
                                          -2 * vi * (b + bsh) - vj * (g * s - b * c))
        h_mat[rows, n - 1 + j] = np.where(is_p, -vi * (g * c + b * s), -vi * (g * s - b * c))
    return h_mat[:, : 2 * n - 1]


def generate_measurements(
    truth: StateVector,
    plan: Sequence,
    seed: int,
    network: Network,
    ybus: np.ndarray,
    noise: bool = True,
) -> MeasurementSet:
    """Synthetic z = h(truth) + e for a plan of (kind, sigma) pairs.

    Errors are zero-mean normal draws, one per measurement, from PCG64
    streams seeded with (seed, index). With noise=False the values equal
    h(truth) exactly while keeping the plan sigmas.
    """
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    kinds = [kind for kind, _ in plan]
    sigmas = np.array([sigma for _, sigma in plan], dtype=float)
    if not np.all(sigmas > 0):
        raise ValueError("all plan sigmas must be > 0")
    validate_kinds(kinds, network)
    h_true = _evaluate(_compile_columns(kinds), truth, network, ybus)
    values = h_true.copy()
    if noise:
        for i, sigma in enumerate(sigmas):
            rng = np.random.default_rng([seed, i])
            values[i] += sigma * rng.standard_normal()
    measurements = tuple(
        Measurement(kind=kind, value=float(v), sigma=float(s))
        for kind, v, s in zip(kinds, values, sigmas)
    )
    return MeasurementSet(measurements=measurements)


def full_measurement_plan(
    network: Network,
    sigma_v: float = DEFAULT_SIGMA_V,
    sigma_inj: float = DEFAULT_SIGMA_INJ,
    sigma_flow: float = DEFAULT_SIGMA_FLOW,
) -> list:
    """Every bus voltage, every bus P/Q injection, every branch P/Q flow at
    both ends: m = n + 2n + 4*branches."""
    for name, s in (("sigma_v", sigma_v), ("sigma_inj", sigma_inj), ("sigma_flow", sigma_flow)):
        if not (s > 0):
            raise ValueError(f"{name} must be > 0, got {s}")
    plan = []
    for bus in network.buses:
        plan.append((MeasurementKind.voltage_magnitude(bus.id), sigma_v))
    for bus in network.buses:
        plan.append((MeasurementKind.active_injection(bus.id), sigma_inj))
    for bus in network.buses:
        plan.append((MeasurementKind.reactive_injection(bus.id), sigma_inj))
    for idx in range(len(network.branches)):
        plan.append((MeasurementKind.active_flow(idx, FROM), sigma_flow))
        plan.append((MeasurementKind.active_flow(idx, TO), sigma_flow))
        plan.append((MeasurementKind.reactive_flow(idx, FROM), sigma_flow))
        plan.append((MeasurementKind.reactive_flow(idx, TO), sigma_flow))
    return plan
