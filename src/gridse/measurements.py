"""Measurement functions, their analytic Jacobian, and synthetic metering.

A measurement set is one table of read-only arrays: index columns (quantity
code, bus index, branch index, measured end), values z and standard
deviations sigma. A plan is a set whose values are NaN. h(x) covers voltage
magnitude, bus injection and branch flow quantities; h(x) and H(x) are array
expressions over all rows: gathers from the bus injections and their
derivatives for bus quantities, and pi-model flow terms over the network's
per-branch arrays for flows.
State coordinates are ordered as all non-slack angles followed by all
magnitudes, so the Jacobian has shape (m, 2*n_buses - 1).

Synthetic measurements are drawn from independent per-measurement PCG64
streams keyed by (seed, measurement index), so generation is a pure function
of its inputs and adding a measurement never perturbs the draws of others.
"""
from __future__ import annotations

from dataclasses import dataclass
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


class MeasurementColumns(NamedTuple):
    """Read-only index columns of a measurement table, one entry per row."""

    quantity: np.ndarray  # code into QUANTITIES
    bus: np.ndarray       # 0-based bus index of bus quantities, -1 for flows
    branch: np.ndarray    # 0-based branch index of flows, -1 for bus quantities
    to_end: np.ndarray    # 1 for flows measured at the branch's to end, else 0


def _read_only(x, dtype) -> np.ndarray:
    a = np.asarray(x, dtype=dtype)
    if a.flags.writeable:
        a = a.copy()
        a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class MeasurementSet:
    """A measurement table: index `columns`, `values` z and `sigmas`, all
    read-only arrays with one entry per row. A plan is a set whose values are
    NaN, meaning not yet metered."""

    columns: MeasurementColumns
    values: np.ndarray
    sigmas: np.ndarray

    def __post_init__(self):
        columns = MeasurementColumns(*(_read_only(c, np.intp) for c in self.columns))
        values, sigmas = _read_only(self.values, float), _read_only(self.sigmas, float)
        if values.ndim != 1 or any(a.shape != values.shape for a in (*columns, sigmas)):
            raise ValueError("measurement columns, values and sigmas need one entry per row")
        if not np.all((sigmas > 0) & (sigmas < np.inf)):
            raise ValueError("measurement sigmas must be finite and > 0")
        if not np.all((columns.quantity >= 0) & (columns.quantity < len(QUANTITIES))):
            raise ValueError("unknown measurement quantity code")
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "sigmas", sigmas)

    @classmethod
    def from_kinds(cls, kinds: Sequence[MeasurementKind], values, sigmas) -> "MeasurementSet":
        table = np.array(
            [(QUANTITIES.index(k.quantity), -1 if k.bus is None else k.bus - 1,
              -1 if k.branch is None else k.branch, k.end == TO) for k in kinds],
            dtype=np.intp,
        ).reshape(-1, 4)
        table.setflags(write=False)
        return cls(MeasurementColumns(*table.T), values, sigmas)

    def __len__(self) -> int:
        return self.values.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, MeasurementSet):
            return NotImplemented
        return (all(np.array_equal(a, b) for a, b in zip(self.columns, other.columns))
                and np.array_equal(self.values, other.values, equal_nan=True)
                and np.array_equal(self.sigmas, other.sigmas))

    @property
    def kinds(self) -> list:
        """The rows as MeasurementKind objects, for CSV output."""
        return [
            MeasurementKind(QUANTITIES[q], bus=None if b < 0 else b + 1, branch=None if k < 0 else k,
                            end=None if k < 0 else (TO if t else FROM))
            for q, b, k, t in zip(*(c.tolist() for c in self.columns))
        ]


def check_columns(columns: MeasurementColumns, network: Network) -> None:
    """Raise ValueError naming the first row whose bus or branch is not in the network."""
    is_flow = columns.quantity >= _PF
    index = np.where(is_flow, columns.branch, columns.bus)
    bad = np.flatnonzero((index < 0) | (index >= np.where(is_flow, len(network.branches), network.n_buses)))
    if bad.size:
        i = int(bad[0])
        what = f"branch index {index[i]}" if is_flow[i] else f"bus {index[i] + 1}"
        raise ValueError(f"measurement {i}: {what} does not exist")


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


def evaluate_h(mset: MeasurementSet, state: StateVector, network: Network, ybus: np.ndarray) -> np.ndarray:
    """h(x) for every row of the set, in row order."""
    cols = mset.columns
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
    plan: MeasurementSet,
    seed: int,
    network: Network,
    ybus: np.ndarray,
    noise: bool = True,
) -> MeasurementSet:
    """Synthetic z = h(truth) + e for the rows and sigmas of a plan.

    Errors are zero-mean normal draws, one per measurement, from PCG64
    streams seeded with (seed, index). With noise=False the values equal
    h(truth) exactly. The plan's own values are ignored.
    """
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    check_columns(plan.columns, network)
    values = evaluate_h(plan, truth, network, ybus)
    if noise:
        for i, sigma in enumerate(plan.sigmas.tolist()):
            values[i] += sigma * np.random.default_rng([seed, i]).standard_normal()
    return MeasurementSet(plan.columns, values, plan.sigmas)


def full_measurement_plan(
    network: Network,
    sigma_v: float = DEFAULT_SIGMA_V,
    sigma_inj: float = DEFAULT_SIGMA_INJ,
    sigma_flow: float = DEFAULT_SIGMA_FLOW,
) -> MeasurementSet:
    """Every bus voltage, then every bus P and Q injection, then per branch
    P from, P to, Q from and Q to: m = n + 2n + 4*branches rows, values NaN."""
    for name, s in (("sigma_v", sigma_v), ("sigma_inj", sigma_inj), ("sigma_flow", sigma_flow)):
        if not (0 < s < np.inf):
            raise ValueError(f"{name} must be finite and > 0, got {s}")
    n, nbr = network.n_buses, len(network.branches)
    columns = MeasurementColumns(
        quantity=np.concatenate([np.repeat([_V, _P, _Q], n), np.tile([_PF, _PF, _QF, _QF], nbr)]),
        bus=np.concatenate([np.tile(np.arange(n), 3), np.full(4 * nbr, -1)]),
        branch=np.concatenate([np.full(3 * n, -1), np.repeat(np.arange(nbr), 4)]),
        to_end=np.concatenate([np.zeros(3 * n), np.tile([0, 1, 0, 1], nbr)]),
    )
    sigmas = np.repeat([sigma_v, sigma_inj, sigma_flow], [n, 2 * n, 4 * nbr])
    return MeasurementSet(columns, np.full(len(sigmas), np.nan), sigmas)
