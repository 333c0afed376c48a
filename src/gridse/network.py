"""Electrical network model: buses, branches, nodal admittance.

Bus data follows the usual exchange convention: voltage setpoints in per-unit,
generation and load in MW / MVAr on a common MVA base. Branches carry the
series impedance and half charging susceptance of the pi model. Bus and
Branch are the validated row types that describe a grid; a Network is a table
of read-only columns (one entry per bus, and per branch in branch-list order,
after MATPOWER's bus and branch matrices) plus its admittance matrix, built
and validated once by build_network.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np


class NetworkError(ValueError):
    """Invalid network data or topology. `row` is the 0-based index of the
    bus or branch at fault, when one row is."""

    def __init__(self, message: str, row: Optional[int] = None):
        super().__init__(message)
        self.row = row


class DuplicateBusId(NetworkError):
    pass


class DanglingBranchEndpoint(NetworkError):
    pass


class DisconnectedGraph(NetworkError):
    pass


class NoSlackBus(NetworkError):
    pass


class MultipleSlackBuses(NetworkError):
    pass


class ZeroImpedanceBranch(NetworkError):
    pass


class BranchArrays(NamedTuple):
    """Per-branch columns in branch-list order; bus indices are 0-based."""

    from_idx: np.ndarray
    to_idx: np.ndarray
    g: np.ndarray     # series conductance, pu
    b: np.ndarray     # series susceptance, pu
    b_sh: np.ndarray  # half charging susceptance, pu


class BusKind(Enum):
    SLACK = "slack"
    PV = "pv"
    PQ = "pq"


@dataclass(frozen=True)
class Bus:
    id: int                # 1-based
    v_setpoint: float      # pu
    p_gen: float = 0.0     # MW
    q_gen: float = 0.0     # MVAr
    p_load: float = 0.0    # MW
    q_load: float = 0.0    # MVAr
    kind: Optional[BusKind] = None  # None: inferred by build_network

    def __post_init__(self):
        if self.id < 1:
            raise NetworkError(f"bus id must be a positive integer, got {self.id}")
        if not (self.v_setpoint > 0):
            raise NetworkError(f"bus {self.id}: v_setpoint must be > 0, got {self.v_setpoint}")
        for name in ("p_gen", "q_gen", "p_load", "q_load"):
            if not math.isfinite(getattr(self, name)):
                raise NetworkError(f"bus {self.id}: {name} must be finite")


@dataclass(frozen=True)
class Branch:
    from_bus: int
    to_bus: int
    resistance: float     # pu
    reactance: float      # pu
    half_charging: float  # pu, total charging susceptance / 2

    def __post_init__(self):
        if self.from_bus == self.to_bus:
            raise NetworkError(f"branch {self.from_bus}-{self.to_bus}: endpoints must differ")
        if self.resistance < 0:
            raise NetworkError(f"branch {self.from_bus}-{self.to_bus}: resistance must be >= 0")
        if self.reactance == 0:
            if self.resistance == 0:
                raise ZeroImpedanceBranch(f"branch {self.from_bus}-{self.to_bus}: r and x are both zero")
            raise NetworkError(f"branch {self.from_bus}-{self.to_bus}: reactance must be nonzero")
        if self.half_charging < 0:
            raise NetworkError(f"branch {self.from_bus}-{self.to_bus}: half_charging must be >= 0")


@dataclass(frozen=True, eq=False)
class Network:
    """A grid as read-only columns: per bus (position i is bus id i + 1) its
    kind, voltage setpoint and generation and load in MW / MVAr; per branch
    the arrays of `branch_arrays`; and the nodal admittance matrix Y."""

    kinds: np.ndarray       # BusKind objects
    v_setpoint: np.ndarray  # pu
    p_gen: np.ndarray
    q_gen: np.ndarray
    p_load: np.ndarray
    q_load: np.ndarray
    branch_arrays: BranchArrays
    base_mva: float
    ybus: Optional[np.ndarray]  # set by build_network

    @property
    def n_buses(self) -> int:
        return self.kinds.shape[0]

    @property
    def n_branches(self) -> int:
        return self.branch_arrays.from_idx.shape[0]

    @cached_property
    def slack_index(self) -> int:
        """0-based index of the slack bus."""
        return int(np.flatnonzero(self.kinds == BusKind.SLACK)[0])

    @cached_property
    def pq_indices(self) -> np.ndarray:
        """0-based indices of the PQ buses, ascending."""
        return _read_only(np.flatnonzero(self.kinds == BusKind.PQ), np.intp)


def _read_only(values, dtype) -> np.ndarray:
    a = np.array(values, dtype=dtype)
    a.setflags(write=False)
    return a


def _inferred_kind(bus: Bus) -> BusKind:
    """Bus 1 is the slack; any other bus holding a non-unity voltage setpoint
    while generating (p_gen > 0 or q_gen != 0) is PV; everything else is PQ."""
    if bus.id == 1:
        return BusKind.SLACK
    if bus.v_setpoint != 1.0 and (bus.p_gen > 0 or bus.q_gen != 0):
        return BusKind.PV
    return BusKind.PQ


def build_network(buses: Sequence[Bus], branches: Sequence[Branch], base_mva: float = 100.0) -> Network:
    """Check the grid the rows describe and assemble its Network: columns and Y.

    A bus whose kind is None gets the inferred kind. Raises DuplicateBusId,
    DanglingBranchEndpoint, DisconnectedGraph, NoSlackBus or
    MultipleSlackBuses on invariant violations, with the row at fault.
    """
    if not (base_mva > 0):
        raise NetworkError(f"base_mva must be > 0, got {base_mva}")
    if not buses:
        raise NetworkError("network needs at least one bus")

    ids = [b.id for b in buses]
    n = len(buses)
    if ids != list(range(1, n + 1)):
        for k, bus_id in enumerate(ids):
            if bus_id in ids[:k]:
                raise DuplicateBusId(f"bus id {bus_id} appears more than once", row=k)
        row = next(k for k, bus_id in enumerate(ids) if bus_id != k + 1)
        raise NetworkError(f"bus ids must be contiguous 1..{n} in order, got {ids}", row=row)

    kinds = _read_only([_inferred_kind(b) if b.kind is None else b.kind for b in buses], object)
    slack_rows = np.flatnonzero(kinds == BusKind.SLACK)
    if slack_rows.size == 0:
        raise NoSlackBus("network has no slack bus")
    if slack_rows.size > 1:
        raise MultipleSlackBuses(f"network has {slack_rows.size} slack buses", row=int(slack_rows[1]))

    for k, br in enumerate(branches):
        for end in (br.from_bus, br.to_bus):
            if not (1 <= end <= n):
                raise DanglingBranchEndpoint(f"branch {br.from_bus}-{br.to_bus}: bus {end} does not exist", row=k)
    ends = np.array([(br.from_bus - 1, br.to_bus - 1) for br in branches], dtype=np.intp).reshape(-1, 2)
    # reachability from bus 1: grow along every branch with exactly one end reached
    reached = np.arange(n) == 0
    while True:
        grow = ends[reached[ends[:, 0]] != reached[ends[:, 1]]]
        if not grow.size:
            break
        reached[grow] = True
    if not reached.all():
        missing = (np.flatnonzero(~reached) + 1).tolist()
        raise DisconnectedGraph(f"buses not connected to bus 1: {missing}")

    # Python's complex division, once per branch: numpy's rounds differently
    ys = np.array([1.0 / complex(br.resistance, br.reactance) for br in branches], dtype=complex)
    columns = {name: _read_only([getattr(b, name) for b in buses], float)
               for name in ("v_setpoint", "p_gen", "q_gen", "p_load", "q_load")}
    branch_arrays = BranchArrays(
        _read_only(ends[:, 0], np.intp), _read_only(ends[:, 1], np.intp), _read_only(ys.real, float),
        _read_only(ys.imag, float), _read_only([br.half_charging for br in branches], float))
    network = Network(kinds=kinds, branch_arrays=branch_arrays, base_mva=float(base_mva), ybus=None,
                      **columns)
    return replace(network, ybus=build_ybus(network))


def build_ybus(network: Network) -> np.ndarray:
    """Complex nodal admittance matrix from the branch pi model.

    Contributions are accumulated over a canonical branch ordering (by end
    indices, then g, b and b_sh), so any permutation of the branch list
    produces a bit-identical matrix.
    """
    br = network.branch_arrays
    order = np.lexsort((br.b_sh, br.b, br.g, br.to_idx, br.from_idx))
    f, t = br.from_idx[order], br.to_idx[order]
    ys = br.g[order].astype(complex)
    ys.imag = br.b[order]
    diag = ys + 1j * br.b_sh[order]
    # per branch, in order: Y_ft -= ys, Y_tf -= ys, Y_ff += ys + j b_sh, Y_tt += ys + j b_sh
    rows = np.stack([f, t, f, t], axis=1).ravel()
    cols = np.stack([t, f, f, t], axis=1).ravel()
    y = np.zeros((network.n_buses, network.n_buses), dtype=complex)
    np.add.at(y, (rows, cols), np.stack([-ys, -ys, diag, diag], axis=1).ravel())
    y.setflags(write=False)
    return y


def with_scaled_loads(network: Network, scale: float, weights: Optional[dict] = None) -> Network:
    """The network with every bus load multiplied by scale (times an optional
    per-bus weight keyed by bus id). The copy shares the other columns and Y.

    The scale must be finite and > 0, and each weight finite and >= 0 with a
    bus id in 1..n; anything else is a NetworkError naming the scale or bus."""
    if not (0 < scale < np.inf):
        raise NetworkError(f"load scale must be finite and > 0, got {scale}")
    weights = weights or {}
    for bus_id, weight in weights.items():
        if not (1 <= bus_id <= network.n_buses):
            raise NetworkError(f"load weight for bus {bus_id}: no such bus, ids are 1..{network.n_buses}")
        if not (0 <= weight < np.inf):
            raise NetworkError(f"load weight for bus {bus_id} must be finite and >= 0, got {weight}")
    w = scale * np.array([weights.get(bus_id, 1.0) for bus_id in range(1, network.n_buses + 1)])
    return replace(network, p_load=_read_only(network.p_load * w, float),
                   q_load=_read_only(network.q_load * w, float))
