"""Electrical network model: buses, branches, nodal admittance.

Bus data follows the usual exchange convention: voltage setpoints in per-unit,
generation and load in MW / MVAr on a common MVA base. Branches carry the
series impedance and half charging susceptance of the pi model. All types are
frozen after construction; a Network should be built through build_network,
which enforces the topology invariants.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np


class NetworkError(ValueError):
    """Invalid network data or topology."""


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
    id: int               # 1-based
    kind: BusKind
    v_setpoint: float     # pu
    p_gen: float          # MW
    q_gen: float          # MVAr
    p_load: float         # MW
    q_load: float         # MVAr

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
                raise ZeroImpedanceBranch(
                    f"branch {self.from_bus}-{self.to_bus}: r and x are both zero"
                )
            raise NetworkError(f"branch {self.from_bus}-{self.to_bus}: reactance must be nonzero")
        if self.half_charging < 0:
            raise NetworkError(f"branch {self.from_bus}-{self.to_bus}: half_charging must be >= 0")

    def series_admittance(self) -> complex:
        return 1.0 / complex(self.resistance, self.reactance)


@dataclass(frozen=True)
class Network:
    buses: tuple
    branches: tuple
    base_mva: float

    @property
    def n_buses(self) -> int:
        return len(self.buses)

    @property
    def slack_index(self) -> int:
        """0-based index of the slack bus."""
        for i, bus in enumerate(self.buses):
            if bus.kind is BusKind.SLACK:
                return i
        raise NoSlackBus("network has no slack bus")

    @property
    def pv_indices(self) -> tuple:
        return tuple(i for i, b in enumerate(self.buses) if b.kind is BusKind.PV)

    @property
    def pq_indices(self) -> tuple:
        return tuple(i for i, b in enumerate(self.buses) if b.kind is BusKind.PQ)

    @cached_property
    def ybus(self) -> np.ndarray:
        """Read-only admittance matrix, built once per network object."""
        return build_ybus(self)

    @cached_property
    def branch_arrays(self) -> BranchArrays:
        """Read-only per-branch columns, built once per network object."""
        ends = np.array([(br.from_bus - 1, br.to_bus - 1) for br in self.branches], dtype=np.intp)
        ys = np.array([br.series_admittance() for br in self.branches], dtype=complex)
        b_sh = np.array([br.half_charging for br in self.branches], dtype=float)
        arrays = BranchArrays(ends[:, 0], ends[:, 1], ys.real, ys.imag, b_sh)
        for column in arrays:
            column.setflags(write=False)
        return arrays


class BusRow(NamedTuple):
    """One raw bus-table row, before its kind is known."""

    id: int
    v_setpoint: float
    p_gen: float = 0.0
    q_gen: float = 0.0
    p_load: float = 0.0
    q_load: float = 0.0
    kind: Optional[BusKind] = None  # explicit kind, overrides inference


def infer_bus_kinds(rows: Sequence[BusRow]) -> list:
    """Classify raw bus rows when no explicit kind column is available.

    Bus 1 is the slack; any other bus holding a non-unity voltage setpoint
    while generating (p_gen > 0 or q_gen != 0) is PV; everything else is PQ.
    """
    if not rows:
        raise NetworkError("need at least one bus row")
    kinds = []
    for row in rows:
        if row.id == 1:
            kinds.append(BusKind.SLACK)
        elif row.v_setpoint != 1.0 and (row.p_gen > 0 or row.q_gen != 0):
            kinds.append(BusKind.PV)
        else:
            kinds.append(BusKind.PQ)
    return kinds


def buses_from_rows(rows: Sequence[BusRow]) -> list:
    """Build Bus objects from raw rows, inferring kinds where not explicit."""
    inferred = infer_bus_kinds(rows)
    return [
        Bus(
            id=row.id,
            kind=row.kind if row.kind is not None else kind,
            v_setpoint=row.v_setpoint,
            p_gen=row.p_gen,
            q_gen=row.q_gen,
            p_load=row.p_load,
            q_load=row.q_load,
        )
        for row, kind in zip(rows, inferred)
    ]


def build_network(buses: Sequence[Bus], branches: Sequence[Branch], base_mva: float = 100.0) -> Network:
    """Validate and assemble a Network.

    Raises DuplicateBusId, DanglingBranchEndpoint, DisconnectedGraph,
    NoSlackBus or MultipleSlackBuses on invariant violations.
    """
    if not (base_mva > 0):
        raise NetworkError(f"base_mva must be > 0, got {base_mva}")
    if not buses:
        raise NetworkError("network needs at least one bus")

    ids = [b.id for b in buses]
    seen = set()
    for bus_id in ids:
        if bus_id in seen:
            raise DuplicateBusId(f"bus id {bus_id} appears more than once")
        seen.add(bus_id)
    n = len(buses)
    if ids != list(range(1, n + 1)):
        raise NetworkError(f"bus ids must be contiguous 1..{n} in order, got {ids}")

    n_slack = sum(1 for b in buses if b.kind is BusKind.SLACK)
    if n_slack == 0:
        raise NoSlackBus("network has no slack bus")
    if n_slack > 1:
        raise MultipleSlackBuses(f"network has {n_slack} slack buses")

    adjacency = [[] for _ in range(n)]
    for br in branches:
        for end in (br.from_bus, br.to_bus):
            if not (1 <= end <= n):
                raise DanglingBranchEndpoint(
                    f"branch {br.from_bus}-{br.to_bus}: bus {end} does not exist"
                )
        adjacency[br.from_bus - 1].append(br.to_bus - 1)
        adjacency[br.to_bus - 1].append(br.from_bus - 1)

    # breadth-first reachability from bus 1
    reached = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for i in frontier:
            for j in adjacency[i]:
                if j not in reached:
                    reached.add(j)
                    nxt.append(j)
        frontier = nxt
    if len(reached) != n:
        missing = sorted(i + 1 for i in range(n) if i not in reached)
        raise DisconnectedGraph(f"buses not connected to bus 1: {missing}")

    return Network(buses=tuple(buses), branches=tuple(branches), base_mva=float(base_mva))


def net_injection_pu(bus: Bus, base_mva: float):
    """Net injected (P, Q) of a bus in pu: (gen - load) / base."""
    if not (base_mva > 0):
        raise NetworkError(f"base_mva must be > 0, got {base_mva}")
    return (bus.p_gen - bus.p_load) / base_mva, (bus.q_gen - bus.q_load) / base_mva


def build_ybus(network: Network) -> np.ndarray:
    """Complex nodal admittance matrix from the branch pi model.

    Contributions are accumulated over a canonical branch ordering, so any
    permutation of the branch list produces a bit-identical matrix.
    """
    n = network.n_buses
    y = np.zeros((n, n), dtype=complex)
    order = sorted(
        network.branches,
        key=lambda b: (b.from_bus, b.to_bus, b.resistance, b.reactance, b.half_charging),
    )
    for br in order:
        ys = br.series_admittance()
        f = br.from_bus - 1
        t = br.to_bus - 1
        y[f, t] -= ys
        y[t, f] -= ys
        y[f, f] += ys + 1j * br.half_charging
        y[t, t] += ys + 1j * br.half_charging
    y.setflags(write=False)
    return y


def with_scaled_loads(network: Network, scale: float, weights: Optional[dict] = None) -> Network:
    """New network with every bus load multiplied by scale (times an optional
    per-bus weight keyed by bus id)."""
    if not (scale > 0):
        raise NetworkError(f"load scale must be > 0, got {scale}")
    weights = weights or {}
    buses = []
    for bus in network.buses:
        w = scale * weights.get(bus.id, 1.0)
        buses.append(replace(bus, p_load=bus.p_load * w, q_load=bus.q_load * w))
    return Network(buses=tuple(buses), branches=network.branches, base_mva=network.base_mva)
