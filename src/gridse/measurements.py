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
Each stream is the one `np.random.default_rng([seed, index])` gives; the
SeedSequence hash that seeds them runs once over the whole index column, as
uint32 array arithmetic equal to numpy's, instead of once per measurement.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

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

# quantity codes of the columns index QUANTITIES, bus quantities first; flow
# rows' to_end codes index ENDS
QUANTITIES = (V_MAG, P_INJ, Q_INJ, P_FLOW, Q_FLOW)
_V, _P, _Q, _PF, _QF = range(len(QUANTITIES))
ENDS = (FROM, TO)


class MeasurementRowError(ValueError):
    """A measurement row whose bus, branch and to_end entries do not fit its
    quantity. `row` is the 0-based index of the row at fault."""

    def __init__(self, row: int, reason: str):
        super().__init__(f"measurement {row}: {reason}")
        self.row = row
        self.reason = reason


class MeasurementColumns(NamedTuple):
    """Read-only index columns of a measurement table, one entry per row."""

    quantity: np.ndarray  # code into QUANTITIES
    bus: np.ndarray       # 0-based bus index of bus quantities, -1 for flows
    branch: np.ndarray    # 0-based branch index of flows, -1 for bus quantities
    to_end: np.ndarray    # flows: 0 measured at the from end, 1 at the to end; -1 for bus quantities


def _read_only(x, dtype) -> np.ndarray:
    a = np.asarray(x, dtype=dtype)
    if a.flags.writeable:
        a = a.copy()
        a.setflags(write=False)
    return a


def _index_column(name: str, x) -> np.ndarray:
    """A read-only intp column. An entry the cast would change (a fraction,
    NaN, an infinity, a value out of range) raises a ValueError naming the
    column; an integer column costs only the dtype test."""
    a = np.asarray(x)
    if not np.can_cast(a.dtype, np.intp):
        f = a.astype(float)
        bad = np.flatnonzero(~((f == np.trunc(f)) & (np.abs(f) < 2.0**63)))
        if bad.size:
            raise ValueError(f"measurement {name} column needs integer entries, "
                             f"got {a.flat[bad[0]]} at row {bad[0]}")
    return _read_only(a, np.intp)


@dataclass(frozen=True, eq=False)
class MeasurementSet:
    """A measurement table: index `columns`, `values` z and `sigmas`, all
    read-only arrays with one entry per row. A plan is a set whose values are
    NaN, meaning not yet metered. Every row's bus, branch and to_end entries
    take the form MeasurementColumns states for its quantity; the first row
    that does not raises MeasurementRowError."""

    columns: MeasurementColumns
    values: np.ndarray
    sigmas: np.ndarray

    def __post_init__(self):
        columns = MeasurementColumns(*map(_index_column, MeasurementColumns._fields, self.columns))
        values, sigmas = _read_only(self.values, float), _read_only(self.sigmas, float)
        if values.ndim != 1 or any(a.shape != values.shape for a in (*columns, sigmas)):
            raise ValueError("measurement columns, values and sigmas need one entry per row")
        if not np.all((sigmas > 0) & (sigmas < np.inf)):
            raise ValueError("measurement sigmas must be finite and > 0")
        if not np.all((columns.quantity >= 0) & (columns.quantity < len(QUANTITIES))):
            raise ValueError("unknown measurement quantity code")
        quantity, bus, branch, to_end = columns
        is_flow = quantity >= _PF
        bad = np.flatnonzero(np.where(is_flow, (bus != -1) | (branch < 0) | ((to_end != 0) & (to_end != 1)),
                                      (bus < 0) | (branch != -1) | (to_end != -1)))
        if bad.size:
            i = int(bad[0])
            need = "bus -1, branch >= 0, to_end 0 or 1" if is_flow[i] else "bus >= 0, branch -1, to_end -1"
            raise MeasurementRowError(i, f"a {QUANTITIES[quantity[i]]} row needs {need}, "
                                         f"got bus {bus[i]}, branch {branch[i]}, to_end {to_end[i]}")
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "sigmas", sigmas)

    def __len__(self) -> int:
        return self.values.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, MeasurementSet):
            return NotImplemented
        return (all(np.array_equal(a, b) for a, b in zip(self.columns, other.columns))
                and np.array_equal(self.values, other.values, equal_nan=True)
                and np.array_equal(self.sigmas, other.sigmas))


def check_columns(columns: MeasurementColumns, network: Network) -> None:
    """Raise ValueError naming the first row whose bus or branch is not in the network."""
    is_flow = columns.quantity >= _PF
    index = np.where(is_flow, columns.branch, columns.bus)  # >= 0: MeasurementSet checks the row shape
    bad = np.flatnonzero(index >= np.where(is_flow, network.n_branches, network.n_buses))
    if bad.size:
        i = int(bad[0])
        what = f"branch index {index[i]}" if is_flow[i] else f"bus {index[i] + 1}"
        raise ValueError(f"measurement {i}: {what} does not exist")


def state_size(network: Network) -> int:
    """Number of state coordinates: non-slack angles plus all magnitudes."""
    return 2 * network.n_buses - 1


def _check_state_size(state: StateVector, network: Network, name: str) -> None:
    if state.n_buses != network.n_buses:
        raise ValueError(f"{name} has {state.n_buses} buses, the network has {network.n_buses}")


def state_to_vector(state: StateVector, network: Network) -> np.ndarray:
    """Flatten a state into [theta at non-slack buses, all magnitudes]."""
    _check_state_size(state, network, "state")
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
    streams seeded with (seed, index), so a plan has fewer than 2**32 rows.
    With noise=False the values equal h(truth) exactly. The plan's own values
    are ignored.
    """
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    _check_state_size(truth, network, "truth state")
    check_columns(plan.columns, network)
    values = evaluate_h(plan, truth, network, ybus)
    if noise:
        draws = [Generator(PCG64(_StreamSeed(words))).standard_normal()
                 for words in _stream_state_words(seed, len(plan))]
        values += plan.sigmas * np.array(draws, dtype=float)
    return MeasurementSet(plan.columns, values, plan.sigmas)


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


def _seed_words(seed: int) -> list:
    """The little-endian uint32 words of a non-negative int; 0 gives [0]."""
    words = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        words.append(seed & _MASK32)
    return words


def _multiplier_chain(init: int, mult: int, length: int) -> np.ndarray:
    """numpy's hash_const before and after each of `length` hash steps (init,
    init*mult, ... mod 2**32) as a uint32 column. It does not depend on the
    data, so it is computed once up front."""
    chain = [init]
    for _ in range(length):
        chain.append(chain[-1] * mult & _MASK32)
    return np.array(chain, dtype=np.uint32)[:, None]


def _hashmix(value: np.ndarray, chain: np.ndarray, step: int, count: int) -> np.ndarray:
    """numpy's hashmix at the `count` hash steps from `step`: row k of the
    result is row k of value (or value itself, broadcast) hashed at step + k."""
    value = (value ^ chain[step:step + count]) * chain[step + 1:step + count + 1]
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> _XSHIFT)


def _stream_state_words(seed: int, m: int) -> np.ndarray:
    """Row i equals np.random.SeedSequence([seed, i]).generate_state(4, np.uint64),
    for i < m, from one pass of numpy's pool hash over the index column.

    All arithmetic is on uint32 arrays, which wrap without warning.
    """
    if m >= 2**32:
        raise ValueError(f"a plan has at most 2**32 - 1 rows for its stream index, got {m}")
    words = _seed_words(seed)
    entropy = np.empty((max(len(words) + 1, _POOL_SIZE), m), dtype=np.uint32)
    entropy[:len(words)] = np.array(words, dtype=np.uint32)[:, None]
    entropy[len(words)] = np.arange(m, dtype=np.uint32)
    entropy[len(words) + 1:] = 0  # a short entropy runs the hash out on zeros
    n_extra = len(entropy) - _POOL_SIZE
    chain = _multiplier_chain(_INIT_A, _MULT_A, _POOL_SIZE * (_POOL_SIZE + n_extra))

    pool = _hashmix(entropy[:_POOL_SIZE], chain, 0, _POOL_SIZE)
    step = _POOL_SIZE
    for src in range(_POOL_SIZE):  # mix all bits together so late bits affect earlier ones
        dst = [i for i in range(_POOL_SIZE) if i != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], chain, step, len(dst)))
        step += len(dst)
    for word in entropy[_POOL_SIZE:]:  # entropy beyond the pool: each word into every pool word
        pool = _mix(pool, _hashmix(word, chain, step, _POOL_SIZE))
        step += _POOL_SIZE

    # generate_state(4, np.uint64): 8 uint32 words cycling over the pool, paired little-endian
    n_words = 2 * _POOL_SIZE
    state = _hashmix(np.tile(pool, (2, 1)), _multiplier_chain(_INIT_B, _MULT_B, n_words), 0, n_words)
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


class _StreamSeed(ISeedSequence):
    """Hands PCG64 one precomputed row of _stream_state_words."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if (n_words, dtype) != (_POOL_SIZE, np.uint64):
            raise ValueError("a stream seed holds the 4 uint64 words PCG64 asks for, nothing else")
        return self.words


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
    n, nbr = network.n_buses, network.n_branches
    columns = MeasurementColumns(
        quantity=np.concatenate([np.repeat([_V, _P, _Q], n), np.tile([_PF, _PF, _QF, _QF], nbr)]),
        bus=np.concatenate([np.tile(np.arange(n), 3), np.full(4 * nbr, -1)]),
        branch=np.concatenate([np.full(3 * n, -1), np.repeat(np.arange(nbr), 4)]),
        to_end=np.concatenate([np.full(3 * n, -1), np.tile([0, 1, 0, 1], nbr)]),
    )
    sigmas = np.repeat([sigma_v, sigma_inj, sigma_flow], [n, 2 * n, 4 * nbr])
    return MeasurementSet(columns, np.full(len(sigmas), np.nan), sigmas)
