"""Measurement functions, their analytic Jacobian, and synthetic metering.

A measurement set is one table of read-only arrays: index columns (quantity
code, bus index, branch index, measured end), values z and standard
deviations sigma. A plan is a set whose values are NaN. h(x) covers voltage
magnitude, bus injection and branch flow quantities; h(x) and H(x) are array
expressions over the set's voltage, injection and flow row groups, derived
once per set: injection rows of h gather from the power flow's stacked
[P; Q] at bus + n for Q, those of H are the complex dS/dV at Y's pattern
(real part for P, imaginary for Q), flow rows are pi-model terms over the
network's per-branch arrays. H's columns are the coordinates the estimator
steps; jacobian_h states their layout. H is built once as (row, column,
value) entries and stored as a dense array below SPARSE_MIN_COLUMNS columns
and as a scipy.sparse.csr_array from there up, where it is a few percent
non-zero (2.1% on a 112-bus mesh); the constant's comment gives the
measured crossover.

Synthetic measurements are drawn from independent per-measurement PCG64
streams keyed by (seed, measurement index), so generation is a pure function
of its inputs and adding a measurement never perturbs the draws of others.
Each stream is the one `np.random.default_rng([seed, index])` gives; the
SeedSequence hash that seeds them runs once over the whole index column, as
uint32 array arithmetic equal to numpy's, instead of once per measurement.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

from .network import Network
from .powerflow import StateVector, _ds_dv_entries, calc_injections

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

# jacobian_h returns H as a scipy.sparse.csr_array from this many columns
# (2n - 1, so from 51 buses) up and as a dense array below. Dense vs CSR H
# plus gain on the full plan, median of 41 calls on tiled IEEE-14 grids, one
# BLAS thread, 2-core VM: 0.22 vs 0.62 ms at 28 buses (55 columns), 0.50 vs
# 0.75 ms at 42 (83), 1.39 vs 0.87 ms at 56 (111), 5.9 vs 1.2 ms at 112 and
# 32 vs 2.6 ms at 224.
SPARSE_MIN_COLUMNS = 100

# quantity codes of the columns index QUANTITIES, bus quantities first; flow
# rows' to_end codes index ENDS
QUANTITIES = (V_MAG, P_INJ, Q_INJ, P_FLOW, Q_FLOW)
_V, _P, _Q, _PF, _QF = range(len(QUANTITIES))
ENDS = (FROM, TO)


class MeasurementRowError(ValueError):
    """A measurement row whose index entries do not fit its quantity, or whose
    sigma has no weight: `row` is its 0-based index, `field` "columns" or "sigmas"."""

    def __init__(self, row: int, reason: str, field: str = "columns"):
        super().__init__(f"measurement {row}: {reason}")
        self.row = row
        self.reason = reason
        self.field = field


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


def _weightless(sigmas: np.ndarray) -> np.ndarray:
    """True where a sigma is not > 0 or its weight 1/sigma**2 is not finite and > 0, warning-free."""
    with np.errstate(all="ignore"):
        weights = 1.0 / sigmas ** 2
    return ~((sigmas > 0) & (weights > 0) & (weights < np.inf))


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
        bad = np.flatnonzero(_weightless(sigmas))
        if bad.size:
            raise MeasurementRowError(int(bad[0]), f"sigma {sigmas[bad[0]]} must be > 0 with a finite weight "
                                                   "1/sigma**2 > 0", field="sigmas")
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

    @cached_property
    def _row_groups(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows of the voltage, the injection and the flow quantities: three
        read-only index arrays, each ascending, that partition the rows."""
        q = self.columns.quantity
        groups = (q == _V, (q == _P) | (q == _Q), q >= _PF)
        return tuple(_read_only(np.flatnonzero(group), np.intp) for group in groups)

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


def _check_bus_count(state: StateVector, network: Network, name: str) -> None:
    if state.n_buses != network.n_buses:
        raise ValueError(f"{name} has {state.n_buses} buses, the network has {network.n_buses}")


def _flow_ends(cols: MeasurementColumns, rows: np.ndarray, network: Network):
    """Per flow row: its branch k, measured-end bus i and far-end bus j."""
    br = network.branch_arrays
    k = cols.branch[rows]
    to_end = cols.to_end[rows]
    return k, np.where(to_end, br.to_idx[k], br.from_idx[k]), np.where(to_end, br.from_idx[k], br.to_idx[k])


def _flow_terms(cols: MeasurementColumns, rows: np.ndarray, state: StateVector, network: Network):
    """Per flow row: V_i, V_j at its measured-end bus i and far-end bus j, cos
    and sin of theta_i - theta_j, and the branch's g, b and b_sh."""
    br = network.branch_arrays
    k, i, j = _flow_ends(cols, rows, network)
    vm, th = state.magnitudes, state.angles
    thij = th[i] - th[j]
    return vm[i], vm[j], np.cos(thij), np.sin(thij), br.g[k], br.b[k], br.b_sh[k]


def evaluate_h(mset: MeasurementSet, state: StateVector, network: Network, ybus: np.ndarray) -> np.ndarray:
    """h(x) for every row of the set, in row order."""
    cols = mset.columns
    v_rows, inj_rows, flow_rows = mset._row_groups
    h = np.empty(len(mset))
    h[v_rows] = state.magnitudes[cols.bus[v_rows]]
    if inj_rows.size:  # position in [P; Q]: the bus, plus n for Q
        stacked = cols.bus[inj_rows] + network.n_buses * (cols.quantity[inj_rows] == _Q)
        h[inj_rows] = calc_injections(state, ybus)[stacked]
    vi, vj, c, s, g, b, bsh = _flow_terms(cols, flow_rows, state, network)
    h[flow_rows] = np.where(cols.quantity[flow_rows] == _PF, vi * vi * g - vi * vj * (g * c + b * s),
                            -vi * vi * (b + bsh) - vi * vj * (g * s - b * c))
    return h


def _flow_derivatives(cols: MeasurementColumns, rows: np.ndarray, state: StateVector, network: Network):
    """Per flow row, its derivatives along theta_i, theta_j, |V_i| and |V_j|,
    in that order, i its measured-end bus and j its far-end bus."""
    vi, vj, c, s, g, b, bsh = _flow_terms(cols, rows, state, network)
    is_p = cols.quantity[rows] == _PF
    dth_i = np.where(is_p, vi * vj * (g * s - b * c), -vi * vj * (g * c + b * s))
    return (dth_i, -dth_i,
            np.where(is_p, 2 * vi * g - vj * (g * c + b * s), -2 * vi * (b + bsh) - vj * (g * s - b * c)),
            np.where(is_p, -vi * (g * c + b * s), -vi * (g * s - b * c)))


class _JacobianLayout(NamedTuple):
    """Where H's entries of one set on one network sit; no state changes it.

    Entries come in the order of _jacobian_values: one per voltage row, then
    the injection rows' dS/dtheta and dS/d|V| entries at Y's pattern, then
    four per flow row. No (row, column) repeats.
    """

    network: Network       # the network it was derived for
    rows: np.ndarray       # per entry, its row
    columns: np.ndarray    # per entry, its column in the (m, 2n) frame; the slack angle's is 2n - 1
    inj_bus: np.ndarray    # per injection entry pair, its row's bus i ...
    inj_k: np.ndarray      # ... and its pattern position's bus k
    is_q: np.ndarray       # per dS entry (both halves), whether its row is a Q injection
    csr_take: np.ndarray   # the entries outside the slack angle's column, in CSR order
    csr_indptr: np.ndarray


def _jacobian_layout(mset: MeasurementSet, network: Network) -> _JacobianLayout:
    """The set's layout on `network`, derived on the first call and kept on
    the set until it is asked for on another network. Threads sharing a set
    need no lock: each call returns the layout it checked or derived, and the
    set keeps whichever was stored last."""
    layout = mset.__dict__.get("_jacobian_layout")
    if layout is not None and layout.network is network:
        return layout
    cols = mset.columns
    v_rows, inj_rows, flow_rows = mset._row_groups
    n = network.n_buses
    y_ptr, y_idx = network.admittance_pattern
    bus = cols.bus[inj_rows]
    count = y_ptr[bus + 1] - y_ptr[bus]
    entry_row = np.repeat(np.arange(bus.size), count)  # per entry pair, its row among the injection rows
    k = y_idx[np.arange(entry_row.size) - np.repeat(np.cumsum(count) - count - y_ptr[bus], count)]
    _, i, j = _flow_ends(cols, flow_rows, network)
    inj_entry_rows, is_q = inj_rows[entry_row], (cols.quantity[inj_rows] == _Q)[entry_row]
    rows = np.concatenate([v_rows, inj_entry_rows, inj_entry_rows, flow_rows, flow_rows, flow_rows, flow_rows])
    # H's column of each stacked [theta; |V|] coordinate; the slack angle gets 2n - 1, one past the last
    h_col = np.arange(2 * n) - (np.arange(2 * n) > network.slack_index)
    h_col[network.slack_index] = 2 * n - 1
    columns = h_col[np.concatenate([n + cols.bus[v_rows], k, n + k, i, j, n + i, n + j])]
    take = np.flatnonzero(columns < 2 * n - 1)
    take = take[np.argsort(rows[take], kind="stable")]
    layout = _JacobianLayout(network, rows, columns, bus[entry_row], k, np.concatenate([is_q, is_q]), take,
                             np.concatenate([[0], np.cumsum(np.bincount(rows[take], minlength=len(mset)))]))
    object.__setattr__(mset, "_jacobian_layout", layout)
    return layout


def _jacobian_values(mset: MeasurementSet, layout: _JacobianLayout, state: StateVector, ybus: np.ndarray):
    """H's entries in the layout's order: 1 for a voltage row, the complex
    dS/dV's real part for a P row and imaginary part for a Q row, computed at
    the pattern's entries alone, and the flow rows' pi-model derivatives."""
    ds = np.concatenate(_ds_dv_entries(state, ybus, layout.inj_bus, layout.inj_k))
    v_rows, _, flow_rows = mset._row_groups
    return np.concatenate([np.ones(v_rows.size), np.where(layout.is_q, ds.imag, ds.real),
                           *_flow_derivatives(mset.columns, flow_rows, state, layout.network)])


def jacobian_h(mset: MeasurementSet, state: StateVector, network: Network, ybus: np.ndarray):
    """Analytic Jacobian of h, shape (m, 2n - 1): its columns are the stacked
    [theta; |V|] coordinates without the slack angle, in order.

    The return type depends on the grid size: below SPARSE_MIN_COLUMNS
    columns a dense float array (a column slice of a C-ordered (m, 2n)
    array), from there up a scipy.sparse.csr_array. Both are scattered from
    the same entries, so they hold the same values bit for bit.
    """
    n = network.n_buses
    if 2 * n - 1 >= SPARSE_MIN_COLUMNS:
        return _jacobian_csr(mset, state, network, ybus)
    layout = _jacobian_layout(mset, network)
    h_mat = np.zeros((len(mset), 2 * n))
    h_mat[layout.rows, layout.columns] = _jacobian_values(mset, layout, state, ybus)
    return h_mat[:, : 2 * n - 1]


def _jacobian_csr(mset: MeasurementSet, state: StateVector, network: Network, ybus: np.ndarray):
    """jacobian_h as a scipy.sparse.csr_array, for any grid size; the entries
    in the slack angle's column are dropped."""
    # imported here, not at the top: after `import gridse.cli` it takes another
    # 16-22 ms (python -X importtime) and 1.6 MB of peak RSS, which grids
    # below SPARSE_MIN_COLUMNS never need
    import scipy.sparse
    layout = _jacobian_layout(mset, network)
    take = layout.csr_take
    values = _jacobian_values(mset, layout, state, ybus)[take]
    return scipy.sparse.csr_array((values, layout.columns[take], layout.csr_indptr.copy()),
                                  shape=(len(mset), 2 * network.n_buses - 1))


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
    _check_bus_count(truth, network, "truth state")
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
        if _weightless(np.float64(s)):
            raise ValueError(f"{name} must be > 0 with a finite weight 1/{name}**2 > 0, got {s}")
    n, nbr = network.n_buses, network.n_branches
    columns = MeasurementColumns(
        quantity=np.concatenate([np.repeat([_V, _P, _Q], n), np.tile([_PF, _PF, _QF, _QF], nbr)]),
        bus=np.concatenate([np.tile(np.arange(n), 3), np.full(4 * nbr, -1)]),
        branch=np.concatenate([np.full(3 * n, -1), np.repeat(np.arange(nbr), 4)]),
        to_end=np.concatenate([np.full(3 * n, -1), np.tile([0, 1, 0, 1], nbr)]),
    )
    sigmas = np.repeat([sigma_v, sigma_inj, sigma_flow], [n, 2 * n, 4 * nbr])
    return MeasurementSet(columns, np.full(len(sigmas), np.nan), sigmas)
