"""Case-file ingestion, snapshot experiments and report emission.

Case bundles are directories holding buses.csv and lines.csv (headers below)
plus an optional case.json with the MVA base and optional per-bus load
weights (a "version" key there is accepted and ignored). One estimation run
solves a truth power flow, synthesizes measurements from a seed and
estimates; `estimate` runs it once, and snapshot runs scale the loads and run
it per snapshot with a derived seed and one-snapshot memory (each snapshot
warm-starts from the latest converged estimate).
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .controller import SwitchedSystem, discretize, output_gain
from .estimator import EstimationResult, estimate
from .measurements import (
    ENDS,
    FROM,
    QUANTITIES,
    TO,
    MeasurementColumns,
    MeasurementRowError,
    MeasurementSet,
    _checked_seed,
    full_measurement_plan,
    generate_measurements,
)
from .network import (
    Branch,
    Bus,
    BusKind,
    DanglingBranchEndpoint,
    DisconnectedGraph,
    Network,
    NetworkError,
    ParameterError,
    build_network,
    with_scaled_loads,
)
from .powerflow import StateVector, solve_power_flow

BUSES_FILE = "buses.csv"
LINES_FILE = "lines.csv"
CASE_FILE = "case.json"
BUS_COLUMNS = ["bus", "vsp_pu", "pg_mw", "qg_mvar", "pl_mw", "ql_mvar"]
LINE_COLUMNS = ["from_bus", "to_bus", "r_pu", "x_pu", "b_half_pu"]
MEASUREMENT_COLUMNS = ["kind", "bus", "branch", "end", "value_pu", "sigma_pu"]
REPORT_COLUMNS = ["snapshot", "bus", "v_true_pu", "v_est_pu", "angle_true_deg", "angle_est_deg",
                  "iterations", "objective", "converged"]


class CaseFileError(ValueError):
    """Parse failure in a case or data file, with position information."""

    def __init__(self, file, line: int, column: str, reason: str):
        self.file = str(file)
        self.line = line
        self.column = column
        self.reason = reason
        super().__init__(f"{self.file}:{line}: column '{column}': {reason}")


class TruthNotConverged(RuntimeError):
    """The truth power flow of an estimation run did not converge."""


@dataclass(frozen=True)
class CaseBundle:
    network: Network
    bus_load_weights: dict


def builtin_case_dir(name: str) -> Path:
    return Path(__file__).parent / "cases" / name


def resolve_case_dir(name_or_path: str) -> Path:
    """A case argument is either a directory path or the name of a shipped case."""
    p = Path(name_or_path)
    if p.is_dir():
        return p
    builtin = builtin_case_dir(name_or_path)
    if builtin.is_dir():
        return builtin
    raise CaseFileError(name_or_path, 0, "-", "case directory not found")


def _parse_float(cell: str, path, line_no: int, column: str, positive: bool = False) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise CaseFileError(path, line_no, column, f"cannot parse {cell!r} as a number") from None
    if not math.isfinite(value) or (positive and value <= 0):
        raise CaseFileError(path, line_no, column, f"{cell!r} is not a {'positive ' * positive}finite number")
    return value


def _parse_int(cell: str, path, line_no: int, column: str) -> int:
    try:
        return int(cell)
    except ValueError:
        raise CaseFileError(path, line_no, column, f"cannot parse {cell!r} as an integer") from None


_INDEX_END = np.iinfo(np.intp).max


def _parse_index(cell: str, path, line_no: int, column: str, lowest: int) -> int:
    value = _parse_int(cell, path, line_no, column)
    if not lowest <= value < _INDEX_END:
        raise CaseFileError(path, line_no, column, f"{cell!r} is not an index >= {lowest}")
    return value


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CaseFileError(path, 0, "-", f"cannot read file: {exc}") from exc
    except UnicodeDecodeError as exc:
        line = exc.object[: exc.start].count(b"\n") + 1
        raise CaseFileError(path, line, "-", f"not UTF-8 text: {exc.reason}") from None


def _read_rows(path: Path, required_columns: list, optional: tuple = ()):
    reader = csv.reader(io.StringIO(_read_text(path)))
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise CaseFileError(path, reader.line_num, "-", str(exc)) from None
    if not rows:
        raise CaseFileError(path, 1, "-", "file is empty")
    header = [c.strip() for c in rows[0]]
    allowed = required_columns + list(optional)
    if header[: len(required_columns)] != required_columns or any(
        c not in allowed for c in header
    ):
        raise CaseFileError(
            path, 1, "-", f"expected header {','.join(required_columns)}, got {','.join(header)}"
        )
    out = []
    for line_no, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(header):
            raise CaseFileError(path, line_no, "-", f"expected {len(header)} cells, got {len(row)}")
        out.append((line_no, dict(zip(header, (c.strip() for c in row)))))
    return out


_KIND_NAMES = {"slack": BusKind.SLACK, "pv": BusKind.PV, "pq": BusKind.PQ}


def load_case(dir_path) -> CaseBundle:
    """Parse and validate a case directory into a CaseBundle. Every error is a
    CaseFileError naming its file, and the line where one row is at fault."""
    directory = Path(dir_path)
    buses_path = directory / BUSES_FILE
    lines_path = directory / LINES_FILE

    buses, bus_lines = [], []
    for line_no, rec in _read_rows(buses_path, BUS_COLUMNS, optional=("kind",)):
        kind = None
        if rec.get("kind"):
            key = rec["kind"].lower()
            if key not in _KIND_NAMES:
                raise CaseFileError(buses_path, line_no, "kind", f"unknown bus kind {rec['kind']!r}")
            kind = _KIND_NAMES[key]
        buses.append(Bus(
            id=_parse_index(rec["bus"], buses_path, line_no, "bus", 1),
            v_setpoint=_parse_float(rec["vsp_pu"], buses_path, line_no, "vsp_pu", positive=True),
            p_gen=_parse_float(rec["pg_mw"], buses_path, line_no, "pg_mw"),
            q_gen=_parse_float(rec["qg_mvar"], buses_path, line_no, "qg_mvar"),
            p_load=_parse_float(rec["pl_mw"], buses_path, line_no, "pl_mw"),
            q_load=_parse_float(rec["ql_mvar"], buses_path, line_no, "ql_mvar"),
            kind=kind,
        ))
        bus_lines.append(line_no)

    branches, branch_lines = [], []
    for line_no, rec in _read_rows(lines_path, LINE_COLUMNS):
        try:
            branches.append(Branch(
                from_bus=_parse_int(rec["from_bus"], lines_path, line_no, "from_bus"),
                to_bus=_parse_int(rec["to_bus"], lines_path, line_no, "to_bus"),
                resistance=_parse_float(rec["r_pu"], lines_path, line_no, "r_pu"),
                reactance=_parse_float(rec["x_pu"], lines_path, line_no, "x_pu"),
                half_charging=_parse_float(rec["b_half_pu"], lines_path, line_no, "b_half_pu"),
            ))
        except NetworkError as exc:
            raise CaseFileError(lines_path, line_no, "-", str(exc)) from exc
        branch_lines.append(line_no)

    case_path = directory / CASE_FILE
    if case_path.is_file():
        base_mva, weights = _read_case_meta(case_path)
    else:
        base_mva, weights = 100.0, {}

    try:
        network = build_network(buses, branches, base_mva=base_mva)
    except NetworkError as exc:
        on_lines = isinstance(exc, (DanglingBranchEndpoint, DisconnectedGraph))
        path, lines = (lines_path, branch_lines) if on_lines else (buses_path, bus_lines)
        raise CaseFileError(path, 0 if exc.row is None else lines[exc.row], "-", str(exc)) from exc
    for bus_id in weights:
        if not (1 <= bus_id <= network.n_buses):
            raise CaseFileError(case_path, 0, "bus_load_weights", f"bus {bus_id} does not exist")
    return CaseBundle(network=network, bus_load_weights=weights)


def _read_json_object(path: Path, name: str) -> dict:
    """The JSON object held in `path`; a decode error names its line, and a
    value that is not an object line 1."""
    try:
        value = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise CaseFileError(path, exc.lineno, "-", exc.msg) from exc
    except RecursionError:
        raise CaseFileError(path, 0, "-", "JSON nested too deeply") from None
    if not isinstance(value, dict):
        raise CaseFileError(path, 1, "-", f"{name} must be a JSON object")
    return value


def _read_case_meta(path: Path):
    """(base_mva, bus load weights) from a case.json file."""
    meta = _read_json_object(path, CASE_FILE)

    def number(value, column: str, positive: bool) -> float:
        try:
            x = float(value)
        except (TypeError, ValueError, OverflowError):
            x = math.nan
        if isinstance(value, bool) or not math.isfinite(x) or x < 0 or (positive and x == 0):
            sign = "positive" if positive else "non-negative"
            raise CaseFileError(path, 0, column, f"expected a {sign} finite number, got {value!r}")
        return x

    base_mva = number(meta.get("base_mva", 100.0), "base_mva", positive=True)
    raw = meta.get("bus_load_weights", {})
    if not isinstance(raw, dict) or not all(key.strip().isdecimal() for key in raw):
        raise CaseFileError(path, 0, "bus_load_weights", "expected an object of bus id -> weight")
    weights = {int(key): number(w, "bus_load_weights", positive=False) for key, w in raw.items()}
    return base_mva, weights


def _csv_text(header, rows) -> str:
    """CSV text of a header and rows of string cells, each line ended by "\n".
    No cell is quoted, so none may hold a comma, a quote or a line break."""
    return "\n".join([",".join(header), *map(",".join, rows)]) + "\n"


def write_measurements_csv(mset: MeasurementSet, path) -> None:
    """Write a set as CSV; -1 index entries become empty bus, branch and end
    cells, and NaN values (a plan) empty value cells."""
    rows = ([QUANTITIES[q], "" if bus < 0 else str(bus + 1), "" if branch < 0 else str(branch),
             "" if to_end < 0 else ENDS[to_end], "" if math.isnan(value) else repr(value), repr(sigma)]
            for q, bus, branch, to_end, value, sigma in zip(*(c.tolist() for c in mset.columns),
                                                             mset.values.tolist(), mset.sigmas.tolist()))
    with open(path, "w", newline="") as fh:
        fh.write(_csv_text(MEASUREMENT_COLUMNS, rows))


def _read_measurement_table(path, metered: bool) -> MeasurementSet:
    """Rows of a measurement CSV as one set; an empty bus, branch or end cell
    is -1 in its column, and a plan (metered=False) takes NaN values."""
    path = Path(path)
    rows, line_nos, values, sigmas = [], [], [], []
    for line_no, rec in _read_rows(path, MEASUREMENT_COLUMNS):
        bus = _parse_index(rec["bus"], path, line_no, "bus", 1) - 1 if rec["bus"] else -1
        branch = _parse_index(rec["branch"], path, line_no, "branch", 0) if rec["branch"] else -1
        if rec["end"] and rec["end"] not in ENDS:
            raise CaseFileError(path, line_no, "end", f"end must be '{FROM}' or '{TO}', got {rec['end']!r}")
        if rec["kind"] not in QUANTITIES:
            raise CaseFileError(path, line_no, "kind", f"unknown measurement quantity {rec['kind']!r}")
        rows.append((QUANTITIES.index(rec["kind"]), bus, branch, ENDS.index(rec["end"]) if rec["end"] else -1))
        line_nos.append(line_no)
        if metered:
            if not rec["value_pu"]:
                raise CaseFileError(path, line_no, "value_pu", "measurement value missing")
            values.append(_parse_float(rec["value_pu"], path, line_no, "value_pu"))
        sigmas.append(_parse_float(rec["sigma_pu"], path, line_no, "sigma_pu", positive=True))
    columns = MeasurementColumns(*np.array(rows, dtype=np.intp).reshape(-1, 4).T)
    try:
        return MeasurementSet(columns, values if metered else np.full(len(rows), np.nan), sigmas)
    except MeasurementRowError as exc:
        column = "sigma_pu" if exc.field == "sigmas" else "kind"
        raise CaseFileError(path, line_nos[exc.row], column, exc.reason) from exc


def read_measurements_csv(path) -> MeasurementSet:
    return _read_measurement_table(path, metered=True)


def read_plan_csv(path) -> MeasurementSet:
    return _read_measurement_table(path, metered=False)


@dataclass(frozen=True)
class SnapshotRecord:
    """One snapshot of a run: its truth state and EstimationResult, or the
    error that stopped it (truth and result None)."""

    truth: Optional[StateVector]
    result: Optional[EstimationResult]
    error: Optional[str] = None


def derive_snapshot_seed(seed: int, snapshot: int) -> int:
    """Deterministic per-snapshot seed from (run seed, snapshot index)."""
    return int(np.random.SeedSequence([_checked_seed(seed), int(snapshot)]).generate_state(1, np.uint64)[0])


def run_estimation(network: Network, plan: MeasurementSet, seed: int,
                   start: Optional[StateVector] = None, noise: bool = True) -> tuple:
    """One static estimation run: (truth state, EstimationResult).

    Solves the truth power flow (raising TruthNotConverged when it does not
    converge), meters `plan` at that truth with `seed`, and estimates
    warm-started from `start` (flat start when None).
    """
    pf = solve_power_flow(network)
    if not pf.converged:
        raise TruthNotConverged(f"truth power flow did not converge (max mismatch {pf.max_mismatch:.3e})")
    mset = generate_measurements(pf.state, plan, seed, network, network.ybus, noise=noise)
    return pf.state, estimate(network, mset, start)


def run_snapshots(bundle: CaseBundle, load_scale, seed: int) -> tuple:
    """The multi-snapshot estimation loop with one-snapshot memory: one
    SnapshotRecord per entry of `load_scale`, in order.

    Snapshot k scales all loads by load_scale[k] (times any per-bus weight
    from case.json) and makes one estimation run on the full measurement plan
    (built once: the topology is fixed) with the seed derived from (seed, k),
    warm-started from the latest converged estimate (flat start before the
    first). A snapshot whose solver fails is recorded with an error, one
    whose estimate does not converge with result.converged False, and the
    run continues.
    """
    scales = tuple(float(s) for s in load_scale)
    if not scales:
        raise ParameterError("load_scale", "load_scale needs at least one entry")
    if not all(0 < s < math.inf for s in scales):
        raise ParameterError("load_scale", f"load_scale entries must be finite and > 0, got {scales}")
    seed = _checked_seed(seed)
    records = []
    previous: Optional[StateVector] = None
    meters = full_measurement_plan(bundle.network)
    for k, scale in enumerate(scales):
        try:
            net_k = with_scaled_loads(bundle.network, scale, bundle.bus_load_weights)
            truth, result = run_estimation(net_k, meters, derive_snapshot_seed(seed, k), previous)
        except (NetworkError, RuntimeError, np.linalg.LinAlgError) as exc:
            records.append(SnapshotRecord(truth=None, result=None, error=str(exc)))
            continue
        if result.converged:
            previous = result.state
        records.append(SnapshotRecord(truth=truth, result=result))
    return tuple(records)


def report_rows(records) -> list:
    """Flattened per-bus rows for emission, bus ids 1..n; failed snapshots
    contribute none.

    Voltages and angles are rounded to the 4 decimals the report format
    prints, so CSV and JSON emissions agree field-for-field.
    """
    rows = []
    for k, rec in enumerate(records):
        if rec.result is None:
            continue
        truth, result, n = rec.truth, rec.result, rec.truth.n_buses
        per_bus = ([round(v, 4) for v in column.tolist()] for column in (
            truth.magnitudes, result.state.magnitudes, np.degrees(truth.angles), np.degrees(result.state.angles)))
        columns = [[k] * n, range(1, n + 1), *per_bus, [result.iterations] * n,
                   [round(float(result.objective), 6)] * n, [bool(result.converged)] * n]
        rows += (dict(zip(REPORT_COLUMNS, row)) for row in zip(*columns))
    return rows


def render_report_csv(records) -> str:
    four = "{:.4f}".format
    formats = (str, str, four, four, four, four, str, "{:.6f}".format,  # one per REPORT_COLUMNS entry
               lambda converged: "true" if converged else "false")
    rows = ([f(v) for f, v in zip(formats, row.values())] for row in report_rows(records))
    return _csv_text(REPORT_COLUMNS, rows)


def render_report_json(records) -> str:
    return json.dumps({"rows": report_rows(records)}, indent=2) + "\n"


def load_switched_system(path):
    """Read a SwitchedSystem and its optional scalar output gain from JSON.

    The config provides either A and b directly, or a continuous-time model
    {"continuous": {"a": ..., "b": ..., "dt": ...}} that is discretized by
    forward Euler. An optional "output" row gain y = gain . x is returned
    alongside the system (None without one). Values must be JSON numbers, one
    for alpha, beta and dt; the controller types check shape, finiteness and
    range. Every error is a CaseFileError naming the file, and the key where
    one key is at fault.
    """
    path = Path(path)
    raw = _read_json_object(path, "config")

    cont = raw.get("continuous", {})
    if not isinstance(cont, dict):
        raise CaseFileError(path, 0, "continuous", "expected an object")

    def numbers(table: dict, key: str) -> np.ndarray:
        if key not in table:
            raise CaseFileError(path, 0, key, "missing config key")
        items = np.array(table[key], dtype=object)  # a ragged row, or one past numpy's 64 dimensions, stays a list
        try:
            if all(type(x) in (int, float) for x in items.ravel()):  # no bool (numpy reads it as 1 or 0) or string
                return items.astype(float)
        except OverflowError:  # an int past the float range
            pass
        raise CaseFileError(path, 0, key, f"expected finite numbers, got {table[key]!r}")

    def number(table: dict, key: str) -> float:
        arr = numbers(table, key)
        if arr.ndim:
            raise CaseFileError(path, 0, key, f"expected one number, got {table[key]!r}")
        return arr.item()

    try:
        if "continuous" in raw:
            a_mat, b_vec = discretize(numbers(cont, "a"), numbers(cont, "b"), number(cont, "dt"))
        else:
            a_mat, b_vec = numbers(raw, "A"), numbers(raw, "b")
        system = SwitchedSystem(A=a_mat, b=b_vec, alpha=number(raw, "alpha"), beta=number(raw, "beta"),
                                Q=numbers(raw, "Q"), r=numbers(raw, "r"))
        return system, output_gain(system, numbers(raw, "output")) if "output" in raw else None
    except ParameterError as exc:
        key = exc.parameter if exc.parameter in raw or exc.parameter in cont else "-"
        raise CaseFileError(path, 0, key, str(exc)) from exc
