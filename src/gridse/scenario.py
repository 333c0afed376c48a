"""Case-file ingestion, snapshot experiments and report emission.

Case bundles are directories holding buses.csv and lines.csv (headers below)
plus an optional case.json with the MVA base, a format version tag and
optional per-bus load weights. Snapshot runs scale the loads, solve a truth
power flow, synthesize measurements from a per-snapshot derived seed and
estimate with one-snapshot memory (each snapshot warm-starts from the
latest converged estimate).
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

from .controller import SwitchedSystem, discretize
from .estimator import EstimatorConfig, SingularGain, estimate
from .measurements import (
    FROM,
    TO,
    MeasurementKind,
    MeasurementSet,
    full_measurement_plan,
    generate_measurements,
)
from .network import (
    Branch,
    BusKind,
    BusRow,
    Network,
    NetworkError,
    build_network,
    buses_from_rows,
    with_scaled_loads,
)
from .powerflow import SingularJacobian, StateVector, solve_power_flow

BUSES_FILE = "buses.csv"
LINES_FILE = "lines.csv"
CASE_FILE = "case.json"
BUS_COLUMNS = ["bus", "vsp_pu", "pg_mw", "qg_mvar", "pl_mw", "ql_mvar"]
LINE_COLUMNS = ["from_bus", "to_bus", "r_pu", "x_pu", "b_half_pu"]
MEASUREMENT_COLUMNS = ["kind", "bus", "branch", "end", "value_pu", "sigma_pu"]
REPORT_COLUMNS = [
    "snapshot",
    "bus",
    "v_true_pu",
    "v_est_pu",
    "angle_true_deg",
    "angle_est_deg",
    "iterations",
    "objective",
    "converged",
]


class CaseFileError(ValueError):
    """Parse failure in a case or data file, with position information."""

    def __init__(self, file, line: int, column: str, reason: str):
        self.file = str(file)
        self.line = line
        self.column = column
        self.reason = reason
        super().__init__(f"{self.file}:{line}: column '{column}': {reason}")


@dataclass(frozen=True)
class CaseBundle:
    network: Network
    directory: str
    buses_path: str
    lines_path: str
    case_path: Optional[str]
    version: str
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


def _parse_float(cell: str, path, line_no: int, column: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise CaseFileError(path, line_no, column, f"cannot parse {cell!r} as a number") from None
    if not math.isfinite(value):
        raise CaseFileError(path, line_no, column, f"{cell!r} is not a finite number")
    return value


def _parse_int(cell: str, path, line_no: int, column: str) -> int:
    try:
        return int(cell)
    except ValueError:
        raise CaseFileError(path, line_no, column, f"cannot parse {cell!r} as an integer") from None


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
    """Parse and validate a case directory into a CaseBundle."""
    directory = Path(dir_path)
    buses_path = directory / BUSES_FILE
    lines_path = directory / LINES_FILE

    bus_rows = []
    for line_no, rec in _read_rows(buses_path, BUS_COLUMNS, optional=("kind",)):
        kind = None
        if rec.get("kind"):
            key = rec["kind"].lower()
            if key not in _KIND_NAMES:
                raise CaseFileError(buses_path, line_no, "kind", f"unknown bus kind {rec['kind']!r}")
            kind = _KIND_NAMES[key]
        bus_rows.append(
            (
                line_no,
                BusRow(
                    id=_parse_int(rec["bus"], buses_path, line_no, "bus"),
                    v_setpoint=_parse_float(rec["vsp_pu"], buses_path, line_no, "vsp_pu"),
                    p_gen=_parse_float(rec["pg_mw"], buses_path, line_no, "pg_mw"),
                    q_gen=_parse_float(rec["qg_mvar"], buses_path, line_no, "qg_mvar"),
                    p_load=_parse_float(rec["pl_mw"], buses_path, line_no, "pl_mw"),
                    q_load=_parse_float(rec["ql_mvar"], buses_path, line_no, "ql_mvar"),
                    kind=kind,
                ),
            )
        )
    if not bus_rows:
        raise CaseFileError(buses_path, 1, "-", "no bus rows")

    branches = []
    for line_no, rec in _read_rows(lines_path, LINE_COLUMNS):
        try:
            branches.append(
                Branch(
                    from_bus=_parse_int(rec["from_bus"], lines_path, line_no, "from_bus"),
                    to_bus=_parse_int(rec["to_bus"], lines_path, line_no, "to_bus"),
                    resistance=_parse_float(rec["r_pu"], lines_path, line_no, "r_pu"),
                    reactance=_parse_float(rec["x_pu"], lines_path, line_no, "x_pu"),
                    half_charging=_parse_float(rec["b_half_pu"], lines_path, line_no, "b_half_pu"),
                )
            )
        except NetworkError as exc:
            raise CaseFileError(lines_path, line_no, "-", str(exc)) from exc

    case_path = directory / CASE_FILE
    if case_path.is_file():
        base_mva, version, weights = _read_case_meta(case_path)
    else:
        case_path, base_mva, version, weights = None, 100.0, "1", {}

    try:
        buses = buses_from_rows([row for _, row in bus_rows])
    except NetworkError as exc:
        raise CaseFileError(buses_path, bus_rows[0][0], "-", str(exc)) from exc
    network = build_network(buses, branches, base_mva=base_mva)
    for bus_id in weights:
        if not (1 <= bus_id <= network.n_buses):
            raise CaseFileError(case_path, 0, "bus_load_weights", f"bus {bus_id} does not exist")
    return CaseBundle(
        network=network,
        directory=str(directory),
        buses_path=str(buses_path),
        lines_path=str(lines_path),
        case_path=str(case_path) if case_path else None,
        version=version,
        bus_load_weights=weights,
    )


def _read_case_meta(path: Path):
    """(base_mva, version, bus load weights) from a case.json file."""
    try:
        meta = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise CaseFileError(path, exc.lineno, "-", exc.msg) from exc
    if not isinstance(meta, dict):
        raise CaseFileError(path, 1, "-", "case.json must hold a JSON object")

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
    return base_mva, str(meta.get("version", "1")), weights


def write_measurements_csv(mset: MeasurementSet, path) -> None:
    """Write a set as CSV; NaN values (a plan) become empty value cells."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(MEASUREMENT_COLUMNS)
        for k, value, sigma in zip(mset.kinds, mset.values.tolist(), mset.sigmas.tolist()):
            w.writerow([k.quantity] + ["" if c is None else c for c in (k.bus, k.branch, k.end)]
                       + ["" if math.isnan(value) else repr(value), repr(sigma)])


def _parse_index(cell: str, path, line_no: int, column: str, lowest: int) -> int:
    value = _parse_int(cell, path, line_no, column)
    if not lowest <= value < np.iinfo(np.intp).max:
        raise CaseFileError(path, line_no, column, f"{cell!r} is not an index >= {lowest}")
    return value


def _kind_from_record(rec: dict, path, line_no: int) -> MeasurementKind:
    quantity = rec["kind"]
    bus = _parse_index(rec["bus"], path, line_no, "bus", 1) if rec["bus"] else None
    branch = _parse_index(rec["branch"], path, line_no, "branch", 0) if rec["branch"] else None
    end = rec["end"] or None
    if end is not None and end not in (FROM, TO):
        raise CaseFileError(path, line_no, "end", f"end must be '{FROM}' or '{TO}', got {end!r}")
    try:
        return MeasurementKind(quantity=quantity, bus=bus, branch=branch, end=end)
    except ValueError as exc:
        raise CaseFileError(path, line_no, "kind", str(exc)) from exc


def _read_measurement_table(path, metered: bool) -> MeasurementSet:
    """Rows of a measurement CSV; a plan (metered=False) takes NaN values."""
    path = Path(path)
    kinds, values, sigmas = [], [], []
    for line_no, rec in _read_rows(path, MEASUREMENT_COLUMNS):
        kinds.append(_kind_from_record(rec, path, line_no))
        if metered:
            if not rec["value_pu"]:
                raise CaseFileError(path, line_no, "value_pu", "measurement value missing")
            values.append(_parse_float(rec["value_pu"], path, line_no, "value_pu"))
        sigma = _parse_float(rec["sigma_pu"], path, line_no, "sigma_pu")
        if not sigma > 0:
            raise CaseFileError(path, line_no, "sigma_pu", f"sigma must be > 0, got {sigma}")
        sigmas.append(sigma)
    return MeasurementSet.from_kinds(kinds, values if metered else np.full(len(kinds), np.nan), sigmas)


def read_measurements_csv(path) -> MeasurementSet:
    return _read_measurement_table(path, metered=True)


def read_plan_csv(path) -> MeasurementSet:
    return _read_measurement_table(path, metered=False)


@dataclass(frozen=True)
class SnapshotPlan:
    snapshot_count: int
    load_scale: tuple          # one finite multiplier > 0 per snapshot
    seed: int
    noise: bool = True

    def __post_init__(self):
        object.__setattr__(self, "load_scale", tuple(float(s) for s in self.load_scale))
        if self.snapshot_count < 1:
            raise ValueError(f"snapshot_count must be >= 1, got {self.snapshot_count}")
        if len(self.load_scale) != self.snapshot_count:
            raise ValueError(
                f"load_scale has {len(self.load_scale)} entries for {self.snapshot_count} snapshots"
            )
        if not all(0 < s < math.inf for s in self.load_scale):
            raise ValueError(f"load_scale entries must be finite and > 0, got {self.load_scale}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class SnapshotRecord:
    index: int
    load_scale: float
    truth: Optional[StateVector]
    estimate: Optional[StateVector]
    iterations: int
    objective: float
    converged: bool
    error: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclass(frozen=True)
class SnapshotReport:
    records: tuple
    bus_ids: tuple

    @property
    def any_failed(self) -> bool:
        return any(r.failed for r in self.records)

    @property
    def all_converged(self) -> bool:
        return all(r.converged for r in self.records if not r.failed)


def derive_snapshot_seed(seed: int, snapshot: int) -> int:
    """Deterministic per-snapshot seed from (run seed, snapshot index)."""
    return int(np.random.SeedSequence([int(seed), int(snapshot)]).generate_state(1, np.uint64)[0])


def run_snapshots(bundle: CaseBundle, plan: SnapshotPlan) -> SnapshotReport:
    """The multi-snapshot estimation loop with one-snapshot memory.

    Snapshot k scales all loads by plan.load_scale[k] (times any per-bus
    weight from case.json), solves the truth power flow, meters the full
    measurement plan (built once: the topology is fixed) with the seed derived
    from (plan.seed, k), and estimates warm-started from the latest converged
    estimate (flat start before the first). A snapshot whose solver fails is
    recorded with an error, one whose estimate does not converge with
    converged=False, and the run continues.
    """
    records = []
    previous: Optional[StateVector] = None
    meters = full_measurement_plan(bundle.network)
    for k in range(plan.snapshot_count):
        scale = plan.load_scale[k]
        try:
            net_k = with_scaled_loads(bundle.network, scale, bundle.bus_load_weights)
            pf = solve_power_flow(net_k, tol=1e-8, max_iter=20)
            if not pf.converged:
                raise RuntimeError(
                    f"truth power flow did not converge (max mismatch {pf.max_mismatch:.3e})"
                )
            mset = generate_measurements(
                pf.state, meters, derive_snapshot_seed(plan.seed, k),
                net_k, net_k.ybus, noise=plan.noise,
            )
            est = estimate(net_k, mset, EstimatorConfig(start=previous))
        except (SingularGain, SingularJacobian, NetworkError, RuntimeError, np.linalg.LinAlgError) as exc:
            records.append(
                SnapshotRecord(
                    index=k, load_scale=scale, truth=None, estimate=None,
                    iterations=0, objective=float("nan"), converged=False, error=str(exc),
                )
            )
            continue
        if est.converged:
            previous = est.state
        records.append(
            SnapshotRecord(
                index=k,
                load_scale=scale,
                truth=pf.state,
                estimate=est.state,
                iterations=est.iterations,
                objective=est.objective,
                converged=est.converged,
            )
        )
    bus_ids = tuple(bus.id for bus in bundle.network.buses)
    return SnapshotReport(records=tuple(records), bus_ids=bus_ids)


def report_rows(report: SnapshotReport) -> list:
    """Flattened per-bus rows for emission; failed snapshots contribute none.

    Voltages and angles are rounded to the 4 decimals the report format
    prints, so CSV and JSON emissions agree field-for-field.
    """
    rows = []
    for rec in report.records:
        if rec.failed:
            continue
        for i, bus_id in enumerate(report.bus_ids):
            rows.append(
                {
                    "snapshot": rec.index,
                    "bus": bus_id,
                    "v_true_pu": round(float(rec.truth.magnitudes[i]), 4),
                    "v_est_pu": round(float(rec.estimate.magnitudes[i]), 4),
                    "angle_true_deg": round(float(np.degrees(rec.truth.angles[i])), 4),
                    "angle_est_deg": round(float(np.degrees(rec.estimate.angles[i])), 4),
                    "iterations": rec.iterations,
                    "objective": round(float(rec.objective), 6),
                    "converged": bool(rec.converged),
                }
            )
    return rows


def render_report_csv(report: SnapshotReport) -> str:
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(REPORT_COLUMNS)
    for row in report_rows(report):
        w.writerow(
            [
                row["snapshot"],
                row["bus"],
                f"{row['v_true_pu']:.4f}",
                f"{row['v_est_pu']:.4f}",
                f"{row['angle_true_deg']:.4f}",
                f"{row['angle_est_deg']:.4f}",
                row["iterations"],
                f"{row['objective']:.6f}",
                "true" if row["converged"] else "false",
            ]
        )
    return out.getvalue()


def render_report_json(report: SnapshotReport) -> str:
    return json.dumps({"rows": report_rows(report)}, indent=2) + "\n"


def load_switched_system(path):
    """Read a SwitchedSystem and its optional scalar output gain from JSON.

    The config provides either A and b directly, or a continuous-time model
    {"continuous": {"a": ..., "b": ..., "dt": ...}} that is discretized by
    forward Euler. An optional "output" row gain y = gain . x is returned
    alongside the system (None without one). A non-numeric or non-finite
    value is a CaseFileError naming the key.
    """
    path = Path(path)
    try:
        raw = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise CaseFileError(path, exc.lineno, "-", exc.msg) from exc
    if not isinstance(raw, dict):
        raise CaseFileError(path, 1, "-", "config must be a JSON object")

    def finite(table: dict, key: str) -> np.ndarray:
        value = table[key]
        try:
            arr = np.asarray(value, dtype=float)
        except (TypeError, ValueError):
            arr = np.array(math.nan)
        if not np.all(np.isfinite(arr)):
            raise CaseFileError(path, 0, key, f"expected finite numbers, got {value!r}")
        return arr

    try:
        if "continuous" in raw:
            cont = raw["continuous"]
            a_mat, b_vec = discretize(finite(cont, "a"), finite(cont, "b"), float(finite(cont, "dt")))
        else:
            a_mat, b_vec = finite(raw, "A"), finite(raw, "b")
        system = SwitchedSystem(A=a_mat, b=b_vec, alpha=float(finite(raw, "alpha")),
                                beta=float(finite(raw, "beta")), Q=finite(raw, "Q"), r=finite(raw, "r"))
    except KeyError as exc:
        raise ValueError(f"{path}: missing config key {exc}") from exc
    except TypeError as exc:  # "continuous" not an object, a non-scalar alpha or beta
        raise CaseFileError(path, 0, "-", str(exc)) from exc
    if "output" not in raw:
        return system, None
    gain = np.reshape(finite(raw, "output"), (-1,))
    if gain.shape != (system.n,):
        raise CaseFileError(path, 0, "output", f"expected {system.n} gain entries, got {gain.size}")
    return system, gain
