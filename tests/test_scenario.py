"""Case files, snapshot runs with one-snapshot memory, report emission."""
import csv
import hashlib
import io
import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import gridse.scenario
from conftest import measurement_set
from gridse.controller import SwitchedSystem, bellman_value_iteration, discretize, evaluate_constant_policy
from gridse.estimator import estimate
from gridse.measurements import (
    P_FLOW,
    P_INJ,
    Q_FLOW,
    Q_INJ,
    V_MAG,
    MeasurementSet,
    full_measurement_plan,
    generate_measurements,
)
from gridse.network import NetworkError, ParameterError, build_ybus, with_scaled_loads
from gridse.powerflow import StateVector, solve_power_flow
from gridse.scenario import (
    CaseFileError,
    builtin_case_dir,
    derive_snapshot_seed,
    load_case,
    load_switched_system,
    read_measurements_csv,
    read_plan_csv,
    render_report_csv,
    render_report_json,
    resolve_case_dir,
    run_estimation,
    run_snapshots,
    write_measurements_csv,
)

BUSES_SHA256 = "40738763599b03a4c5282e3aac3f5803a5355796800af6d3de53d8bfd738fea6"
LINES_SHA256 = "de36204737c7ad8a9963e457ede92bbc8746469c297ab2af9ab0ac9333a5b503"


# ---- case loading -----------------------------------------------------------

def test_shipped_bundle_loads(ieee14_bundle):
    assert ieee14_bundle.network.n_buses == 14
    assert ieee14_bundle.network.n_branches == 20
    assert ieee14_bundle.network.base_mva == 100.0


def test_shipped_bundle_checksums():
    case = builtin_case_dir("ieee14")
    assert hashlib.sha256((case / "buses.csv").read_bytes()).hexdigest() == BUSES_SHA256
    assert hashlib.sha256((case / "lines.csv").read_bytes()).hexdigest() == LINES_SHA256


def test_unknown_case_dir():
    with pytest.raises(CaseFileError):
        resolve_case_dir("definitely_not_a_case")


def test_header_only_lines_file(tmp_path):
    case = tmp_path / "case"
    case.mkdir()
    (case / "buses.csv").write_text((builtin_case_dir("ieee14") / "buses.csv").read_text())
    (case / "lines.csv").write_text("from_bus,to_bus,r_pu,x_pu,b_half_pu\n")
    with pytest.raises(CaseFileError) as info:  # disconnected graph, not a parse error
        load_case(case)
    assert (Path(info.value.file).name, info.value.line) == ("lines.csv", 0)
    assert isinstance(info.value.__cause__, NetworkError)


def test_negative_reactance_accepted(tmp_path):
    case = tmp_path / "case"
    case.mkdir()
    (case / "buses.csv").write_text(
        "bus,vsp_pu,pg_mw,qg_mvar,pl_mw,ql_mvar\n1,1.0,0,0,0,0\n2,1.0,0,0,1.0,0.5\n"
    )
    (case / "lines.csv").write_text(
        "from_bus,to_bus,r_pu,x_pu,b_half_pu\n1,2,0.01,-0.1,0.0\n"
    )
    bundle = load_case(case)
    assert bundle.network.branch_arrays.b[0] == (1.0 / complex(0.01, -0.1)).imag > 0


def test_parse_error_carries_position(tmp_path):
    case = tmp_path / "case"
    case.mkdir()
    (case / "buses.csv").write_text(
        "bus,vsp_pu,pg_mw,qg_mvar,pl_mw,ql_mvar\n1,1.0,0,0,0,0\n2,oops,0,0,1.0,0.5\n"
    )
    (case / "lines.csv").write_text("from_bus,to_bus,r_pu,x_pu,b_half_pu\n1,2,0.01,0.1,0.0\n")
    with pytest.raises(CaseFileError) as exc_info:
        load_case(case)
    err = exc_info.value
    assert err.line == 3
    assert err.column == "vsp_pu"
    assert "oops" in err.reason


def test_bad_header_rejected(tmp_path):
    case = tmp_path / "case"
    case.mkdir()
    (case / "buses.csv").write_text("bus,vsp\n1,1.0\n")
    (case / "lines.csv").write_text("from_bus,to_bus,r_pu,x_pu,b_half_pu\n")
    with pytest.raises(CaseFileError) as exc_info:
        load_case(case)
    assert exc_info.value.line == 1


def test_explicit_kind_column(tmp_path):
    case = tmp_path / "case"
    case.mkdir()
    (case / "buses.csv").write_text(
        "bus,vsp_pu,pg_mw,qg_mvar,pl_mw,ql_mvar,kind\n"
        "1,1.0,0,0,0,0,slack\n2,1.0,10,0,1.0,0.5,pv\n3,1.0,0,0,1.0,0.2,pq\n"
    )
    (case / "lines.csv").write_text(
        "from_bus,to_bus,r_pu,x_pu,b_half_pu\n1,2,0.01,0.1,0.0\n2,3,0.01,0.1,0.0\n"
    )
    bundle = load_case(case)
    kinds = [kind.value for kind in bundle.network.kinds]
    assert kinds == ["slack", "pv", "pq"]  # pv would be inferred pq (vsp = 1.0)


def test_unknown_bus_kind_names_its_line(tmp_path):
    case = tmp_path / "case"
    case.mkdir()
    (case / "buses.csv").write_text(
        "bus,vsp_pu,pg_mw,qg_mvar,pl_mw,ql_mvar,kind\n1,1.0,0,0,0,0,slack\n2,1.0,10,0,1.0,0.5,swing\n"
    )
    (case / "lines.csv").write_text("from_bus,to_bus,r_pu,x_pu,b_half_pu\n1,2,0.01,0.1,0.0\n")
    with pytest.raises(CaseFileError) as exc_info:
        load_case(case)
    err = exc_info.value
    assert (Path(err.file).name, err.line, err.column, err.reason) == ("buses.csv", 3, "kind",
                                                                       "unknown bus kind 'swing'")


def test_case_json_base_and_weights(tmp_path):
    """A "version" key in case.json is accepted and ignored."""
    case = tmp_path / "case"
    shutil.copytree(builtin_case_dir("ieee14"), case)
    (case / "case.json").write_text('{"base_mva": 50.0, "version": "2", "bus_load_weights": {"3": 1.5}}')
    bundle = load_case(case)
    assert bundle.network.base_mva == 50.0
    assert bundle.bus_load_weights == {3: 1.5}


@pytest.mark.parametrize("line", [2, 6, 15])
@pytest.mark.parametrize("column, cell", [("vsp_pu", "0"), ("vsp_pu", "-1.02"), ("bus", "0"), ("bus", "-3")])
def test_bad_bus_row_names_its_line(tmp_path, line, column, cell):
    case = tmp_path / "case"
    shutil.copytree(builtin_case_dir("ieee14"), case)
    rows = [row.split(",") for row in (case / "buses.csv").read_text().splitlines()]
    rows[line - 1][rows[0].index(column)] = cell
    (case / "buses.csv").write_text("\n".join(",".join(row) for row in rows) + "\n")
    with pytest.raises(CaseFileError) as exc_info:
        load_case(case)
    err = exc_info.value
    assert (Path(err.file).name, err.line, err.column) == ("buses.csv", line, column)


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e999"])
@pytest.mark.parametrize("file_name, column", [
    ("buses.csv", "vsp_pu"), ("buses.csv", "pl_mw"), ("lines.csv", "r_pu"),
    ("lines.csv", "x_pu"), ("lines.csv", "b_half_pu"),
])
def test_non_finite_case_cell_rejected(tmp_path, ieee14_bundle, file_name, column, cell):
    case = tmp_path / "case"
    case.mkdir()
    for name in ("buses.csv", "lines.csv"):
        text = (builtin_case_dir("ieee14") / name).read_text()
        if name == file_name:
            rows = [line.split(",") for line in text.splitlines()]
            rows[2][rows[0].index(column)] = cell
            text = "\n".join(",".join(row) for row in rows) + "\n"
        (case / name).write_text(text)
    with pytest.raises(CaseFileError) as exc_info:
        load_case(case)
    err = exc_info.value
    assert (Path(err.file).name, err.line, err.column) == (file_name, 3, column)


@pytest.mark.parametrize("cell", ["nan", "inf", "-1e999"])
@pytest.mark.parametrize("column", ["value_pu", "sigma_pu"])
def test_non_finite_measurement_cell_rejected(tmp_path, column, cell):
    path = tmp_path / "m.csv"
    row = {"value_pu": "1.02", "sigma_pu": "0.004", column: cell}
    path.write_text(f"kind,bus,branch,end,value_pu,sigma_pu\nv_mag,1,,,{row['value_pu']},{row['sigma_pu']}\n")
    with pytest.raises(CaseFileError) as exc_info:
        read_measurements_csv(path)
    assert (exc_info.value.line, exc_info.value.column) == (2, column)


@pytest.mark.parametrize("reader", [read_measurements_csv, read_plan_csv])
@pytest.mark.parametrize("cell", ["1e-160", "1e170"])
def test_measurement_sigma_without_a_finite_weight_names_its_line(tmp_path, reader, cell):
    path = tmp_path / "m.csv"
    path.write_text(f"kind,bus,branch,end,value_pu,sigma_pu\nv_mag,1,,,1.0,0.004\nv_mag,2,,,1.0,{cell}\n")
    with pytest.raises(CaseFileError) as exc_info:
        reader(path)
    err = exc_info.value
    assert (Path(err.file).name, err.line, err.column) == ("m.csv", 3, "sigma_pu")
    assert err.reason == f"sigma {float(cell)} must be > 0 with a finite weight 1/sigma**2 > 0"


@pytest.mark.parametrize("reader", [read_measurements_csv, read_plan_csv])
@pytest.mark.parametrize("column, cell", [
    ("bus", "0"), ("bus", "-3"), ("bus", "99999999999999999999"),
    ("branch", "-5"), ("branch", "99999999999999999999"),
])
def test_bad_measurement_index_rejected(tmp_path, reader, column, cell):
    path = tmp_path / "m.csv"
    row = f"v_mag,{cell},,,1.02,0.004" if column == "bus" else f"p_flow,,{cell},from,0.5,0.008"
    path.write_text(f"kind,bus,branch,end,value_pu,sigma_pu\nv_mag,1,,,1.0,0.004\n{row}\n")
    with pytest.raises(CaseFileError) as exc_info:
        reader(path)
    err = exc_info.value
    assert (Path(err.file).name, err.line, err.column) == ("m.csv", 3, column)


@pytest.mark.parametrize("reader", [read_measurements_csv, read_plan_csv])
@pytest.mark.parametrize("row, column", [
    ("volts,1,,,1.0,0.004", "kind"),            # unknown kind
    (",1,,,1.0,0.004", "kind"),                 # empty kind
    ("p_flow,,0,,0.5,0.008", "kind"),           # a flow with no end, not a from-end meter
    ("p_flow,2,0,from,0.5,0.008", "kind"),      # a flow with a bus
    ("v_mag,1,0,,1.0,0.004", "kind"),           # v_mag with a branch
    ("v_mag,1,,to,1.0,0.004", "kind"),          # v_mag with an end
    ("p_inj,,,,0.1,0.01", "kind"),              # p_inj with no bus
    ("p_flow,,0,sideways,0.5,0.008", "end"),
])
def test_malformed_measurement_row_names_its_line_and_column(tmp_path, reader, row, column):
    path = tmp_path / "m.csv"
    path.write_text(f"kind,bus,branch,end,value_pu,sigma_pu\nv_mag,1,,,1.0,0.004\n\n{row}\n"
                    "q_flow,,1,to,0.2,0.008\n")
    with pytest.raises(CaseFileError) as exc_info:
        reader(path)
    err = exc_info.value
    assert (Path(err.file).name, err.line, err.column) == ("m.csv", 4, column)


def test_missing_measurement_value_names_its_line(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("kind,bus,branch,end,value_pu,sigma_pu\nv_mag,1,,,1.0,0.004\nv_mag,2,,,,0.004\n")
    with pytest.raises(CaseFileError) as exc_info:
        read_measurements_csv(path)
    err = exc_info.value
    assert (err.line, err.column, err.reason) == (3, "value_pu", "measurement value missing")
    assert len(read_plan_csv(path)) == 2  # a plan takes no values


def test_oversized_csv_field_rejected(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("kind,bus,branch,end,value_pu,sigma_pu\nv_mag,1,,,1.0," + "9" * 200_000 + "\n")
    with pytest.raises(CaseFileError) as exc_info:  # past the csv module's field size limit
        read_measurements_csv(path)
    assert exc_info.value.line == 2


# ---- measurement CSV --------------------------------------------------------

def test_measurement_set_csv_round_trip(tmp_path, ieee14, ieee14_truth, ieee14_ybus):
    plan = full_measurement_plan(ieee14)
    mset = generate_measurements(ieee14_truth, plan, 4, ieee14, ieee14_ybus)
    path = tmp_path / "measurements.csv"
    write_measurements_csv(mset, path)
    back = read_measurements_csv(path)
    assert back == mset


def test_plan_csv_round_trip(tmp_path, ieee14):
    plan = full_measurement_plan(ieee14)
    path = tmp_path / "plan.csv"
    write_measurements_csv(plan, path)
    assert all(line.split(",")[4] == "" for line in path.read_text().splitlines()[1:])
    back = read_plan_csv(path)
    assert back == plan


_INDEX = st.integers(0, 2**62)
# (row in the column encoding, value, sigma)
_CSV_ROWS = st.tuples(
    st.tuples(st.sampled_from([V_MAG, P_INJ, Q_INJ]), _INDEX, st.just(-1), st.just(-1))
    | st.tuples(st.sampled_from([P_FLOW, Q_FLOW]), st.just(-1), _INDEX, st.sampled_from([0, 1])),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=1e-154, max_value=1e154),  # sigmas whose weight 1/sigma**2 is finite and > 0
)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(table=st.lists(_CSV_ROWS, max_size=12), metered=st.booleans())
@example(table=[], metered=True)
@example(table=[], metered=False)
def test_measurement_csv_round_trip_on_random_sets(tmp_path_factory, table, metered):
    """A metered set comes back from read_measurements_csv, and read_plan_csv
    gives the same rows with NaN values; a plan comes back from read_plan_csv."""
    rows = [row for row, _, _ in table]
    values = [value if metered else np.nan for _, value, _ in table]
    mset = measurement_set(rows, values, [sigma for _, _, sigma in table])
    path = tmp_path_factory.mktemp("csv") / "m.csv"
    write_measurements_csv(mset, path)
    if metered:
        assert read_measurements_csv(path) == mset
    assert read_plan_csv(path) == MeasurementSet(mset.columns, np.full(len(mset), np.nan), mset.sigmas)


# ---- snapshot runs ----------------------------------------------------------

def test_noise_off_snapshots_recover_truth(ieee14_bundle):
    """The snapshot chain by hand, unmetered: each warm-started run recovers its truth."""
    plan = full_measurement_plan(ieee14_bundle.network)
    previous = None
    for k, scale in enumerate((1.0, 0.98, 1.02)):
        net = with_scaled_loads(ieee14_bundle.network, scale)
        truth, result = run_estimation(net, plan, derive_snapshot_seed(7, k), previous, noise=False)
        assert result.converged
        assert np.max(np.abs(result.state.magnitudes - truth.magnitudes)) < 1e-6
        assert np.max(np.abs(result.state.angles - truth.angles)) < 1e-6
        previous = result.state


def test_snapshots_deterministic(ieee14_bundle):
    a = run_snapshots(ieee14_bundle, (1.0, 0.98), 17)
    b = run_snapshots(ieee14_bundle, (1.0, 0.98), 17)
    assert render_report_csv(a) == render_report_csv(b)
    assert render_report_json(a) == render_report_json(b)


def test_warm_start_not_worse_than_flat(ieee14_bundle):
    records = run_snapshots(ieee14_bundle, (1.0, 0.98), 3)
    warm_iters = records[1].result.iterations
    net1 = with_scaled_loads(ieee14_bundle.network, 0.98)
    truth1 = solve_power_flow(net1, tol=1e-8, max_iter=20).state
    mset = generate_measurements(
        truth1, full_measurement_plan(net1), derive_snapshot_seed(3, 1), net1, build_ybus(net1)
    )
    flat = estimate(net1, mset)
    assert warm_iters <= flat.iterations


def test_divergent_estimate_recorded_and_run_continues(ieee14_bundle, monkeypatch):
    # snapshot 0 starts from magnitudes of 0.2 pu, from which Gauss-Newton
    # steps to a magnitude <= 0; later snapshots do not warm-start from it
    calls = []

    def estimate_bad_first(network, mset, start):
        if not calls:
            start = StateVector(np.zeros(14), np.full(14, 0.2))
        calls.append(start)
        return estimate(network, mset, start)

    monkeypatch.setattr(gridse.scenario, "estimate", estimate_bad_first)
    records = run_snapshots(ieee14_bundle, (1.0, 0.98, 1.02), 7)
    first, *rest = records
    assert first.error is None and not first.result.converged
    assert np.all(first.result.state.magnitudes > 0)
    assert calls[1] is None  # flat start after a non-converged snapshot
    for rec in rest:
        assert rec.error is None and rec.result.converged
    rows = json.loads(render_report_json(records))["rows"]
    assert {r["snapshot"] for r in rows} == {0, 1, 2}


def test_failed_snapshot_marked_and_run_continues(ieee14_bundle):
    # an absurd load multiplier makes the truth power flow diverge
    records = run_snapshots(ieee14_bundle, (1.0, 50.0), 5)
    assert len(records) == 2
    assert records[0].error is None and records[0].result is not None
    assert records[1].error.startswith("truth power flow did not converge")
    assert records[1].truth is None and records[1].result is None
    rows = json.loads(render_report_json(records))["rows"]
    assert {r["snapshot"] for r in rows} == {0}


def test_snapshot_plan_validation(ieee14_bundle, monkeypatch):
    """run_snapshots checks its scales and seed before the first snapshot."""
    def no_run(*args):
        raise AssertionError("validation must come before the first snapshot")

    monkeypatch.setattr(gridse.scenario, "run_estimation", no_run)
    with pytest.raises(ValueError, match="at least one entry"):
        run_snapshots(ieee14_bundle, (), 1)
    with pytest.raises(ValueError, match="finite and > 0"):
        run_snapshots(ieee14_bundle, (1.0, 0.0), 1)
    with pytest.raises(ValueError, match="non-negative"):
        run_snapshots(ieee14_bundle, (1.0,), -4)


@pytest.mark.parametrize("scale", [float("nan"), float("inf"), -float("inf")])
def test_snapshot_plan_rejects_non_finite_scale(ieee14_bundle, scale):
    with pytest.raises(ValueError, match="finite and > 0"):
        run_snapshots(ieee14_bundle, (1.0, scale), 1)


def test_derived_seeds_differ():
    seeds = {derive_snapshot_seed(9, k) for k in range(10)}
    assert len(seeds) == 10
    assert derive_snapshot_seed(9, 0) == derive_snapshot_seed(9, 0)


@pytest.mark.parametrize("seed", [1.5, 1.0, np.float64(2.0), "3", None, -1])
def test_a_seed_that_is_not_a_non_negative_integer_is_named(ieee14_bundle, ieee14_truth, seed):
    # 1.5 used to run seed 1 in run_snapshots and raise a bare TypeError in run_estimation
    net = ieee14_bundle.network
    plan = full_measurement_plan(net)
    calls = (lambda: run_snapshots(ieee14_bundle, (1.0,), seed), lambda: run_estimation(net, plan, seed),
             lambda: derive_snapshot_seed(seed, 0),
             lambda: generate_measurements(ieee14_truth, plan, seed, net, net.ybus))
    for call in calls:
        with pytest.raises(ValueError, match=f"^seed must be a non-negative integer, got {re.escape(repr(seed))}$"):
            call()


@pytest.mark.parametrize("seed, same_as", [(True, 1), (np.int64(3), 3)])
def test_a_seed_with_an_integer_index_is_that_integer(ieee14_bundle, ieee14_truth, seed, same_as):
    net = ieee14_bundle.network
    plan = full_measurement_plan(net)
    assert derive_snapshot_seed(seed, 2) == derive_snapshot_seed(same_as, 2)
    assert generate_measurements(ieee14_truth, plan, seed, net, net.ybus) == \
        generate_measurements(ieee14_truth, plan, same_as, net, net.ybus)
    (got,), (want,) = run_snapshots(ieee14_bundle, (0.9,), seed), run_snapshots(ieee14_bundle, (0.9,), same_as)
    assert np.array_equal(got.result.residuals, want.result.residuals)


_SCALAR = dict(A=[[0.9]], b=[0.2], alpha=0.95, beta=0.1, Q=[[1.0]], r=[1.0])
_SCALAR_SYSTEM = SwitchedSystem(**_SCALAR)


@pytest.mark.parametrize("parameter, call", [
    ("tol", lambda bundle: solve_power_flow(bundle.network, tol=0.0)),
    ("max_iter", lambda bundle: solve_power_flow(bundle.network, max_iter=0)),
    ("sigma_flow", lambda bundle: full_measurement_plan(bundle.network, sigma_flow=float("nan"))),
    ("seed", lambda bundle: run_snapshots(bundle, (1.0,), -1)),
    ("load_scale", lambda bundle: run_snapshots(bundle, (), 1)),
    ("load_scale", lambda bundle: run_snapshots(bundle, (1.0, 0.0), 1)),
    ("A", lambda bundle: SwitchedSystem(**{**_SCALAR, "A": [[0.9, 0.1]]})),
    ("alpha", lambda bundle: SwitchedSystem(**{**_SCALAR, "alpha": 1.0})),
    ("beta", lambda bundle: SwitchedSystem(**{**_SCALAR, "beta": float("inf")})),
    ("Q", lambda bundle: SwitchedSystem(**{**_SCALAR, "Q": [[-1.0]]})),
    ("dt", lambda bundle: discretize([[-1.0]], [1.0], 0.0)),
    ("b", lambda bundle: discretize([[-1.0]], [1.0, 2.0], 0.1)),
    ("system", lambda bundle: bellman_value_iteration(
        SwitchedSystem(A=np.eye(3) * 0.5, b=np.zeros(3), alpha=0.5, beta=0.0, Q=np.eye(3), r=np.zeros(3)),
        ([-1.0], [1.0]), 5)),
    ("resolution", lambda bundle: bellman_value_iteration(_SCALAR_SYSTEM, ([0.0], [1.0]), 1)),
    ("box", lambda bundle: bellman_value_iteration(_SCALAR_SYSTEM, ([1.0], [0.0]), 11)),
    ("steps", lambda bundle: evaluate_constant_policy(_SCALAR_SYSTEM, 0, [0.0], 0, 0)),
    ("z0", lambda bundle: evaluate_constant_policy(_SCALAR_SYSTEM, 0, [0.0], 2, 5)),
    ("u_const", lambda bundle: evaluate_constant_policy(_SCALAR_SYSTEM, 2, [0.0], 0, 5)),
])
def test_an_argument_out_of_range_raises_a_parameter_error_naming_it(ieee14_bundle, parameter, call):
    with pytest.raises(ParameterError) as info:
        call(ieee14_bundle)
    assert info.value.parameter == parameter


def test_each_estimation_run_checks_the_plan_columns_once(ieee14_bundle, monkeypatch):
    # metering derives the set's row model, checking the columns, and hands it to
    # the metered set, so estimate checks them no second time
    calls = []
    check = gridse.measurements.check_columns
    monkeypatch.setattr(gridse.measurements, "check_columns", lambda *args: calls.append(1) or check(*args))
    net = ieee14_bundle.network
    run_estimation(net, full_measurement_plan(net), 7)
    assert len(calls) == 1
    # a new network per snapshot, sharing the kinds and branch arrays the model reads: one check per run
    records = run_snapshots(ieee14_bundle, (1.0, 0.95, 1.05), 7)
    assert all(rec.result is not None for rec in records) and len(calls) == 2


# ---- report emission --------------------------------------------------------

@pytest.fixture(scope="module")
def small_report(ieee14_bundle):
    return run_snapshots(ieee14_bundle, (1.0, 0.98, 1.02), 7)


def test_report_row_count_and_header(small_report):
    text = render_report_csv(small_report)
    lines = text.strip().split("\n")
    assert lines[0] == "snapshot,bus,v_true_pu,v_est_pu,angle_true_deg,angle_est_deg,iterations,objective,converged"
    assert len(lines) - 1 == 42  # 3 snapshots x 14 buses


def test_slack_angle_prints_four_zeros(small_report):
    for line in render_report_csv(small_report).strip().split("\n")[1:]:
        cells = line.split(",")
        if cells[1] == "1":
            assert cells[4] == "0.0000"
            assert cells[5] == "0.0000"


def test_report_precision_is_four_decimals(small_report):
    for line in render_report_csv(small_report).strip().split("\n")[1:]:
        cells = line.split(",")
        for cell in cells[2:6]:
            whole, frac = cell.lstrip("-").split(".")
            assert len(frac) == 4


def test_csv_and_json_agree_field_for_field(small_report):
    rows_json = json.loads(render_report_json(small_report))["rows"]
    reader = csv.DictReader(io.StringIO(render_report_csv(small_report)))
    rows_csv = list(reader)
    assert len(rows_csv) == len(rows_json)
    for rc, rj in zip(rows_csv, rows_json):
        assert int(rc["snapshot"]) == rj["snapshot"]
        assert int(rc["bus"]) == rj["bus"]
        for field in ("v_true_pu", "v_est_pu", "angle_true_deg", "angle_est_deg", "objective"):
            assert float(rc[field]) == rj[field]
        assert int(rc["iterations"]) == rj["iterations"]
        assert (rc["converged"] == "true") == rj["converged"]


# ---- controller config ------------------------------------------------------

def test_load_switched_system(tmp_path):
    cfg = tmp_path / "system.json"
    cfg.write_text(json.dumps({
        "A": [[0.9]], "b": [0.2], "alpha": 0.95, "beta": 0.1,
        "Q": [[1.0]], "r": [1.0], "output": [2.0],
    }))
    system, output = load_switched_system(cfg)
    assert system.A[0, 0] == 0.9
    assert output.tolist() == [2.0]


def test_load_switched_system_continuous(tmp_path):
    cfg = tmp_path / "system.json"
    cfg.write_text(json.dumps({
        "continuous": {"a": [[-1.0]], "b": [1.0], "dt": 0.1},
        "alpha": 0.95, "beta": 0.1, "Q": [[1.0]], "r": [0.0],
    }))
    system, output = load_switched_system(cfg)
    assert system.A[0, 0] == pytest.approx(0.9)
    assert system.b[0] == pytest.approx(0.1)
    assert output is None


def test_load_switched_system_non_square_continuous_a(tmp_path):
    cfg = tmp_path / "system.json"
    cfg.write_text(json.dumps({
        "continuous": {"a": [[-1.0, 0.0]], "b": [1.0], "dt": 0.1},
        "alpha": 0.95, "beta": 0.1, "Q": [[1.0]], "r": [0.0],
    }))
    with pytest.raises(CaseFileError) as info:
        load_switched_system(cfg)
    assert (info.value.file, info.value.column, info.value.reason) == (str(cfg), "a", "a must be a square matrix")


def test_load_switched_system_missing_key(tmp_path):
    cfg = tmp_path / "system.json"
    cfg.write_text('{"A": [[0.9]], "b": [0.2]}')
    with pytest.raises(ValueError):
        load_switched_system(cfg)


@pytest.mark.parametrize("key, value", [
    ("alpha", "NaN"), ("beta", "Infinity"), ("r", "[NaN]"), ("A", "[[-Infinity]]"),
    ("output", "[NaN]"), ("Q", "[[1e999]]"), ("beta", '"abc"'), ("b", "{}"),
])
def test_load_switched_system_non_finite_value(tmp_path, key, value):
    fields = {"A": "[[0.9]]", "b": "[0.2]", "alpha": "0.95", "beta": "0.1", "Q": "[[1.0]]", "r": "[1.0]"}
    fields[key] = value
    cfg = tmp_path / "system.json"
    cfg.write_text("{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}")
    with pytest.raises(CaseFileError) as info:
        load_switched_system(cfg)
    assert info.value.file == str(cfg)
    assert info.value.column == key


@pytest.mark.parametrize("config", [
    '{"continuous": [1], "alpha": 0.95, "beta": 0.1, "Q": [[1.0]], "r": [1.0]}',
    '{"A": [[0.9]], "b": [0.2], "alpha": [0.9, 0.95], "beta": 0.1, "Q": [[1.0]], "r": [1.0]}',
])
def test_load_switched_system_malformed_value(tmp_path, config):
    cfg = tmp_path / "system.json"
    cfg.write_text(config)
    with pytest.raises(CaseFileError) as info:
        load_switched_system(cfg)
    assert info.value.file == str(cfg)


def test_load_switched_system_bad_json(tmp_path):
    cfg = tmp_path / "system.json"
    cfg.write_text('{"A": [[0.9]],')
    with pytest.raises(CaseFileError):
        load_switched_system(cfg)
