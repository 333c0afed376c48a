"""State estimation for small transmission grids plus a binary switching controller.

The package is organized bottom-up: network model and admittance matrix,
Newton-Raphson power flow (the truth oracle), measurement functions and
synthetic metering, Gauss-Newton WLS estimation, the switching controller,
and the scenario/CLI layer for case files and reproducible batch runs.
"""

from .network import (
    Branch,
    Bus,
    BusKind,
    DanglingBranchEndpoint,
    DisconnectedGraph,
    DuplicateBusId,
    MultipleSlackBuses,
    Network,
    NetworkError,
    NoSlackBus,
    ZeroImpedanceBranch,
    build_network,
    build_ybus,
    with_scaled_loads,
)
from .powerflow import (
    PowerFlowResult,
    SingularJacobian,
    StateVector,
    calc_injections,
    flat_start,
    injection_jacobian,
    solve_power_flow,
)
from .measurements import (
    DEFAULT_SIGMA_FLOW,
    DEFAULT_SIGMA_INJ,
    DEFAULT_SIGMA_V,
    MeasurementRowError,
    MeasurementSet,
    evaluate_h,
    full_measurement_plan,
    generate_measurements,
    jacobian_h,
    state_size,
    state_to_vector,
    vector_to_state,
)
from .estimator import (
    EstimationResult,
    SingularGain,
    estimate,
    gain_matrix,
    objective_j,
    solve_normal_equations,
)
from .controller import (
    GridOracle,
    MaxSweepsExceeded,
    NoInteriorPoints,
    NonAffineResidual,
    QuadraticValue,
    SimulationResult,
    SingularP,
    SwitchedSystem,
    SwitchingFunction,
    UnstableSystem,
    ValueComparison,
    bellman_value_iteration,
    compare_value_functions,
    discretize,
    evaluate_constant_policy,
    policy_decide,
    simulate,
    solve_quadratic_value,
    switching_function,
)
from .scenario import (
    CaseBundle,
    CaseFileError,
    SnapshotRecord,
    TruthNotConverged,
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
from .cli import cli_dispatch

__version__ = "0.1.0"
