"""Batch command line interface.

Subcommands: pf, estimate, snapshots, and controller {solve, simulate,
oracle}. Exit codes: 0 success, 1 solver non-convergence or failure, 2
input/usage errors. All randomness comes from explicit seeds; identical
invocations produce identical outputs.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import asdict

import numpy as np

from .controller import (
    MAX_GRID_POINTS,
    MAX_STEPS,
    MaxSweepsExceeded,
    NoInteriorPoints,
    NonAffineResidual,
    SingularP,
    UnstableSystem,
    bellman_value_iteration,
    compare_value_functions,
    simulate,
    solve_quadratic_value,
    switching_function,
)
from .estimator import SingularGain
from .measurements import (
    DEFAULT_SIGMA_FLOW,
    DEFAULT_SIGMA_INJ,
    DEFAULT_SIGMA_V,
    full_measurement_plan,
)
from .powerflow import SingularJacobian, solve_power_flow
from .scenario import (
    CaseFileError,
    TruthNotConverged,
    load_case,
    load_switched_system,
    render_report_csv,
    render_report_json,
    resolve_case_dir,
    run_estimation,
    run_snapshots,
)


def _write_or_print(text: str, out_path) -> None:
    if out_path:
        try:
            with open(out_path, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise OSError(f"--out: cannot write {out_path}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _write_table(header: list, columns: list, out_path) -> None:
    """CSV with one column per array, each entry its repr, as csv.writer
    writes them: floats round-trip, and no header or number needs quoting."""
    rows = zip(*(np.asarray(c).tolist() for c in columns))
    lines = [",".join(header), *(",".join(map(repr, row)) for row in rows)]
    _write_or_print("\n".join(lines) + "\n", out_path)


def _floats(text: str, flag: str) -> list:
    """A comma-separated list flag of finite numbers."""
    try:
        values = [float(s) for s in text.split(",") if s.strip()]
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"{flag} values must be finite, got {text!r}")
    return values


def _checked(kind, name: str, rule: str, ok):
    """An argparse type: `kind` parsed from the flag's text, with ok(value)
    required; argparse names the flag in front of either message."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{name} must be {rule}, got {text!r}")
        return value
    return parse


def _non_negative_int(name: str):
    return _checked(int, name, ">= 0", lambda v: v >= 0)


def _positive_int(name: str, high: float = math.inf):
    rule = ">= 1" if high == math.inf else f"in 1..{high}"
    return _checked(int, name, rule, lambda v: 1 <= v <= high)


def _positive_float(name: str):
    return _checked(float, name, "finite and > 0", lambda v: 0 < v < math.inf)


def _write_summary(summary: dict, out_path) -> None:
    """A run summary: indented on stdout when the table went to --out, else compact on stderr."""
    if out_path:
        sys.stdout.write(json.dumps(summary, indent=2) + "\n")
    else:
        print(json.dumps(summary), file=sys.stderr)


def _state_rows(state, truth=None):
    rows = []
    for i in range(state.n_buses):
        row = {
            "bus": i + 1,
            "v_pu": float(state.magnitudes[i]),
            "angle_deg": float(np.degrees(state.angles[i])),
        }
        if truth is not None:
            row["v_true_pu"] = float(truth.magnitudes[i])
            row["angle_true_deg"] = float(np.degrees(truth.angles[i]))
        rows.append(row)
    return rows


def cmd_pf(args) -> int:
    bundle = load_case(resolve_case_dir(args.case))
    result = solve_power_flow(bundle.network, tol=args.tol, max_iter=args.max_iter)
    payload = {
        "converged": result.converged,
        "iterations": result.iterations,
        "max_mismatch_pu": result.max_mismatch,
        "buses": _state_rows(result.state),
    }
    _write_or_print(json.dumps(payload, indent=2) + "\n", args.out)
    return 0 if result.converged else 1


def cmd_estimate(args) -> int:
    bundle = load_case(resolve_case_dir(args.case))
    plan = full_measurement_plan(bundle.network, args.sigma_v, args.sigma_inj, args.sigma_flow)
    truth, result = run_estimation(bundle.network, plan, args.seed, noise=not args.noise_off)
    payload = {
        "converged": result.converged,
        "iterations": result.iterations,
        "objective": result.objective,
        "gain_condition": result.gain_condition,
        "measurement_count": len(plan),
        "objective_history": list(result.objective_history),
        "buses": _state_rows(result.state, truth=truth),
    }
    _write_or_print(json.dumps(payload, indent=2) + "\n", args.out)
    return 0 if result.converged else 1


def cmd_snapshots(args) -> int:
    bundle = load_case(resolve_case_dir(args.case))
    scales = _floats(args.load_scale, "--load-scale")
    if not all(s > 0 for s in scales):
        raise ValueError(f"--load-scale entries must be > 0, got {args.load_scale!r}")
    if args.count != len(scales):
        raise ValueError(f"--count {args.count} does not match the {len(scales)} --load-scale entries")
    records = run_snapshots(bundle, scales, args.seed)
    as_json = args.out is not None and str(args.out).endswith(".json")
    _write_or_print(render_report_json(records) if as_json else render_report_csv(records), args.out)
    for k, rec in enumerate(records):
        if rec.error is not None:
            print(f"error: snapshot {k} failed: {rec.error}", file=sys.stderr)
    return 0 if all(rec.result is not None and rec.result.converged for rec in records) else 1


def cmd_controller_solve(args) -> int:
    system, _ = load_switched_system(args.config)
    qv = solve_quadratic_value(system)
    sf = switching_function(system, qv)
    payload = {
        "P": qv.P.tolist(),
        "theta": qv.theta.tolist(),
        "v": qv.v,
        "delta": sf.delta.tolist(),
        "zeta": sf.zeta,
        "closed_form_delta": sf.closed_form_delta.tolist(),
        "closed_form_zeta": sf.closed_form_zeta,
        "max_affine_gap": sf.max_affine_gap,
        "spectral_radius": system.spectral_radius,
    }
    _write_or_print(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def cmd_controller_simulate(args) -> int:
    system, output = load_switched_system(args.config)
    x0 = _floats(args.x0, "--x0")
    if len(x0) != system.n:
        raise ValueError(f"--x0 must have {system.n} entries, got {len(x0)}")
    qv = solve_quadratic_value(system)
    sf = switching_function(system, qv)
    sim = simulate(system, x0, args.z0, args.steps, sf, output=output)
    header = ["step"] + [f"x{i + 1}" for i in range(system.n)] + ["u", "stage_cost"]
    columns = [np.arange(args.steps), *sim.states.T, sim.inputs, sim.stage_costs]
    if sim.outputs is not None:
        header.append("y")
        columns.append(sim.outputs)
    _write_table(header, columns, args.out)
    _write_summary({"discounted_total": sim.discounted_total, "switch_count": sim.switch_count}, args.out)
    return 0


def cmd_controller_oracle(args) -> int:
    system, _ = load_switched_system(args.config)
    bounds = _floats(args.box, "--box")
    if len(bounds) not in (2, 2 * system.n):
        raise ValueError(f"--box needs LO,HI (or one LO,HI pair per dimension), got {args.box!r}")
    if not (args.resolution >= 2 and args.resolution**system.n <= MAX_GRID_POINTS):
        raise ValueError(f"--resolution: resolution must be >= 2 with resolution**n <= {MAX_GRID_POINTS}, "
                         f"got {args.resolution}**{system.n}")
    oracle = bellman_value_iteration(system, (bounds[0::2], bounds[1::2]), args.resolution)
    _write_table([f"x{i + 1}" for i in range(system.n)] + ["v0", "v1"],
                 [*oracle.points.T, oracle.v0.reshape(-1), oracle.v1.reshape(-1)], args.out)

    report = {"sweeps": oracle.sweeps, "final_residual": oracle.residuals[-1], "clamped": oracle.clamped}
    try:
        report["quadratic_comparison"] = asdict(compare_value_functions(oracle, solve_quadratic_value(system)))
    except (UnstableSystem, SingularP, NoInteriorPoints) as exc:
        report["quadratic_comparison"] = {"unavailable": str(exc)}
    _write_summary(report, args.out)
    return 0


@functools.cache  # built on the first dispatch, not at import, then reused: parse_args keeps no state
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridse",
        description="State estimation experiments on case bundles, plus a binary switching controller.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_pf = sub.add_parser("pf", help="solve the power flow for a case")
    p_pf.add_argument("--case", required=True, help="case directory or shipped case name (e.g. ieee14)")
    p_pf.add_argument("--tol", type=_positive_float("tol"), default=1e-8)
    p_pf.add_argument("--max-iter", type=_positive_int("max_iter"), default=20)
    p_pf.add_argument("--out", default=None)
    p_pf.set_defaults(func=cmd_pf)

    p_est = sub.add_parser("estimate", help="one seeded estimation run against the power-flow truth")
    p_est.add_argument("--case", required=True)
    p_est.add_argument("--seed", type=_non_negative_int("seed"), required=True)
    p_est.add_argument("--sigma-v", type=_positive_float("sigma_v"), default=DEFAULT_SIGMA_V)
    p_est.add_argument("--sigma-inj", type=_positive_float("sigma_inj"), default=DEFAULT_SIGMA_INJ)
    p_est.add_argument("--sigma-flow", type=_positive_float("sigma_flow"), default=DEFAULT_SIGMA_FLOW)
    p_est.add_argument("--noise-off", action="store_true")
    p_est.add_argument("--out", default=None)
    p_est.set_defaults(func=cmd_estimate)

    p_snap = sub.add_parser("snapshots", help="multi-snapshot run with one-snapshot memory")
    p_snap.add_argument("--case", required=True)
    p_snap.add_argument("--count", type=_positive_int("count"), required=True)
    p_snap.add_argument("--load-scale", required=True, help="comma-separated multiplier per snapshot")
    p_snap.add_argument("--seed", type=_non_negative_int("seed"), required=True)
    p_snap.add_argument("--out", default=None, help="report path; .json extension selects JSON")
    p_snap.set_defaults(func=cmd_snapshots)

    p_ctl = sub.add_parser("controller", help="binary switching controller tools")
    ctl_sub = p_ctl.add_subparsers(dest="controller_command", required=True)

    p_solve = ctl_sub.add_parser("solve", help="solve the quadratic value and switching function")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", default=None)
    p_solve.set_defaults(func=cmd_controller_solve)

    p_sim = ctl_sub.add_parser("simulate", help="closed-loop rollout under the hysteresis policy")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--steps", type=_positive_int("steps", MAX_STEPS), required=True,
                       help=f"rollout length, 1..{MAX_STEPS}")
    p_sim.add_argument("--x0", required=True, help="comma-separated initial state")
    p_sim.add_argument("--z0", type=int, choices=(0, 1), required=True)
    p_sim.add_argument("--out", default=None)
    p_sim.set_defaults(func=cmd_controller_simulate)

    p_or = ctl_sub.add_parser("oracle", help="grid value-iteration reference solution")
    p_or.add_argument("--config", required=True)
    p_or.add_argument("--box", required=True, help="LO,HI bounds (repeat per dimension for 2-d)")
    p_or.add_argument("--resolution", type=int, required=True,
                      help=f"points per dimension, >= 2, with resolution**n <= {MAX_GRID_POINTS}")
    p_or.add_argument("--out", default=None)
    p_or.set_defaults(func=cmd_controller_oracle)

    return parser


_LIST_VALUE_FLAGS = ("--box", "--x0", "--load-scale")
_NUMERIC_START = re.compile(r"^-[\d.]")


def _join_list_values(argv: list) -> list:
    """Rewrite ['--box', '-0.5,2.5'] as ['--box=-0.5,2.5'] so argparse does
    not mistake a leading negative number for an option."""
    out = []
    i = 0
    while i < len(argv):
        if argv[i] in _LIST_VALUE_FLAGS and i + 1 < len(argv) and _NUMERIC_START.match(argv[i + 1]):
            out.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def cli_dispatch(argv) -> int:
    """Run one CLI invocation; returns the process exit code."""
    try:
        args = build_parser().parse_args(_join_list_values(list(argv)))
    except SystemExit as exc:  # argparse already printed usage / message
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (MaxSweepsExceeded, NonAffineResidual, TruthNotConverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (
        CaseFileError,
        SingularGain,
        SingularJacobian,
        UnstableSystem,
        SingularP,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))
