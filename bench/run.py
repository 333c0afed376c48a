"""In-process benchmark of gridse: one workload per run, closed loop, one client.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. BLAS/OpenMP are pinned to one thread before
numpy is imported. gridse is driven through its CLI entry function
`gridse.cli.cli_dispatch`, with every `--out` in a scratch directory under
bench/out/. Set-up is the import of gridse (numpy and scipy included) plus
input generation and one warm-up op. Each part is measured SETUPS times:
the import once in this process and SETUPS - 1 times in fresh interpreters,
the rest in this process. `setup_s` is the sum of the two medians. Ops are
then timed until --seconds have passed and at least MIN_OPS have succeeded,
so that at least ten lie beyond the 90th percentile; a run that cannot reach
MIN_OPS within PHASE_LIMIT_S fails. The peak RSS is read right after the
timed phase; every output is checked after it (outside the op timer). The
last stdout line is the JSON result.

With --trace 1, every other op runs with the per-layer tracer installed, the
per-layer metrics are printed instead of the end-to-end ones, and all spans
are written to bench/out/trace-<workload>-<seed>.json.
"""
import os
import sys
import time

# Importing this module pins every BLAS/OpenMP pool to one thread; it must
# happen before numpy is imported (ladder.py relies on that too).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUPS = 7
MIN_OPS = 100  # successful timed ops per run: >= 10 beyond the 90th percentile
PHASE_LIMIT_S = 140.0  # a timed phase that has not reached MIN_OPS by then fails the run
WARMUP_OP = 10**6  # op indices of warm-up ops; timed ops count from 0


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def run_cli(cli, argv):
    """One CLI invocation; returns (exit code, captured stdout+stderr).
    `cli_dispatch` is looked up on the module each time, so the tracer's
    wrapper is used while it is installed. An exception that escapes it
    counts as exit code 1, as an uncaught traceback would in the real CLI."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            code = cli.cli_dispatch(argv)
        except Exception:
            traceback.print_exc()
            code = 1
    return code, buf.getvalue()


def run_op(cli, commands):
    """Run an op's commands back to back; returns (ms, ok, stdouts)."""
    t0 = time.perf_counter()
    results = [run_cli(cli, argv) for argv in commands]
    ms = (time.perf_counter() - t0) * 1e3
    return ms, all(code == 0 for code, _ in results), [text for _, text in results]


def output_bytes(commands, stdouts) -> int:
    files = [argv[argv.index("--out") + 1] for argv in commands if "--out" in argv]
    return sum(os.path.getsize(f) for f in files) + sum(len(s.encode()) for s in stdouts)


IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
                "import gridse.cli; print(time.perf_counter() - t0)")


def import_seconds_fresh() -> float:
    """Import time of gridse.cli in a fresh interpreter (same pinned environment)."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                         capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout)


def p90(values):
    return statistics.quantiles(values, n=10)[-1]


def check_outputs(wl, ops, ops_dir) -> list:
    """Run the workload's checks on every successful op; returns the failures.
    Any exception, not only CheckError, is a failure: a malformed output
    (unparsable JSON, a missing key) must read as incorrect, not crash."""
    problems = []
    checks = [(f"op {idx}", lambda idx=idx, stdouts=stdouts: wl.check_op(idx, ops_dir, stdouts))
              for idx, _, ok, stdouts, _ in ops if ok]
    for where, check in checks + [("run", wl.check_run)]:
        try:
            check()
        except Exception as exc:
            problems.append(f"{where}: {type(exc).__name__}: {exc}")
    return problems


def layer_metrics(spec, tracer, wl, ops, ops_dir) -> dict:
    """Every per-layer metric of BENCHMARK.json, per traced op."""
    traced = [op for op in ops if op[4] and op[2]]
    plain = [op[1] for op in ops if not op[4] and op[2]]
    totals = tracer.layer_totals()
    metrics = {m["name"]: totals.get(m["name"], 0.0) / len(traced) for m in spec["per_layer"]}
    estimates = totals.get("estimator.estimate.calls", 0.0)
    metrics["measurements.evaluate_h.calls_per_estimate"] = (
        totals.get("measurements.evaluate_h.in_estimate", 0.0) / estimates if estimates else 0.0)
    metrics["cli.output_bytes"] = statistics.mean(
        output_bytes(wl.op(idx, ops_dir), stdouts) for idx, _, _, stdouts, _ in traced)
    metrics["trace.op_p50_ms"] = statistics.median(op[1] for op in traced)
    metrics["trace.overhead_ms"] = metrics["trace.op_p50_ms"] - statistics.median(plain)
    return metrics


def main() -> int:
    args = parse_args()
    if not (ROOT / "src" / "gridse" / "__init__.py").is_file():
        print(f"error: no gridse sources under {ROOT / 'src'}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    cli = importlib.import_module("gridse.cli")
    t_import = time.perf_counter() - t0

    # the benchmark's own modules import numpy too: only after the timed import
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out_root = BENCH / "out"
    run_dir = out_root / f"run-{args.workload}-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    try:
        wl = workloads.WORKLOADS[args.workload](ROOT, args.seed)
        setup_times = []
        for k in range(SETUPS):
            work = run_dir / f"setup{k}"
            work.mkdir(parents=True)
            t0 = time.perf_counter()
            wl.setup(work)
            _, ok, texts = run_op(cli, wl.op(WARMUP_OP + k, work))
            setup_times.append(time.perf_counter() - t0)
            if not ok:
                print("error: warm-up op failed:\n" + "\n".join(texts), file=sys.stderr)
                return 1
        import_times = [t_import] + [import_seconds_fresh() for _ in range(SETUPS - 1)]
        print(f"{args.workload}: set-up = median of imports {[round(t, 3) for t in import_times]} s "
              f"+ median of inputs and warm-up {[round(t, 3) for t in setup_times]} s", file=sys.stderr)
        ops_dir = run_dir / "ops"
        ops_dir.mkdir()

        tracer = Tracer() if args.trace else None
        ops = []  # (index, ms, ok, stdouts, traced)
        t_phase = time.perf_counter()
        i = succeeded = 0
        while True:
            commands = wl.op(i, ops_dir)
            traced = tracer is not None and i % 2 == 1
            if traced:
                tracer.op = i
                tracer.install()
            ms, ok, stdouts = run_op(cli, commands)
            if traced:
                tracer.uninstall()
            ops.append((i, ms, ok, stdouts, traced))
            succeeded += ok
            i += 1
            elapsed = time.perf_counter() - t_phase
            if elapsed >= args.seconds and succeeded >= MIN_OPS:
                break
            if succeeded < MIN_OPS and elapsed >= PHASE_LIMIT_S:
                failures = [op[3] for op in ops if not op[2]]
                print(f"error: {succeeded} of {len(ops)} ops succeeded in {elapsed:.0f} s, fewer than {MIN_OPS}"
                      + ("; first failure:\n" + "\n".join(failures[0]) if failures else ""), file=sys.stderr)
                return 1
        phase_s = time.perf_counter() - t_phase
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        failed = len(ops) - succeeded
        problems = check_outputs(wl, ops, ops_dir)
        for msg in problems[:10]:
            print(f"check failed: {msg}", file=sys.stderr)

        if tracer is None:
            op_ms = [op[1] for op in ops if op[2]]
            metrics = {
                "setup_s": statistics.median(import_times) + statistics.median(setup_times),
                "op_p50_ms": statistics.median(op_ms),
                "op_p90_ms": p90(op_ms),
                "ops_per_s": (len(ops) - failed) / phase_s,
                "peak_rss_mb": peak_rss_mb,
            }
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        else:
            metrics = layer_metrics(spec, tracer, wl, ops, ops_dir)
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            trace_path = out_root / f"trace-{args.workload}-{args.seed}.json"
            trace_path.write_text(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "span_fields": ["op", "name", "start_ns", "end_ns", "parent"],
                "spans": tracer.spans, "totals": tracer.layer_totals(), "per_layer": metrics,
                "op_ms": {"traced": [op[1] for op in ops if op[4]], "untraced": [op[1] for op in ops if not op[4]]},
            }))
            print(f"trace written to {trace_path}", file=sys.stderr)

        for name, value in metrics.items():
            print(f"{args.workload}: {name} = {value:.6g} {units[name]}", file=sys.stderr)
        print(f"{args.workload}: attempted {len(ops)}, failed {failed}, correct {not problems}", file=sys.stderr)
        print(json.dumps({
            "correct": not problems,
            "attempted": len(ops),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
