"""Per-layer spans and counts for gridse, recorded from outside the package.

`Tracer.install()` replaces public functions in every loaded gridse module's
namespace (the defining module and each module that imported the name) with
wrappers that record a span (op, name, start, end, parent) in memory;
`uninstall()` puts the originals back. Self time is a span's duration minus
the durations of its direct children. Iteration and sweep counts are read
from the returned result objects.
"""
from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# module -> functions traced as "<module>.<function>" spans
SPANS = {
    "network": ("build_ybus", "with_scaled_loads"),
    "powerflow": ("solve_power_flow", "injection_jacobian", "calc_injections"),
    "measurements": ("generate_measurements", "evaluate_h", "jacobian_h"),
    "estimator": ("estimate", "solve_normal_equations", "gain_matrix", "objective_j"),
    "controller": ("solve_quadratic_value", "switching_function", "simulate",
                   "bellman_value_iteration", "compare_value_functions"),
    "scenario": ("load_case", "run_snapshots", "load_switched_system"),
}
# (module, function) -> span name, where it is not "<module>.<function>"
RENAMED = {
    ("cli", "cli_dispatch"): "cli",
    ("scenario", "render_report_csv"): "scenario.render_report",
    ("scenario", "render_report_json"): "scenario.render_report",
    ("estimator", "cho_factor"): "estimator.cholesky",
    ("estimator", "cho_solve"): "estimator.cholesky",
}
# span name -> (count name, reader of the returned result)
RESULT_COUNTS = {
    "powerflow.solve_power_flow": ("powerflow.iterations", lambda r: r.iterations),
    "estimator.estimate": ("estimator.gn_iterations", lambda r: r.iterations),
    "controller.bellman_value_iteration": ("controller.oracle_sweeps", lambda r: r.sweeps),
}
# functions called once per simulated step: counted, not spanned
CALL_COUNTS = {("controller", "policy_decide"): "controller.policy_decide.calls"}


class Tracer:
    def __init__(self):
        self.spans = []      # [op, name, start_ns, end_ns, parent index or -1]
        self.counts = Counter()
        self.op = 0
        self._stack = []
        self._patches = []   # (module, attribute, original)

    def _span(self, name, fn):
        count = RESULT_COUNTS.get(name)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = [self.op, name, time.perf_counter_ns(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter_ns()
                stack.pop()
            if count is not None:
                self.counts[count[0]] += count[1](result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        targets = {(mod, fn): f"{mod}.{fn}" for mod, fns in SPANS.items() for fn in fns}
        targets.update(RENAMED)
        wrappers = {}
        for (mod, fn), name in targets.items():
            original = getattr(sys.modules[f"gridse.{mod}"], fn)
            wrappers[id(original)] = (original, self._span(name, original))
        for (mod, fn), name in CALL_COUNTS.items():
            original = getattr(sys.modules[f"gridse.{mod}"], fn)
            wrappers[id(original)] = (original, self._counter(name, original))
        modules = [m for key, m in sys.modules.items() if key == "gridse" or key.startswith("gridse.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def layer_totals(self) -> dict:
        """Totals over all traced ops: "<span>.ms", "<span>.self_ms", "<span>.calls",
        the result counts, and evaluate_h calls made inside estimate."""
        spans = self.spans
        child = [0] * len(spans)
        for _, _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(float)
        for idx, (_, name, start, end, _) in enumerate(spans):
            totals[f"{name}.ms"] += (end - start) / 1e6
            totals[f"{name}.self_ms"] += (end - start - child[idx]) / 1e6
            totals[f"{name}.calls"] += 1
        for idx, (_, name, _, _, parent) in enumerate(spans):
            if name == "measurements.evaluate_h":
                while parent >= 0 and spans[parent][1] != "estimator.estimate":
                    parent = spans[parent][4]
                totals["measurements.evaluate_h.in_estimate"] += parent >= 0
        totals.update(self.counts)
        return dict(totals)
