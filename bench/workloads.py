"""The benchmark's three workloads: their inputs, their operations and the
checks on every output.

A workload makes its inputs from the workload seed in `setup`, names the CLI
commands of operation i in `op`, checks one operation's outputs in
`check_op` and checks run-wide properties in `check_run`. Every check
recomputes what it needs with the benchmark's own code (gridref.py and the
controller helpers below); none compares against a stored copy of an
earlier output. A failed check raises CheckError.
"""
from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

import gridref

IEEE14 = Path("src/gridse/cases/ieee14")
SCALAR_CONFIG = Path("src/gridse/cases/scalar_controller.json")
TILING_SEED = 14      # fixed, so every run and every seed measures the same grid
REPORT_COLUMNS = ["snapshot", "bus", "v_true_pu", "v_est_pu", "angle_true_deg", "angle_est_deg",
                  "iterations", "objective", "converged"]
CHI2_BAND = (0.85, 1.15)  # mean J/(m-n) over a run, the acceptance suite's band
SD_BOUND = 7.0            # estimate error bound, in estimate standard deviations
HALF_ULP4 = 0.5e-4        # half a unit of the report's 4th decimal


class CheckError(AssertionError):
    pass


def ensure(cond, message: str) -> None:
    if not cond:
        raise CheckError(message)


def op_seed(seed: int, i: int) -> int:
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


# --------------------------------------------------------------- grid inputs

def load_curve(seed: int) -> np.ndarray:
    """96-point daily load multiplier (15-minute steps): a night trough, a
    morning and an evening peak, plus seeded noise of 1%; 4 decimals."""
    h = np.arange(96) / 4.0
    shape = 0.82 + 0.12 * np.exp(-(((h - 8.5) / 2.5) ** 2)) + 0.2 * np.exp(-(((h - 19.0) / 2.5) ** 2))
    noise = np.random.default_rng([seed, 96]).normal(0.0, 0.01, 96)
    return np.round(shape + noise, 4)


def write_tiled_case(base_dir: Path, tiles: int, out_dir: Path) -> Path:
    """Tile a case `tiles` times into one meshed grid.

    Copy t keeps the base buses and lines with ids shifted by t*n. Every copy
    after the first turns its slack into a PV bus that generates the base
    case's slack output, so each tile balances. Copy t (t >= 1) is joined to
    earlier copies by two tie lines between seeded random buses.
    """
    base = gridref.read_grid(base_dir)
    vm, va = gridref.power_flow(base)
    v = vm * np.exp(1j * va)
    slack_mw = float((v * np.conj(base.ybus() @ v))[base.slack].real * base.base_mva)
    with open(base_dir / "buses.csv", newline="") as fh:
        bus_rows = list(csv.DictReader(fh))
    with open(base_dir / "lines.csv", newline="") as fh:
        line_rows = list(csv.DictReader(fh))
    n = len(bus_rows)
    rng = np.random.default_rng(TILING_SEED)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "buses.csv", "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["bus", "vsp_pu", "pg_mw", "qg_mvar", "pl_mw", "ql_mvar", "kind"])
        for t in range(tiles):
            for i, row in enumerate(bus_rows):
                kind, pg = base.kind[i], row["pg_mw"]
                if t > 0 and kind == "slack":
                    kind, pg = "pv", repr(slack_mw)
                w.writerow([t * n + i + 1, row["vsp_pu"], pg, row["qg_mvar"], row["pl_mw"], row["ql_mvar"], kind])
    with open(out_dir / "lines.csv", "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["from_bus", "to_bus", "r_pu", "x_pu", "b_half_pu"])
        for t in range(tiles):
            for row in line_rows:
                w.writerow([int(row["from_bus"]) + t * n, int(row["to_bus"]) + t * n,
                            row["r_pu"], row["x_pu"], row["b_half_pu"]])
            for _ in range(2 if t > 0 else 0):
                a = int(rng.integers(0, t)) * n + int(rng.integers(1, n + 1))
                b = t * n + int(rng.integers(1, n + 1))
                w.writerow([a, b, "0.02", "0.08", "0.01"])
    (out_dir / "case.json").write_text(json.dumps({"version": "1", "base_mva": base.base_mva}) + "\n")
    return out_dir


class _GridReference:
    """Reference truth and estimate standard deviations for one grid."""

    def __init__(self, grid: gridref.Grid):
        self.grid = grid
        self.ybus = grid.ybus()
        self.model = gridref.Model(grid)
        vm, va = gridref.power_flow(grid)
        self.vm, self.va = vm, va
        self.x = self.model.vector(vm, va)
        sd = self.model.state_sd(self.x)
        self.sd_va = np.zeros(grid.n)
        self.sd_va[self.model.non_slack] = sd[: grid.n - 1]
        self.sd_vm = sd[grid.n - 1:]

    def check_estimate(self, vm_est, va_est, where: str, tol: float = 0.0) -> None:
        """Estimate error within SD_BOUND standard deviations (+ print rounding)."""
        dv = np.abs(vm_est - self.vm) - (SD_BOUND * self.sd_vm + tol)
        da = np.abs(va_est - self.va) - (SD_BOUND * self.sd_va + np.radians(tol))
        ensure(np.all(dv <= 0), f"{where}: |V| estimate off truth by more than {SD_BOUND} sd at bus {np.argmax(dv) + 1}")
        ensure(np.all(da <= 0), f"{where}: angle estimate off truth by more than {SD_BOUND} sd at bus {np.argmax(da) + 1}")


def check_chi2_band(name: str, j_per_dof: list) -> None:
    mean = float(np.mean(j_per_dof))
    ensure(CHI2_BAND[0] <= mean <= CHI2_BAND[1], f"{name}: mean J/(m-n) = {mean:.4f} outside {CHI2_BAND}")


# ------------------------------------------------------------------ workloads

class Ieee14Snapshots:
    """One op: `snapshots --case ieee14 --count 8` over the next two-hour
    window of the daily load curve, with its own derived seed."""

    name = "ieee14-snapshots"
    count = 8

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        self.base = gridref.read_grid(root / IEEE14)
        self.refs = {}
        self.j_per_dof = []

    def setup(self, work_dir: Path) -> None:
        self.curve = load_curve(self.seed)

    def scales(self, i: int) -> list:
        w = i % (self.curve.size // self.count)
        return [float(s) for s in self.curve[w * self.count:(w + 1) * self.count]]

    def op(self, i: int, out_dir: Path) -> list:
        return [["snapshots", "--case", "ieee14", "--count", str(self.count),
                 "--load-scale", ",".join(repr(s) for s in self.scales(i)),
                 "--seed", str(op_seed(self.seed, i)), "--out", str(out_dir / f"op{i}.csv")]]

    def _ref(self, scale: float) -> _GridReference:
        if scale not in self.refs:
            self.refs[scale] = _GridReference(self.base.scaled(scale))
        return self.refs[scale]

    def check_op(self, i: int, out_dir: Path, stdouts: list) -> None:
        with open(out_dir / f"op{i}.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        ensure(rows and rows[0] == REPORT_COLUMNS, f"op {i}: report header {rows[:1]}")
        n = self.base.n
        ensure(len(rows) - 1 == self.count * n, f"op {i}: {len(rows) - 1} report rows, expected {self.count * n}")
        table = rows[1:]
        m, n_state = 3 * n + 4 * self.base.f.size, 2 * n - 1
        for k, scale in enumerate(self.scales(i)):
            block = table[k * n:(k + 1) * n]
            where = f"op {i} snapshot {k}"
            ensure([(int(r[0]), int(r[1])) for r in block] == [(k, b + 1) for b in range(n)],
                   f"{where}: snapshot/bus columns out of order")
            ensure(all(r[8] == "true" for r in block), f"{where}: estimate did not converge")
            slack = block[self.base.slack]
            ensure(slack[4] == "0.0000" and slack[5] == "0.0000", f"{where}: slack angle is not exactly 0")
            ref = self._ref(scale)
            v_true = np.array([float(r[2]) for r in block])
            a_true = np.radians([float(r[4]) for r in block])
            ensure(np.max(np.abs(v_true - ref.vm)) <= HALF_ULP4 + 1e-8, f"{where}: truth |V| is not the power-flow solution")
            ensure(np.max(np.abs(a_true - ref.va)) <= np.radians(HALF_ULP4) + 1e-8,
                   f"{where}: truth angle is not the power-flow solution")
            ref.check_estimate(np.array([float(r[3]) for r in block]), np.radians([float(r[5]) for r in block]),
                               where, tol=HALF_ULP4)
            objectives = {r[7] for r in block}
            ensure(len(objectives) == 1, f"{where}: objective differs between bus rows")
            self.j_per_dof.append(float(objectives.pop()) / (m - n_state))

    def check_run(self) -> None:
        check_chi2_band(self.name, self.j_per_dof)


class MeshEstimate:
    """One op: `estimate --case <mesh> --seed s` on eight joined IEEE-14 tiles
    (112 buses), flat start, reloading the case every time."""

    name = "mesh-estimate"
    tiles = 8

    def __init__(self, root: Path, seed: int):
        self.root, self.seed = root, seed
        self.j_per_dof = []
        self.ref = None

    def setup(self, work_dir: Path) -> None:
        self.case_dir = write_tiled_case(self.root / IEEE14, self.tiles, work_dir / f"mesh{14 * self.tiles}")

    def op(self, i: int, out_dir: Path) -> list:
        return [["estimate", "--case", str(self.case_dir), "--seed", str(op_seed(self.seed, i)),
                 "--out", str(out_dir / f"op{i}.json")]]

    def check_op(self, i: int, out_dir: Path, stdouts: list) -> None:
        if self.ref is None:
            self.ref = _GridReference(gridref.read_grid(self.case_dir))
        ref, grid, where = self.ref, self.ref.grid, f"op {i}"
        out = json.loads((out_dir / f"op{i}.json").read_text())
        ensure(out["converged"] is True, f"{where}: estimate did not converge")
        ensure(out["measurement_count"] == ref.model.m, f"{where}: {out['measurement_count']} measurements, expected {ref.model.m}")
        ensure(out["objective_history"][-1] == out["objective"], f"{where}: objective is not the last history entry")
        buses = out["buses"]
        ensure([b["bus"] for b in buses] == list(range(1, grid.n + 1)), f"{where}: bus rows out of order")
        vm_true = np.array([b["v_true_pu"] for b in buses])
        va_true = np.radians([b["angle_true_deg"] for b in buses])
        ensure(gridref.mismatch(grid, ref.ybus, vm_true, va_true) <= 1e-8,
               f"{where}: truth state misses the specified injections by more than 1e-8")
        fixed = np.array([k != "pq" for k in grid.kind])
        ensure(np.all(vm_true[fixed] == grid.vsp[fixed]), f"{where}: truth |V| off setpoint at a PV/slack bus")
        slack = buses[grid.slack]
        ensure(slack["angle_deg"] == 0.0 and slack["angle_true_deg"] == 0.0, f"{where}: slack angle is not exactly 0")
        vm_est = np.array([b["v_pu"] for b in buses])
        va_est = np.radians([b["angle_deg"] for b in buses])
        ref.check_estimate(vm_est, va_est, where)
        self.j_per_dof.append(out["objective"] / (ref.model.m - ref.model.n_state))
        if i == 0:
            self._check_minimum(op_seed(self.seed, i), out["objective"], ref.model.vector(vm_est, va_est), where)

    def _check_minimum(self, seed: int, objective: float, x_est: np.ndarray, where: str, step: float = 1e-4) -> None:
        """J from the benchmark's own h(x) matches the reported objective and
        does not decrease under a +-step in any state coordinate."""
        model = self.ref.model
        z = model.measurements(self.ref.x, seed)
        j0 = model.objective(z, x_est)
        ensure(abs(j0 - objective) <= 1e-6 * objective, f"{where}: own J {j0!r} != reported {objective!r}")
        for k in range(x_est.size):
            for s in (step, -step):
                x = x_est.copy()
                x[k] += s
                ensure(model.objective(z, x) >= j0, f"{where}: J decreases along state coordinate {k}")

    def check_run(self) -> None:
        check_chi2_band(self.name, self.j_per_dof)


# ------------------------------------------------------------- controller

CONFIG_2D = {
    # rotation-like dynamics with rho(A) = 0.986 and alpha = 0.98, so
    # alpha * rho(A)^2 = 0.953 and the P fixed point converges slowly
    "A": [[0.979, -0.098], [0.148, 0.979]],
    "b": [0.05, 0.02],
    "alpha": 0.98,
    "beta": 0.1,
    "Q": [[1.0, 0.0], [0.0, 1.0]],
    "r": [0.0, 0.25],
}
STEPS = 2000
# per config: oracle box (LO,HI per dimension), oracle resolution, range of x0
SHAPES = (([-0.5, 2.5], 801, (-0.5, 2.5)), ([-1.0, 1.0, -1.0, 1.5], 21, (-0.5, 0.5)))


class _Config:
    """A controller config as the checks see it, with reference P."""

    def __init__(self, path: Path, box: list, resolution: int):
        # imported here, not at the top: only the checks need them, and
        # run.py reads the peak RSS before any check runs
        from scipy.linalg import solve_discrete_lyapunov

        raw = json.loads(path.read_text())
        self.box, self.resolution = box, resolution
        self.A = np.atleast_2d(np.array(raw["A"], dtype=float))
        self.b = np.reshape(np.array(raw["b"], dtype=float), -1)
        self.alpha, self.beta = float(raw["alpha"]), float(raw["beta"])
        self.Q = np.atleast_2d(np.array(raw["Q"], dtype=float))
        self.r = np.reshape(np.array(raw["r"], dtype=float), -1)
        self.n = self.b.size
        self.P = solve_discrete_lyapunov(np.sqrt(self.alpha) * self.A.T, self.Q)
        # x_k under a constant input u: A^k x0 + u * sum_{j<k} A^j b
        self.powers = np.empty((STEPS, self.n, self.n))
        self.drift = np.zeros((STEPS, self.n))
        self.powers[0] = np.eye(self.n)
        for k in range(1, STEPS):
            self.powers[k] = self.A @ self.powers[k - 1]
            self.drift[k] = self.A @ self.drift[k - 1] + self.b
        self.discount = self.alpha ** np.arange(STEPS)

    def cost(self, xs: np.ndarray) -> np.ndarray:
        d = xs - self.r
        return np.einsum("ki,ij,kj->k", d, self.Q, d)

    def constant_policy_cost(self, x0: np.ndarray, z0: int, u: int) -> float:
        xs = self.powers @ x0 + u * self.drift
        costs = self.cost(xs)
        costs[0] += self.beta * (u != z0)
        return float(self.discount @ costs)

    def bellman_residual(self, points: np.ndarray, v0: np.ndarray, v1: np.ndarray) -> float:
        """max |T(V) - V| for one Jacobi sweep on the tabulated values."""
        from scipy.interpolate import RegularGridInterpolator

        lower, upper = np.array(self.box[0::2]), np.array(self.box[1::2])
        axes = [np.linspace(lower[d], upper[d], self.resolution) for d in range(self.n)]
        shape = (self.resolution,) * self.n
        ev = []
        for u, table in ((0, v0), (1, v1)):
            succ = np.clip(points @ self.A.T + u * self.b, lower, upper)
            ev.append(RegularGridInterpolator(axes, table.reshape(shape))(succ))
        q = self.cost(points)
        new0 = q + np.minimum(self.alpha * ev[0], self.beta + self.alpha * ev[1])
        new1 = q + np.minimum(self.beta + self.alpha * ev[0], self.alpha * ev[1])
        return float(max(np.max(np.abs(new0 - v0)), np.max(np.abs(new1 - v1))))


class ControllerStudy:
    """One op: `controller solve`, `simulate --steps 2000` and `oracle` on the
    shipped scalar config and on a 2-d config written at set-up."""

    name = "controller-study"

    def __init__(self, root: Path, seed: int):
        self.root, self.seed = root, seed
        self.configs = None

    def setup(self, work_dir: Path) -> None:
        self.config_paths = [self.root / SCALAR_CONFIG, work_dir / "ctl2d.json"]
        self.config_paths[1].write_text(json.dumps(CONFIG_2D, indent=2) + "\n")

    def start(self, i: int, c: int):
        """(x0, z0) of op i's simulation on config c."""
        box, _, (lo, hi) = SHAPES[c]
        rng = np.random.default_rng([self.seed, i, c])
        return rng.uniform(lo, hi, len(box) // 2), int(rng.integers(0, 2))

    def op(self, i: int, out_dir: Path) -> list:
        cmds = []
        for c, path in enumerate(self.config_paths):
            box, resolution, _ = SHAPES[c]
            x0, z0 = self.start(i, c)
            cmds += [
                ["controller", "solve", "--config", str(path), "--out", str(out_dir / f"op{i}_{c}_solve.json")],
                ["controller", "simulate", "--config", str(path), "--steps", str(STEPS),
                 "--x0", ",".join(repr(float(v)) for v in x0), "--z0", str(z0),
                 "--out", str(out_dir / f"op{i}_{c}_traj.csv")],
                ["controller", "oracle", "--config", str(path), "--box", ",".join(repr(float(v)) for v in box),
                 "--resolution", str(resolution), "--out", str(out_dir / f"op{i}_{c}_grid.csv")],
            ]
        return cmds

    def check_op(self, i: int, out_dir: Path, stdouts: list) -> None:
        if self.configs is None:
            self.configs = [_Config(p, box, res) for p, (box, res, _) in zip(self.config_paths, SHAPES)]
        for c, cfg in enumerate(self.configs):
            where = f"op {i} config {c}"
            solve = json.loads((out_dir / f"op{i}_{c}_solve.json").read_text())
            check_solve(cfg, solve, np.random.default_rng([self.seed, i]).standard_normal((8, cfg.n)), where)
            x0, z0 = self.start(i, c)
            check_trajectory(cfg, solve, x0, z0, (out_dir / f"op{i}_{c}_traj.csv").read_text(),
                             json.loads(stdouts[3 * c + 1]), where)
            check_oracle(cfg, (out_dir / f"op{i}_{c}_grid.csv").read_text(), json.loads(stdouts[3 * c + 2]), where)

    def check_run(self) -> None:
        pass


def check_solve(cfg: _Config, solve: dict, points: np.ndarray, where: str) -> None:
    P = np.array(solve["P"])
    scale = max(1.0, float(np.max(np.abs(cfg.P))))
    ensure(np.max(np.abs(P - cfg.P)) <= 1e-9 * scale, f"{where}: P differs from the discrete Lyapunov solution")
    theta = np.array(solve["theta"])
    delta, zeta = np.array(solve["delta"]), solve["zeta"]

    def value(x):
        d = x - theta
        return np.einsum("ki,ij,kj->k", d, P, d)

    ax = points @ cfg.A.T
    direct = value(ax + cfg.b) - value(ax)
    ensure(np.max(np.abs(direct - (points @ delta + zeta))) <= 1e-9 * max(1.0, float(np.max(np.abs(direct)))),
           f"{where}: V(Ax+b) - V(Ax) is not delta.x + zeta")


def check_trajectory(cfg: _Config, solve: dict, x0: np.ndarray, z0: int, text: str, summary: dict, where: str) -> None:
    rows = list(csv.reader(text.splitlines()))
    header = ["step"] + [f"x{k + 1}" for k in range(cfg.n)] + ["u", "stage_cost"]
    ensure(rows[0] == header, f"{where}: trajectory header {rows[0]}")
    ensure(len(rows) - 1 == STEPS, f"{where}: {len(rows) - 1} trajectory rows, expected {STEPS}")
    data = np.array(rows[1:], dtype=float)
    ensure(np.all(data[:, 0] == np.arange(STEPS)), f"{where}: step column")
    xs, u, cost = data[:, 1:1 + cfg.n], data[:, 1 + cfg.n].astype(int), data[:, 2 + cfg.n]
    ensure(np.all(xs[0] == x0), f"{where}: trajectory does not start at x0")
    ensure(set(np.unique(u)) <= {0, 1}, f"{where}: u outside {{0, 1}}")
    nxt = xs[:-1] @ cfg.A.T + u[:-1, None] * cfg.b
    ensure(np.all(np.abs(xs[1:] - nxt) <= 1e-12 * (1.0 + np.abs(nxt))), f"{where}: x+ != A x + b u")
    z = np.concatenate([[z0], u[:-1]])
    f = xs @ np.array(solve["delta"]) + solve["zeta"]
    margin = np.where(z == 0, cfg.beta + cfg.alpha * f, cfg.beta - cfg.alpha * f)
    expected = np.where(margin >= 0, z, 1 - z)
    clear = np.abs(margin) > 1e-9 * (1.0 + np.abs(f))
    bad = np.flatnonzero(clear & (expected != u))
    ensure(bad.size == 0, f"{where}: u is not the hysteresis choice at step {bad[:1]}")
    want = cfg.cost(xs) + cfg.beta * (u != z)
    ensure(np.all(np.abs(cost - want) <= 1e-12 * (1.0 + want)), f"{where}: stage costs")
    total = float(cfg.discount @ cost)
    ensure(abs(summary["discounted_total"] - total) <= 1e-9 * total, f"{where}: discounted_total")
    ensure(summary["switch_count"] == int(np.sum(u != z)), f"{where}: switch_count")
    for u_const in (0, 1):
        other = cfg.constant_policy_cost(x0, z0, u_const)
        ensure(total <= other * (1 + 1e-9), f"{where}: policy cost {total:.6g} above constant u={u_const} cost {other:.6g}")


def check_oracle(cfg: _Config, text: str, report: dict, where: str) -> None:
    rows = list(csv.reader(text.splitlines()))
    ensure(rows[0] == [f"x{k + 1}" for k in range(cfg.n)] + ["v0", "v1"], f"{where}: grid header {rows[0]}")
    ensure(len(rows) - 1 == cfg.resolution ** cfg.n, f"{where}: {len(rows) - 1} grid rows")
    data = np.array(rows[1:], dtype=float)
    ensure(report["final_residual"] < 1e-8, f"{where}: oracle final_residual {report['final_residual']}")
    v0, v1 = data[:, cfg.n], data[:, cfg.n + 1]
    resid = cfg.bellman_residual(data[:, :cfg.n], v0, v1)
    ensure(resid <= 1e-8 + 1e-12 * float(np.max(np.abs(data[:, cfg.n:]))),
           f"{where}: one more Bellman sweep moves V by {resid:.3e}")


WORKLOADS = {w.name: w for w in (Ieee14Snapshots, MeshEstimate, ControllerStudy)}
