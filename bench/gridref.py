"""Grid computations made apart from gridse, used to check its outputs.

Everything here reads the case CSVs itself and uses the textbook complex
forms: Y from the branch pi model, S = V conj(Y V) for injections and
S_ft = V_f conj(I_ft) for branch flows. Nothing is imported from gridse.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SIGMA_V, SIGMA_INJ, SIGMA_FLOW = 0.004, 0.01, 0.008  # the CLI's documented defaults


@dataclass
class Grid:
    vsp: np.ndarray       # voltage setpoints, pu
    p_gen: np.ndarray     # MW
    q_gen: np.ndarray
    p_load: np.ndarray
    q_load: np.ndarray
    kind: list            # "slack" | "pv" | "pq"
    f: np.ndarray         # 0-based branch from-bus
    t: np.ndarray         # 0-based branch to-bus
    ys: np.ndarray        # complex series admittance
    bsh: np.ndarray       # half charging susceptance
    base_mva: float = 100.0

    @property
    def n(self) -> int:
        return self.vsp.shape[0]

    @property
    def slack(self) -> int:
        return self.kind.index("slack")

    def scaled(self, scale: float) -> "Grid":
        return Grid(self.vsp, self.p_gen, self.q_gen, self.p_load * scale, self.q_load * scale,
                    self.kind, self.f, self.t, self.ys, self.bsh, self.base_mva)

    def ybus(self) -> np.ndarray:
        n = self.n
        y = np.zeros((n, n), dtype=complex)
        np.add.at(y, (self.f, self.t), -self.ys)
        np.add.at(y, (self.t, self.f), -self.ys)
        np.add.at(y, (self.f, self.f), self.ys + 1j * self.bsh)
        np.add.at(y, (self.t, self.t), self.ys + 1j * self.bsh)
        return y

    def s_spec(self) -> np.ndarray:
        return ((self.p_gen - self.p_load) + 1j * (self.q_gen - self.q_load)) / self.base_mva


def read_grid(case_dir) -> Grid:
    """Parse buses.csv / lines.csv; kinds follow the documented inference rule
    (bus 1 slack; vsp != 1 and generating -> pv; else pq) unless a kind column
    is present."""
    case_dir = Path(case_dir)
    with open(case_dir / "buses.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    num = lambda key: np.array([float(r[key]) for r in rows])
    vsp, pg, qg = num("vsp_pu"), num("pg_mw"), num("qg_mvar")
    kinds = []
    for r in rows:
        if r.get("kind"):
            kinds.append(r["kind"].lower())
        elif int(r["bus"]) == 1:
            kinds.append("slack")
        elif float(r["vsp_pu"]) != 1.0 and (float(r["pg_mw"]) > 0 or float(r["qg_mvar"]) != 0):
            kinds.append("pv")
        else:
            kinds.append("pq")
    with open(case_dir / "lines.csv", newline="") as fh:
        lines = list(csv.DictReader(fh))
    z = np.array([complex(float(r["r_pu"]), float(r["x_pu"])) for r in lines])
    meta_path = case_dir / "case.json"
    meta = json.loads(meta_path.read_text()) if meta_path.is_file() else {}
    if meta.get("bus_load_weights"):
        raise ValueError(f"{case_dir}: bus_load_weights are not modelled here")
    return Grid(vsp=vsp, p_gen=pg, q_gen=qg, p_load=num("pl_mw"), q_load=num("ql_mvar"), kind=kinds,
                f=np.array([int(r["from_bus"]) - 1 for r in lines]),
                t=np.array([int(r["to_bus"]) - 1 for r in lines]),
                ys=1.0 / z, bsh=np.array([float(r["b_half_pu"]) for r in lines]),
                base_mva=float(meta.get("base_mva", 100.0)))


def mismatch(grid: Grid, ybus: np.ndarray, vm: np.ndarray, va: np.ndarray) -> float:
    """Largest injection mismatch: P at non-slack buses, Q at PQ buses."""
    v = vm * np.exp(1j * va)
    d = grid.s_spec() - v * np.conj(ybus @ v)
    non_slack = np.array([k != "slack" for k in grid.kind])
    pq = np.array([k == "pq" for k in grid.kind])
    return float(max(np.max(np.abs(d.real[non_slack])), np.max(np.abs(d.imag[pq]), initial=0.0)))


def power_flow(grid: Grid, tol: float = 1e-11, max_iter: int = 30):
    """Newton power flow in rectangular-complex form; returns (vm, va)."""
    y = grid.ybus()
    ang = np.array([i for i, k in enumerate(grid.kind) if k != "slack"])
    mag = np.array([i for i, k in enumerate(grid.kind) if k == "pq"], dtype=int)
    vm = np.where(np.array(grid.kind) == "pq", 1.0, grid.vsp)
    va = np.zeros(grid.n)
    spec = grid.s_spec()
    for _ in range(max_iter):
        v = vm * np.exp(1j * va)
        i_bus = y @ v
        d = spec - v * np.conj(i_bus)
        f = np.concatenate([d.real[ang], d.imag[mag]])
        if np.max(np.abs(f)) < tol:
            return vm, va
        # dS/dVa = j diag(V) conj(diag(I) - Y diag(V)); dS/dVm = diag(V) conj(Y diag(V/|V|)) + conj(diag(I)) diag(V/|V|)
        vn = v / vm
        ds_da = 1j * v[:, None] * np.conj(np.diag(i_bus) - y * v[None, :])
        ds_dm = v[:, None] * np.conj(y * vn[None, :]) + np.diag(np.conj(i_bus) * vn)
        jac = np.block([[ds_da.real[np.ix_(ang, ang)], ds_dm.real[np.ix_(ang, mag)]],
                        [ds_da.imag[np.ix_(mag, ang)], ds_dm.imag[np.ix_(mag, mag)]]])
        step = np.linalg.solve(jac, f)
        va[ang] += step[: ang.size]
        vm[mag] += step[ang.size:]
    raise RuntimeError("reference power flow did not converge")


class Model:
    """h(x) for the full measurement plan, in the CLI's plan order: every |V|,
    every P injection, every Q injection, then per branch P_from, P_to,
    Q_from, Q_to. x = [angles of non-slack buses, all magnitudes]."""

    def __init__(self, grid: Grid):
        self.grid = grid
        self.y = grid.ybus()
        n, nb = grid.n, grid.f.size
        self.m = 3 * n + 4 * nb
        self.n_state = 2 * n - 1
        self.non_slack = np.array([i for i in range(n) if i != grid.slack])
        self.sigmas = np.concatenate([np.full(n, SIGMA_V), np.full(2 * n, SIGMA_INJ), np.full(4 * nb, SIGMA_FLOW)])

    def state(self, x):
        va = np.zeros(self.grid.n)
        va[self.non_slack] = x[: self.grid.n - 1]
        return x[self.grid.n - 1:], va

    def vector(self, vm, va):
        return np.concatenate([va[self.non_slack], vm])

    def h(self, x) -> np.ndarray:
        g = self.grid
        vm, va = self.state(x)
        v = vm * np.exp(1j * va)
        s = v * np.conj(self.y @ v)
        vf, vt = v[g.f], v[g.t]
        s_from = vf * np.conj((g.ys + 1j * g.bsh) * vf - g.ys * vt)
        s_to = vt * np.conj((g.ys + 1j * g.bsh) * vt - g.ys * vf)
        flows = np.column_stack([s_from.real, s_to.real, s_from.imag, s_to.imag]).reshape(-1)
        return np.concatenate([vm, s.real, s.imag, flows])

    def jacobian_fd(self, x, step: float = 1e-6) -> np.ndarray:
        cols = []
        for k in range(x.size):
            e = np.zeros(x.size)
            e[k] = step
            cols.append((self.h(x + e) - self.h(x - e)) / (2 * step))
        return np.column_stack(cols)

    def state_sd(self, x) -> np.ndarray:
        """Standard deviation of each WLS state estimate, sqrt(diag(G^-1))."""
        hm = self.jacobian_fd(x) / self.sigmas[:, None]
        return np.sqrt(np.diag(np.linalg.inv(hm.T @ hm)))

    def measurements(self, x_true, seed: int) -> np.ndarray:
        """z = h(truth) + sigma_i e_i, e_i the first normal draw of the PCG64
        stream keyed by (seed, i), as the measurement docs specify."""
        e = np.array([np.random.default_rng([seed, i]).standard_normal() for i in range(self.m)])
        return self.h(x_true) + self.sigmas * e

    def objective(self, z, x) -> float:
        return float(np.sum(((z - self.h(x)) / self.sigmas) ** 2))
