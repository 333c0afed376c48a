"""Binary switching controller for discrete linear dynamics.

The state follows x+ = A x + b u with u in {0,1}; each step pays a quadratic
tracking cost (x - r)^T Q (x - r) plus a charge beta whenever u differs from
the previous switch position z. The discounted cost-to-go is approximated by
a single quadratic V(x) = (x - theta)^T P (x - theta) + v whose P is the
fixed point P = Q + alpha A^T P A, found by one direct solve of that discrete
Lyapunov equation (Bartels-Stewart, via scipy). The induced switching function
f(x) = V(Ax + b) - V(Ax) is affine; its coefficients are recovered by direct
interpolation, with the alternative closed-form candidates reported alongside
for comparison. A gridded value-iteration oracle provides an independent
reference solution for systems with at most two state dimensions.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import solve_discrete_lyapunov


class UnstableSystem(ValueError):
    """alpha * rho(A)^2 >= 1: the quadratic fixed point does not exist."""


class SingularP(RuntimeError):
    """Solved P is singular; theta is undefined (degenerate stage cost)."""


class NonAffineResidual(RuntimeError):
    """The switching function failed its affinity check."""


class MaxSweepsExceeded(RuntimeError):
    """Grid value iteration did not reach tolerance within max_sweeps."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SwitchedSystem:
    A: np.ndarray       # n x n dynamics
    b: np.ndarray       # n input vector, applied when u = 1
    alpha: float        # discount factor in (0, 1)
    beta: float         # switching cost >= 0
    Q: np.ndarray       # n x n positive semidefinite stage-cost weight
    r: np.ndarray       # n reference vector

    def __post_init__(self):
        a = _readonly(self.A)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("A must be a square matrix")
        n = a.shape[0]
        b = _readonly(np.reshape(self.b, (-1,)))
        q = _readonly(self.Q)
        r = _readonly(np.reshape(self.r, (-1,)))
        if b.shape != (n,) or r.shape != (n,) or q.shape != (n, n):
            raise ValueError("b, r must have length n and Q must be n x n")
        if not (0 < self.alpha < 1):
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.beta < 0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if np.max(np.abs(q - q.T)) > 1e-12:
            raise ValueError("Q must be symmetric")
        if np.min(np.linalg.eigvalsh(q)) < -1e-12:
            raise ValueError("Q must be positive semidefinite")
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "Q", q)
        object.__setattr__(self, "r", r)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def spectral_radius(self) -> float:
        return float(np.max(np.abs(np.linalg.eigvals(self.A))))


@dataclass(frozen=True)
class ScalarOutput:
    """Row gain of a scalar output y = gain . x, used only in trajectory reports."""

    gain: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gain", _readonly(np.reshape(self.gain, (-1,))))

    def evaluate(self, x) -> float:
        return float(self.gain @ np.asarray(x, dtype=float))


@dataclass(frozen=True)
class DiscretizedModel:
    A: np.ndarray
    b: np.ndarray
    spectral_radius: float
    stable: bool  # advisory: rho(A) <= 1


def discretize(a_continuous, b_continuous, dt: float) -> DiscretizedModel:
    """Forward-Euler discretization A = I + a*dt, b_d = b*dt.

    The returned advisory flags an unstable discretization (rho(A) > 1),
    which for a stable continuous system means dt was chosen too large.
    """
    if not (dt > 0):
        raise ValueError(f"dt must be > 0, got {dt}")
    a = np.atleast_2d(np.asarray(a_continuous, dtype=float))
    b = np.reshape(np.asarray(b_continuous, dtype=float), (-1,))
    n = a.shape[0]
    if a.shape != (n, n) or b.shape != (n,):
        raise ValueError("a must be square and b of matching length")
    a_d = np.eye(n) + a * dt
    rho = float(np.max(np.abs(np.linalg.eigvals(a_d))))
    return DiscretizedModel(A=_readonly(a_d), b=_readonly(b * dt), spectral_radius=rho, stable=rho <= 1.0)


@dataclass(frozen=True)
class QuadraticValue:
    P: np.ndarray
    theta: np.ndarray
    v: float

    def __post_init__(self):
        object.__setattr__(self, "P", _readonly(self.P))
        object.__setattr__(self, "theta", _readonly(np.reshape(self.theta, (-1,))))

    def evaluate(self, x) -> float:
        d = np.asarray(x, dtype=float) - self.theta
        return float(d @ self.P @ d + self.v)


@dataclass(frozen=True)
class SwitchingFunction:
    """Affine switching function f(x) = delta . x + zeta.

    delta/zeta come from direct interpolation of V(Ax+b) - V(Ax); the
    closed_form_* fields carry the alternative printed coefficient formulas
    (-2 A^T P theta and theta^T P theta - 2 b^T P theta) for comparison, and
    max_affine_gap records the verified deviation of f from affinity.
    """

    delta: np.ndarray
    zeta: float
    closed_form_delta: np.ndarray
    closed_form_zeta: float
    max_affine_gap: float

    def __post_init__(self):
        object.__setattr__(self, "delta", _readonly(np.reshape(self.delta, (-1,))))
        object.__setattr__(self, "closed_form_delta", _readonly(np.reshape(self.closed_form_delta, (-1,))))

    def evaluate(self, x) -> float:
        return float(self.delta @ np.asarray(x, dtype=float) + self.zeta)


def stage_cost(x, z: int, u: int, system: SwitchedSystem) -> float:
    """(x - r)^T Q (x - r), plus the switching charge beta when u != z."""
    d = np.asarray(x, dtype=float) - system.r
    cost = float(d @ system.Q @ d)
    if u != z:
        cost += system.beta
    return cost


def solve_quadratic_value(system: SwitchedSystem) -> QuadraticValue:
    """Fixed point of P = Q + alpha A^T P A, then theta and the offset v.

    Requires alpha * rho(A)^2 < 1. P solves the discrete Lyapunov equation
    (sqrt(alpha) A^T) P (sqrt(alpha) A) - P + Q = 0 directly, so its cost
    does not grow as alpha * rho(A)^2 approaches 1; the fixed-point residual
    is then checked against 1e-10.
    """
    rho = system.spectral_radius
    if system.alpha * rho**2 >= 1:
        raise UnstableSystem(
            f"alpha * rho(A)^2 = {system.alpha * rho ** 2:.6f} >= 1; no quadratic fixed point"
        )
    a, q, alpha = system.A, system.Q, system.alpha
    p = solve_discrete_lyapunov(np.sqrt(alpha) * a.T, q)
    residual = float(np.max(np.abs(p - q - alpha * a.T @ p @ a)))
    if residual >= 1e-10:
        raise RuntimeError(f"fixed-point residual {residual:.3e} did not reach 1e-10")

    eigs = np.linalg.eigvalsh(p)
    if eigs[-1] <= 0 or eigs[0] <= 1e-12 * max(eigs[-1], 1.0):
        raise SingularP(f"P is singular (eigenvalues {eigs}); theta undefined")

    n = system.n
    rhs = q @ system.r - 0.5 * alpha * a.T @ p @ system.b
    theta = np.linalg.solve(p, np.linalg.solve(np.eye(n) - alpha * a.T, rhs))
    v = (
        system.r @ q @ system.r
        + 0.5 * system.beta
        + (alpha - 1.0) * theta @ p @ theta
        + 0.5 * alpha * system.b @ p @ system.b
        - alpha * system.b @ p @ theta
    ) / (1.0 - alpha)
    return QuadraticValue(P=p, theta=theta, v=float(v))


def switching_function(system: SwitchedSystem, qv: QuadraticValue) -> SwitchingFunction:
    """Recover the affine f(x) = V(Ax + b) - V(Ax) by interpolation.

    f is evaluated at the origin and the unit directions to read off the
    coefficients, then verified at n + 10 pseudo-random points; a deviation
    of 1e-9 or more raises NonAffineResidual (the quadratic terms cancel
    analytically, so any larger residual indicates a bug).
    """
    n = system.n
    a, b = system.A, system.b
    p, theta = qv.P, qv.theta

    def f_direct(x):
        # difference of the two quadratic forms; the shared offset v cancels
        # exactly and is omitted so large offsets cannot poison the result
        d1 = a @ x + b - theta
        d0 = a @ x - theta
        return float(d1 @ p @ d1 - d0 @ p @ d0)

    zeta = f_direct(np.zeros(n))
    delta = np.empty(n)
    for k in range(n):
        e = np.zeros(n)
        e[k] = 1.0
        delta[k] = f_direct(e) - zeta

    rng = np.random.default_rng(0)
    pts = rng.standard_normal((n + 10, n))
    max_gap = float(max(abs(f_direct(pt) - (delta @ pt + zeta)) for pt in pts))
    if max_gap >= 1e-9:
        raise NonAffineResidual(f"affinity check failed: max gap {max_gap:.3e}")

    closed_delta = -2.0 * a.T @ p @ theta
    closed_zeta = float(theta @ p @ theta - 2.0 * b @ p @ theta)
    return SwitchingFunction(
        delta=delta,
        zeta=float(zeta),
        closed_form_delta=closed_delta,
        closed_form_zeta=closed_zeta,
        max_affine_gap=max_gap,
    )


def policy_decide(x, z: int, system: SwitchedSystem, sf: SwitchingFunction) -> int:
    """Hysteresis policy: keep z unless the discounted advantage of the other
    branch beats the switching cost; exact ties keep u = z."""
    f = sf.evaluate(x)
    if z == 0:
        return 0 if system.beta + system.alpha * f >= 0 else 1
    return 1 if system.beta - system.alpha * f >= 0 else 0


@dataclass(frozen=True)
class GridOracle:
    """Tabulated V0/V1 from value iteration on a boxed grid."""

    lower: np.ndarray
    upper: np.ndarray
    resolution: int          # points per dimension
    v0: np.ndarray           # shape (resolution,) * n
    v1: np.ndarray
    sweeps: int
    residuals: tuple         # per-sweep sup-norm changes
    clamped: bool            # advisory: some successor state left the box

    def __post_init__(self):
        object.__setattr__(self, "lower", _readonly(np.reshape(self.lower, (-1,))))
        object.__setattr__(self, "upper", _readonly(np.reshape(self.upper, (-1,))))
        object.__setattr__(self, "residuals", tuple(self.residuals))

    @property
    def points(self) -> np.ndarray:
        """(resolution**n, n) grid points, in the row order of v0/v1 flattened."""
        return _grid_points(self.lower, self.upper, self.resolution)

    def evaluate(self, x, z: int) -> float:
        table = (self.v0 if z == 0 else self.v1).reshape(-1)
        pt = np.clip(np.reshape(np.asarray(x, dtype=float), (1, -1)), self.lower, self.upper)
        idx, wts = _interp_coords(pt, self.lower, self.upper, self.resolution)
        return float(_interp_apply(table, idx, wts, self.resolution)[0])


def _grid_points(lower: np.ndarray, upper: np.ndarray, resolution: int) -> np.ndarray:
    axes = [np.linspace(lo, hi, resolution) for lo, hi in zip(lower, upper)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def _interp_coords(points: np.ndarray, lower: np.ndarray, upper: np.ndarray, resolution: int):
    """Per-dimension lower cell indices and weights for multilinear interpolation."""
    steps = (upper - lower) / (resolution - 1)
    idx, wts = [], []
    for d in range(points.shape[1]):
        pos = (points[:, d] - lower[d]) / steps[d]
        i0 = np.clip(np.floor(pos).astype(int), 0, resolution - 2)
        idx.append(i0)
        wts.append(pos - i0)
    return idx, wts


def _interp_apply(flat_table: np.ndarray, idx: list, wts: list, resolution: int) -> np.ndarray:
    if len(idx) == 1:
        i0, w = idx[0], wts[0]
        return flat_table[i0] * (1.0 - w) + flat_table[i0 + 1] * w
    ix, iy = idx
    wx, wy = wts
    base = ix * resolution + iy
    v00 = flat_table[base]
    v01 = flat_table[base + 1]
    v10 = flat_table[base + resolution]
    v11 = flat_table[base + resolution + 1]
    return (
        v00 * (1 - wx) * (1 - wy)
        + v01 * (1 - wx) * wy
        + v10 * wx * (1 - wy)
        + v11 * wx * wy
    )


def bellman_value_iteration(
    system: SwitchedSystem,
    box,
    resolution: int,
    tol: float = 1e-8,
    max_sweeps: int = 10000,
) -> GridOracle:
    """Tabulate V0/V1 on a grid by Jacobi value-iteration sweeps.

    Successor states A x + b u are evaluated by multilinear interpolation
    with clamping at the box boundary; sweeps run until the sup-norm change
    drops below tol. Desk-scale only: n must be 1 or 2.
    """
    n = system.n
    if n > 2:
        raise ValueError("grid oracle supports only 1- or 2-dimensional systems")
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    if not (tol > 0):
        raise ValueError("tol must be > 0")

    lower = np.reshape(np.asarray(box[0], dtype=float), (-1,))
    upper = np.reshape(np.asarray(box[1], dtype=float), (-1,))
    if lower.shape == (1,) and n > 1:
        lower = np.repeat(lower, n)
        upper = np.repeat(upper, n)
    if lower.shape != (n,) or upper.shape != (n,) or not np.all(upper > lower):
        raise ValueError("box must provide lower < upper bounds per dimension")

    points = _grid_points(lower, upper, resolution)
    d = points - system.r
    q_vals = np.einsum("ij,jk,ik->i", d, system.Q, d)

    clamped = False
    interp = {}
    for u in (0, 1):
        succ = points @ system.A.T + u * system.b
        clipped = np.clip(succ, lower, upper)
        clamped = clamped or bool(np.any(clipped != succ))
        interp[u] = _interp_coords(clipped, lower, upper, resolution)

    alpha, beta = system.alpha, system.beta
    v0 = np.zeros(points.shape[0])
    v1 = np.zeros(points.shape[0])
    residuals = []
    for _ in range(max_sweeps):
        ev0 = _interp_apply(v0, *interp[0], resolution)  # V0 at successors under u=0
        ev1 = _interp_apply(v1, *interp[1], resolution)  # V1 at successors under u=1
        new_v0 = q_vals + np.minimum(alpha * ev0, beta + alpha * ev1)
        new_v1 = q_vals + np.minimum(beta + alpha * ev0, alpha * ev1)
        resid = max(float(np.max(np.abs(new_v0 - v0))), float(np.max(np.abs(new_v1 - v1))))
        residuals.append(resid)
        v0, v1 = new_v0, new_v1
        if resid < tol:
            break
    else:
        raise MaxSweepsExceeded(
            f"residual {residuals[-1]:.3e} after {max_sweeps} sweeps (tol {tol:.1e})"
        )

    shape = (resolution,) * n
    return GridOracle(
        lower=lower,
        upper=upper,
        resolution=resolution,
        v0=v0.reshape(shape),
        v1=v1.reshape(shape),
        sweeps=len(residuals),
        residuals=tuple(residuals),
        clamped=clamped,
    )


@dataclass(frozen=True)
class ValueComparison:
    """Quadratic approximation vs grid oracle over the interior third of the box."""

    max_gap_v0: float
    mean_gap_v0: float
    max_gap_v1: float
    mean_gap_v1: float
    points: int


def compare_value_functions(oracle: GridOracle, qv: QuadraticValue) -> ValueComparison:
    span = oracle.upper - oracle.lower
    points = oracle.points
    inner = np.all((points >= oracle.lower + span / 3.0) & (points <= oracle.upper - span / 3.0), axis=1)
    points = points[inner]
    v0 = oracle.v0.reshape(-1)[inner]
    v1 = oracle.v1.reshape(-1)[inner]
    quad = np.array([qv.evaluate(p) for p in points])
    gap0 = np.abs(quad - v0)
    gap1 = np.abs(quad - v1)
    return ValueComparison(
        max_gap_v0=float(np.max(gap0)),
        mean_gap_v0=float(np.mean(gap0)),
        max_gap_v1=float(np.max(gap1)),
        mean_gap_v1=float(np.mean(gap1)),
        points=points.shape[0],
    )


@dataclass(frozen=True)
class SimulationResult:
    states: np.ndarray       # (steps, n) state at the start of each step
    inputs: np.ndarray       # (steps,) applied u
    stage_costs: np.ndarray  # (steps,)
    discounted_total: float
    switch_count: int
    outputs: Optional[np.ndarray] = None  # (steps,) scalar output, if a gain was given


def simulate(
    system: SwitchedSystem,
    x0,
    z0: int,
    steps: int,
    sf: SwitchingFunction,
    output: Optional[ScalarOutput] = None,
) -> SimulationResult:
    """Closed-loop rollout under the hysteresis policy."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if z0 not in (0, 1):
        raise ValueError(f"z0 must be 0 or 1, got {z0}")
    n = system.n
    x = np.reshape(np.asarray(x0, dtype=float), (n,)).copy()
    z = int(z0)
    states = np.empty((steps, n))
    inputs = np.empty(steps, dtype=int)
    costs = np.empty(steps)
    switch_count = 0
    for k in range(steps):
        u = policy_decide(x, z, system, sf)
        states[k] = x
        inputs[k] = u
        costs[k] = stage_cost(x, z, u, system)
        if u != z:
            switch_count += 1
        x = system.A @ x + system.b * u
        z = u
    total = float(np.sum(system.alpha ** np.arange(steps) * costs))
    outputs = states @ output.gain if output is not None else None
    return SimulationResult(
        states=states,
        inputs=inputs,
        stage_costs=costs,
        discounted_total=total,
        switch_count=switch_count,
        outputs=outputs,
    )


def evaluate_constant_policy(system: SwitchedSystem, u_const: int, x0, z0: int, steps: int) -> float:
    """Discounted cost of holding u = u_const (one switching charge at step 0
    if u_const differs from z0)."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if u_const not in (0, 1) or z0 not in (0, 1):
        raise ValueError("u_const and z0 must be 0 or 1")
    x = np.reshape(np.asarray(x0, dtype=float), (system.n,)).copy()
    z = int(z0)
    total = 0.0
    disc = 1.0
    for _ in range(steps):
        total += disc * stage_cost(x, z, u_const, system)
        x = system.A @ x + system.b * u_const
        z = u_const
        disc *= system.alpha
    return total
