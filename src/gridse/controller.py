"""Binary switching controller for discrete linear dynamics.

The state follows x+ = A x + b u with u in {0,1}; each step pays a quadratic
tracking cost (x - r)^T Q (x - r) plus a charge beta whenever u differs from
the previous switch position z. The discounted cost-to-go is approximated by
a single quadratic V(x) = (x - theta)^T P (x - theta) + v whose P is the
fixed point P = Q + alpha A^T P A, found by one direct solve of that discrete
Lyapunov equation: below 10 states one dense Kronecker-product system in
numpy, from 10 up scipy's bilinear transformation to a continuous Lyapunov
equation, which it solves by Bartels-Stewart (solve_discrete_lyapunov). The
induced switching function
f(x) = V(Ax + b) - V(Ax) = 2 b^T P (A x - theta) + b^T P b is affine; its
coefficients come from that exact expansion, with the paper's printed
closed-form candidates reported alongside for comparison. A gridded
value-iteration oracle provides an independent reference solution for
systems with at most two state dimensions.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .network import ParameterError, _read_only


MAX_STEPS = 1_000_000        # rollout length cap, checked before allocating (n + 2 numbers a step)
SWEEP_TOL = 1e-8             # oracle sweeps stop once one changes V by less than this (sup norm)
MAX_SWEEPS = 10_000          # oracle sweeps before MaxSweepsExceeded
MAX_GRID_POINTS = 1_000_000  # oracle cap on resolution**n, checked before allocating the grid


class UnstableSystem(ValueError):
    """alpha * rho(A)^2 >= 1: the quadratic fixed point does not exist."""


class SingularP(RuntimeError):
    """Solved P is singular; theta is undefined (degenerate stage cost)."""


class LyapunovResidual(RuntimeError):
    """The solved P misses its fixed point by more than 1e-10 * max(1, max|P|)."""


class NonAffineResidual(RuntimeError):
    """The switching function failed its affinity check."""


class MaxSweepsExceeded(RuntimeError):
    """Grid value iteration did not reach SWEEP_TOL within MAX_SWEEPS sweeps."""


class NoInteriorPoints(ValueError):
    """No oracle grid point lies in the interior third of the box."""


@dataclass(frozen=True)
class SwitchedSystem:
    A: np.ndarray       # n x n dynamics
    b: np.ndarray       # (n,) input vector, applied when u = 1
    alpha: float        # discount factor in (0, 1)
    beta: float         # switching cost >= 0
    Q: np.ndarray       # n x n positive semidefinite stage-cost weight
    r: np.ndarray       # (n,) reference vector

    def __post_init__(self):
        a = _read_only(self.A)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ParameterError("A", "A must be a square matrix")
        if a.shape[0] == 0:
            raise ParameterError("A", "A must have at least one row, got shape (0, 0)")
        n = a.shape[0]
        b, q, r = _read_only(self.b), _read_only(self.Q), _read_only(self.r)
        if b.shape != (n,):
            raise ParameterError("b", f"b must have length n = {n}, got shape {b.shape}")
        if r.shape != (n,):
            raise ParameterError("r", f"r must have length n = {n}, got shape {r.shape}")
        if q.shape != (n, n):
            raise ParameterError("Q", f"Q must be n x n with n = {n}, got shape {q.shape}")
        for name, value in (("A", a), ("b", b), ("Q", q), ("r", r), ("alpha", self.alpha), ("beta", self.beta)):
            if not np.all(np.isfinite(value)):
                raise ParameterError(name, "A, b, Q, r, alpha and beta must be finite")
        if not (0 < self.alpha < 1):
            raise ParameterError("alpha", f"alpha must be in (0, 1), got {self.alpha}")
        if self.beta < 0:
            raise ParameterError("beta", f"beta must be >= 0, got {self.beta}")
        if np.max(np.abs(q - q.T)) > 1e-12:
            raise ParameterError("Q", "Q must be symmetric")
        if np.min(np.linalg.eigvalsh(q)) < -1e-12:
            raise ParameterError("Q", "Q must be positive semidefinite")
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


def discretize(a_continuous, b_continuous, dt: float) -> tuple:
    """Forward-Euler discretization (A, b_d) = (I + a*dt, b*dt). An a that is
    not n x n, a b not of shape (n,), or either one not finite, also times dt,
    raises ParameterError naming it."""
    if not (0 < dt < np.inf):
        raise ParameterError("dt", f"dt must be finite and > 0, got {dt}")
    a, b = np.asarray(a_continuous, dtype=float), np.asarray(b_continuous, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ParameterError("a", "a must be a square matrix")
    n = a.shape[0]
    if b.shape != (n,):
        raise ParameterError("b", f"b must have length n = {n}, got shape {b.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        a_d, b_d = np.eye(n) + a * dt, b * dt
    for name, value in (("a", a_d), ("b", b_d)):
        if not np.all(np.isfinite(value)):
            raise ParameterError(name, f"{name} and {name} * dt must be finite, got dt = {dt}")
    return a_d, b_d


@dataclass(frozen=True)
class QuadraticValue:
    P: np.ndarray
    theta: np.ndarray
    v: float

    def __post_init__(self):
        object.__setattr__(self, "P", _read_only(self.P))
        object.__setattr__(self, "theta", _read_only(self.theta))


@dataclass(frozen=True)
class SwitchingFunction:
    """Affine switching function f(x) = delta . x + zeta.

    delta/zeta expand V(Ax+b) - V(Ax) exactly; the closed_form_* fields carry
    the paper's printed coefficient formulas (-2 A^T P theta and
    theta^T P theta - 2 b^T P theta) for comparison, and max_affine_gap is the
    largest deviation of delta . x + zeta from the quadratic-form difference
    at the check points.
    """

    delta: np.ndarray
    zeta: float
    closed_form_delta: np.ndarray
    closed_form_zeta: float
    max_affine_gap: float

    def __post_init__(self):
        object.__setattr__(self, "delta", _read_only(self.delta))
        object.__setattr__(self, "closed_form_delta", _read_only(self.closed_form_delta))

    def evaluate(self, x) -> float:
        return float(self.delta @ np.asarray(x, dtype=float) + self.zeta)


def _quadratic_forms(points, center: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """(p - center)^T weight (p - center) for each row p of `points`.

    Each row's last product is a 1x1 matmul, which numpy computes with the
    same BLAS dot as the one-point d @ weight @ d, so the two round alike; an
    einsum or an elementwise row sum does not, since that dot fuses multiply
    and add."""
    d = np.asarray(points, dtype=float) - center
    return ((d @ weight)[:, None, :] @ d[:, :, None])[:, 0, 0]


def solve_discrete_lyapunov(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """X with a X a^T - X + q = 0 for a real n x n `a`, by the method that
    scipy.linalg's function of this name picks for n (Gajic & Qureshi 2008).

    Below 10 states that is its `direct` method, the (n^2 x n^2) linear system
    (I - a (x) a) vec(X) = vec(q), solved here in numpy so that the controller
    does not load scipy. From 10 up, where that system's n^4 entries grow too
    costly, scipy's own function runs its `bilinear` method.
    """
    n = a.shape[0]
    if n < 10:
        return np.linalg.solve(np.eye(n * n) - np.kron(a, a), q.reshape(-1)).reshape(n, n)
    from scipy.linalg import solve_discrete_lyapunov as bilinear
    return bilinear(a, q)


def solve_quadratic_value(system: SwitchedSystem) -> QuadraticValue:
    """Fixed point of P = Q + alpha A^T P A, then theta and the offset v.

    Requires alpha * rho(A)^2 < 1. P solves the discrete Lyapunov equation
    (sqrt(alpha) A^T) P (sqrt(alpha) A) - P + Q = 0 directly, so its cost
    does not grow as alpha * rho(A)^2 approaches 1; the fixed-point residual
    is then checked against 1e-10 * max(1, max|P|), or LyapunovResidual.
    """
    rho = system.spectral_radius
    growth = system.alpha * (rho * rho)  # a float product overflows to inf, where rho**2 raises OverflowError
    if growth >= 1:
        raise UnstableSystem(f"alpha * rho(A)^2 = {growth:.6f} >= 1; no quadratic fixed point")
    a, q, alpha = system.A, system.Q, system.alpha
    p = solve_discrete_lyapunov(np.sqrt(alpha) * a.T, q)
    residual = float(np.max(np.abs(p - q - alpha * a.T @ p @ a)))
    limit = 1e-10 * max(1.0, float(np.max(np.abs(p))))
    if residual >= limit:
        raise LyapunovResidual(f"fixed-point residual {residual:.3e} did not reach {limit:.3e}")

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
    """f(x) = V(Ax + b) - V(Ax) = 2 b^T P (A x - theta) + b^T P b.

    delta = 2 A^T P b and zeta = b^T P b - 2 theta^T P b (the offset v
    cancels). The expansion is checked against the difference of the two
    quadratic forms at n + 10 pseudo-random points; a gap above 1e-9 times
    the size of those forms (a non-symmetric P, say) raises NonAffineResidual.
    """
    a, b, p, theta = system.A, system.b, qv.P, qv.theta
    pb = p @ b
    delta = 2.0 * a.T @ pb
    zeta = float(b @ pb - 2.0 * theta @ pb)

    pts = np.random.default_rng(0).standard_normal((system.n + 10, system.n))
    d0 = pts @ a.T - theta
    d1 = d0 + b
    q1 = np.einsum("ij,jk,ik->i", d1, p, d1)
    q0 = np.einsum("ij,jk,ik->i", d0, p, d0)
    gaps = np.abs(q1 - q0 - (pts @ delta + zeta))
    scale = np.abs(q1) + np.abs(q0)
    if np.any(gaps > 1e-9 * scale):
        raise NonAffineResidual(
            f"affinity check failed: max gap {np.max(gaps):.3e} against quadratic forms "
            f"up to {np.max(scale):.3e}"
        )
    return SwitchingFunction(
        delta=delta,
        zeta=zeta,
        closed_form_delta=-2.0 * a.T @ p @ theta,
        closed_form_zeta=float(theta @ p @ theta - 2.0 * b @ p @ theta),
        max_affine_gap=float(np.max(gaps)),
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
        object.__setattr__(self, "lower", _read_only(self.lower))
        object.__setattr__(self, "upper", _read_only(self.upper))
        object.__setattr__(self, "residuals", tuple(self.residuals))

    @property
    def points(self) -> np.ndarray:
        """(resolution**n, n) grid points, in the row order of v0/v1 flattened."""
        return _grid_points(self.lower, self.upper, self.resolution)


def _grid_points(lower: np.ndarray, upper: np.ndarray, resolution: int) -> np.ndarray:
    axes = [np.linspace(lo, hi, resolution) for lo, hi in zip(lower, upper)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def _interp_stencil(points: np.ndarray, lower: np.ndarray, upper: np.ndarray, resolution: int) -> tuple:
    """Multilinear interpolation at `points` on the grid: flat grid indices and
    per-dimension weight factors, each with one row per cell corner, corners
    in row-major order. The value at the points is then the sum over corners,
    in that order, of table[index] * factor_1 * ... * factor_n, evaluated
    left to right."""
    pos = (points - lower) / ((upper - lower) / (resolution - 1))
    i0 = np.clip(np.floor(pos).astype(int), 0, resolution - 2)
    w = (pos - i0).T
    strides = resolution ** np.arange(points.shape[1])[::-1]
    corners = np.array(list(np.ndindex((2,) * points.shape[1])))
    factors = [np.where(corners[:, d, None], w[d], 1 - w[d]) for d in range(points.shape[1])]
    return (i0 + corners[:, None]) @ strides, factors


def _interpolate(flat_table: np.ndarray, stencil: tuple) -> np.ndarray:
    index, factors = stencil
    terms = flat_table.take(index)
    for f in factors:
        terms *= f
    return np.add.reduce(terms)  # row by row: ((corner 0 + corner 1) + corner 2) + ...


def bellman_value_iteration(
    system: SwitchedSystem,
    box,
    resolution: int,
) -> GridOracle:
    """Tabulate V0/V1 on a grid by Jacobi value-iteration sweeps.

    Successor states A x + b u are evaluated by multilinear interpolation
    with clamping at the box boundary; sweeps run until the sup-norm change
    drops below SWEEP_TOL. V0 and V1 share one stacked table [V0; V1] and one
    stencil, so a sweep is one interpolation; every operation keeps the
    operands and order of separate V0 and V1 sweeps, so the tables and
    residuals are theirs bit for bit. Desk-scale only: n must be 1 or 2.
    A box whose grid step rounds to 0, or whose stage costs or values
    overflow, raises ParameterError naming the box.
    """
    n = system.n
    if n > 2:
        raise ParameterError("system", "grid oracle supports only 1- or 2-dimensional systems")
    if not (resolution >= 2 and resolution**n <= MAX_GRID_POINTS):
        raise ParameterError("resolution", f"resolution must be >= 2 with resolution**n <= {MAX_GRID_POINTS}, "
                                           f"got {resolution}**{n}")

    lower = np.asarray(box[0], dtype=float)
    upper = np.asarray(box[1], dtype=float)
    if lower.shape == (1,) and n > 1:  # one (LO, HI) pair for every dimension
        lower = np.repeat(lower, n)
        upper = np.repeat(upper, n)
    with np.errstate(over="ignore", invalid="ignore"):  # a box too wide for float64 is rejected, here or below
        if lower.shape != (n,) or upper.shape != (n,) or not np.all((lower < upper) & (upper - lower < np.inf)):
            raise ParameterError("box", "box must provide finite lower < upper bounds per dimension")
        points = _grid_points(lower, upper, resolution)
        d = points - system.r
        q_vals = np.tile(np.einsum("ij,jk,ik->i", d, system.Q, d), 2)
        succ = np.concatenate([points @ system.A.T + u * system.b for u in (0, 1)])
        value_bound = q_vals.max() / (1 - system.alpha)  # every table entry lies in [0, value_bound]
    if not (np.all((upper - lower) / (resolution - 1) > 0) and np.isfinite(value_bound)
            and not np.isnan(succ).any()):  # a successor past the box is clamped to it, one at inf too
        raise ParameterError("box", "box must give a grid step > 0 and finite stage costs and values, "
                                    f"got {lower.tolist()}..{upper.tolist()}")
    size = points.shape[0]
    clipped = np.clip(succ, lower, upper)
    clamped = bool(np.any(clipped != succ))
    shift = np.repeat([0, size], size)  # successors under u = 1 read V1, the table's second half
    index, factors = _interp_stencil(clipped, lower, upper, resolution)
    stencil = (index + shift, factors)

    alpha, beta = system.alpha, system.beta
    v = np.zeros(2 * size)
    b = np.empty(2 * size)  # beta + a with its halves swapped
    residuals = []
    for _ in range(MAX_SWEEPS):
        a = _interpolate(v, stencil) * alpha  # [alpha V0(A x); alpha V1(A x + b)]
        np.add(beta, a[size:], out=b[:size])
        np.add(beta, a[:size], out=b[size:])
        new = np.add(q_vals, np.minimum(a, b, out=a), out=a)  # V0 = q + min(a0, b1), V1 = q + min(b0, a1)
        resid = float(np.abs(np.subtract(v, new, out=v), out=v).max())
        residuals.append(resid)
        v = new
        if resid < SWEEP_TOL:
            break
    else:
        raise MaxSweepsExceeded(
            f"residual {residuals[-1]:.3e} after {MAX_SWEEPS} sweeps (tol {SWEEP_TOL:.1e})"
        )

    shape = (resolution,) * n
    return GridOracle(
        lower=lower,
        upper=upper,
        resolution=resolution,
        v0=v[:size].reshape(shape),
        v1=v[size:].reshape(shape),
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
    if not np.any(inner):
        raise NoInteriorPoints("no grid point in the interior third of the box")
    points = points[inner]
    v0 = oracle.v0.reshape(-1)[inner]
    v1 = oracle.v1.reshape(-1)[inner]
    quad = _quadratic_forms(points, qv.theta, qv.P) + qv.v
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


def _rollout(system: SwitchedSystem, x0, z0: int, steps: int, sf: Optional[SwitchingFunction],
             u_const: int = 0) -> SimulationResult:
    """Rollout from (x0, z0): the hysteresis policy when sf is given, else
    u = u_const held at every step (one switching charge at step 0 if it
    differs from z0).

    The loop computes only what the next step depends on: the decision and
    the state recursion, which stays a numpy matvec because its rounding is
    pinned by the 2-d simulate golden. Switches and stage costs are then
    computed from the stored states and inputs in one batch. An x0 not of
    shape (n,) or not finite, or a rollout whose states or costs leave the
    float range, raises ParameterError naming x0."""
    if not 1 <= steps <= MAX_STEPS:
        raise ParameterError("steps", f"steps must be in 1..{MAX_STEPS}, got {steps}")
    if z0 not in (0, 1):
        raise ParameterError("z0", f"z0 must be 0 or 1, got {z0}")
    n = system.n
    x = np.asarray(x0, dtype=float)
    if x.shape != (n,) or not np.all(np.isfinite(x)):
        raise ParameterError("x0", f"x0 must hold n = {n} finite numbers, got {x.tolist()}")
    z = int(z0)
    states = np.empty((steps, n))
    inputs = np.empty(steps, dtype=int)
    b_u = (system.b * 0, system.b * 1)  # system.b * u, with b * 0's signed zeros
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow leaves a total that is not finite
        for k in range(steps):
            u = u_const if sf is None else policy_decide(x, z, system, sf)
            states[k] = x
            inputs[k] = u
            x = system.A @ x + b_u[u]
            z = u
        switched = inputs != np.concatenate(([z0], inputs[:-1]))
        costs = _quadratic_forms(states, system.r, system.Q)
        costs[switched] += system.beta
        total = float(np.sum(system.alpha ** np.arange(steps) * costs))
    if not np.isfinite(total):
        raise ParameterError("x0", f"the rollout from x0 = {states[0].tolist()} leaves the float range "
                                   f"within {steps} steps")
    return SimulationResult(states=states, inputs=inputs, stage_costs=costs, discounted_total=total,
                            switch_count=int(np.count_nonzero(switched)))


def output_gain(system: SwitchedSystem, output) -> np.ndarray:
    """The row gain of y = output . x as a read-only array; one that is not n
    finite numbers in shape (n,) raises ParameterError naming output."""
    gain = _read_only(output)
    if gain.shape != (system.n,) or not np.all(np.isfinite(gain)):
        raise ParameterError("output", f"output must hold n = {system.n} finite numbers, got {gain.tolist()}")
    return gain


def simulate(system: SwitchedSystem, x0, z0: int, steps: int, sf: SwitchingFunction,
             output=None) -> SimulationResult:
    """Closed-loop rollout under the hysteresis policy; an output row gain,
    checked by output_gain, adds the scalar y = output . x per step. A y that
    is not finite raises ParameterError naming x0, as a rollout that leaves
    the float range does."""
    sim = _rollout(system, x0, z0, steps, sf)
    if output is None:
        return sim
    gain = output_gain(system, output)
    with np.errstate(over="ignore", invalid="ignore"):
        y = sim.states @ gain
    if not np.all(np.isfinite(y)):
        raise ParameterError("x0", f"the output y of the rollout from x0 = {sim.states[0].tolist()} "
                                   f"leaves the float range within {steps} steps")
    return replace(sim, outputs=y)


def evaluate_constant_policy(system: SwitchedSystem, u_const: int, x0, z0: int, steps: int) -> float:
    """Discounted cost of holding u = u_const."""
    if u_const not in (0, 1):
        raise ParameterError("u_const", f"u_const must be 0 or 1, got {u_const}")
    return _rollout(system, x0, z0, steps, None, u_const).discounted_total
