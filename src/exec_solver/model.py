"""Economic domain types, strategy rollout and objective evaluation.

The trader unwinds q shares over [0, T] with trading speed u. Inventory
follows Q' = -u, the transient distortion Z accumulates past trades
weighted by a propagator kernel, and the performance functional is

    J(u) = sum_k (P_k - Z_k) u_k dt - lam * sum_k u_k^2 dt
           + Q_n P_T - phi * sum_k Q_k^2 dt - varrho * Q_n^2,

all time integrals taken with the left-endpoint rule on a uniform grid so
that the rollout, the direct quadratic-program oracle and the integral
equation solver all optimize the same discrete objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError

__all__ = [
    "ScenarioParams",
    "TimeGrid",
    "StrategyPath",
    "ObjectiveBreakdown",
    "rollout",
    "evaluate_objective",
]


def require_finite(obj, *names):
    """Raise InputError unless each named attribute of ``obj`` is a finite number."""
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise InputError(f"{type(obj).__name__} needs a finite {name}, got {value}")


@dataclass(frozen=True)
class ScenarioParams:
    """Economic inputs of a liquidation scenario.

    q       initial inventory (shares; any real, > 0 for sell programs)
    T       trading horizon (> 0)
    lam     temporary impact coefficient (> 0)
    varrho  terminal inventory penalty (>= 0)
    phi     running inventory penalty (>= 0)
    h0      initial transient distortion: a constant or a vector of n+1
            grid values (general closed forms are out of scope)
    """

    q: float
    T: float
    lam: float
    varrho: float = 0.0
    phi: float = 0.0
    h0: float | np.ndarray = 0.0

    def __post_init__(self):
        require_finite(self, "q", "T", "lam", "varrho", "phi")
        if not np.all(np.isfinite(self.h0)):
            raise InputError("initial distortion h0 must be finite")
        if not self.T > 0:
            raise InputError(f"horizon T must be > 0, got {self.T}")
        if not self.lam > 0:
            raise InputError(f"temporary impact lam must be > 0, got {self.lam}")
        if self.varrho < 0:
            raise InputError(f"terminal penalty varrho must be >= 0, got {self.varrho}")
        if self.phi < 0:
            raise InputError(f"running penalty phi must be >= 0, got {self.phi}")
        if isinstance(self.h0, np.ndarray) and self.h0.ndim != 1:
            raise InputError("tabulated h0 must be a 1-d vector of grid values")

    def h0_values(self, grid: TimeGrid) -> np.ndarray:
        """Initial distortion evaluated on the grid, shape (n+1,)."""
        if isinstance(self.h0, np.ndarray):
            if self.h0.shape != (grid.n + 1,):
                raise InputError(
                    f"tabulated h0 has {self.h0.shape[0]} values, grid needs {grid.n + 1}"
                )
            return self.h0.astype(float)
        return np.full(grid.n + 1, float(self.h0))


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < t_1 < ... < t_n = T with dt = T/n."""

    n: int
    T: float
    t: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 2:
            raise InputError(f"grid needs at least 2 steps, got n={self.n}")
        require_finite(self, "T")
        if not self.T > 0:
            raise InputError(f"horizon T must be > 0, got {self.T}")
        object.__setattr__(self, "t", np.linspace(0.0, self.T, self.n + 1))

    @property
    def dt(self) -> float:
        return self.T / self.n

    @classmethod
    def uniform(cls, T: float, n: int) -> "TimeGrid":
        return cls(n=n, T=T)


@dataclass(frozen=True)
class ObjectiveBreakdown:
    """The five signed parts of the performance functional and their sum."""

    revenue: float
    temporary_cost: float
    transient_cost: float
    running_penalty: float
    terminal_penalty: float
    total: float

    @classmethod
    def from_parts(cls, revenue, temporary_cost, transient_cost,
                   running_penalty, terminal_penalty) -> "ObjectiveBreakdown":
        total = (revenue - temporary_cost - transient_cost
                 - running_penalty - terminal_penalty)
        return cls(revenue, temporary_cost, transient_cost,
                   running_penalty, terminal_penalty, total)


@dataclass(frozen=True)
class StrategyPath:
    """Per-grid-point record of a strategy and its controlled state.

    u   trading speed (n+1,)
    Q   inventory, Q_0 = q and Q_{i+1} = Q_i - u_i dt exactly
    Z   transient price distortion
    I   signal values along the path (zeros when there is no signal)
    objective  filled once a price path is available
    """

    u: np.ndarray
    Q: np.ndarray
    Z: np.ndarray
    I: np.ndarray | None = None
    objective: ObjectiveBreakdown | None = None


def _check_grid(params: ScenarioParams, grid: TimeGrid):
    if abs(grid.T - params.T) > 1e-12 * max(1.0, abs(params.T)):
        raise InputError(f"grid horizon {grid.T} does not match scenario horizon {params.T}")


def inventory_path(u: np.ndarray, q: float, dt: float) -> np.ndarray:
    """Inventory by the exact left-endpoint recurrence Q_{i+1} = Q_i - u_i dt."""
    n = u.shape[0] - 1
    Q = np.empty(n + 1)
    Q[0] = q
    for i in range(n):
        Q[i + 1] = Q[i] - u[i] * dt
    return Q


def rollout(u: np.ndarray, params: ScenarioParams, grid: TimeGrid, kernel,
            signal_values: np.ndarray | None = None) -> StrategyPath:
    """Roll a speed vector forward: inventory and transient distortion.

    Z_k = h0(t_k) + sum_{j<k} (integral of the kernel over cell j at t_k) u_j,
    using the exact cell integrals of the pure propagator.
    """
    from .kernels import integrated_increments

    _check_grid(params, grid)
    u = np.asarray(u, dtype=float)
    if u.shape != (grid.n + 1,):
        raise InputError(f"speed vector has shape {u.shape}, expected ({grid.n + 1},)")

    inc = integrated_increments(kernel, params, grid)
    Q = inventory_path(u, params.q, grid.dt)
    Z = params.h0_values(grid) + inc.LG @ u
    I = np.zeros(grid.n + 1) if signal_values is None else np.asarray(signal_values, float)
    if I.shape != (grid.n + 1,):
        raise InputError(f"signal path has shape {I.shape}, expected ({grid.n + 1},)")
    return StrategyPath(u=u, Q=Q, Z=Z, I=I)


def evaluate_objective(path: StrategyPath, params: ScenarioParams, grid: TimeGrid,
                       price_path: np.ndarray) -> ObjectiveBreakdown:
    """Pathwise objective of a rolled-out strategy against a realized price path.

    All running sums use the left-endpoint rule (indices 0..n-1); the book
    value Q_n * P_T and the terminal penalty use the endpoint.
    """
    _check_grid(params, grid)
    n, dt = grid.n, grid.dt
    P = np.asarray(price_path, dtype=float)
    for name, vec in (("u", path.u), ("Q", path.Q), ("Z", path.Z), ("price_path", P)):
        if vec.shape != (n + 1,):
            raise InputError(f"{name} has shape {vec.shape}, expected ({n + 1},)")

    u, Q, Z = path.u, path.Q, path.Z
    revenue = dt * float(P[:n] @ u[:n]) + float(Q[n] * P[n])
    temporary = params.lam * dt * float(u[:n] @ u[:n])
    transient = dt * float(Z[:n] @ u[:n])
    running = params.phi * dt * float(Q[:n] @ Q[:n])
    terminal = params.varrho * float(Q[n]) ** 2
    return ObjectiveBreakdown.from_parts(revenue, temporary, transient, running, terminal)
