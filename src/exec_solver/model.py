"""Economic domain types, strategy rollout and objective evaluation.

The trader unwinds q shares over [0, T] with trading speed u. Inventory
follows Q' = -u, the transient distortion Z accumulates past trades
weighted by a propagator kernel, and the performance functional is

    J(u) = sum_k (P_k - Z_k) u_k dt - lam * sum_k u_k^2 dt
           + Q_n P_T - phi * sum_k Q_k^2 dt - varrho * Q_n^2,

all time integrals taken with the left-endpoint rule on a uniform grid, so
that the rollout and the direct quadratic-program oracle share one discrete
objective. The integral-equation solver discretises the optimality equation
on its own, so its speeds trail the oracle's optimum by a first-order gap.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericError

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
        if not (isinstance(value, numbers.Real) and math.isfinite(value)):
            raise InputError(f"{type(obj).__name__} needs a finite {name}, got {value!r}")


def toeplitz_view(col: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Read-only view T[k, j] = row[j - k] for j >= k and col[k - j] below.

    Every row of T is a window of one line, [col[:0:-1], row]: row k
    starts k places left of row 0. So T is one strided view of that line,
    with a step of one element back per row and one forward per column,
    made by one array constructor (about 1 us, where the argument handling
    of a reversed ``sliding_window_view`` took about 15 us at n = 200).
    col[0] is not read: row[0] is the diagonal. Both need an entry.
    """
    line = np.concatenate((col[:0:-1], row))
    step = line.itemsize
    view = np.ndarray((col.size, row.size), line.dtype, line, (col.size - 1) * step,
                      (-step, step))
    view.flags.writeable = False
    return view


@dataclass(frozen=True, eq=False)
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
        try:
            h0 = np.asarray(self.h0, dtype=float)
        except (TypeError, ValueError) as exc:
            raise InputError(f"h0 must be a number or a vector, got {self.h0!r}") from exc
        if h0.ndim > 1:
            raise InputError("tabulated h0 must be a 1-d vector of grid values")
        if not np.all(np.isfinite(h0)):
            raise InputError("initial distortion h0 must be finite")
        object.__setattr__(self, "h0", float(h0) if h0.ndim == 0 else h0)
        if not self.T > 0:
            raise InputError(f"horizon T must be > 0, got {self.T}")
        if not self.lam > 0:
            raise InputError(f"temporary impact lam must be > 0, got {self.lam}")
        if self.varrho < 0:
            raise InputError(f"terminal penalty varrho must be >= 0, got {self.varrho}")
        if self.phi < 0:
            raise InputError(f"running penalty phi must be >= 0, got {self.phi}")

    def h0_values(self, grid: TimeGrid) -> np.ndarray:
        """Initial distortion evaluated on the grid, shape (n+1,)."""
        if isinstance(self.h0, np.ndarray) and self.h0.shape != (grid.n + 1,):
            raise InputError(
                f"tabulated h0 has {self.h0.shape[0]} values, grid needs {grid.n + 1}"
            )
        return np.full(grid.n + 1, self.h0)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < t_1 < ... < t_n = T with dt = T/n."""

    n: int
    T: float
    t: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, (int, np.integer)):
            raise InputError(f"grid needs an integer number of steps, got n={self.n!r}")
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
    """The five signed parts of the performance functional and their sum.

    Each part is a float for one path and an array of one value per path
    for a batch.
    """

    revenue: float | np.ndarray
    temporary_cost: float | np.ndarray
    transient_cost: float | np.ndarray
    running_penalty: float | np.ndarray
    terminal_penalty: float | np.ndarray
    total: float | np.ndarray

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

    Each array has shape (n+1,) for one path or (paths, n+1) for a batch.

    u   trading speed
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


def _check_paths(grid: TimeGrid, **arrays: np.ndarray):
    """Raise InputError unless all arrays have the shape of the first, which
    must be one path (n+1,) or a batch (paths, n+1)."""
    shape = next(iter(arrays.values())).shape
    valid = len(shape) in (1, 2) and shape[-1] == grid.n + 1
    for name, arr in arrays.items():
        if not valid or arr.shape != shape:
            want = shape if valid else f"({grid.n + 1},) or (paths, {grid.n + 1})"
            raise InputError(f"{name} has shape {arr.shape}, expected {want}")


def inventory_path(u: np.ndarray, q: float, dt: float) -> np.ndarray:
    """Inventory by the exact left-endpoint recurrence Q_{i+1} = Q_i - u_i dt.

    One running difference over [q, u_0 dt, ..., u_{n-1} dt] on the last
    axis, for one path or a batch, rounds exactly like the recurrence. It
    runs in place, so the steps array becomes the inventory.
    """
    steps = np.empty(u.shape)
    steps[..., 0] = q
    np.multiply(u[..., :-1], dt, out=steps[..., 1:])
    return np.subtract.accumulate(steps, axis=-1, out=steps)


def rollout(u: np.ndarray, params: ScenarioParams, grid: TimeGrid, kernel,
            signal_values: np.ndarray | None = None) -> StrategyPath:
    """Roll speeds forward: inventory and transient distortion.

    ``u`` is one speed vector (n+1,) or a batch (paths, n+1), and
    ``signal_values`` has the same shape.

    Z_k = h0(t_k) + sum_{j<k} (integral of the kernel over cell j at t_k) u_j,
    using the exact cell integrals of the pure propagator. On the uniform
    grid that integral is cell[k-1-j]: one path takes one causal
    convolution, a batch one product with the dense lower Toeplitz LG.
    """
    from .kernels import integrated_increments

    _check_grid(params, grid)
    u = np.asarray(u, dtype=float)
    I = np.zeros_like(u) if signal_values is None else np.asarray(signal_values, float)
    _check_paths(grid, u=u, signal_values=I)

    return _rollout(u, I, params, grid, integrated_increments(kernel, params, grid))


def _rollout(u: np.ndarray, I: np.ndarray, params: ScenarioParams, grid: TimeGrid,
             inc) -> StrategyPath:
    """``rollout`` of checked speeds and signal values on built increments.

    A caller that rolls out many batches on one grid builds the increments
    once.
    """
    Q = inventory_path(u, params.q, grid.dt)
    if u.ndim == 1:
        Z = params.h0_values(grid)
        Z[1:] += np.convolve(inc.cell, u[:-1])[:grid.n]
    else:
        Z = u @ inc.LG.T
        Z += params.h0_values(grid)
    return StrategyPath(u=u, Q=Q, Z=Z, I=I)


def evaluate_objective(path: StrategyPath, params: ScenarioParams, grid: TimeGrid,
                       price_path: np.ndarray) -> ObjectiveBreakdown:
    """Pathwise objective of rolled-out strategies against realized price paths.

    ``path`` holds one path or a batch, and ``price_path`` has the shape of
    its speeds. All running sums use the left-endpoint rule (indices
    0..n-1); the book value Q_n * P_T and the terminal penalty use the
    endpoint.
    """
    _check_grid(params, grid)
    n, dt = grid.n, grid.dt
    P = np.asarray(price_path, dtype=float)
    _check_paths(grid, u=path.u, Q=path.Q, Z=path.Z, price_path=P)

    def running_sum(x, y):
        return np.einsum("...k,...k->...", x[..., :n], y[..., :n])

    u, Q, Z = path.u, path.Q, path.Z
    q_end = Q[..., n]
    parts = (dt * running_sum(P, u) + q_end * P[..., n],
             params.lam * dt * running_sum(u, u),
             dt * running_sum(Z, u),
             params.phi * dt * running_sum(Q, Q),
             params.varrho * q_end**2)
    if not all(np.all(np.isfinite(part)) for part in parts):
        raise NumericError("non-finite objective: the strategy overflows double precision")
    if u.ndim == 1:
        parts = map(float, parts)
    return ObjectiveBreakdown.from_parts(*parts)
