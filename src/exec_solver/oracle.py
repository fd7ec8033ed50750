"""Independent verification route for the grid solver.

For a deterministic price path the discrete objective is a concave
quadratic in the speed vector, so the optimum can be found directly from
the first-order condition. This module assembles that quadratic from the
same left-endpoint rules as ``evaluate_objective`` (an entirely separate
discretization from the integral-equation solver) and solves it. It also
provides Monte Carlo estimation plus behavioral optimality tests for
stochastic signals; both roll batches of paths out on increments built
once per call and evaluate them with ``evaluate_objective``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, ModelError, NumericError
from .kernels import IntegratedIncrements, PropagatorKernel, integrated_increments
from .model import ScenarioParams, TimeGrid, _rollout, evaluate_objective
from .nystrom import NystromEngine
from .signals import SignalModel, price_path, simulate_signal

__all__ = [
    "DiscreteQuadraticProgram",
    "assemble_qp",
    "solve_qp",
    "McEstimate",
    "mc_objective",
    "nystrom_rule",
    "twap_rule",
    "PerturbationRow",
    "PerturbationReport",
    "perturbation_test",
]


@dataclass(eq=False)
class DiscreteQuadraticProgram:
    """J(u) = u' H u / 2 + b' u + c0, the discrete objective as a quadratic.

    The left-endpoint rules never touch u_n, so H and b carry a zero last
    row/column and the quadratic reproduces the objective for any (n+1)
    speed vector; negative definiteness and the solve apply to the active
    n x n block. The assembly inputs are kept so the solution can be
    completed with the terminal feedback value of the speed.
    """

    H: np.ndarray
    b: np.ndarray
    c0: float
    params: ScenarioParams
    grid: TimeGrid
    inc: IntegratedIncrements
    price: np.ndarray

    @property
    def n(self) -> int:
        return self.grid.n

    def active(self) -> tuple[np.ndarray, np.ndarray]:
        n = self.n
        return self.H[:n, :n], self.b[:n]

    def value(self, u: np.ndarray) -> float:
        u = np.asarray(u, dtype=float)
        return float(0.5 * u @ self.H @ u + self.b @ u + self.c0)


def assemble_qp(params: ScenarioParams, inc: IntegratedIncrements, grid: TimeGrid,
                price: np.ndarray) -> DiscreteQuadraticProgram:
    """Expand the discrete objective for a deterministic price path.

    Raises ModelError when the active Hessian block is not negative
    definite. Its transient part is the strictly causal cell-integral
    matrix, not the kernel's continuum quadratic form, so even a
    nonnegative-definite kernel with lam > 0 can lose concavity on a coarse
    grid or at small lam (``kernels.concavity_failure`` tests the same
    block for phi = 0).
    """
    n, dt = grid.n, grid.dt
    price = np.asarray(price, dtype=float)
    if price.shape != (n + 1,):
        raise InputError(f"price path has shape {price.shape}, expected ({n + 1},)")

    h0g = params.h0_values(grid)
    lg = inc.LG[:n, :n]

    H = np.zeros((n + 1, n + 1))
    Ha = H[:n, :n]
    Ha -= 2.0 * params.lam * dt * np.eye(n)
    Ha -= dt * (lg + lg.T)
    Ha -= 2.0 * params.varrho * dt**2
    if params.phi > 0.0:
        # running penalty couples speeds through the inventory prefix sums:
        # (C'C)[j,j'] counts the left-endpoint cells after both trades
        idx = np.arange(n)
        ctc = (n - 1) - np.maximum.outer(idx, idx)
        Ha -= 2.0 * params.phi * dt**3 * ctc

    b = np.zeros(n + 1)
    b[:n] = dt * (price[:n] - h0g[:n]) - dt * price[n]
    b[:n] += 2.0 * params.varrho * params.q * dt
    if params.phi > 0.0:
        b[:n] += 2.0 * params.phi * params.q * dt**2 * (n - 1 - np.arange(n))

    c0 = (params.q * price[n]
          - params.phi * params.q**2 * params.T
          - params.varrho * params.q**2)

    try:
        np.linalg.cholesky(-H[:n, :n])
    except np.linalg.LinAlgError as exc:
        raise ModelError(
            "discrete objective is not strictly concave; "
            "the kernel is not nonnegative definite at this resolution"
        ) from exc

    return DiscreteQuadraticProgram(H=H, b=b, c0=float(c0), params=params,
                                    grid=grid, inc=inc, price=price)


def solve_qp(qp: DiscreteQuadraticProgram) -> np.ndarray:
    """Maximize the quadratic: solve H u = -b on the active block.

    The terminal entry, which the discrete objective does not see, is
    completed with the feedback value of the speed at the horizon,
    u_T = (2 varrho Q_T - Z_T) / (2 lam), evaluated on the optimized path.
    """
    n = qp.n
    Ha, ba = qp.active()
    try:
        u_act = np.linalg.solve(-Ha, ba)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"QP factorization failed: {exc}") from exc

    residual = np.linalg.norm(Ha @ u_act + ba)
    if residual > 1e-8 * max(np.linalg.norm(ba), 1e-300):
        raise NumericError(
            f"first-order condition residual {residual:.3e} exceeds tolerance"
        )

    params, grid = qp.params, qp.grid
    u = np.zeros(n + 1)
    u[:n] = u_act
    q_term = params.q - grid.dt * float(np.sum(u_act))
    z_term = float(params.h0_values(grid)[n] + qp.inc.LG[n, :n] @ u_act)
    u[n] = (2.0 * params.varrho * q_term - z_term) / (2.0 * params.lam)
    return u


# ---------------------------------------------------------------------------
# Monte Carlo

def nystrom_rule(params: ScenarioParams, kernel: PropagatorKernel,
                 signal: SignalModel, grid: TimeGrid):
    """Adapted strategy rule backed by the grid solver (phi = 0 only)."""
    engine = NystromEngine(params, kernel, grid, signal)
    return engine.speed_for_path


def twap_rule(params: ScenarioParams, grid: TimeGrid):
    """Constant-rate liquidation benchmark u = q / T."""
    flat = np.full(grid.n + 1, params.q / params.T)

    def rule(signal_path):
        return flat.copy()

    return rule


# paths per chunk of a Monte Carlo estimate: only the signal paths and the
# samples span every path, and the speeds, rollout, prices and objective
# are held for one chunk at a time. In CLI mc runs with 2000 OU paths on
# one BLAS thread, chunks of 64, 128, 256, 512 and 1024 paths peaked at
# 42.6, 43.0, 43.9, 46.0 and 50.4 MB RSS at n = 200 (57.2 MB unchunked),
# with pass times inside the noise; at n = 1000, 64 to 512 paths took
# 7.0, 6.8, 6.5 and 6.2 s in one run each (8.4 s unchunked)
_CHUNK = 256


@dataclass(frozen=True, eq=False)
class McEstimate:
    """Monte Carlo estimate of the expected objective for one strategy rule."""

    mean: float
    stderr: float
    n_paths: int
    seed: int
    samples: np.ndarray


@np.errstate(all="ignore")
def mc_objective(params: ScenarioParams, kernel: PropagatorKernel,
                 signal: SignalModel, grid: TimeGrid, rule, n_paths: int,
                 seed: int = 0) -> McEstimate:
    """Expected objective of a strategy rule over simulated signal paths.

    The rule maps a realized signal path to a speed vector; it is called
    once per path, in path order. Paths depend only on (seed, n_paths), so
    calling with the same seed for different rules evaluates them on
    common random numbers; paired differences of ``samples`` then have
    reduced variance.

    All paths are simulated at once, and the kernel's increments are built
    once. Then each chunk of up to 256 paths has its speeds written row by
    row into one preallocated (chunk, n+1) buffer, is rolled out, priced
    and evaluated, and writes its totals into ``samples``. So the peak
    holds one (n_paths, n+1) array, the signal paths, plus one chunk's
    speeds, inventory, distortion and prices. The samples equal those of
    one whole batch when the paths fit in one chunk, and match them to
    rounding otherwise: BLAS may sum a row of a small chunk in another
    order. ``simulate_signal`` checks ``n_paths`` before anything is
    allocated. A rule that returns the wrong shape raises InputError.
    numpy's floating-point warnings are off inside: an overflow raises
    NumericError from a finiteness check.
    """
    paths = simulate_signal(signal, grid, seed, n_paths=n_paths)
    inc = integrated_increments(kernel, params, grid)
    samples = np.empty(n_paths)
    speeds = np.empty((min(n_paths, _CHUNK), grid.n + 1))
    for c0 in range(0, n_paths, _CHUNK):
        chunk = paths[c0:c0 + _CHUNK]
        us = speeds[:len(chunk)]
        for row, path in zip(us, chunk):
            u = np.asarray(rule(path), dtype=float)
            if u.shape != row.shape:
                raise InputError(f"rule returned speeds of shape {u.shape}, "
                                 f"expected {row.shape}")
            row[:] = u
        samples[c0:c0 + len(chunk)] = evaluate_objective(
            _rollout(us, chunk, params, grid, inc), params, grid,
            price_path(chunk, grid)).total
    mean = float(np.mean(samples))
    stderr = float(np.std(samples, ddof=1) / np.sqrt(n_paths)) if n_paths > 1 else 0.0
    if not (np.isfinite(mean) and np.isfinite(stderr)):
        raise NumericError("non-finite Monte Carlo objective: the scenario overflows "
                           "double precision")
    return McEstimate(mean=mean, stderr=stderr, n_paths=n_paths, seed=seed,
                      samples=samples)


# ---------------------------------------------------------------------------
# behavioral optimality test

def hat_direction(grid: TimeGrid, center: int, width: int) -> np.ndarray:
    """Piecewise-linear bump with unit peak at grid index ``center``."""
    idx = np.arange(grid.n + 1)
    return np.maximum(0.0, 1.0 - np.abs(idx - center) / width)


@dataclass(frozen=True)
class PerturbationRow:
    direction: int
    center_time: float
    eps_rel: float
    eps_abs: float
    mean_diff: float
    stderr_diff: float
    ok: bool


@dataclass(frozen=True, eq=False)
class PerturbationReport:
    passed: bool
    rows: tuple[PerturbationRow, ...]
    base_mean: float
    n_paths: int
    seed: int

    def __bool__(self):
        return self.passed


@np.errstate(all="ignore")
def perturbation_test(params: ScenarioParams, kernel: PropagatorKernel,
                      signal: SignalModel, grid: TimeGrid, n_paths: int,
                      n_perturbations: int, seed: int = 0,
                      eps_rels: tuple[float, ...] = (0.05, -0.05, 0.2, -0.2)
                      ) -> PerturbationReport:
    """Check that deterministic bumps cannot improve the solver's strategy.

    For each hat direction v and relative size eps the paired estimate of
    E[J(u* + eps v)] - E[J(u*)] is formed on common random numbers; a row
    passes when the estimate is below +2 standard errors (exactly zero
    noise allowance for deterministic signals, up to floating-point dust).
    Every rollout uses the increments of the solver's engine, so the
    kernel's cell integrals are built once. ``simulate_signal`` checks
    ``n_paths`` before the engine is built.
    numpy's floating-point warnings are off inside: an overflow raises
    NumericError from a finiteness check.
    """
    if n_perturbations < 1 or not eps_rels:
        raise InputError(f"perturbation test needs n_perturbations >= 1 and some eps_rels, "
                         f"got {n_perturbations}, {eps_rels!r}")
    paths = simulate_signal(signal, grid, seed, n_paths=n_paths)
    engine = NystromEngine(params, kernel, grid, signal)
    us = engine.speeds_for_paths(paths)
    prices = price_path(paths, grid)

    def objective(speeds):
        return evaluate_objective(_rollout(speeds, paths, params, grid, engine.inc),
                                  params, grid, prices).total

    base = objective(us)
    base_mean = float(np.mean(base))
    atol = 1e-9 * (1.0 + abs(base_mean))

    scale = float(np.mean(np.max(np.abs(us), axis=1)))
    n = grid.n
    width = max(1, round(n / (n_perturbations + 1)))
    centers = [round((m + 1) * n / (n_perturbations + 1)) for m in range(n_perturbations)]

    rows = []
    for m, center in enumerate(centers):
        v = hat_direction(grid, center, width)
        for eps_rel in eps_rels:
            eps = eps_rel * scale
            diffs = objective(us + eps * v[None, :]) - base
            mean_diff = float(np.mean(diffs))
            sem = float(np.std(diffs, ddof=1) / np.sqrt(n_paths)) if n_paths > 1 else 0.0
            ok = mean_diff <= 2.0 * sem + atol
            rows.append(PerturbationRow(
                direction=m, center_time=float(grid.t[center]), eps_rel=eps_rel,
                eps_abs=eps, mean_diff=mean_diff, stderr_diff=sem, ok=ok,
            ))
    return PerturbationReport(passed=all(r.ok for r in rows), rows=tuple(rows),
                              base_mean=base_mean, n_paths=n_paths, seed=seed)
