"""Grid solver for the optimal trading speed.

The optimal speed solves a linear Volterra equation u = a + B * u whose
ingredients are built from the integrated kernel increments L, U, the
signal forecast matrix N and the shifted initial distortion. On the grid
this becomes a unit lower-triangular system solved by forward substitution:

    1. per-step curvature matrices  D_i = 2*lam*I + (L + U restricted to
       indices >= i), block-diagonal with a 2*lam*I head block; on the
       uniform grid the trailing block is the leading (n-i) section of one
       Toeplitz matrix 2*lam*I + (L + U)[:n, :n],
    2. response rows  w_i = U_i^T D_i^{-1}, all n of them from one
       Levinson-Trench recursion over those nested sections: O(n^2) time
       and O(n) memory besides the rows,
    3. feedback matrix  B[i, j] = (w_i . L_col_j - L[i, j]) / (2*lam) on the
       strict lower triangle; L is lower Toeplitz, so row i is minus the
       correlation of the forward Levinson vector with the cell vector, and
       the recursion of step 2 writes I - B at O(n) cost per row, with no
       matrix product; and source vector
       a_i = (N[i, i] - w_i . N_col_i) / (2*lam) + (w_i . h~ - h~_i) / (2*lam),
       whose second part does not depend on the signal,
    4. u = (I - B)^{-1} a by forward substitution, O(n^2).

The scheme requires a zero running inventory penalty (phi = 0); scenarios
with phi > 0 are handled by the direct quadratic-program route in
``exec_solver.oracle``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .errors import InputError, NumericError
from .kernels import IntegratedIncrements, PropagatorKernel, integrated_increments
from .model import ScenarioParams, StrategyPath, TimeGrid, evaluate_objective, rollout
from .signals import SignalModel, forecast_matrix, price_path, simulate_signal

__all__ = [
    "dense_curvature",
    "response_rows",
    "solve_speed",
    "NystromEngine",
    "ScenarioSolution",
    "solve_scenario",
    "solve_scenario_detail",
]


def _require_phi_zero(params: ScenarioParams):
    if params.phi != 0.0:
        raise InputError(
            "the grid solver is stated for phi = 0; use exec_solver.oracle "
            "(direct quadratic program / Monte Carlo) for phi > 0"
        )


def dense_curvature(inc: IntegratedIncrements, params: ScenarioParams,
                    grid: TimeGrid, i: int) -> np.ndarray:
    """D_i as an explicit n x n matrix (diagnostics and positivity checks)."""
    _require_phi_zero(params)
    n = grid.n
    D = 2.0 * params.lam * np.eye(n)
    D[i:, i:] += inc.L[i:n, i:n] + inc.U[i:n, i:n]
    return D


# a Levinson pivot this close to zero, relative to its own terms, means the
# leading section it completes is singular to working precision
_PIVOT_FLOOR = 1e3 * np.finfo(float).eps

# LAPACK triangular solve; scipy's solve_triangular wrapper costs more than it
_trtrs = scipy.linalg.get_lapack_funcs("trtrs", dtype=np.float64)


def _check_pivot(pivot: float, scale: float, step: int):
    if not (math.isfinite(pivot) and abs(pivot) > _PIVOT_FLOOR * scale):
        raise NumericError(
            f"curvature matrix at step {step} is singular to working precision "
            f"(Levinson pivot {pivot:.3g})"
        )


def response_rows(inc: IntegratedIncrements, params: ScenarioParams,
                  grid: TimeGrid) -> tuple[np.ndarray, np.ndarray]:
    """All rows w_i = U_i^T D_i^{-1} and the system I - B, in O(n^2) time.

    The increments come from one cell vector on a uniform grid, so
    A = 2*lam*I + (L + U)[:n, :n] is Toeplitz and the trailing block of D_i
    is its leading section A_m, m = n - i. The restricted U_i is
    A_m^T e_1 - 2*lam*e_1, hence w_i = e_1 - 2*lam*f_m on indices >= i,
    where f_m = A_m^{-T} e_1 is the forward vector of the Levinson-Trench
    recursion on A^T (Golub & Van Loan, Matrix Computations, 4.7). The
    recursion also carries the backward vector b_m = A_m^{-T} e_m and, to
    keep small rows accurate, the entry w_i[i] = 1 - 2*lam*f_m[0] as a
    scalar. Row n of W is zero.

    With g = cell + aug, L[k, j] = g[k-1-j] below the diagonal, so the
    feedback entries B[i, j] = (w_i . L_col_j - L[i, j]) / (2*lam) reduce to
    -cf[i-1-j], where cf[d] = f_m . g[d:d+m]. The correlations cf and
    cb[d] = b_m . g[d:d+m] follow the same Levinson step as f_m and b_m
    (the Schur generator update), so each row of I - B costs O(n) and no
    product with L is formed; row n is g reversed over 2*lam.

    Returns W, shape (n+1, n), and I - B, shape (n+1, n+1), column-major as
    LAPACK takes it without a copy. Raises NumericError naming the step
    whose section is singular to working precision.
    """
    _require_phi_zero(params)
    n = grid.n
    two_lam = 2.0 * params.lam
    row = inc.cell + inc.aug  # first row of A - 2*lam*I, and g above
    col = np.concatenate((row[:1], row[:-1]))  # its first column
    W = np.zeros((n + 1, n))
    system = np.zeros((n + 1, n + 1), order="F")
    system[n, :n] = row[::-1] / two_lam
    np.fill_diagonal(system, 1.0)

    diag = two_lam + col[0]
    _check_pivot(diag, two_lam + abs(col[0]), n - 1)
    # after size m, f[:m] holds f_m and b[n-m:] holds b_m, with zeros
    # elsewhere, so f[:m+1] is [f_m; 0] and b[n-m-1:] is [0; b_m]; cf and
    # cb hold their correlations with g at lags 0..n-m-1
    f = np.zeros(n)
    b = np.zeros(n)
    f[0] = b[-1] = 1.0 / diag
    head = col[0] / diag
    W[n - 1, n - 1] = head
    cf = cb = row[:n - 1] * f[0]
    system[n - 1, :n - 1] = cf[::-1]
    for m in range(2, n + 1):
        i = n - m
        ef = row[m - 1:0:-1] @ f[:m - 1]
        eb = col[1:m] @ b[i + 1:]
        pivot = 1.0 - ef * eb
        _check_pivot(pivot, 1.0 + abs(ef * eb), i)
        fz, bz = f[:m], b[i:]
        f[:m], b[i:] = (fz - ef * bz) / pivot, (bz - eb * fz) / pivot
        cf, cb = (cf[:i] - ef * cb[1:i + 1]) / pivot, (cb[1:i + 1] - eb * cf[:i]) / pivot
        head = (head - ef * eb) / pivot
        W[i, i:] = -two_lam * f[:m]
        W[i, i] = head
        system[i, :i] = cf[::-1]
    return W, system


def solve_speed(a: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve (I - B) u = a by forward substitution (B strictly lower triangular)."""
    a = np.asarray(a, dtype=float)
    B = np.asarray(B, dtype=float)
    if np.any(np.triu(B) != 0.0):
        raise InputError("feedback matrix must be strictly lower triangular")
    system = np.eye(B.shape[0]) - B
    return scipy.linalg.solve_triangular(system, a, lower=True, unit_diagonal=True)


class NystromEngine:
    """Signal-independent precomputation for repeated solves on one scenario.

    Builds once, in O(n^2) time, the response rows W and the system I - B
    in column-major order (both from ``response_rows``), and the
    signal-free offset (W h~ - h~) / (2*lam) of the source vector. A
    realized path then costs one forecast matrix, one contraction with W
    and one LAPACK forward substitution: O(n^2) work.
    Used by the Monte Carlo engine, where only the source vector changes
    from path to path.
    """

    def __init__(self, params: ScenarioParams, kernel: PropagatorKernel,
                 grid: TimeGrid, signal: SignalModel):
        _require_phi_zero(params)
        self.params = params
        self.kernel = kernel
        self.grid = grid
        self.signal = signal
        self.inc = integrated_increments(kernel, params, grid)
        self.W, self.system = response_rows(self.inc, params, grid)
        h_tilde = params.h0_values(grid) - 2.0 * params.varrho * params.q
        self.offset = (self.W @ h_tilde[:grid.n] - h_tilde) / (2.0 * params.lam)

    def source_vector(self, forecasts: np.ndarray) -> np.ndarray:
        """a_i = (N[i, i] - w_i . N_col_i) / (2*lam) plus the signal-free offset."""
        n = self.grid.n
        if forecasts.shape != (n + 1, n + 1):
            raise InputError(
                f"forecast matrix has shape {forecasts.shape}, expected ({n + 1}, {n + 1})"
            )
        cross = np.einsum("ik,ki->i", self.W, forecasts[:n, :])
        return (np.diag(forecasts) - cross) / (2.0 * self.params.lam) + self.offset

    def _speeds(self, sources: np.ndarray) -> np.ndarray:
        if not np.all(np.isfinite(sources)):
            raise NumericError("non-finite source vector: the scenario overflows "
                               "double precision")
        u, info = _trtrs(self.system, sources, lower=1, unitdiag=1)
        if info != 0:
            raise NumericError(f"forward substitution failed (LAPACK trtrs info {info})")
        if not np.all(np.isfinite(u)):
            raise NumericError("non-finite optimal speeds: the scenario overflows "
                               "double precision")
        return u

    def speed_for_path(self, signal_path: np.ndarray) -> np.ndarray:
        """Optimal speeds for one realized path: the Monte Carlo rule."""
        forecasts = forecast_matrix(self.signal, signal_path, self.grid)
        return self._speeds(self.source_vector(forecasts))

    def speeds_for_paths(self, signal_paths: np.ndarray) -> np.ndarray:
        """Optimal speeds for a batch of realized paths, shape (n_paths, n+1)."""
        sources = np.stack([
            self.source_vector(forecast_matrix(self.signal, p, self.grid))
            for p in signal_paths
        ])
        return self._speeds(sources.T).T


@dataclass(eq=False)
class ScenarioSolution:
    """Full pipeline output plus the solver internals the CLI reports."""

    path: StrategyPath
    source: np.ndarray
    forecast_diag: np.ndarray


def solve_scenario_detail(params: ScenarioParams, kernel: PropagatorKernel,
                          signal: SignalModel, grid: TimeGrid, seed: int = 0,
                          signal_path: np.ndarray | None = None) -> ScenarioSolution:
    """Run the whole pipeline for one realized signal path.

    ``signal_path`` overrides simulation (the forecasts still come from the
    signal model); otherwise the path is simulated from ``seed``. The
    returned strategy has inventory, distortion and the objective evaluated
    against the realized price path.
    """
    engine = NystromEngine(params, kernel, grid, signal)
    if signal_path is None:
        signal_path = simulate_signal(signal, grid, seed)
    forecasts = forecast_matrix(signal, signal_path, grid)
    a = engine.source_vector(forecasts)
    strat = rollout(engine._speeds(a), params, grid, kernel, signal_values=signal_path)
    breakdown = evaluate_objective(strat, params, grid, price_path(signal_path, grid))
    return ScenarioSolution(path=replace(strat, objective=breakdown),
                            source=a, forecast_diag=np.diag(forecasts).copy())


def solve_scenario(params: ScenarioParams, kernel: PropagatorKernel,
                   signal: SignalModel, grid: TimeGrid, seed: int = 0,
                   signal_path: np.ndarray | None = None) -> StrategyPath:
    """Optimal strategy for one scenario; see ``solve_scenario_detail``."""
    return solve_scenario_detail(params, kernel, signal, grid, seed, signal_path).path
