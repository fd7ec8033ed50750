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
    4. u = (I - B)^{-1} a by blocked forward substitution, O(n^2): the
       unit lower-triangular diagonal blocks of I - B are inverted once,
       so each block of u costs one product with the rows before it and
       one with its block inverse.

The scheme requires a zero running inventory penalty (phi = 0); scenarios
with phi > 0 are handled by the direct quadratic-program route in
``exec_solver.oracle``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

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

# rows per diagonal block of the forward substitution; a power of two, so
# that recursive doubling halves every block evenly. At n = 200, 64 rows
# made a one-path solve 12 us against 7.8 us, and 256 rows made the
# inversion 0.47 ms against 0.13 ms (one BLAS thread)
_BLOCK = 128


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

    Returns W, shape (n+1, n), and I - B, shape (n+1, n+1), both row-major,
    so that each step writes contiguous rows. Raises NumericError naming
    the step whose section is singular to working precision.
    """
    _require_phi_zero(params)
    n = grid.n
    two_lam = 2.0 * params.lam
    row = inc.cell + inc.aug  # first row of A - 2*lam*I, and g above
    col = np.concatenate((row[:1], row[:-1]))  # its first column
    W = np.zeros((n + 1, n))
    system = np.zeros((n + 1, n + 1))
    system[n, :n] = row[::-1] / two_lam
    np.fill_diagonal(system, 1.0)

    diag = float(two_lam + col[0])
    _check_pivot(diag, two_lam + abs(col[0]), n - 1)
    # After size m, x = [f_m, cf reversed] and y[s:s+n] = [b_m, cb reversed],
    # where cf and cb hold the correlations with g at lags 0..n-m-1. Then
    # x[t] and y[s+t] are the pairs one Levinson step combines, so a step
    # is one in-place update of two length-n vectors. It appends a zero to
    # f_m in the slot of the cf entry it drops, and prepends the zero below
    # y[s] to b_m by moving s one place left; the cb entry it drops falls
    # off the end. x[m:] is cf reversed: row n - m of I - B.
    x = np.empty(n)
    y = np.zeros(2 * n)
    x[0] = y[n] = 1.0 / diag
    x[1:] = y[n + 1:] = row[n - 2::-1] * x[0]
    s = n
    head = float(col[0]) / diag
    W[n - 1, n - 1] = head
    system[n - 1, :n - 1] = x[1:]
    rev = row[::-1].copy()  # contiguous, so that the dot below is one BLAS call
    for m in range(2, n + 1):
        i = n - m
        ef = float(rev[i:n - 1] @ x[:m - 1])
        eb = float(col[1:m] @ y[s:s + m - 1])
        pivot = 1.0 - ef * eb
        _check_pivot(pivot, 1.0 + abs(ef * eb), i)
        x[m - 1] = 0.0
        s -= 1
        ys = y[s:s + n]
        # x, ys = (x - ef * ys) / pivot, (ys - eb * x) / pivot, in place
        t = eb * x
        np.subtract(ys, t, out=t)
        x -= ef * ys
        x /= pivot
        np.divide(t, pivot, out=ys)
        head = (head - ef * eb) / pivot
        np.multiply(x[:m], -two_lam, out=W[i, i:])
        W[i, i] = head
        system[i, :i] = x[m:]
    return W, system


def solve_speed(a: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve (I - B) u = a with a dense LU solve (B strictly lower triangular).

    The reference the engine's blocked substitution is tested against.
    """
    a = np.asarray(a, dtype=float)
    B = np.asarray(B, dtype=float)
    if np.any(np.triu(B) != 0.0):
        raise InputError("feedback matrix must be strictly lower triangular")
    return np.linalg.solve(np.eye(B.shape[0]) - B, a)


def _diagonal_block_inverses(system: np.ndarray) -> np.ndarray:
    """Inverses of the diagonal blocks of a unit lower-triangular matrix.

    Blocks have k = min(_BLOCK, the next power of two >= size) rows, and
    the last one is padded with the identity; returns shape (blocks, k, k).
    All blocks are inverted together by recursive doubling: with the
    diagonal halves A and D of a 2s-block already inverted,
    [[A, 0], [C, D]]^{-1} is the same block with C replaced by
    -D^{-1} C A^{-1}, so each level is one batched matmul pair.
    """
    size = system.shape[0]
    k = min(_BLOCK, 1 << (size - 1).bit_length())
    blocks = np.zeros((-(-size // k), k, k))
    for b, r0 in enumerate(range(0, size, k)):
        m = min(k, size - r0)
        blocks[b, :m, :m] = system[r0:r0 + m, r0:r0 + m]
    pad = np.arange(m, k)
    blocks[-1, pad, pad] = 1.0
    s = 1
    while s < k:
        half = k // (2 * s)
        idx = np.arange(half)
        # pairs[:, idx, rows, idx, cols] picks from the diagonal 2s-blocks
        pairs = blocks.reshape(len(blocks), half, 2 * s, half, 2 * s)
        inv_a = pairs[:, idx, :s, idx, :s]
        inv_d = pairs[:, idx, s:, idx, s:]
        pairs[:, idx, s:, idx, :s] = -(inv_d @ pairs[:, idx, s:, idx, :s]) @ inv_a
        s *= 2
    return blocks


class NystromEngine:
    """Signal-independent precomputation for repeated solves on one scenario.

    Builds once, in O(n^2) time, the response rows W and the system I - B
    (both row-major, from ``response_rows``), the inverses of the diagonal
    blocks of I - B, stacked in ``block_inverses``, and the signal-free
    offset (W h~ - h~) / (2*lam) of the source vector. A realized path then
    costs one forecast matrix, one contraction with W and one blocked
    forward substitution: O(n^2) work. A batch of paths takes the same
    substitution with matrix products in place of matrix-vector products.
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
        self.block_inverses = _diagonal_block_inverses(self.system)
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
        """u = (I - B)^{-1} a for each source a, shape (n+1,) or (paths, n+1)."""
        if not np.all(np.isfinite(sources)):
            raise NumericError("non-finite source vector: the scenario overflows "
                               "double precision")
        size = sources.shape[-1]
        k = self.block_inverses.shape[1]
        u = np.empty_like(sources)
        for r0, inverse in zip(range(0, size, k), self.block_inverses):
            r1 = min(r0 + k, size)
            rhs = sources[..., r0:r1]
            if r0:
                rhs = rhs - u[..., :r0] @ self.system[r0:r1, :r0].T
            np.matmul(rhs, inverse[:r1 - r0, :r1 - r0].T, out=u[..., r0:r1])
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
        return self._speeds(sources)


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
