"""Grid solver for the optimal trading speed.

The optimal speed solves a linear Volterra equation u = a + B * u whose
ingredients are built from the integrated kernel increments L, U, the
signal forecasts N and the shifted initial distortion h~ = h0 - 2*varrho*q.
On the grid this becomes a unit lower-triangular system solved by forward
substitution:

    1. per-step curvature matrices  D_i = 2*lam*I + (L + U restricted to
       indices >= i), block-diagonal with a 2*lam*I head block; on the
       uniform grid the trailing block is the leading (n-i) section of one
       Toeplitz matrix 2*lam*I + (L + U)[:n, :n],
    2. response rows  f_m = D_i^{-T} e_i on indices >= i, m = n - i, all n
       of them from one Levinson-Trench recursion over those nested
       sections, run in Schur form: each step reads its two reflection
       coefficients from carried generator rows and applies one 2x2 update
       to them, with no inner product; O(n^2) time and O(n) memory besides
       the rows,
    3. feedback matrix  B[i, :i] = -f_m . L[i:n, :i] on the strict lower
       triangle, and row n is -L[n, :n] / (2*lam); L is lower Toeplitz, so
       row i is minus the correlation of f_m with the cell vector, which
       the generator row of step 2 carries next to f_m: one O(n) copy of
       that row packs f_m and row i of I - B; and source vector
       a_i = f_m . (N[i:n, i] - h~[i:n]) for i < n, with the terminal entry
       a_n = (N[n, n] - h~_n) / (2*lam), whose h~ part does not depend on
       the signal. The OU forecasts N[k, i] = s_k * e_{k-i} * I_i make the
       signal part I_i * c_i with c_i = f_m . (s * e_{.-i})[i:n] and c_n = 0,
       so one O(n^2) pass per scenario builds c next to the h~ part and a
       path's source costs O(n), with no forecast matrix, and a batch of
       paths one elementwise product; a tabulated signal's user forecast
       does not depend on the path, so the engine contracts it with the
       rows once, into the path-free part of every source, and its c is 0,
    4. u = (I - B)^{-1} a by blocked forward substitution, O(n^2): the
       unit lower-triangular diagonal blocks of I - B are inverted once,
       so each block of u costs one product with the rows before it and
       one with its block inverse. With an OU or zero signal, no array of
       an engine is larger than the (n+1, n) rows.

Steps 2 to 4 are the engine route (``NystromEngine``), which serves
batches: the Monte Carlo rules and the perturbation test, whose paths
share its rows and block inverses. Every single solve
(``solve_scenario_detail``) takes the Schur route, which stores neither.
With F the upper triangle of the rows and A = 2*lam*I + (L + U)[:n, :n],

    (I - B)[:n, :n] = F A

for every signal, and F is upper triangular with a nonzero diagonal, so
u[:n] = A^{-1} y with F y = a[:n]. The Schur recursion emits f_m for
i = n-1 down to 0, the order of back substitution: each step takes a_i
as in step 3 and y_i = (a_i - f_m[1:] . y[i+1:n]) / f_m[0]. Its last
state holds f_n = A^{-T} e_1 and b_n = A^{-T} e_n, which give A^{-1} by
the Gohberg-Semencul formula as four convolutions. When the forecasts
are never revised (a zero signal, or a drawn OU path with sigma = 0),
N[k, i] = N[k, 0] for k >= i, so a[:n] = F w with w = N[:n, 0] - h~[:n],
and y = w with no back substitution. The route needs O(n) memory besides
the output and a tabulated signal's own forecast.

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
from .model import (
    ScenarioParams,
    StrategyPath,
    TimeGrid,
    evaluate_objective,
    rollout,
    toeplitz_view,
)
from .signals import (
    OUSignal,
    SignalModel,
    TabulatedSignal,
    ZeroSignal,
    forecast_diagonal,
    forecast_matrix,
    ou_forecast_factors,
    price_path,
    simulate_signal,
)

__all__ = [
    "response_rows",
    "NystromEngine",
    "ScenarioSolution",
    "solve_scenario",
    "solve_scenario_detail",
]


# a Levinson pivot this close to zero, relative to its own terms, means the
# leading section it completes is singular to working precision
_PIVOT_FLOOR = 1e3 * np.finfo(float).eps

# rows per diagonal block of the forward substitution. On one BLAS thread,
# with 64, 128 and 256 rows, the Monte Carlo rule took 63, 58 and 54 us a
# path at n = 200 and 1.56, 1.43 and 1.60 ms at n = 1000; the LAPACK block
# inverses took 0.43, 1.1 and 1.7 ms at n = 200 and 1.7, 4.6 and 12.9 ms
# at n = 1000
_BLOCK = 128


def _check_pivot(pivot: float, scale: float, step: int):
    if not (math.isfinite(pivot) and abs(pivot) > _PIVOT_FLOOR * scale):
        raise NumericError(
            f"curvature matrix at step {step} is singular to working precision "
            f"(Levinson pivot {pivot:.3g})"
        )


def response_rows(inc: IntegratedIncrements, params: ScenarioParams,
                  grid: TimeGrid) -> np.ndarray:
    """All rows f_m = D_i^{-T} e_i and the system I - B, packed, in O(n^2) time.

    The increments come from one cell vector on a uniform grid, so
    A = 2*lam*I + (L + U)[:n, :n] is Toeplitz and the trailing block of D_i
    is its leading section A_m, m = n - i. On indices >= i, D_i^{-T} e_i is
    f_m = A_m^{-T} e_1, the forward vector of the Levinson-Trench recursion
    on A^T (Golub & Van Loan, Matrix Computations, 4.7), run here in its
    Schur form (``_schur_states``); the recursion also carries the backward
    vector b_m = A_m^{-T} e_m. With g = cell + aug, L[k, j] = g[k-1-j] below
    the diagonal, so the feedback entries B[i, j] = -f_m . L[i:n, j] are
    -cf[i-1-j], where cf[d] = f_m . g[d:d+m]; row n of I - B is g reversed
    over 2*lam.

    Each side keeps one generator row over the positions P = -(n-1)..n-1:
    [cf reversed | f_m | Rf] and [cb reversed | b_m | Rb], with
    cb[d] = b_m . g[d:d+m] and the residuals Rf[j] = sum_t g[j-t] f_m[t],
    Rb[j] = sum_t g[j-t] b_m[t] for j >= m. Both rows are the products of
    A^T, extended as a Toeplitz matrix to all integer indices, with f_m and
    b_m padded by zeros, except on 0..m-1, where the product is a unit
    vector and the row holds the vector itself. So the step from m to m+1
    finds its two reflection coefficients in these rows, ef = Rf[m] and
    eb = cb[0], and takes no inner product. With those two entries zeroed
    (they become the zero appended to f_m and the zero prepended to b_m),
    the new f row is (f row - ef * b row) / (1 - ef*eb) and the new b row
    (b row - eb * f row) / (1 - ef*eb), where the b row is shifted one
    place right (position P takes its entry at P - 1): one 2x2 matrix
    applied to both rows.

    Returns f and I - B packed in one row-major (n+1, n) array: row i is
    the new f row over positions -i..n-1-i, one contiguous copy, so f_m
    lies on and right of the diagonal and the strict lower part of I - B
    left of it; row n is row n of I - B, and the unit diagonal and the last
    column of I - B, the unit vector e_n, are implicit. Raises NumericError
    naming the step whose section is singular to working precision.
    """
    n = grid.n
    rows = np.empty((n + 1, n))
    for i, state in _schur_states(inc, params, grid):
        rows[i] = state[0, n - 1 - i:2 * n - 1 - i]
    rows[n] = (inc.cell + inc.aug)[::-1] / (2.0 * params.lam)
    return rows


def _schur_states(inc: IntegratedIncrements, params: ScenarioParams, grid: TimeGrid):
    """The Schur recursion of ``response_rows``, shared with the Schur route.

    Yields (i, state) for m = n - i = 1..n. ``state`` is a (2, 2n-1) array,
    the f row over the b row, whose column n-1+P holds position P; f_m and
    b_m lie on columns n-1..n-2+m. The next step but one overwrites it, so
    read it before then. Raises InputError for phi != 0 and NumericError
    naming the step whose section is singular to working precision.
    """
    if params.phi != 0.0:
        raise InputError(
            "the grid solver is stated for phi = 0; use exec_solver.oracle "
            "(direct quadratic program / Monte Carlo) for phi > 0"
        )
    n = grid.n
    two_lam = 2.0 * params.lam
    row = inc.cell + inc.aug  # first row of A - 2*lam*I, and g above
    diag = float(two_lam + row[0])
    _check_pivot(diag, two_lam + abs(row[0]), n - 1)
    # Two ping-pong states, each (2, width) with the f row over the b row;
    # column zero + P holds position P. Read through its flat buffer from
    # offset 1 as (2, width - 1), a state pairs f[P] with b[P - 1], so one
    # matmul of that fixed skew view writes positions -(n-2)..n-1 of the
    # other state. Position -(n-1) goes stale, and one more each step: the
    # rows of I - B still to come are shorter by one each step.
    width, zero = 2 * n - 1, n - 1
    states = np.zeros((2, 2, width))
    # m = 1: f_1 = b_1 = 1/diag, and either side of it is g over diag
    states[0, :] = np.concatenate((row[n - 2::-1], [1.0], row[1:])) * (1.0 / diag)
    steps = []
    for k in (0, 1):
        flat = states[k].reshape(-1)
        skew = flat[1:2 * width - 1].reshape(2, width - 1)
        skew.flags.writeable = False
        steps.append((flat, skew, states[1 - k, :, 1:], states[1 - k]))
    coef = np.empty(4)
    update = coef.reshape(2, 2)
    state = states[0]
    for m in range(1, n + 1):
        i = n - m
        if m > 1:
            flat, skew, out, state = steps[m & 1]
            ef = flat.item(zero + m - 1)  # Rf[m-1]
            eb = flat.item(width + zero - 1)  # cb[0]
            pivot = 1.0 - ef * eb
            _check_pivot(pivot, 1.0 + abs(ef * eb), i)
            flat[zero + m - 1] = 0.0  # the zero appended to f_{m-1}
            flat[width + zero - 1] = 0.0  # paired with f[0]: the zero prepended to b_{m-1}
            r = 1.0 / pivot
            coef[0] = coef[3] = r
            coef[1] = -ef * r
            coef[2] = -eb * r
            np.matmul(update, skew, out=out)
        yield i, state


def _toeplitz_inverse_apply(f: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray:
    """A^{-1} w for a Toeplitz A of order n, from f = A^{-T} e_1 and b = A^{-T} e_n.

    A Toeplitz matrix is persymmetric, J A J = A^T with J the reversal, so
    x = J b and y = J f are the first and last columns of A^{-1}. The
    Gohberg-Semencul formula (Heinig & Rost, Algebraic Methods for
    Toeplitz-like Matrices, 1984) writes the inverse through them:

        A^{-1} = (L(x) U(J y) - L(Z y) U(Z J x)) / x_0,

    where L(v) is lower-triangular Toeplitz with first column v,
    U(v) = L(v)^T and Z is the down-shift. L(v) r is the leading n entries
    of the convolution of v with r, and U(v) r = J L(v) J r: four
    convolutions, O(n^2) work in O(n) memory.
    """
    n = w.size

    def lower(v, r):
        return np.convolve(v, r)[:n]

    def upper(v, r):
        return lower(v, r[::-1])[::-1]

    x = b[::-1]
    shift_y = np.concatenate(([0.0], f[:0:-1]))  # Z y
    shift_b = np.concatenate(([0.0], b[:-1]))  # Z J x
    return (lower(x, upper(f, w)) - lower(shift_y, upper(shift_b, w))) / x[0]


def _schur_solve(inc: IntegratedIncrements, params: ScenarioParams, grid: TimeGrid,
                 signal: SignalModel, path: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Source a and speeds u of one path on the Schur route of the module docstring.

    ``path`` is None when the forecasts are never revised: then y = w, with
    N[k, 0] = s_k * e_k * I0 for OU. Otherwise a_i is I_i * c_i plus the
    offset for OU, in the engine's order, or f_m . (N[i:n, i] - h~[i:n])
    for a tabulated forecast, and y_i comes by back substitution. The path
    and forecast have passed ``forecast_diagonal``.
    """
    n = grid.n
    two_lam = 2.0 * params.lam
    h_tilde = params.h0_values(grid) - 2.0 * params.varrho * params.q
    ou = isinstance(signal, OUSignal)
    if ou:
        decay, scale = ou_forecast_factors(signal.gamma, grid)
    forecast = None if ou or path is None else forecast_matrix(signal, path, grid)
    y = -h_tilde[:n]  # w; back substitution overwrites it from the end
    if ou and path is None:
        y += (scale * decay)[:n] * signal.I0
    a = np.empty(n + 1)
    for i, state in _schur_states(inc, params, grid):
        f = state[0, n - 1:2 * n - 1 - i]
        if path is None:
            a[i] = f @ y[i:]
        else:
            a[i] = (path[i] * (f @ (scale[i:n] * decay[:n - i])) - f @ h_tilde[i:n] if ou
                    else f @ (forecast[i:n, i] - h_tilde[i:n]))
            y[i] = (a[i] - f[1:] @ y[i + 1:]) / f[0]
    a[n] = -h_tilde[n] / two_lam
    if forecast is not None:
        a[n] += forecast[n, n] / two_lam
    _finite(a, "source vector")
    f, b = state[:, n - 1:]
    u = np.empty(n + 1)
    u[:n] = _toeplitz_inverse_apply(f, b, y)
    u[n] = a[n] - ((inc.cell + inc.aug)[::-1] / two_lam) @ u[:n]
    return a, _finite(u, "optimal speeds")


def _diagonal_block_inverses(rows: np.ndarray) -> np.ndarray:
    """Inverses of the diagonal blocks of I - B, packed in ``rows``.

    Blocks have k = min(_BLOCK, n+1) rows, and the last one is padded with
    the identity; returns shape (blocks, k, k) from one batched inverse.
    A unit lower-triangular block is singular only if its entries overflow.
    """
    size = rows.shape[0]
    k = min(_BLOCK, size)
    blocks = np.zeros((-(-size // k), k, k))
    for b, r0 in enumerate(range(0, size, k)):
        block = np.tril(rows[r0:r0 + k, r0:r0 + k], -1)
        blocks[b, :block.shape[0], :block.shape[1]] = block
    blocks[:, range(k), range(k)] = 1.0
    try:
        return np.linalg.inv(blocks)
    except np.linalg.LinAlgError:
        raise NumericError("non-finite feedback matrix: the scenario overflows "
                           "double precision") from None


def _finite(x: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(x).all():
        raise NumericError(f"non-finite {what}: the scenario overflows double precision")
    return x


class NystromEngine:
    """Signal-independent precomputation for batches of paths on one scenario.

    The batch route: the Monte Carlo rules and the perturbation test share
    one build over many paths, while a single solve takes the Schur route
    of ``solve_scenario_detail``, which stores no rows. Builds once, in
    O(n^2) time, the rows f_m and I - B packed in ``rows`` (from
    ``response_rows``), the inverses of the diagonal blocks of I - B in
    ``block_inverses`` and the signal-free offset -f_m . h~[i:n] of the
    source vector, -h~_n / (2*lam) at i = n. Every source is affine in the
    path, a = I * c + base. For OU and zero signals base is the offset,
    and the OU forecasts N[k, i] = s_k * e_{k-i} * I_i give
    c_i = f_m . (s * e_{.-i})[i:n], with c_n = 0 (s_n = 0), built in the
    same blocked pass; c = 0 for a zero signal. A tabulated signal's user
    forecast does not depend on the path: c = 0, and base is the
    ``source_vector`` of that forecast, contracted once here. A realized
    path then costs its source and one blocked forward substitution: O(n)
    and O(n^2) work; a batch of paths (``speeds_for_paths``) takes its
    affine sources and matrix products in place of matrix-vector products.
    The Monte Carlo rule ``speed_for_path`` still builds each path's
    forecast matrix, one scaling of a cached path-free base, contracts it
    with the rows and substitutes once: at n = 200 on one BLAS thread about
    75 us of CPU time a path, about 20 us of it the forecast matrix.

    A signal the engine cannot source fails the build, before any row is
    computed: a tabulated signal with no forecast matrix raises
    UnsupportedSignalError, one whose forecast does not fit the grid and a
    signal model of unknown type raise InputError.

    The build and every public method run with numpy's floating-point
    warnings off, so under any warning filter a section singular to working
    precision raises the NumericError of its pivot check, and a feedback
    matrix, source or speed vector that overflows raises NumericError.
    """

    @np.errstate(all="ignore")
    def __init__(self, params: ScenarioParams, kernel: PropagatorKernel,
                 grid: TimeGrid, signal: SignalModel):
        forecast = None
        if isinstance(signal, TabulatedSignal):
            # checked here, before any row is built
            forecast = forecast_matrix(signal, signal.values, grid)
        elif not isinstance(signal, (OUSignal, ZeroSignal)):
            raise InputError(f"unknown signal model {type(signal).__name__}")
        self.params = params
        self.grid = grid
        self.signal = signal
        self.inc = integrated_increments(kernel, params, grid)
        self.rows = response_rows(self.inc, params, grid)
        self.block_inverses = _diagonal_block_inverses(self.rows)
        n = grid.n
        h_tilde = params.h0_values(grid) - 2.0 * params.varrho * params.q
        self.offset = np.empty(n + 1)
        self.c = np.zeros(n + 1)
        ou = isinstance(signal, OUSignal)
        if ou:
            decay, scale = ou_forecast_factors(signal.gamma, grid)
        # blocks of rows, never a full (n+1)^2 temporary
        for r0 in range(0, n + 1, _BLOCK):
            block = self.rows[r0:r0 + _BLOCK, r0:]
            r1 = r0 + block.shape[0]
            self.offset[r0:r1] = -(np.triu(block) @ h_tilde[r0:-1])
            if ou:
                # win[i - r0, k - r0] = e_{k-i} for k >= i and 0 below: the
                # upper triangle of a Toeplitz view, so no triu copy is made
                win = toeplitz_view(np.zeros(r1 - r0), decay[:n - r0])
                self.c[r0:r1] = np.einsum("ik,ik,k->i", block, win, scale[r0:n])
        self.offset[-1] = -h_tilde[-1] / (2.0 * params.lam)
        self.base = self.offset if forecast is None else self.source_vector(forecast)

    @np.errstate(all="ignore")
    def source_for_path(self, signal_path: np.ndarray) -> np.ndarray:
        """Source vector of one realized path, (n+1,), or of a batch, (paths, n+1):
        I * c + base, path by path, for every signal type."""
        path = np.asarray(signal_path, dtype=float)
        size = self.offset.shape[0]
        if path.ndim not in (1, 2) or path.shape[-1] != size:
            raise InputError(f"signal path has shape {path.shape}, expected "
                             f"({size},) or (paths, {size})")
        return _finite(path * self.c + self.base, "source vector")

    @np.errstate(all="ignore")
    def source_vector(self, forecasts: np.ndarray) -> np.ndarray:
        """a_i = f_m . N[i:n, i], and N[n, n] / (2*lam) at i = n, plus the offset.

        The path-free source of a tabulated signal's user forecast, built
        once per engine, and, per path, the source of the Monte Carlo rule;
        for OU and zero signals, the reference that ``source_for_path`` is
        tested against. N must be zero above the diagonal, as
        ``forecast_matrix`` guarantees: the contraction runs over whole rows
        of ``rows``, I - B part included.
        """
        n = self.grid.n
        forecasts = np.asarray(forecasts, dtype=float)
        if forecasts.shape != (n + 1, n + 1):
            raise InputError(
                f"forecast matrix has shape {forecasts.shape}, expected ({n + 1}, {n + 1})"
            )
        a = np.einsum("ik,ki->i", self.rows, forecasts[:n, :]) + self.offset
        a[n] += forecasts[n, n] / (2.0 * self.params.lam)
        return _finite(a, "source vector")

    def _speeds(self, sources: np.ndarray) -> np.ndarray:
        """u = (I - B)^{-1} a for each finite source a, shape (n+1,) or (paths, n+1).

        The sources come from ``source_for_path`` or ``source_vector``,
        which have checked that they are finite.
        """
        size = sources.shape[-1]
        k = self.block_inverses.shape[1]
        u = np.empty_like(sources)
        for r0, inverse in zip(range(0, size, k), self.block_inverses):
            r1 = min(r0 + k, size)
            rhs = sources[..., r0:r1]
            if r0:
                rhs = rhs - u[..., :r0] @ self.rows[r0:r1, :r0].T
            np.matmul(rhs, inverse[:r1 - r0, :r1 - r0].T, out=u[..., r0:r1])
        return _finite(u, "optimal speeds")

    @np.errstate(all="ignore")
    def speed_for_path(self, signal_path: np.ndarray) -> np.ndarray:
        """Optimal speeds for one realized path: the Monte Carlo rule.

        Through the path's forecast matrix on purpose: the benchmark's
        self-test pins one forecast_matrix call per Monte Carlo path and
        patches this method. ``speeds_for_paths`` is the affine batch route.
        """
        # a one-row batch: a bare vector through _speeds raised the peak RSS
        # of a 2000-path run at n = 200 by 0.2 MB
        source = self.source_vector(forecast_matrix(self.signal, signal_path, self.grid))
        return self._speeds(source[None])[0]

    @np.errstate(all="ignore")
    def speeds_for_paths(self, signal_paths: np.ndarray) -> np.ndarray:
        """Optimal speeds for a batch of realized paths, shape (n_paths, n+1)."""
        return self._speeds(self.source_for_path(signal_paths))


@dataclass(eq=False)
class ScenarioSolution:
    """Full pipeline output plus the solver internals the CLI reports."""

    path: StrategyPath
    source: np.ndarray
    forecast_diag: np.ndarray


@np.errstate(all="ignore")
def solve_scenario_detail(params: ScenarioParams, kernel: PropagatorKernel,
                          signal: SignalModel, grid: TimeGrid, seed: int = 0,
                          signal_path: np.ndarray | None = None) -> ScenarioSolution:
    """Run the whole pipeline for one realized signal path.

    ``signal_path`` overrides simulation (the forecasts still come from the
    signal model); otherwise the path is simulated from ``seed``. The
    returned strategy has inventory, distortion and the objective evaluated
    against the realized price path. numpy's floating-point warnings are off
    inside: an overflow raises NumericError from a finiteness check.

    Every single solve takes the Schur route of the module docstring: one
    Schur pass that stores no rows, then a Gohberg-Semencul apply, with
    O(n) memory besides a tabulated forecast. A zero signal, or an OU
    signal with sigma = 0 whose path is drawn here, has forecasts that are
    never revised, so the pass skips the back substitution. An explicit
    path need not follow the forecasts, so its plan may be revised. The
    signal and path are checked (``forecast_diagonal``) before the pass.
    """
    drawn = signal_path is None
    path = simulate_signal(signal, grid, seed) if drawn else np.asarray(signal_path, dtype=float)
    forecast_diag = forecast_diagonal(signal, path, grid)
    fixed = isinstance(signal, ZeroSignal) or (drawn and isinstance(signal, OUSignal)
                                               and signal.sigma == 0.0)
    a, u = _schur_solve(integrated_increments(kernel, params, grid), params, grid, signal,
                        None if fixed else path)
    strat = rollout(u, params, grid, kernel, signal_values=path)
    breakdown = evaluate_objective(strat, params, grid, price_path(path, grid))
    return ScenarioSolution(path=replace(strat, objective=breakdown), source=a,
                            forecast_diag=forecast_diag)


def solve_scenario(params: ScenarioParams, kernel: PropagatorKernel,
                   signal: SignalModel, grid: TimeGrid, seed: int = 0,
                   signal_path: np.ndarray | None = None) -> StrategyPath:
    """Optimal strategy for one scenario; see ``solve_scenario_detail``."""
    return solve_scenario_detail(params, kernel, signal, grid, seed, signal_path).path
