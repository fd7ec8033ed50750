"""Price-predicting signals: models, exact simulation, forecast matrix.

The unaffected price is P_t = integral of the signal I plus a martingale
that is fixed to zero throughout (the optimal speed depends on P only
through the forecasts below, and objective comparisons in expectation are
unchanged when the signal is independent of the martingale). On the grid,

    P_k = dt * sum_{j<k} I_j.

The solver consumes the signal through the forecasts
N[k, j] = E[P_{t_k} - P_T | info at t_j]. For an Ornstein-Uhlenbeck signal
they are N[k, j] = s_k * e_{k-j} * I_j on k >= j, with e_m = exp(-gamma m dt)
and s_k = expm1(gamma (t_k - t_n)) / gamma (s_k = t_k - t_n, e = 1 as
gamma -> 0): a lower-Toeplitz matrix scaled by rows and by columns. The
grid solver reads only the factors e and s (``ou_forecast_factors``), since
its source is then affine in the path. The dense matrix (``forecast_matrix``)
is built for a tabulated signal's user forecast and, one per path, by the
Monte Carlo rule ``NystromEngine.speed_for_path``. Only the factor I_j
depends on the path, so the path-free part s_k * e_{k-j} is built once per
(gamma, grid) and cached (``_ou_forecast_base``), and each OU forecast
matrix is one scaling of it.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import InputError, UnsupportedSignalError
from .model import TimeGrid, require_finite, toeplitz_view

__all__ = [
    "SignalModel",
    "ZeroSignal",
    "OUSignal",
    "TabulatedSignal",
    "simulate_signal",
    "forecast_matrix",
    "ou_forecast_factors",
    "forecast_diagonal",
    "price_path",
]

# below this, mean-reversion formulas switch to their gamma -> 0 limits
_GAMMA_EPS = 1e-12


class SignalModel:
    pass


@dataclass(frozen=True)
class ZeroSignal(SignalModel):
    """No signal: I identically zero, price identically zero."""


@dataclass(frozen=True)
class OUSignal(SignalModel):
    """Mean-reverting signal dI = -gamma * I dt + sigma dW.

    gamma = 0 is accepted and handled through the analytic limits of the
    transition and forecast formulas.
    """

    I0: float
    gamma: float
    sigma: float

    def __post_init__(self):
        require_finite(self, "I0", "gamma", "sigma")
        if self.gamma < 0:
            raise InputError(f"OU signal needs gamma >= 0, got {self.gamma}")
        if self.sigma < 0:
            raise InputError(f"OU signal needs sigma >= 0, got {self.sigma}")


@dataclass(frozen=True, eq=False)
class TabulatedSignal(SignalModel):
    """A realized signal path on the grid, with an optional user forecast matrix.

    Without a forecast matrix the path can be simulated (replayed) and
    priced, but not fed to the solver: no conditional-expectation model is
    available for an arbitrary tabulated path. Only the lower triangle of a
    forecast matrix is kept: the solver reads no other entry.
    """

    values: np.ndarray
    forecast: np.ndarray | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise InputError("tabulated signal values must be a 1-d vector")
        if not np.all(np.isfinite(values)):
            raise InputError("tabulated signal values must be finite")
        object.__setattr__(self, "values", values)
        if self.forecast is not None:
            fc = np.asarray(self.forecast, dtype=float)
            m = values.shape[0]
            if fc.shape != (m, m):
                raise InputError(
                    f"forecast matrix has shape {fc.shape}, expected ({m}, {m})"
                )
            if not np.all(np.isfinite(fc)):
                raise InputError("forecast matrix entries must be finite")
            # column-major, like the OU forecasts: the solver reads columns
            object.__setattr__(self, "forecast", np.asfortranarray(np.tril(fc)))


def _step_normals(seed: int) -> Callable[[int, int], np.ndarray]:
    """Counter-based draws keyed by (seed, step); path index = stream position.

    Returns draw(step, n_paths): the first n_paths standard normals of
    Generator(Philox(key=[seed, step])). One generator serves every step:
    setting its state (counter 0, key [seed, step], nothing buffered)
    re-keys it, which draws the same numbers as a fresh construction at a
    fraction of its cost.
    """
    bits = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    gen = np.random.Generator(bits)
    state = bits.state
    key = state["state"]["key"]

    def draw(step: int, n_paths: int) -> np.ndarray:
        key[1] = step
        bits.state = state
        return gen.standard_normal(n_paths)

    return draw


def _ou_step_coeffs(model: OUSignal, dt: float) -> tuple[float, float]:
    g = model.gamma
    if g < _GAMMA_EPS:
        return 1.0, model.sigma * np.sqrt(dt)
    phase = np.exp(-g * dt)
    var = -np.expm1(-2.0 * g * dt) / (2.0 * g)
    return phase, model.sigma * np.sqrt(var)


def simulate_signal(model: SignalModel, grid: TimeGrid, seed: int = 0,
                    n_paths: int | None = None) -> np.ndarray:
    """Realized signal values on the grid.

    Returns shape (n+1,) by default, or (n_paths, n+1) when ``n_paths`` is
    given; it must then be an integer >= 1, and ``seed`` an integer in
    [0, 2^64). Neither may be a bool: else InputError.
    OU paths use the exact one-step transition

        I_{i+1} = I_i * exp(-gamma dt) + sigma * sqrt((1 - exp(-2 gamma dt)) / (2 gamma)) * xi_i

    with normals drawn from a counter-based generator keyed by (seed, step),
    so paths are reproducible bit for bit given the seed and independent of
    how a batch is split up. A deterministic path (sigma = 0) draws none.
    """
    if not (isinstance(seed, (int, np.integer)) and not isinstance(seed, bool)
            and 0 <= int(seed) < 2**64):
        raise InputError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    squeeze = n_paths is None
    if not (squeeze or isinstance(n_paths, (int, np.integer))
            and not isinstance(n_paths, bool) and n_paths >= 1):
        raise InputError(f"n_paths must be an integer >= 1, got {n_paths!r}")
    count = 1 if squeeze else int(n_paths)
    npts = grid.n + 1

    if isinstance(model, ZeroSignal):
        out = np.zeros((count, npts))
    elif isinstance(model, TabulatedSignal):
        if model.values.shape != (npts,):
            raise InputError(
                f"tabulated signal has {model.values.shape[0]} values, grid needs {npts}"
            )
        out = np.tile(model.values, (count, 1))
    elif isinstance(model, OUSignal):
        phase, scale = _ou_step_coeffs(model, grid.dt)
        if scale == 0.0:
            # a deterministic path draws no normals: I_k = I0 * phase * ... * phase,
            # multiplied in the order of the one-step recurrence
            factors = np.full(npts, phase)
            factors[0] = model.I0
            out = np.tile(np.multiply.accumulate(factors), (count, 1))
        else:
            draw = _step_normals(int(seed))
            out = np.empty((count, npts))
            out[:, 0] = model.I0
            for step in range(grid.n):
                out[:, step + 1] = out[:, step] * phase + scale * draw(step, count)
    else:
        raise InputError(f"unknown signal model {type(model).__name__}")
    return out[0] if squeeze else out


def ou_forecast_factors(g: float, grid: TimeGrid) -> tuple[np.ndarray, np.ndarray]:
    """The factors e_m and s_k of the OU forecasts N[k, j] = s_k * e_{k-j} * I_j
    of mean reversion rate ``g``.

    Both have n+1 entries, with e_0 = 1 and s_n = 0; see the module docstring.
    """
    t_rel = grid.t - grid.t[-1]  # t_k - t_n, +0.0 on the last row
    if g < _GAMMA_EPS:
        return np.ones(grid.n + 1), t_rel
    return np.exp(-g * grid.dt * np.arange(grid.n + 1)), np.expm1(g * t_rel) / g


@functools.lru_cache(maxsize=1)
def _ou_forecast_base(gamma: float, grid: TimeGrid) -> np.ndarray:
    """Read-only, row-major path-free part of the OU forecasts, B[j, k] = e_{k-j} * s_k.

    The transpose of N without its path factor, so that N^T = B * I[:, None]
    bit for bit. Only gamma and the grid enter e and s, and a TimeGrid
    hashes by (n, T), so the key is (gamma, grid). The cache holds the one
    (n+1)^2 array of the last key: 0.3 MB at n = 200, 8 MB at n = 1000.
    """
    decay, scale = ou_forecast_factors(gamma, grid)
    base = toeplitz_view(np.zeros(grid.n + 1), decay) * scale
    base.flags.writeable = False
    return base


def forecast_diagonal(model: SignalModel, path: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Same-time forecasts N[k, k] of one path, without the matrix for OU and zero signals.

    For OU they are s_k * I_k, equal bit for bit to the diagonal of
    ``forecast_matrix``, because e_0 = 1.
    """
    if isinstance(model, OUSignal):
        return ou_forecast_factors(model.gamma, grid)[1] * _as_path(path, grid)
    if isinstance(model, ZeroSignal):
        return np.zeros_like(_as_path(path, grid))
    return np.diag(forecast_matrix(model, path, grid)).copy()


def _as_path(path: np.ndarray, grid: TimeGrid) -> np.ndarray:
    path = np.asarray(path, dtype=float)
    if path.shape != (grid.n + 1,):
        raise InputError(f"signal path has shape {path.shape}, expected ({grid.n + 1},)")
    return path


def forecast_matrix(model: SignalModel, path: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Forecasts N[k, j] = E[P_{t_k} - P_T | info at t_j], zero for k < j.

    For the OU signal the conditional expectation is available in closed
    form and depends on the path only through I_{t_j}:

        N[k, j] = I_{t_j} * (exp(-gamma (n-j) dt) - exp(-gamma (k-j) dt)) / gamma
                = s_k * e_{k-j} * I_{t_j},

    with e_m and s_k as in the module docstring. The product form takes no
    difference of exponentials: it keeps full relative accuracy as gamma -> 0
    and overflows for no gamma T. Tabulated signals must carry a
    user-supplied forecast matrix. Every forecast matrix is column-major.
    """
    n = grid.n
    path = _as_path(path, grid)
    if isinstance(model, ZeroSignal):
        return np.zeros((n + 1, n + 1), order="F")
    if isinstance(model, TabulatedSignal):
        if model.forecast is None:
            raise UnsupportedSignalError(
                "tabulated signal has no closed-form forecast; supply one explicitly"
            )
        if model.forecast.shape != (n + 1, n + 1):
            raise InputError(
                f"forecast matrix has shape {model.forecast.shape}, "
                f"expected ({n + 1}, {n + 1})"
            )
        return model.forecast
    if not isinstance(model, OUSignal):
        raise InputError(f"unknown signal model {type(model).__name__}")

    base = _ou_forecast_base(model.gamma, grid)
    # built as the row-major transpose N^T[j, k] = (e_{k-j} * s_k) * I_j, so
    # that N is column-major: the solver contracts each column of N with a
    # row of its response matrix
    NT = np.empty_like(base)
    # The multiply broadcasts each I_j along its row. Under numpy's default
    # ufunc buffer of 8192 elements the iterator first copies the broadcast
    # operand into buffers spanning many rows; a buffer of 16 makes it
    # multiply row by row instead: 19 against 36 us at n = 200 and 0.74
    # against 1.2 ms at n = 1000. The entries are the same.
    bufsize = np.setbufsize(16)
    try:
        np.multiply(base, path[:, None], out=NT)
    finally:
        np.setbufsize(bufsize)
    return NT.T


def price_path(signal_values: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Left-endpoint integrated price P_k = dt * sum_{j<k} I_j (martingale part zero).

    Accepts a single path (n+1,) or a batch (n_paths, n+1); the integration
    runs along the last axis. The cumulative sum is written into the one
    output array and scaled by dt in place, with the rounding of
    dt * cumsum(I[:-1]).
    """
    values = np.asarray(signal_values, dtype=float)
    if values.shape[-1] != grid.n + 1:
        raise InputError(
            f"signal path has {values.shape[-1]} points, grid needs {grid.n + 1}"
        )
    out = np.empty(values.shape)
    out[..., 0] = 0.0
    np.cumsum(values[..., :-1], axis=-1, out=out[..., 1:])
    out[..., 1:] *= grid.dt
    return out
