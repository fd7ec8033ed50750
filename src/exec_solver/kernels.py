"""Transient-impact propagator kernels and their exact cell integrals.

All shipped kernels are Volterra convolution kernels G(t, s) = 1_{s<t} H(t-s)
with a nonnegative, decaying resilience function H. The solver never samples
G pointwise; it consumes integrals of the penalty-augmented kernel
G~(t, s) = 2*varrho*1_{s<t} + G(t, s) over grid cells:

    L[k, j] = integral of G~(t_k, s) over [t_j, t_{j+1}],   j <= k-1,
    U[k, j] = integral of G~(s, t_k) over [t_j, t_{j+1}],   k <= j <= n-1.

For a convolution kernel on a uniform grid both are Toeplitz and generated by
one vector: the cell integrals cell[m] of H over [m*dt, (m+1)*dt] plus the
penalty summand 2*varrho*dt. ``IntegratedIncrements`` stores that vector; the
dense L, U and LG are built only on demand, for the quadratic-program oracle
and the tests. Every kernel supplies its cell integrals and its cell first
moments exactly, all cells in one vectorised pass: in closed form for the
zero, exponential, fractional and bounded power-law kernels, and by exact
per-piece rules on the piecewise-linear tabulated kernel. The Gram matrix of
the definiteness check is built from the same two hooks.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError
from .model import ScenarioParams, TimeGrid, require_finite, toeplitz

__all__ = [
    "PropagatorKernel",
    "ZeroKernel",
    "ExponentialKernel",
    "FractionalKernel",
    "BoundedPowerLawKernel",
    "TabulatedKernel",
    "IntegratedIncrements",
    "integrated_increments",
    "DefinitenessReport",
    "check_nonnegative_definite",
    "concavity_failure",
]

class PropagatorKernel:
    """Base class: a convolution propagator G(t, s) = 1_{s<t} H(t - s).

    The solver uses H only through its integrals over grid cells. In both
    hooks ``a`` and ``b`` are arrays of interval ends with 0 <= a <= b, and
    the result is an array of the same shape.
    """

    def decay(self, tau):
        """The resilience function H at lags tau > 0."""
        raise NotImplementedError

    def cell_integral(self, a, b):
        """Integral of H(x) over [a, b]."""
        raise NotImplementedError

    def cell_moment(self, a, b):
        """Integral of (x - a) * H(x) over [a, b]."""
        raise NotImplementedError


@dataclass(frozen=True)
class ZeroKernel(PropagatorKernel):
    """No transient impact: G identically zero."""

    def decay(self, tau):
        return np.zeros_like(np.asarray(tau, dtype=float))

    def cell_integral(self, a, b):
        return np.zeros(np.shape(a))

    def cell_moment(self, a, b):
        return np.zeros(np.shape(a))


@dataclass(frozen=True)
class ExponentialKernel(PropagatorKernel):
    """G(t, s) = c * exp(-rho * (t - s)) below the diagonal."""

    c: float = 1.0
    rho: float = 1.0

    def __post_init__(self):
        require_finite(self, "c", "rho")
        if not self.c > 0:
            raise InputError(f"exponential kernel needs c > 0, got {self.c}")
        if not self.rho > 0:
            raise InputError(f"exponential kernel needs rho > 0, got {self.rho}")

    def decay(self, tau):
        return self.c * np.exp(-self.rho * np.asarray(tau, dtype=float))

    def cell_integral(self, a, b):
        r = self.rho
        return self.c * (np.exp(-r * a) - np.exp(-r * b)) / r

    def cell_moment(self, a, b):
        r = self.rho
        h = r * (b - a)
        return self.c * np.exp(-r * a) * (-np.expm1(-h) - h * np.exp(-h)) / r**2


@dataclass(frozen=True)
class FractionalKernel(PropagatorKernel):
    """Power-law propagator G(t, s) = c * (t - s)^(alpha - 1), alpha in (1/2, 1).

    The decay exponent is beta = 1 - alpha in (0, 1/2), so the diagonal
    singularity is square-integrable. H is infinite at tau = 0, but its cell
    integrals and moments, the only form the solver uses, are closed-form.
    """

    c: float = 1.0
    alpha: float = 0.75

    def __post_init__(self):
        require_finite(self, "c", "alpha")
        if not self.c > 0:
            raise InputError(f"fractional kernel needs c > 0, got {self.c}")
        if not 0.5 < self.alpha < 1.0:
            raise InputError(
                f"fractional kernel needs alpha in (1/2, 1), got {self.alpha}"
            )

    def decay(self, tau):
        return self.c * np.asarray(tau, dtype=float) ** (self.alpha - 1.0)

    def cell_integral(self, a, b):
        # c * (b^alpha - a^alpha) / alpha = c * a^alpha * E(alpha) for a > 0,
        # with E(p) = expm1(p * r) / p and r = log1p((b - a) / a), so that a
        # cell far from the origin cancels no digits; c * b^alpha / alpha at a = 0
        al = self.alpha
        a, b, log_ratio = self._log_ratio(a, b)
        return self.c * np.where(a > 0.0, a**al * _expm1_ratio(al, log_ratio), b**al / al)

    def cell_moment(self, a, b):
        # c * a^(alpha + 1) * (E(alpha + 1) - E(alpha)) for a > 0, with E as
        # in cell_integral; c * b^(alpha + 1) / (alpha + 1) at a = 0
        p = self.alpha + 1.0
        a, b, log_ratio = self._log_ratio(a, b)
        gap = _expm1_ratio(p, log_ratio) - _expm1_ratio(self.alpha, log_ratio)
        return self.c * np.where(a > 0.0, a**p * gap, b**p / p)

    @staticmethod
    def _log_ratio(a, b):
        """a, b as arrays and log1p((b - a) / a), finite but unused where a = 0."""
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        return a, b, np.log1p((b - a) / np.where(a > 0.0, a, 1.0))


@dataclass(frozen=True)
class BoundedPowerLawKernel(PropagatorKernel):
    """Bounded power-law decay H(tau) = ell0 / (ell0 + tau)^beta.

    Bounded, nonincreasing and convex, hence nonnegative definite. Cell
    integrals and moments are closed-form.
    """

    ell0: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        require_finite(self, "ell0", "beta")
        if not self.ell0 > 0:
            raise InputError(f"bounded power-law kernel needs ell0 > 0, got {self.ell0}")
        if not self.beta > 0:
            raise InputError(f"bounded power-law kernel needs beta > 0, got {self.beta}")

    def decay(self, tau):
        return self.ell0 / (self.ell0 + np.asarray(tau, dtype=float)) ** self.beta

    def cell_integral(self, a, b):
        # ell0 * ((ell0 + b)^e - (ell0 + a)^e) / e with e = 1 - beta, written
        # through log1p and expm1 so that neither beta near 1 nor a cell far
        # wider or narrower than ell0 cancels digits; log1p alone at e = 0
        e = 1.0 - self.beta
        log_ratio = np.log1p((b - a) / (self.ell0 + a))
        if e == 0.0:
            return self.ell0 * log_ratio
        return self.ell0 * (self.ell0 + a) ** e * np.expm1(e * log_ratio) / e

    def cell_moment(self, a, b):
        # ell0 * (ell0 + a)^(2 - beta) * (E(2 - beta) - E(1 - beta)) with
        # E(p) = expm1(p * r) / p and r = log1p((b - a) / (ell0 + a)), exact
        # at beta = 1 and beta = 2 where one E is r
        log_ratio = np.log1p((b - a) / (self.ell0 + a))
        p = 2.0 - self.beta
        gap = _expm1_ratio(p, log_ratio) - _expm1_ratio(p - 1.0, log_ratio)
        return self.ell0 * (self.ell0 + a) ** p * gap


def _expm1_ratio(p: float, r):
    """expm1(p * r) / p, continued by its limit r at p = 0."""
    return r if p == 0.0 else np.expm1(p * r) / p


@dataclass(frozen=True, eq=False)
class TabulatedKernel(PropagatorKernel):
    """Convolution kernel given by resilience samples on [0, T_table].

    H interpolates linearly between samples and holds the last value beyond
    the table. Cell integrals and moments cut each interval at the table
    knots inside it and sum exact rules over the pieces: the trapezoid rule
    for H, and Simpson's rule for (x - a) * H(x), which is quadratic on each
    piece.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or times.shape != values.shape or times.size < 2:
            raise InputError("tabulated kernel needs matching 1-d times and values")
        if not np.all(np.diff(times) > 0) or times[0] != 0.0:
            raise InputError("tabulated kernel times must be increasing and start at 0")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            raise InputError("tabulated kernel times and values must be finite")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_grid_values(cls, grid: TimeGrid, values) -> "TabulatedKernel":
        return cls(times=grid.t.copy(), values=np.asarray(values, dtype=float))

    def decay(self, tau):
        return np.interp(np.asarray(tau, dtype=float), self.times, self.values)

    def cell_integral(self, a, b):
        lo, hi, start, owner = self._pieces(a, b)
        piece = 0.5 * (hi - lo) * (self.decay(lo) + self.decay(hi))
        return np.bincount(owner, piece, minlength=start.size).reshape(np.shape(a))

    def cell_moment(self, a, b):
        lo, hi, start, owner = self._pieces(a, b)
        mid = 0.5 * (lo + hi)
        a_piece = start[owner]
        piece = (hi - lo) / 6.0 * ((lo - a_piece) * self.decay(lo)
                                   + 4.0 * (mid - a_piece) * self.decay(mid)
                                   + (hi - a_piece) * self.decay(hi))
        return np.bincount(owner, piece, minlength=start.size).reshape(np.shape(a))

    def _pieces(self, a, b):
        """Cut each interval [a[i], b[i]] at the table knots strictly inside it.

        Returns the ends lo, hi of every piece, the flattened interval starts
        and the index i of the interval each piece belongs to. H is linear
        on every piece.
        """
        a, b, knots = np.ravel(a), np.ravel(b), self.times
        first = np.searchsorted(knots, a, side="right")
        inner = np.maximum(np.searchsorted(knots, b, side="left") - first, 0)
        sizes = inner + 1
        owner = np.repeat(np.arange(a.size), sizes)
        pos = np.arange(owner.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        knot = first[owner] + pos  # piece pos runs from knots[knot - 1] to knots[knot]
        last = knots.size - 1
        lo = np.where(pos == 0, a[owner], knots[np.clip(knot - 1, 0, last)])
        hi = np.where(pos == inner[owner], b[owner], knots[np.clip(knot, 0, last)])
        return lo, hi, a, owner


# ---------------------------------------------------------------------------
# integrated increments

def lower_toeplitz(diagonals: np.ndarray) -> np.ndarray:
    """(n+1, n+1) strictly lower Toeplitz matrix with diagonals[m] on sub-diagonal m+1."""
    first_col = np.concatenate(([0.0], diagonals))
    return toeplitz(first_col, np.zeros(first_col.size))


@dataclass(frozen=True, eq=False)
class IntegratedIncrements:
    """Cell integrals of the augmented kernel on a uniform grid, as one generator.

    cell  (n,), cell[m] = integral of the resilience function over
          [m*dt, (m+1)*dt]; with aug = 2*varrho*dt, the entries of L and U
          at distance m from the diagonal are cell[m] + aug

    The dense (n+1, n+1) matrices are views built on first access, for the
    quadratic-program oracle, the tests and ``dense_curvature``; the solver
    reads only the generator:

    L   support j <= k-1: cell integrals of G~(t_k, .)
    U   support k <= j <= n-1: cell integrals of G~(., t_k)
    LG  L with the 2*varrho*dt penalty summand removed (pure propagator),
        the weights used to roll the transient distortion forward
    """

    cell: np.ndarray
    dt: float
    varrho: float

    @property
    def n(self) -> int:
        return self.cell.size

    @property
    def aug(self) -> float:
        return 2.0 * self.varrho * self.dt

    @functools.cached_property
    def L(self) -> np.ndarray:
        return lower_toeplitz(self.cell + self.aug)

    @functools.cached_property
    def LG(self) -> np.ndarray:
        return lower_toeplitz(self.cell)

    @functools.cached_property
    def U(self) -> np.ndarray:
        # U[k, j] = L[j + 1, k] for j < n, and column n is zero
        U = np.zeros((self.n + 1, self.n + 1))
        U[:, :-1] = lower_toeplitz(self.cell + self.aug).T[:, 1:]
        return U


def _cell_values(kernel: PropagatorKernel, dt: float, n: int) -> np.ndarray:
    """Integrals of the resilience function over [(m-1)dt, m*dt], m = 1..n."""
    edges = np.arange(n + 1) * dt
    return np.asarray(kernel.cell_integral(edges[:-1], edges[1:]), dtype=float)


def integrated_increments(kernel: PropagatorKernel, params: ScenarioParams,
                          grid: TimeGrid) -> IntegratedIncrements:
    """Cell-integral generator of L, U and LG for one kernel on one grid."""
    cell = _cell_values(kernel, grid.dt, grid.n)
    inc = IntegratedIncrements(cell=cell, dt=grid.dt, varrho=params.varrho)
    if not np.all(np.isfinite(cell + inc.aug)):
        raise NumericError("non-finite integrated increments")
    return inc


# ---------------------------------------------------------------------------
# nonnegative definiteness diagnostic

@dataclass(frozen=True)
class DefinitenessReport:
    """Outcome of the grid-level nonnegative-definiteness check.

    A True result certifies the symmetrized kernel quadratic form is
    nonnegative on piecewise-constant test functions at this resolution;
    it is a diagnostic, not a proof for the continuum kernel.
    """

    nonnegative: bool
    min_eigenvalue: float
    matrix_norm: float
    n: int

    def __bool__(self):
        return self.nonnegative


def _gram_first_row(kernel: PropagatorKernel, dt: float, n: int) -> np.ndarray:
    """First row of the Gram matrix of G(t, s) + G(s, t) over the grid cells.

    Entry m is the integral of (dt - |x - m*dt|) * H(x) over the two cells
    beside m*dt. With M[j] the moment of H on cell j about its left end and
    A[j] = dt*cell[j] - M[j], entry 0 is 2*A[0] and entry m is A[m] + M[m-1].
    """
    edges = np.arange(n + 1) * dt
    moment = kernel.cell_moment(edges[:-1], edges[1:])
    row = dt * kernel.cell_integral(edges[:-1], edges[1:]) - moment
    row[0] *= 2.0
    row[1:] += moment[:-1]
    return row


def check_nonnegative_definite(kernel: PropagatorKernel, grid: TimeGrid,
                               tol: float = 1e-8) -> DefinitenessReport:
    """Test the symmetrized quadratic form of G on piecewise-constant functions.

    Builds the exact Gram matrix of G(t, s) + G(s, t) over the grid cells
    and reports whether its smallest eigenvalue is nonnegative up to
    ``tol`` times the matrix norm.
    """
    n, dt = grid.n, grid.dt
    row = _gram_first_row(kernel, dt, n)
    gram = toeplitz(row, row)
    eigs = np.linalg.eigvalsh(gram)
    min_eig = float(eigs[0])
    norm = float(np.max(np.abs(eigs)))
    return DefinitenessReport(
        nonnegative=min_eig >= -tol * norm,
        min_eigenvalue=min_eig,
        matrix_norm=norm,
        n=n,
    )


def concavity_failure(kernel: PropagatorKernel, params: ScenarioParams,
                      grid: TimeGrid) -> tuple[int, float] | None:
    """First grid step at which the discrete objective stops being strictly concave.

    With phi = 0 the negated Hessian of the discrete objective on the
    active speeds (``oracle.assemble_qp``) is dt * toeplitz(col), with
    col[0] = 2*lam + aug and col[d] = cell[d-1] + aug. Its leading section
    of order k+1 is positive definite iff the LDL^T pivots of steps 0..k
    are positive. The symmetric Schur algorithm (Golub & Van Loan, 4.7)
    finds them in O(n^2) time and O(n) memory, in place of a dense
    Cholesky: two generator rows, one shifted a place each step, with the
    reflection coefficient rho_k = v[k] / u[k] and pivot_k = pivot_{k-1} *
    (1 - rho_k^2). Dividing both rows by 1 - rho_k^2 keeps u[k] at col[0].
    Returns the first step whose pivot is not positive, with that pivot
    of the negated Hessian, or None when every pivot is positive.
    """
    n, dt = grid.n, grid.dt
    aug = 2.0 * params.varrho * dt
    col = np.concatenate(([2.0 * params.lam], _cell_values(kernel, dt, n - 1))) + aug
    pivot = col[0] * dt
    if not pivot > 0.0:
        return 0, float(pivot)
    # u[j] holds position j + k of the shifted row, v[j] position j
    u, v = col.copy(), col.copy()
    v[0] = 0.0
    for k in range(1, n):
        head, tail = u[:n - k], v[k:]
        rho = tail[0] / head[0]
        shrink = (1.0 - rho) * (1.0 + rho)
        pivot *= shrink
        if not pivot > 0.0:
            return k, float(pivot)
        head, tail = (head - rho * tail) / shrink, (tail - rho * head) / shrink
        u[:n - k], v[k:] = head, tail
    return None
