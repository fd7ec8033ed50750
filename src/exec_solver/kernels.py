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
and the tests. A kernel supplies two hooks: its resilience function
``decay`` and its exact ``cell_integral``, all cells in one vectorised pass,
in closed form for the zero, exponential, fractional and bounded power-law
kernels and by the exact trapezoid rule on each piece of the piecewise-linear
tabulated kernel. Admissibility on a grid is ``concavity_failure``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError
from .model import ScenarioParams, TimeGrid, require_finite, toeplitz_view

__all__ = [
    "PropagatorKernel",
    "ZeroKernel",
    "ExponentialKernel",
    "FractionalKernel",
    "BoundedPowerLawKernel",
    "TabulatedKernel",
    "IntegratedIncrements",
    "integrated_increments",
    "concavity_failure",
]

class PropagatorKernel:
    """Base class: a convolution propagator G(t, s) = 1_{s<t} H(t - s).

    A kernel defines two hooks. The solver uses H only through
    ``cell_integral``, whose ``a`` and ``b`` are arrays of interval ends with
    0 <= a <= b and whose result has their shape.
    """

    def decay(self, tau):
        """The resilience function H at lags tau > 0.

        It defines the kernel, and the tests integrate it as their reference
        for ``cell_integral`` and for the kernel's admissibility.
        """
        raise NotImplementedError

    def cell_integral(self, a, b):
        """Integral of H(x) over [a, b]."""
        raise NotImplementedError


@dataclass(frozen=True)
class ZeroKernel(PropagatorKernel):
    """No transient impact: G identically zero."""

    def decay(self, tau):
        return np.zeros_like(np.asarray(tau, dtype=float))

    def cell_integral(self, a, b):
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


@dataclass(frozen=True)
class FractionalKernel(PropagatorKernel):
    """Power-law propagator G(t, s) = c * (t - s)^(alpha - 1), alpha in (1/2, 1).

    The decay exponent is beta = 1 - alpha in (0, 1/2), so the diagonal
    singularity is square-integrable. H is infinite at tau = 0, but its cell
    integrals, the only form the solver uses, are closed-form.
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
        # c * (b^alpha - a^alpha) / alpha = c * a^alpha * expm1(alpha * r) / alpha
        # for a > 0, with r = log1p((b - a) / a), so that a cell far from the
        # origin cancels no digits; c * b^alpha / alpha at a = 0, where r is
        # finite but unused
        al = self.alpha
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        log_ratio = np.log1p((b - a) / np.where(a > 0.0, a, 1.0))
        return self.c * np.where(a > 0.0, a**al * (np.expm1(al * log_ratio) / al), b**al / al)


@dataclass(frozen=True)
class BoundedPowerLawKernel(PropagatorKernel):
    """Bounded power-law decay H(tau) = ell0 / (ell0 + tau)^beta.

    Bounded, nonincreasing and convex, hence nonnegative definite. Cell
    integrals are closed-form.
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


@dataclass(frozen=True, eq=False)
class TabulatedKernel(PropagatorKernel):
    """Convolution kernel given by resilience samples on [0, T_table].

    H interpolates linearly between samples and holds the last value beyond
    the table. Cell integrals cut each interval at the table knots inside it
    and sum the trapezoid rule, exact for H, over the pieces.
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
        lo, hi, owner = self._pieces(a, b)
        piece = 0.5 * (hi - lo) * (self.decay(lo) + self.decay(hi))
        return np.bincount(owner, piece, minlength=np.size(a)).reshape(np.shape(a))

    def _pieces(self, a, b):
        """Cut each interval [a[i], b[i]] at the table knots strictly inside it.

        Returns the ends lo, hi of every piece and the index i of the
        interval each piece belongs to. H is linear on every piece.
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
        return lo, hi, owner


# ---------------------------------------------------------------------------
# integrated increments

def lower_toeplitz(diagonals: np.ndarray) -> np.ndarray:
    """(n+1, n+1) strictly lower Toeplitz matrix with diagonals[m] on sub-diagonal m+1.

    The solver never builds it. It stays for the dense matrices: the oracle
    reads LG, and the tests and the benchmark's tracer read L and U.
    """
    first_col = np.concatenate(([0.0], diagonals))
    return toeplitz_view(first_col, np.zeros(first_col.size)).copy()


@dataclass(frozen=True, eq=False)
class IntegratedIncrements:
    """Cell integrals of the augmented kernel on a uniform grid, as one generator.

    cell  (n,), cell[m] = integral of the resilience function over
          [m*dt, (m+1)*dt]; with aug = 2*varrho*dt, the entries of L and U
          at distance m from the diagonal are cell[m] + aug

    The dense (n+1, n+1) matrices are built on first access: LG for the
    quadratic-program oracle and a batch rollout. L and U stay because the
    tests' dense references and the benchmark's tracer, which counts their
    bytes, read them. The solver reads only the generator:

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


def concavity_failure(kernel: PropagatorKernel, params: ScenarioParams,
                      grid: TimeGrid) -> tuple[int, float] | None:
    """First grid step at which the discrete objective stops being strictly concave.

    This is the library's admissibility check for a kernel on a grid: the
    CLI runs it on every config before any output is written.

    With phi = 0 the negated Hessian of the discrete objective on the
    active speeds (``oracle.assemble_qp``) is dt * toeplitz(col), with
    col[0] = 2*lam + aug and col[d] = cell[d-1] + aug, where aug * J (J all
    ones) is positive semidefinite.

    An O(n) certificate comes first. If x = col - aug = [2*lam, cell[0],
    ..., cell[n-2]] is nonnegative, nonincreasing, convex and not constant,
    toeplitz(x) is positive definite (Polya's criterion: a convex,
    nonincreasing null sequence has a nonnegative cosine symbol), and so is
    the Hessian block. Otherwise the leading section of order k+1 is
    positive definite iff the LDL^T pivots of steps 0..k are positive. The
    symmetric Schur algorithm (Golub & Van Loan, 4.7) finds them in O(n^2)
    time and O(n) memory, in place of a dense Cholesky: two generator rows,
    one shifted a place each step, with the reflection coefficient
    rho_k = v[k] / u[k] and pivot_k = pivot_{k-1} * (1 - rho_k^2). Dividing
    both rows by 1 - rho_k^2 keeps u[k] at col[0]. Returns the first step
    whose pivot is not positive, with that pivot of the negated Hessian, or
    None when the certificate holds or every pivot is positive.
    """
    n, dt = grid.n, grid.dt
    x = np.concatenate(([2.0 * params.lam], _cell_values(kernel, dt, n - 1)))
    if _polya_certified(x):
        return None
    col = x + 2.0 * params.varrho * dt
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


def _polya_certified(x: np.ndarray) -> bool:
    """Whether the symmetric Toeplitz matrix with first column x is positive
    definite by Polya's criterion: x nonnegative, nonincreasing and convex,
    with x[0] > x[-1] so that it is not a multiple of the all-ones matrix."""
    drop = x[:-1] - x[1:]
    return bool(x[-1] >= 0.0 and x[0] > x[-1] and np.all(drop >= 0.0)
                and np.all(drop[:-1] >= drop[1:]))
