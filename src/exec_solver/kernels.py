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
and the tests. The cell integrals are closed-form for the zero, exponential
and fractional kernels and come from adaptive composite Gauss-Legendre
quadrature otherwise, all cells in one vectorised pass.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import InputError, NumericError, SingularKernelError
from .model import ScenarioParams, TimeGrid, require_finite

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
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


class PropagatorKernel:
    """Base class: a convolution propagator with resilience function ``decay``."""

    def decay(self, tau):
        raise NotImplementedError

    def evaluate(self, t: float, s: float) -> float:
        """Pointwise G(t, s); zero on and above the diagonal (s >= t)."""
        if s >= t:
            return 0.0
        return float(self.decay(t - s))

    # Closed-form hooks; None means "fall back to quadrature".

    def cell_integral(self, a, b):
        """Exact integrals of the resilience function over [a, b], if known.

        ``a`` and ``b`` are arrays of interval ends; returns an array of the
        same shape, or None.
        """
        return None

    def gram_diag(self, dt: float) -> float | None:
        """Exact integral of (dt - tau) * H(tau) over [0, dt], if known."""
        return None

    def gram_off(self, m: int, dt: float) -> float | None:
        """Exact integral of (dt - |tau|) * H(m*dt + tau) over [-dt, dt], if known."""
        return None

    def quadrature_knots(self):
        """Interior breakpoints the quadrature must split at (tabulated data)."""
        return None


@dataclass(frozen=True)
class ZeroKernel(PropagatorKernel):
    """No transient impact: G identically zero."""

    def decay(self, tau):
        return np.zeros_like(np.asarray(tau, dtype=float))

    def cell_integral(self, a, b):
        return np.zeros(np.shape(a))

    def gram_diag(self, dt):
        return 0.0

    def gram_off(self, m, dt):
        return 0.0


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

    def gram_diag(self, dt):
        r = self.rho
        return self.c * (dt / r - (1.0 - math.exp(-r * dt)) / r**2)

    def gram_off(self, m, dt):
        r = self.rho
        hump = math.exp(r * dt) + math.exp(-r * dt) - 2.0
        return self.c * math.exp(-r * m * dt) * hump / r**2


@dataclass(frozen=True)
class FractionalKernel(PropagatorKernel):
    """Power-law propagator G(t, s) = c * (t - s)^(alpha - 1), alpha in (1/2, 1).

    The decay exponent is beta = 1 - alpha in (0, 1/2), so the diagonal
    singularity is square-integrable. Pointwise evaluation on the diagonal
    is refused; all consumers use the integrated increments, which are
    closed-form.
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

    @classmethod
    def from_beta(cls, c: float, beta: float) -> "FractionalKernel":
        """Construct from the decay exponent beta = 1 - alpha in (0, 1/2)."""
        return cls(c=c, alpha=1.0 - beta)

    def decay(self, tau):
        return self.c * np.asarray(tau, dtype=float) ** (self.alpha - 1.0)

    def evaluate(self, t, s):
        if s == t:
            raise SingularKernelError(
                "fractional kernel is singular at s = t; use integrated increments"
            )
        if s > t:
            return 0.0
        return float(self.decay(t - s))

    def cell_integral(self, a, b):
        al = self.alpha
        return self.c * (b**al - a**al) / al

    def gram_diag(self, dt):
        al = self.alpha
        return self.c * dt ** (al + 1.0) / (al * (al + 1.0))

    def gram_off(self, m, dt):
        al = self.alpha

        def f1(w):  # antiderivative of w^(alpha-1)
            return w**al / al

        def f2(w):  # antiderivative of w^alpha
            return w ** (al + 1.0) / (al + 1.0)

        lo, mid, hi = (m - 1) * dt, m * dt, (m + 1) * dt
        left = (1 - m) * dt * (f1(mid) - f1(lo)) + (f2(mid) - f2(lo))
        right = (1 + m) * dt * (f1(hi) - f1(mid)) - (f2(hi) - f2(mid))
        return self.c * (left + right)


@dataclass(frozen=True)
class BoundedPowerLawKernel(PropagatorKernel):
    """Bounded power-law decay H(tau) = ell0 / (ell0 + tau)^beta.

    Bounded, nonincreasing and convex, hence nonnegative definite. Cell
    integrals go through the quadrature path.
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


@dataclass(frozen=True, eq=False)
class TabulatedKernel(PropagatorKernel):
    """Convolution kernel given by resilience samples on [0, T_table].

    Evaluation interpolates linearly between samples and holds the last
    value beyond the table. Cell integrals go through the quadrature path,
    split at the table knots so the piecewise-linear interpolant is
    integrated exactly.
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

    def quadrature_knots(self):
        return self.times


# ---------------------------------------------------------------------------
# quadrature fallback

# bisections a cell may take before the quadrature gives up on it
_MAX_BISECTIONS = 12


def _gauss(f, lo, hi):
    """16-node Gauss-Legendre on every interval [lo[i], hi[i]] at once."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return half * (f(mid[:, None] + half[:, None] * _GL_NODES) @ _GL_WEIGHTS)


def _split_at_knots(a, b, knots):
    """Pieces of each [a[i], b[i]] between the knots inside it, and their owner i."""
    owner = np.arange(a.size)
    if knots is None:
        return a, b, owner
    first = np.searchsorted(knots, a, side="right")
    inner = np.maximum(np.searchsorted(knots, b, side="left") - first, 0)
    sizes = inner + 1
    owner = np.repeat(owner, sizes)
    pos = np.arange(owner.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    knot = first[owner] + pos  # piece pos runs from knots[knot - 1] to knots[knot]
    last = knots.size - 1
    lo = np.where(pos == 0, a[owner], knots[np.clip(knot - 1, 0, last)])
    hi = np.where(pos == inner[owner], b[owner], knots[np.clip(knot, 0, last)])
    return lo, hi, owner


def quad_integral(f, a, b, knots=None, rel_tol=1e-10):
    """Adaptive composite 16-node Gauss-Legendre on each interval [a, b].

    ``a`` and ``b`` are scalars or arrays of interval ends; ``f`` must accept
    a 2-d array of nodes. Each interval is split at the knots inside it and
    integrated on those pieces and on their halves. An interval where the two
    differ by more than ``rel_tol`` relatively (plus a 1e-14*(b-a) floor) is
    bisected, and each half is checked by the same rule. Raises NumericError
    naming the interval if it still fails after ``_MAX_BISECTIONS`` halvings:
    the integrand is not smooth enough for this rule and needs a closed form.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    shape = a.shape
    a, b = a.ravel(), b.ravel()
    out = np.zeros(a.size)
    cell = np.flatnonzero(b > a)  # the interval each active piece belongs to
    lo, hi = a[cell], b[cell]
    for depth in range(_MAX_BISECTIONS + 1):
        piece_lo, piece_hi, owner = _split_at_knots(lo, hi, knots)
        piece_mid = 0.5 * (piece_lo + piece_hi)
        coarse = np.bincount(owner, _gauss(f, piece_lo, piece_hi), minlength=lo.size)
        fine = np.bincount(owner, _gauss(f, piece_lo, piece_mid) + _gauss(f, piece_mid, piece_hi),
                           minlength=lo.size)
        tol = rel_tol * np.maximum(np.abs(coarse), np.abs(fine)) + 1e-14 * (hi - lo)
        bad = np.abs(fine - coarse) > tol
        np.add.at(out, cell[~bad], fine[~bad])
        if not bad.any():
            break
        if depth == _MAX_BISECTIONS:
            worst = cell[bad][0]
            raise NumericError(
                f"cell quadrature did not converge on [{a[worst]}, {b[worst]}] "
                f"after {_MAX_BISECTIONS} bisections"
            )
        mid = 0.5 * (lo[bad] + hi[bad])
        lo, hi = np.concatenate((lo[bad], mid)), np.concatenate((mid, hi[bad]))
        cell = np.concatenate((cell[bad], cell[bad]))
    return out.reshape(shape) if shape else float(out[0])


# ---------------------------------------------------------------------------
# integrated increments

def lower_toeplitz(diagonals: np.ndarray) -> np.ndarray:
    """(n+1, n+1) strictly lower Toeplitz matrix with diagonals[m] on sub-diagonal m+1."""
    first_col = np.concatenate(([0.0], diagonals))
    return scipy.linalg.toeplitz(first_col, np.zeros(first_col.size))


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


def _cell_values(kernel: PropagatorKernel, dt: float, n: int, method: str) -> np.ndarray:
    """Integrals of the resilience function over [(m-1)dt, m*dt], m = 1..n."""
    if method not in ("auto", "closed", "quadrature"):
        raise InputError(f"unknown increments method {method!r}")
    edges = np.arange(n + 1) * dt
    out = None if method == "quadrature" else kernel.cell_integral(edges[:-1], edges[1:])
    if out is None:
        if method == "closed":
            raise InputError(f"{type(kernel).__name__} has no closed-form cell integrals")
        out = quad_integral(kernel.decay, edges[:-1], edges[1:],
                            knots=kernel.quadrature_knots())
    return np.asarray(out, dtype=float)


def integrated_increments(kernel: PropagatorKernel, params: ScenarioParams,
                          grid: TimeGrid, method: str = "auto") -> IntegratedIncrements:
    """Cell-integral generator of L, U and LG for one kernel on one grid.

    ``method`` selects the cell-integral route: "auto" uses closed forms
    where the kernel provides them, "quadrature" forces the Gauss-Legendre
    fallback (used by the cross-validation tests).
    """
    cell = _cell_values(kernel, grid.dt, grid.n, method)
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
    diag = kernel.gram_diag(dt)
    knots = kernel.quadrature_knots()
    if diag is None:
        diag = quad_integral(lambda x: (dt - x) * kernel.decay(x), 0.0, dt, knots=knots)
    row = np.empty(n)
    row[0] = 2.0 * diag
    for m in range(1, n):
        val = kernel.gram_off(m, dt)
        if val is None:
            # integral of (dt - |w - m*dt|) * H(w) over [(m-1)dt, (m+1)dt]
            center = m * dt
            val = quad_integral(
                lambda x: (dt - np.abs(x - center)) * kernel.decay(x),
                (m - 1) * dt, center, knots=knots,
            ) + quad_integral(
                lambda x: (dt - np.abs(x - center)) * kernel.decay(x),
                center, (m + 1) * dt, knots=knots,
            )
        row[m] = val
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
    gram = scipy.linalg.toeplitz(row)
    eigs = np.linalg.eigvalsh(gram)
    min_eig = float(eigs[0])
    norm = float(np.max(np.abs(eigs)))
    return DefinitenessReport(
        nonnegative=min_eig >= -tol * norm,
        min_eigenvalue=min_eig,
        matrix_norm=norm,
        n=n,
    )
