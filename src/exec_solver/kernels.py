"""Transient-impact propagator kernels and their exact cell integrals.

All shipped kernels are Volterra convolution kernels G(t, s) = 1_{s<t} H(t-s)
with a nonnegative, decaying resilience function H. The solver never samples
G pointwise; it consumes integrals of the penalty-augmented kernel
G~(t, s) = 2*varrho*1_{s<t} + G(t, s) over grid cells:

    L[k, j] = integral of G~(t_k, s) over [t_j, t_{j+1}],   j <= k-1,
    U[k, j] = integral of G~(s, t_k) over [t_j, t_{j+1}],   k <= j <= n-1.

For a convolution kernel both reduce to one family of cell integrals of H,
which is closed-form for the zero, exponential and fractional kernels and is
evaluated by composite Gauss-Legendre quadrature otherwise.
"""

from __future__ import annotations

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

    def cell_integral(self, a: float, b: float) -> float | None:
        """Exact integral of the resilience function over [a, b], if known."""
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
        return 0.0

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
        return self.c * (math.exp(-r * a) - math.exp(-r * b)) / r

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

def _gauss_cell(f, a, b):
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    x = mid + half * _GL_NODES
    return half * float(f(x) @ _GL_WEIGHTS)


def _split_at_knots(a, b, knots):
    if knots is None:
        return [(a, b)]
    inner = knots[(knots > a) & (knots < b)]
    pts = np.concatenate(([a], inner, [b]))
    return list(zip(pts[:-1], pts[1:]))


def quad_integral(f, a, b, knots=None, rel_tol=1e-10):
    """Composite 16-node Gauss-Legendre with one refinement check.

    Raises NumericError when halving the cells still moves the value by more
    than ``rel_tol`` relatively: the integrand is not smooth enough for this
    rule and needs a closed form instead.
    """
    if b <= a:
        return 0.0
    pieces = _split_at_knots(a, b, knots)
    coarse = sum(_gauss_cell(f, lo, hi) for lo, hi in pieces)
    fine = 0.0
    for lo, hi in pieces:
        mid = 0.5 * (lo + hi)
        fine += _gauss_cell(f, lo, mid) + _gauss_cell(f, mid, hi)
    scale = max(abs(coarse), abs(fine))
    if abs(fine - coarse) > rel_tol * scale + 1e-14 * (b - a):
        raise NumericError(
            f"cell quadrature did not converge on [{a}, {b}]: "
            f"{coarse} vs {fine} after refinement"
        )
    return fine


# ---------------------------------------------------------------------------
# integrated increments

@dataclass(frozen=True, eq=False)
class IntegratedIncrements:
    """Cell integrals of the augmented kernel on a uniform grid.

    L   (n+1, n+1), support j <= k-1: cell integrals of G~(t_k, .)
    U   (n+1, n+1), support k <= j <= n-1: cell integrals of G~(., t_k)
    LG  L with the 2*varrho*dt penalty summand removed (pure propagator),
        the weights used to roll the transient distortion forward
    """

    L: np.ndarray
    U: np.ndarray
    LG: np.ndarray
    dt: float
    varrho: float


def _cell_values(kernel: PropagatorKernel, dt: float, n: int, method: str) -> np.ndarray:
    """Integrals of the resilience function over [(m-1)dt, m*dt], m = 1..n."""
    if method not in ("auto", "closed", "quadrature"):
        raise InputError(f"unknown increments method {method!r}")
    use_closed = method != "quadrature" and kernel.cell_integral(0.0, dt) is not None
    if method == "closed" and not use_closed:
        raise InputError(f"{type(kernel).__name__} has no closed-form cell integrals")
    out = np.empty(n)
    if use_closed:
        for m in range(1, n + 1):
            out[m - 1] = kernel.cell_integral((m - 1) * dt, m * dt)
    else:
        knots = kernel.quadrature_knots()
        for m in range(1, n + 1):
            out[m - 1] = quad_integral(kernel.decay, (m - 1) * dt, m * dt, knots=knots)
    return out


def integrated_increments(kernel: PropagatorKernel, params: ScenarioParams,
                          grid: TimeGrid, method: str = "auto") -> IntegratedIncrements:
    """Assemble the L, U and LG matrices for one kernel on one grid.

    ``method`` selects the cell-integral route: "auto" uses closed forms
    where the kernel provides them, "quadrature" forces the Gauss-Legendre
    fallback (used by the cross-validation tests).
    """
    n, dt = grid.n, grid.dt
    cell = _cell_values(kernel, dt, n, method)
    aug = 2.0 * params.varrho * dt

    idx = np.arange(n + 1)
    off = idx[:, None] - idx[None, :]  # off[k, j] = k - j

    lower = off >= 1
    upper = (off <= 0) & (idx[None, :] <= n - 1)

    LG = np.where(lower, cell[np.clip(off, 1, n) - 1], 0.0)
    L = np.where(lower, LG + aug, 0.0)
    U = np.where(upper, cell[np.clip(-off, 0, n - 1)] + aug, 0.0)
    if not (np.all(np.isfinite(L)) and np.all(np.isfinite(U))):
        raise NumericError("non-finite integrated increments")
    return IntegratedIncrements(L=L, U=U, LG=LG, dt=dt, varrho=params.varrho)


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
