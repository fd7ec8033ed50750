import numpy as np
import pytest
import scipy.integrate as si
import scipy.linalg as sl

from exec_solver import ExponentialKernel, FractionalKernel, ScenarioParams, TimeGrid


def gram_definiteness(kernel, grid):
    """Whether the kernel's symmetrized quadratic form is nonnegative on
    piecewise-constant functions over the grid cells, and the smallest
    eigenvalue of its Gram matrix.

    The Gram matrix of G(t, s) + G(s, t) is Toeplitz. Entry m of its first
    row is the integral of (dt - |x - m*dt|) * H(x) over the two cells beside
    m*dt, doubled at m = 0, here by adaptive quadrature of ``decay`` split at
    m*dt and at any table knots inside. The form counts as nonnegative when
    the smallest eigenvalue is at least -1e-8 times the matrix's norm: a
    diagnostic at this resolution, not a proof for the continuum kernel.
    """
    n, dt = grid.n, grid.dt
    knots = getattr(kernel, "times", np.array([]))
    row = np.empty(n)
    for m in range(n):
        lo, hi = max(m - 1, 0) * dt, (m + 1) * dt
        points = np.concatenate(([m * dt], knots[(knots > lo) & (knots < hi)]))
        row[m] = si.quad(lambda x: (dt - abs(x - m * dt)) * float(kernel.decay(x)),
                         lo, hi, points=points, limit=200)[0]
    row[0] *= 2.0
    eigs = np.linalg.eigvalsh(sl.toeplitz(row))
    return bool(eigs[0] >= -1e-8 * np.max(np.abs(eigs))), float(eigs[0])


def dense_curvature(inc, params, grid, i):
    """D_i as an explicit n x n matrix: 2*lam*I plus L + U on indices >= i."""
    n = grid.n
    D = 2.0 * params.lam * np.eye(n)
    D[i:, i:] += inc.L[i:n, i:n] + inc.U[i:n, i:n]
    return D


def direct_loop_curvature(inc, lam, n, i):
    """Brute-force assembly straight from the indicator pattern."""
    d = np.zeros((n, n))
    for k in range(n):
        for j in range(n):
            if i <= j <= n - 1:
                d[k, j] += inc.L[k, j]
            if i <= k <= n - 1:
                d[k, j] += inc.U[k, j]
    return 2.0 * lam * np.eye(n) + d


@pytest.fixture
def fig1_params():
    # the benchmark scenario used throughout: no running penalty
    return ScenarioParams(q=10.0, T=10.0, lam=0.5, varrho=4.0, phi=0.0)


@pytest.fixture
def exp_kernel():
    return ExponentialKernel(c=1.0, rho=0.5)


@pytest.fixture
def frac_kernel():
    return FractionalKernel(c=1.0, alpha=0.55)


@pytest.fixture
def grid16():
    return TimeGrid.uniform(10.0, 16)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
