import math

import numpy as np
import pytest
import scipy.integrate as si
import scipy.linalg as sl

from exec_solver import (ExponentialKernel, FractionalKernel, ScenarioParams, TimeGrid,
                         assemble_qp, integrated_increments)


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


def expected_ou_objective(params, kernel, grid, signal, rule):
    """E[J] of a strategy rule under an OU signal with gamma > 0, exact to
    rounding when J is quadratic in the signal's normals, as it is for a
    rule affine in the path.

    The grid path is I = m + xi K, xi standard normal, by the exact
    one-step transition written out here: m_k = I0 * phi^k and
    K[r, k] = sigma_dt * phi^(k-1-r) for k > r, with phi = exp(-gamma dt)
    and sigma_dt^2 = sigma^2 (1 - exp(-2 gamma dt)) / (2 gamma). For a
    quadratic J, E[J] = J(m) + 1/2 sum_r [J(m + K_r) + J(m - K_r) - 2 J(m)],
    over 2n+1 deterministic paths. Each J is the QP oracle's value of the
    rule's speeds at the prices P_k = dt * sum_{j<k} I_j.
    """
    n, dt, gamma = grid.n, grid.dt, signal.gamma
    phi = math.exp(-gamma * dt)
    sigma_dt = signal.sigma * math.sqrt(-math.expm1(-2.0 * gamma * dt) / (2.0 * gamma))
    k = np.arange(n + 1)
    mean = signal.I0 * phi ** k
    K = np.zeros((n, n + 1))
    for r in range(n):
        K[r, r + 1:] = sigma_dt * phi ** (k[r + 1:] - 1 - r)
    inc = integrated_increments(kernel, params, grid)

    def objective(path):
        price = np.array([dt * path[:j].sum() for j in range(n + 1)])
        return assemble_qp(params, inc, grid, price).value(rule(path))

    center = objective(mean)
    return center + 0.5 * sum(objective(mean + K[r]) + objective(mean - K[r]) - 2.0 * center
                              for r in range(n))


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
