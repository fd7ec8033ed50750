import numpy as np
import pytest

from exec_solver import ExponentialKernel, FractionalKernel, ScenarioParams, TimeGrid


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
