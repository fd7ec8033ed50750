import math

import numpy as np
import pytest
import scipy.integrate as si

from exec_solver import (
    BoundedPowerLawKernel,
    ExponentialKernel,
    FractionalKernel,
    InputError,
    NumericError,
    ScenarioParams,
    SingularKernelError,
    TabulatedKernel,
    TimeGrid,
    ZeroKernel,
    check_nonnegative_definite,
    integrated_increments,
)
from exec_solver.kernels import _cell_values, quad_integral

ALL_DECAYING = [
    ExponentialKernel(1.0, 0.5),
    FractionalKernel(1.0, 0.55),
    BoundedPowerLawKernel(1.0, 1.0),
]


def exp_series(x, terms=40):
    # independent oracle for e^x
    total, term = 0.0, 1.0
    for k in range(1, terms + 1):
        total += term
        term *= x / k
    return total


class TestEval:
    def test_exponential_point_value(self):
        k = ExponentialKernel(c=1.0, rho=0.5)
        assert k.evaluate(2.0, 1.0) == pytest.approx(exp_series(-0.5), rel=1e-13)
        assert k.evaluate(2.0, 1.0) == pytest.approx(0.6065306597126334, rel=1e-12)

    def test_volterra_property(self):
        for k in ALL_DECAYING + [ZeroKernel()]:
            assert k.evaluate(1.0, 2.0) == 0.0
            assert k.evaluate(1.0, 1.5) == 0.0

    def test_zero_kernel(self):
        k = ZeroKernel()
        assert k.evaluate(2.0, 1.0) == 0.0
        assert k.evaluate(0.3, 0.1) == 0.0

    def test_fractional_diagonal_raises(self):
        k = FractionalKernel(1.0, 0.55)
        with pytest.raises(SingularKernelError):
            k.evaluate(1.0, 1.0)
        assert k.evaluate(1.0, 1.0001) == 0.0

    def test_tabulated_interpolates(self):
        grid = TimeGrid.uniform(2.0, 4)
        k = TabulatedKernel.from_grid_values(grid, [4.0, 3.0, 2.0, 1.0, 0.5])
        assert k.evaluate(1.25, 1.0) == pytest.approx(3.5, rel=1e-14)


class TestValidation:
    def test_parameter_ranges(self):
        with pytest.raises(InputError):
            ExponentialKernel(c=0.0, rho=1.0)
        with pytest.raises(InputError):
            ExponentialKernel(c=1.0, rho=0.0)
        with pytest.raises(InputError):
            FractionalKernel(c=1.0, alpha=0.5)
        with pytest.raises(InputError):
            FractionalKernel(c=1.0, alpha=1.0)
        with pytest.raises(InputError):
            BoundedPowerLawKernel(ell0=-1.0, beta=1.0)
        with pytest.raises(InputError):
            TabulatedKernel(times=np.array([0.0, 1.0]), values=np.array([1.0]))

    @pytest.mark.parametrize("build", [
        lambda: ExponentialKernel(c=np.inf, rho=1.0),
        lambda: ExponentialKernel(c=1.0, rho=np.inf),
        lambda: FractionalKernel(c=np.nan, alpha=0.75),
        lambda: BoundedPowerLawKernel(ell0=np.inf, beta=1.0),
        lambda: BoundedPowerLawKernel(ell0=1.0, beta=np.nan),
        lambda: TabulatedKernel(times=np.array([0.0, 1.0]), values=np.array([1.0, np.nan])),
        lambda: TabulatedKernel(times=np.array([0.0, np.inf]), values=np.array([1.0, 0.5])),
    ])
    def test_non_finite_parameters_rejected(self, build):
        with pytest.raises(InputError, match="finite"):
            build()

    def test_from_beta_convention(self):
        k = FractionalKernel.from_beta(c=2.0, beta=0.45)
        assert k.alpha == pytest.approx(0.55)


class TestIntegratedIncrements:
    def test_zero_kernel_penalty_entries(self):
        # varrho = 4, dt = 1: every supported entry is 2 * varrho * dt = 8
        params = ScenarioParams(q=10, T=4, lam=0.5, varrho=4)
        grid = TimeGrid.uniform(4.0, 4)
        inc = integrated_increments(ZeroKernel(), params, grid)
        for k in range(5):
            for j in range(5):
                if j <= k - 1:
                    assert inc.L[k, j] == 8.0
                else:
                    assert inc.L[k, j] == 0.0
                if k <= j <= 3:
                    assert inc.U[k, j] == 8.0
                else:
                    assert inc.U[k, j] == 0.0
        assert np.all(inc.LG == 0.0)

    def test_exponential_first_offdiagonal(self):
        # varrho = 0, dt = 1, k - j = 1, checked against adaptive quadrature
        params = ScenarioParams(q=10, T=4, lam=0.5, varrho=0)
        grid = TimeGrid.uniform(4.0, 4)
        inc = integrated_increments(ExponentialKernel(1.0, 0.5), params, grid)
        t_k, t_j = grid.t[2], grid.t[1]
        oracle, err = si.quad(lambda s: np.exp(-0.5 * (t_k - s)), t_j, t_j + 1.0)
        assert err < 1e-12
        assert inc.L[2, 1] == pytest.approx(oracle, abs=1e-10)
        assert inc.L[2, 1] == pytest.approx((math.e**0.5 - 1) / 0.5 * math.e**-0.5, rel=1e-12)

    def test_exponential_random_entries_vs_quadrature_oracle(self, rng):
        params = ScenarioParams(q=1, T=3, lam=1, varrho=1.3)
        grid = TimeGrid.uniform(3.0, 12)
        kernel = ExponentialKernel(c=0.8, rho=1.7)
        inc = integrated_increments(kernel, params, grid)
        aug = 2 * 1.3 * grid.dt
        for _ in range(20):
            k = rng.integers(0, 13)
            j = rng.integers(0, 13)
            a, b = grid.t[j], grid.t[j] + grid.dt
            if j <= k - 1:
                oracle = si.quad(lambda s: 0.8 * np.exp(-1.7 * (grid.t[k] - s)), a, b)[0]
                assert inc.L[k, j] == pytest.approx(aug + oracle, abs=1e-11)
            if k <= j <= 11:
                oracle = si.quad(lambda s: 0.8 * np.exp(-1.7 * (s - grid.t[k])), a, b)[0]
                assert inc.U[k, j] == pytest.approx(aug + oracle, abs=1e-11)

    def test_fractional_diagonal_cell(self):
        # U[k, k] integrates straight off the singularity; dt = 1, alpha = 0.55
        params = ScenarioParams(q=10, T=4, lam=0.5, varrho=0)
        grid = TimeGrid.uniform(4.0, 4)
        inc = integrated_increments(FractionalKernel(1.0, 0.55), params, grid)
        oracle, err = si.quad(lambda x: x ** (0.55 - 1.0), 0.0, 1.0, points=[0.0])
        assert err < 1e-10
        assert inc.U[1, 1] == pytest.approx(oracle, abs=1e-9)
        assert inc.U[1, 1] == pytest.approx(1.0 / 0.55, rel=1e-12)

    def test_fractional_off_diagonal_vs_quadrature_oracle(self):
        params = ScenarioParams(q=1, T=2, lam=1, varrho=0)
        grid = TimeGrid.uniform(2.0, 8)
        kernel = FractionalKernel(c=1.4, alpha=0.62)
        inc = integrated_increments(kernel, params, grid)
        for (k, j) in [(3, 0), (5, 2), (7, 3)]:
            a, b = grid.t[j], grid.t[j] + grid.dt
            oracle = si.quad(lambda s: 1.4 * (grid.t[k] - s) ** (0.62 - 1), a, b)[0]
            assert inc.L[k, j] == pytest.approx(oracle, rel=1e-10)

    def test_shift_invariance_convolution(self):
        params = ScenarioParams(q=1, T=5, lam=1, varrho=0.7)
        grid = TimeGrid.uniform(5.0, 10)
        for kernel in ALL_DECAYING:
            inc = integrated_increments(kernel, params, grid)
            for m in range(1, 10):
                vals = [inc.L[k, k - m] for k in range(m, 11)]
                assert np.ptp(vals) == 0.0  # depends on k - j only, exactly
                uvals = [inc.U[k, k + m] for k in range(0, 10 - m)]
                if uvals:
                    assert np.ptp(uvals) == 0.0

    def test_exponential_row_column_identity(self):
        # pure-kernel entries satisfy L[k, j] = exp(rho dt) * U[j, k] for j < k
        params = ScenarioParams(q=1, T=5, lam=1, varrho=0)
        grid = TimeGrid.uniform(5.0, 10)
        rho = 0.9
        inc = integrated_increments(ExponentialKernel(2.0, rho), params, grid)
        factor = math.exp(rho * grid.dt)
        for k in range(1, 10):  # U[j, k] is supported for j <= k <= n-1
            for j in range(k):
                assert inc.L[k, j] == pytest.approx(factor * inc.U[j, k], rel=1e-13)

    def test_lg_strips_penalty(self):
        params = ScenarioParams(q=2, T=5, lam=1, varrho=1.1)
        grid = TimeGrid.uniform(5.0, 8)
        inc = integrated_increments(ExponentialKernel(1.0, 0.5), params, grid)
        aug = 2 * 1.1 * grid.dt
        on = np.tril(np.ones((9, 9)), k=-1).astype(bool)
        assert np.allclose(inc.LG[on], inc.L[on] - aug, rtol=0, atol=1e-14)
        assert np.all(inc.LG[~on] == 0.0)

    def test_lg_nonnegative_for_decaying_kernels(self):
        params = ScenarioParams(q=1, T=5, lam=1, varrho=0)
        grid = TimeGrid.uniform(5.0, 12)
        for kernel in ALL_DECAYING + [ZeroKernel()]:
            inc = integrated_increments(kernel, params, grid)
            assert np.all(inc.LG >= 0.0)

    def test_closed_form_vs_quadrature_exponential(self):
        params = ScenarioParams(q=10, T=10, lam=0.5, varrho=4)
        kernel = ExponentialKernel(1.0, 0.5)
        for n in (16, 128, 512):
            grid = TimeGrid.uniform(10.0, n)
            closed = integrated_increments(kernel, params, grid)
            quad = integrated_increments(kernel, params, grid, method="quadrature")
            scale = np.max(np.abs(closed.L))
            assert np.max(np.abs(closed.L - quad.L)) <= 1e-9 * scale
            assert np.max(np.abs(closed.U - quad.U)) <= 1e-9 * scale

    def test_bounded_power_law_vs_antiderivative_oracle(self):
        # the quadrature path checked against the elementary antiderivative
        params = ScenarioParams(q=1, T=4, lam=1, varrho=0)
        grid = TimeGrid.uniform(4.0, 8)

        def primitive(ell0, beta, x):
            if beta == 1.0:
                return ell0 * math.log(ell0 + x)
            return ell0 * (ell0 + x) ** (1 - beta) / (1 - beta)

        for ell0, beta in [(1.0, 1.0), (0.5, 0.4), (2.0, 2.3)]:
            kernel = BoundedPowerLawKernel(ell0=ell0, beta=beta)
            inc = integrated_increments(kernel, params, grid)
            for k in range(1, 9):
                for j in range(k):
                    a, b = grid.t[k] - grid.t[j + 1], grid.t[k] - grid.t[j]
                    oracle = primitive(ell0, beta, b) - primitive(ell0, beta, a)
                    assert inc.L[k, j] == pytest.approx(oracle, rel=1e-10)

    def test_tabulated_aligned_grid_is_trapezoid(self):
        grid = TimeGrid.uniform(2.0, 8)
        values = np.exp(-0.7 * grid.t)  # samples of a smooth decay
        kernel = TabulatedKernel.from_grid_values(grid, values)
        params = ScenarioParams(q=1, T=2, lam=1, varrho=0)
        inc = integrated_increments(kernel, params, grid)
        # piecewise-linear resilience integrates to the trapezoid rule, exactly
        for k in range(1, 9):
            for j in range(k):
                m = k - j
                trap = 0.5 * grid.dt * (values[m - 1] + values[m])
                assert inc.L[k, j] == pytest.approx(trap, rel=1e-13)

    @pytest.mark.parametrize("n", [2, 3, 16, 64])
    def test_vectorised_cells_match_per_cell_loop(self, n):
        grid = TimeGrid.uniform(6.0, n)
        dt = grid.dt
        # table knots off the grid, several inside each cell at small n
        times = np.concatenate(([0.0], np.sort(np.random.default_rng(n).uniform(0.0, 7.0, 40))))
        closed = [ZeroKernel(), ExponentialKernel(1.3, 0.5), FractionalKernel(0.8, 0.6)]
        quadrature = [BoundedPowerLawKernel(0.5, 2.0), BoundedPowerLawKernel(2.0, 0.3),
                      TabulatedKernel.from_grid_values(grid, np.exp(-0.4 * grid.t)),
                      TabulatedKernel(times=times, values=np.exp(-times) + 0.1 * np.sin(times))]
        for kernel, rtol in [(k, 1e-13) for k in closed] + [(k, 1e-12) for k in quadrature]:
            got = _cell_values(kernel, dt, n, "auto")
            loop = np.empty(n)
            for m in range(n):
                a, b = m * dt, (m + 1) * dt
                value = kernel.cell_integral(a, b)
                if value is None:
                    value = quad_integral(kernel.decay, a, b, knots=kernel.quadrature_knots())
                loop[m] = value
            np.testing.assert_allclose(got, loop, rtol=rtol, atol=0, err_msg=repr(kernel))

    def test_coarse_bounded_power_law_cell_bisected(self):
        # dt / ell0 = 6 fails the single halving check; bisection recovers the value
        ell0, beta = 0.5, 2.0
        want = ell0 * (ell0 ** (1 - beta) - (ell0 + 3.0) ** (1 - beta)) / (beta - 1)
        got = quad_integral(BoundedPowerLawKernel(ell0, beta).decay, 0.0, 3.0)
        assert got == pytest.approx(want, rel=1e-12)

    def test_fractional_quadrature_refuses_singular_cell(self):
        params = ScenarioParams(q=1, T=2, lam=1, varrho=0)
        grid = TimeGrid.uniform(2.0, 4)
        with pytest.raises(NumericError):
            integrated_increments(FractionalKernel(1.0, 0.55), params, grid,
                                  method="quadrature")

    def test_closed_method_refuses_tabulated(self):
        grid = TimeGrid.uniform(2.0, 4)
        kernel = TabulatedKernel.from_grid_values(grid, np.ones(5))
        params = ScenarioParams(q=1, T=2, lam=1)
        with pytest.raises(InputError):
            integrated_increments(kernel, params, grid, method="closed")


class TestGramClosedForms:
    def test_against_adaptive_quadrature(self):
        dt = 0.37
        for kernel in [ExponentialKernel(1.3, 0.5), FractionalKernel(0.9, 0.55)]:
            H = lambda x: float(kernel.decay(x))
            diag_oracle = si.quad(lambda x: (dt - x) * H(x), 0, dt, points=[0.0])[0]
            assert kernel.gram_diag(dt) == pytest.approx(diag_oracle, rel=1e-11)
            for m in (1, 2, 7):
                oracle = si.quad(lambda x: (dt - abs(x - m * dt)) * H(x),
                                 (m - 1) * dt, (m + 1) * dt,
                                 points=[(m - 1) * dt, m * dt], limit=200)[0]
                assert kernel.gram_off(m, dt) == pytest.approx(oracle, rel=1e-10)


class TestDefiniteness:
    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_decaying_kernels_nonnegative(self, n):
        for kernel in ALL_DECAYING + [ZeroKernel()]:
            report = check_nonnegative_definite(kernel, TimeGrid.uniform(10.0, n))
            assert report.nonnegative, (type(kernel).__name__, n, report)

    def test_constant_negative_counterexample(self):
        grid = TimeGrid.uniform(10.0, 16)
        kernel = TabulatedKernel.from_grid_values(grid, -np.ones(17))
        report = check_nonnegative_definite(kernel, grid)
        assert not report.nonnegative
        assert report.min_eigenvalue < 0
        # the Gram matrix is -dt^2 times the all-ones matrix
        assert report.min_eigenvalue == pytest.approx(-16 * grid.dt**2, rel=1e-12)

    def test_report_is_truthy_interface(self, exp_kernel):
        report = check_nonnegative_definite(exp_kernel, TimeGrid.uniform(10.0, 16))
        assert bool(report) is True
        assert report.matrix_norm > 0
