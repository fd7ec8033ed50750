import bisect
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate as si
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from exec_solver import (
    BoundedPowerLawKernel,
    ExponentialKernel,
    FractionalKernel,
    InputError,
    IntegratedIncrements,
    OUSignal,
    PropagatorKernel,
    ScenarioParams,
    TabulatedKernel,
    TimeGrid,
    ModelError,
    ZeroKernel,
    assemble_qp,
    integrated_increments,
    solve_scenario,
)
from conftest import gram_definiteness
from exec_solver.kernels import _cell_values, _polya_certified, concavity_failure

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


def quad_increments(kernel, params, grid):
    """Reference increments with every cell from scipy's adaptive quadrature."""
    dt = grid.dt
    cell = [si.quad(kernel.decay, m * dt, (m + 1) * dt)[0] for m in range(grid.n)]
    return IntegratedIncrements(cell=np.array(cell), dt=dt, varrho=params.varrho)


def exact_interpolant_integral(times, values, a, b):
    """Integral of the tabulated interpolant on [a, b].

    Exact rational arithmetic on the float inputs: H is linear between the
    knots and held at the last value beyond them, so each piece integrates
    through its polynomial antiderivative.
    """
    xs, ys = [Fraction(t) for t in times], [Fraction(v) for v in values]
    a, b = Fraction(a), Fraction(b)

    def H(x):
        if x >= xs[-1]:
            return ys[-1]
        i = bisect.bisect_right(xs, x) - 1
        return ys[i] + (ys[i + 1] - ys[i]) * (x - xs[i]) / (xs[i + 1] - xs[i])

    cuts = [a] + [x for x in xs if a < x < b] + [b]
    integral = Fraction(0)
    for lo, hi in zip(cuts, cuts[1:]):
        slope = (H(hi) - H(lo)) / (hi - lo)
        icpt = H(lo) - slope * lo  # H(x) = icpt + slope * x on [lo, hi]
        integral += icpt * (hi - lo) + slope * (hi**2 - lo**2) / 2
    return integral


class TestEval:
    def test_exponential_point_value(self):
        k = ExponentialKernel(c=1.0, rho=0.5)
        assert k.decay(1.0) == pytest.approx(exp_series(-0.5), rel=1e-13)
        assert k.decay(1.0) == pytest.approx(0.6065306597126334, rel=1e-12)

    def test_volterra_property(self):
        # G(t, s) = 0 for s >= t: L holds cells strictly below the diagonal,
        # U on and above it, and U's last column is empty (no cell starts at t_n)
        params = ScenarioParams(q=1, T=5, lam=1, varrho=0)
        grid = TimeGrid.uniform(5.0, 6)
        for k in ALL_DECAYING + [ZeroKernel()]:
            inc = integrated_increments(k, params, grid)
            assert np.all(np.triu(inc.L) == 0.0)
            assert np.all(np.tril(inc.U, k=-1) == 0.0) and np.all(inc.U[:, -1] == 0.0)

    def test_zero_kernel(self):
        k = ZeroKernel()
        assert k.decay(1.0) == 0.0
        assert k.decay(0.2) == 0.0

    def test_tabulated_interpolates(self):
        grid = TimeGrid.uniform(2.0, 4)
        k = TabulatedKernel.from_grid_values(grid, [4.0, 3.0, 2.0, 1.0, 0.5])
        assert k.decay(0.25) == pytest.approx(3.5, rel=1e-14)


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

    @pytest.mark.parametrize("m", [1, 100, 1000, 4095])
    def test_fractional_cells_far_from_origin(self, m):
        # b^alpha - a^alpha cancels more digits the farther the cell lies
        # from the origin; the log1p/expm1 form keeps cells to a few ulps
        kernel = FractionalKernel(c=1.2, alpha=0.55)
        dt = 10.0 / 4096
        a, b = m * dt, (m + 1) * dt
        cell = si.quad(kernel.decay, a, b, epsabs=0.0, epsrel=2e-14, limit=200)[0]
        got = kernel.cell_integral(np.array([a]), np.array([b]))[0]
        assert got == pytest.approx(cell, rel=1e-14, abs=0)

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
            quad = quad_increments(kernel, params, grid)
            scale = np.max(np.abs(closed.L))
            assert np.max(np.abs(closed.L - quad.L)) <= 1e-9 * scale
            assert np.max(np.abs(closed.U - quad.U)) <= 1e-9 * scale

    def test_closed_form_vs_quadrature_bounded_power_law(self):
        params = ScenarioParams(q=10, T=10, lam=0.5, varrho=4)
        kernels = [BoundedPowerLawKernel(ell0, beta) for ell0, beta in
                   [(0.5, 2.0), (2.0, 0.3), (1.0, 1.0), (1.0, 1.0 + 1e-9), (1.0, 1.0 - 1e-9)]]
        for kernel in kernels:
            for n in (16, 128, 512):
                grid = TimeGrid.uniform(10.0, n)
                closed = integrated_increments(kernel, params, grid)
                quad = quad_increments(kernel, params, grid)
                scale = np.max(np.abs(closed.L))
                assert np.max(np.abs(closed.L - quad.L)) <= 1e-9 * scale
                assert np.max(np.abs(closed.U - quad.U)) <= 1e-9 * scale

    def test_bounded_power_law_cells_far_wider_than_ell0(self):
        # dt / ell0 = 1e5 with beta = 5: the kernel's mass sits in a sliver of
        # the first cell, which Gauss-Legendre nodes spread over the cell miss
        params = ScenarioParams(q=1, T=2e5, lam=1)
        grid = TimeGrid.uniform(2e5, 2)
        cell = integrated_increments(BoundedPowerLawKernel(ell0=1.0, beta=5.0), params, grid).cell
        want = [(1.0 - (1.0 + 1e5) ** -4) / 4.0, ((1.0 + 1e5) ** -4 - (1.0 + 2e5) ** -4) / 4.0]
        np.testing.assert_allclose(cell, want, rtol=1e-12, atol=0)

    def test_bounded_power_law_vs_antiderivative_oracle(self):
        # the closed form checked against the elementary antiderivative
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
        closed = [ZeroKernel(), ExponentialKernel(1.3, 0.5), FractionalKernel(0.8, 0.6),
                  BoundedPowerLawKernel(0.5, 2.0), BoundedPowerLawKernel(2.0, 0.3)]
        tabulated = [TabulatedKernel.from_grid_values(grid, np.exp(-0.4 * grid.t)),
                     TabulatedKernel(times=times, values=np.exp(-times) + 0.1 * np.sin(times))]
        for kernel in closed + tabulated:
            got = _cell_values(kernel, dt, n)
            loop = np.empty(n)
            for m in range(n):
                loop[m] = kernel.cell_integral(m * dt, (m + 1) * dt)
            np.testing.assert_allclose(got, loop, rtol=1e-13, atol=0, err_msg=repr(kernel))

    @pytest.mark.parametrize("T, n, times, values", [
        # aligned with the grid; cells far out are ~1e-13 and must keep their digits
        (10.0, 64, np.linspace(0.0, 10.0, 65), np.exp(-3.0 * np.linspace(0.0, 10.0, 65))),
        # off-grid knots, several per cell, on a table that ends inside the horizon
        (6.0, 16, np.concatenate(([0.0], np.sort(np.random.default_rng(5).uniform(0.0, 4.0, 40)))),
         None),
        # a short table held constant past its end
        (6.0, 8, np.array([0.0, 0.3, 0.5]), np.array([2.0, 1.25, 1.0])),
    ])
    def test_tabulated_cells_exact(self, T, n, times, values):
        if values is None:
            values = 1.0 / (1.0 + times) + 0.2 * np.cos(3.0 * times) ** 2
        kernel = TabulatedKernel(times=times, values=values)
        grid = TimeGrid.uniform(T, n)
        cell = integrated_increments(kernel, ScenarioParams(q=1, T=T, lam=1), grid).cell
        edges = np.arange(n + 1) * grid.dt
        for m in range(n):
            want = exact_interpolant_integral(times, values, edges[m], edges[m + 1])
            assert abs(float((Fraction(cell[m]) - want) / want)) <= 1e-13, m


class TwoHookKernel(PropagatorKernel):
    """A user-defined kernel with only the two hooks, each delegating to ``inner``."""

    def __init__(self, inner):
        self.inner = inner

    def decay(self, tau):
        return self.inner.decay(tau)

    def cell_integral(self, a, b):
        return self.inner.cell_integral(a, b)


def test_two_hook_kernel_matches_the_shipped_kernel(fig1_params):
    # decay and cell_integral are all that a kernel must define: cells,
    # admissibility verdict and optimal speeds equal the shipped kernel's bit for bit
    shipped = ExponentialKernel(1.0, 0.5)
    user = TwoHookKernel(shipped)
    grid = TimeGrid.uniform(10.0, 64)
    want, got = (integrated_increments(k, fig1_params, grid).cell for k in (shipped, user))
    assert np.array_equal(got, want)
    assert concavity_failure(user, fig1_params, grid) == concavity_failure(shipped, fig1_params, grid)
    signal = OUSignal(I0=2.0, gamma=0.3, sigma=0.5)
    want, got = (solve_scenario(fig1_params, k, signal, grid, seed=7).u for k in (shipped, user))
    assert np.array_equal(got, want)


class TestDefiniteness:
    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_decaying_kernels_nonnegative(self, n):
        # a positive, decreasing, convex table: its interpolant is too
        times = np.linspace(0.0, 12.0, 37)
        table = TabulatedKernel(times=times, values=np.exp(-0.3 * times))
        for kernel in ALL_DECAYING + [ZeroKernel(), table]:
            nonnegative, min_eig = gram_definiteness(kernel, TimeGrid.uniform(10.0, n))
            assert nonnegative, (type(kernel).__name__, n, min_eig)

    def test_constant_negative_counterexample(self):
        grid = TimeGrid.uniform(10.0, 16)
        kernel = TabulatedKernel.from_grid_values(grid, -np.ones(17))
        nonnegative, min_eig = gram_definiteness(kernel, grid)
        assert not nonnegative
        assert min_eig < 0
        # the Gram matrix is -dt^2 times the all-ones matrix
        assert min_eig == pytest.approx(-16 * grid.dt**2, rel=1e-12)


def concavity_counterexample(lam):
    """Grid values 1 on [0, 0.5) and -0.6 after, T = 10, n = 50."""
    grid = TimeGrid.uniform(10.0, 50)
    kernel = TabulatedKernel.from_grid_values(grid, np.where(grid.t < 0.5, 1.0, -0.6))
    return kernel, ScenarioParams(q=10.0, T=10.0, lam=lam, varrho=4.0), grid


def dense_concave(kernel, params, grid):
    """The oracle's verdict (a dense Cholesky of -H_a) and -H_a's smallest eigenvalue
    over its largest."""
    inc = integrated_increments(kernel, params, grid)
    n, dt = grid.n, grid.dt
    lg = inc.LG[:n, :n]
    neg_h = 2.0 * params.lam * dt * np.eye(n) + dt * (lg + lg.T) + 2.0 * params.varrho * dt**2
    eigs = np.linalg.eigvalsh(neg_h)
    try:
        assemble_qp(params, inc, grid, np.zeros(n + 1))
    except ModelError:
        return False, eigs[0] / np.max(np.abs(eigs)), neg_h
    return True, eigs[0] / np.max(np.abs(eigs)), neg_h


class TestConcavity:
    def test_counterexample_fails_at_small_lambda_only(self):
        assert concavity_failure(*concavity_counterexample(0.5)) is None
        assert dense_concave(*concavity_counterexample(0.5))[0]
        failure = concavity_failure(*concavity_counterexample(0.05))
        assert failure is not None and not dense_concave(*concavity_counterexample(0.05))[0]

    @pytest.mark.parametrize("lam", [0.05, 0.005])
    def test_failing_step_and_pivot_match_the_dense_matrix(self, lam):
        # the section before the failing step is positive definite, and the
        # pivot is the ratio of the leading minors on either side of it
        _, _, neg_h = dense_concave(*concavity_counterexample(lam))
        step, pivot = concavity_failure(*concavity_counterexample(lam))
        if step:
            np.linalg.cholesky(neg_h[:step, :step])
        minor = np.linalg.det(neg_h[:step, :step]) if step else 1.0
        assert pivot < 0.0
        assert pivot == pytest.approx(np.linalg.det(neg_h[:step + 1, :step + 1]) / minor, rel=1e-10)

    def test_closed_form_kernels_at_a_fine_grid_pass(self):
        grid = TimeGrid.uniform(10.0, 400)
        params = ScenarioParams(q=10.0, T=10.0, lam=0.5, varrho=4.0)
        for kernel in ALL_DECAYING + [ZeroKernel()]:
            assert concavity_failure(kernel, params, grid) is None, kernel

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(2, 64), lam=st.sampled_from([0.5, 0.05, 0.005]),
           varrho=st.sampled_from([0.0, 4.0]))
    def test_verdict_matches_dense_cholesky(self, data, n, lam, varrho):
        values = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=n + 1, max_size=n + 1))
        grid = TimeGrid.uniform(10.0, n)
        kernel = TabulatedKernel.from_grid_values(grid, values)
        params = ScenarioParams(q=10.0, T=10.0, lam=lam, varrho=varrho)
        concave, min_eig, _ = dense_concave(kernel, params, grid)
        # a matrix singular to working precision has no reliable verdict:
        # simple tables hit exact singularity, e.g. constant values c with
        # c dt = 2 lam
        assume(abs(min_eig) > 1e-10)
        assert (concavity_failure(kernel, params, grid) is None) == concave

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(2, 80), log_lam=st.floats(-3.0, math.log10(3.0)),
           varrho=st.sampled_from([0.0, 4.0]),
           kind=st.sampled_from(["zero", "exponential", "fractional", "bounded_power_law",
                                 "tabulated", "convex_table"]))
    def test_certified_kernels_are_concave(self, data, n, log_lam, varrho, kind):
        # Polya's certificate may only pass a negative-definite Hessian
        # block; where it passes, the Schur pass is skipped
        grid = TimeGrid.uniform(10.0, n)
        size = st.floats(0.05, 3.0)
        if kind == "zero":
            kernel = ZeroKernel()
        elif kind == "exponential":
            kernel = ExponentialKernel(data.draw(size), data.draw(st.floats(0.01, 5.0)))
        elif kind == "fractional":
            kernel = FractionalKernel(data.draw(size), data.draw(st.floats(0.51, 0.99)))
        elif kind == "bounded_power_law":
            kernel = BoundedPowerLawKernel(data.draw(size), data.draw(st.floats(0.1, 3.0)))
        else:
            values = np.array(data.draw(st.lists(st.floats(-0.5, 2.0), min_size=n + 1,
                                                 max_size=n + 1)))
            if kind == "convex_table":
                # nonincreasing with shrinking drops: a convex, decaying table
                drops = np.sort(np.abs(values[1:]))[::-1]
                values = abs(values[0]) + np.sum(drops) - np.concatenate(([0.0], np.cumsum(drops)))
            kernel = TabulatedKernel.from_grid_values(grid, values)
        params = ScenarioParams(q=10.0, T=10.0, lam=10.0**log_lam, varrho=varrho)
        x = np.concatenate(([2.0 * params.lam], _cell_values(kernel, grid.dt, n - 1)))
        concave, min_eig, neg_h = dense_concave(kernel, params, grid)
        if _polya_certified(x):
            assert concavity_failure(kernel, params, grid) is None
            # singular to working precision: no Cholesky verdict is reliable
            assume(abs(min_eig) > 1e-10)
            np.linalg.cholesky(neg_h)
            assert concave
        else:
            assume(abs(min_eig) > 1e-10)
            assert (concavity_failure(kernel, params, grid) is None) == concave


    def test_constant_cells_at_2_lambda_are_not_certified(self):
        # x = [1, 1, ..., 1]: nonincreasing and convex, but -H_a = dt * J is
        # singular, so the certificate must leave it to the Schur pass
        grid = TimeGrid.uniform(10.0, 10)  # dt = 1
        kernel = TabulatedKernel.from_grid_values(grid, np.ones(11))
        params = ScenarioParams(q=10.0, T=10.0, lam=0.5)
        x = np.concatenate(([2.0 * params.lam], _cell_values(kernel, grid.dt, 9)))
        assert np.all(x == 1.0) and not _polya_certified(x)
        assert concavity_failure(kernel, params, grid) == (1, 0.0)
        assert not dense_concave(kernel, params, grid)[0]
