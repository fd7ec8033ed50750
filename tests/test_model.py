import numpy as np
import pytest
import scipy.integrate as si
from hypothesis import given, settings
from hypothesis import strategies as st

from exec_solver import (
    BoundedPowerLawKernel,
    ExponentialKernel,
    FractionalKernel,
    InputError,
    ScenarioParams,
    TabulatedKernel,
    TimeGrid,
    ZeroKernel,
    evaluate_objective,
    integrated_increments,
    rollout,
)


class TestScenarioParams:
    def test_rejects_nonpositive_lam(self):
        with pytest.raises(InputError):
            ScenarioParams(q=1, T=1, lam=0.0)
        with pytest.raises(InputError):
            ScenarioParams(q=1, T=1, lam=-0.5)

    def test_rejects_bad_horizon_and_penalties(self):
        with pytest.raises(InputError):
            ScenarioParams(q=1, T=0, lam=1)
        with pytest.raises(InputError):
            ScenarioParams(q=1, T=1, lam=1, varrho=-1)
        with pytest.raises(InputError):
            ScenarioParams(q=1, T=1, lam=1, phi=-1e-9)

    def test_negative_inventory_accepted(self):
        # buy programs are allowed
        ScenarioParams(q=-5, T=1, lam=1)

    def test_h0_constant_and_tabulated(self):
        grid = TimeGrid.uniform(2.0, 4)
        p = ScenarioParams(q=1, T=2, lam=1, h0=3.5)
        assert np.all(p.h0_values(grid) == 3.5)
        vec = np.arange(5.0)
        p = ScenarioParams(q=1, T=2, lam=1, h0=vec)
        assert np.array_equal(p.h0_values(grid), vec)
        with pytest.raises(InputError):
            ScenarioParams(q=1, T=2, lam=1, h0=np.arange(4.0)).h0_values(grid)

    @pytest.mark.parametrize("field", ["q", "T", "lam", "varrho", "phi", "h0"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, field, bad):
        kwargs = dict(q=1.0, T=1.0, lam=1.0, varrho=0.0, phi=0.0, h0=0.0)
        kwargs[field] = bad
        with pytest.raises(InputError, match="finite"):
            ScenarioParams(**kwargs)

    def test_rejects_non_finite_tabulated_h0(self):
        with pytest.raises(InputError, match="finite"):
            ScenarioParams(q=1.0, T=2.0, lam=1.0, h0=np.array([0.0, np.nan, 0.0]))


class TestTimeGrid:
    def test_endpoints_and_uniformity(self):
        grid = TimeGrid.uniform(7.3, 11)
        assert grid.t[0] == 0.0
        assert grid.t[-1] == 7.3
        spacings = np.diff(grid.t)
        assert np.all(np.abs(spacings - grid.dt) <= 4 * np.finfo(float).eps * grid.dt)
        assert np.all(spacings > 0)

    def test_too_few_steps(self):
        with pytest.raises(InputError):
            TimeGrid.uniform(1.0, 1)

    @pytest.mark.parametrize("n", [5.0, "5", True, np.float64(5.0)],
                             ids=["float", "str", "bool", "numpy-float"])
    def test_non_integer_steps(self, n):
        with pytest.raises(InputError, match="integer"):
            TimeGrid(n=n, T=1.0)

    def test_numpy_integer_steps(self):
        assert TimeGrid(n=np.int64(5), T=1.0).n == 5

    def test_non_finite_horizon(self):
        for T in (np.inf, np.nan):
            with pytest.raises(InputError, match="finite"):
                TimeGrid.uniform(T, 4)


class TestRollout:
    def test_no_trading_no_distortion(self, fig1_params):
        grid = TimeGrid.uniform(10, 8)
        path = rollout(np.zeros(9), fig1_params, grid, ZeroKernel())
        assert np.all(path.Q == fig1_params.q)
        assert np.all(path.Z == 0.0)

    def test_full_liquidation_zero_kernel(self, fig1_params):
        # q = 10, T = 10, n = 10: u = 1 drains the inventory exactly
        grid = TimeGrid.uniform(10, 10)
        path = rollout(np.ones(11), fig1_params, grid, ZeroKernel())
        assert path.Q[0] == 10.0
        assert path.Q[-1] == 0.0
        assert np.all(path.Z == 0.0)

    def test_inventory_recurrence_is_exact(self, fig1_params, rng):
        grid = TimeGrid.uniform(10, 23)
        u = rng.normal(size=24)
        path = rollout(u, fig1_params, grid, ZeroKernel())
        for i in range(23):
            assert path.Q[i + 1] == path.Q[i] - u[i] * grid.dt

    def test_exponential_distortion_quadrature_oracle(self):
        # constant unit speed: Z at t_2 equals the time integral of the kernel,
        # checked against adaptive quadrature of exp(-rho (t2 - s)) on [0, t2]
        params = ScenarioParams(q=10, T=4, lam=0.5)
        grid = TimeGrid.uniform(4.0, 4)  # dt = 1
        kernel = ExponentialKernel(c=1.0, rho=0.5)
        path = rollout(np.ones(5), params, grid, kernel)
        t2 = grid.t[2]
        oracle, err = si.quad(lambda s: np.exp(-0.5 * (t2 - s)), 0.0, t2)
        assert err < 1e-12
        assert path.Z[2] == pytest.approx(oracle, abs=1e-10)
        assert path.Z[2] == pytest.approx(1.2642411176571153, abs=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 16, 64])
    def test_distortion_matches_dense_propagator(self, n, rng):
        grid = TimeGrid.uniform(5.0, n)
        params = ScenarioParams(q=2, T=5, lam=1, varrho=3, h0=rng.normal(size=n + 1))
        table = TabulatedKernel.from_grid_values(grid, np.exp(-0.4 * grid.t))
        for kernel in (ExponentialKernel(1.0, 0.5), FractionalKernel(1.0, 0.7),
                       BoundedPowerLawKernel(0.3, 1.5), table):
            u = rng.normal(size=n + 1)
            inc = integrated_increments(kernel, params, grid)
            Z = rollout(u, params, grid, kernel).Z
            want = params.h0 + inc.LG @ u
            scale = np.abs(params.h0) + np.abs(inc.LG) @ np.abs(u)
            assert np.all(np.abs(Z - want) <= 1e-13 * scale)

    def test_zero_kernel_returns_h0(self, rng):
        grid = TimeGrid.uniform(5.0, 12)
        h0 = rng.normal(size=13)
        params = ScenarioParams(q=2, T=5, lam=1, h0=h0)
        path = rollout(rng.normal(size=13), params, grid, ZeroKernel())
        assert np.array_equal(path.Z, h0)

    def test_length_mismatch(self, fig1_params):
        grid = TimeGrid.uniform(10, 8)
        with pytest.raises(InputError):
            rollout(np.zeros(8), fig1_params, grid, ZeroKernel())


class TestObjective:
    def test_terminal_penalty_only(self):
        params = ScenarioParams(q=10, T=10, lam=0.5, varrho=4, phi=0)
        grid = TimeGrid.uniform(10, 16)
        path = rollout(np.zeros(17), params, grid, ZeroKernel())
        bd = evaluate_objective(path, params, grid, np.zeros(17))
        assert bd.total == -400.0
        assert bd.terminal_penalty == 400.0
        assert bd.revenue == bd.temporary_cost == bd.transient_cost == 0.0

    def test_twap_temporary_cost(self):
        # u = q/T = 1, G = 0, P = 0: only the temporary cost -lam q^2 / T
        params = ScenarioParams(q=10, T=10, lam=0.5, varrho=7.7, phi=0)
        grid = TimeGrid.uniform(10, 10)
        path = rollout(np.ones(11), params, grid, ZeroKernel())
        bd = evaluate_objective(path, params, grid, np.zeros(11))
        assert bd.total == pytest.approx(-5.0, abs=1e-12)
        assert path.Q[-1] == 0.0  # varrho irrelevant

    def test_running_penalty_only(self):
        params = ScenarioParams(q=10, T=10, lam=0.5, varrho=0, phi=1)
        grid = TimeGrid.uniform(10, 16)
        path = rollout(np.zeros(17), params, grid, ZeroKernel())
        bd = evaluate_objective(path, params, grid, np.zeros(17))
        assert bd.total == pytest.approx(-1000.0, rel=1e-14)

    def test_total_is_sum_of_parts(self, fig1_params, exp_kernel, rng):
        grid = TimeGrid.uniform(10, 20)
        u = rng.normal(size=21)
        P = rng.normal(size=21)
        path = rollout(u, fig1_params, grid, exp_kernel)
        bd = evaluate_objective(path, fig1_params, grid, P)
        recomputed = (bd.revenue - bd.temporary_cost - bd.transient_cost
                      - bd.running_penalty - bd.terminal_penalty)
        assert bd.total == pytest.approx(recomputed, rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(shift=st.floats(-50, 50), seed=st.integers(0, 10_000))
    def test_price_shift_identity(self, shift, seed):
        # shifting P by a constant c moves the objective by exactly c * q
        params = ScenarioParams(q=7.0, T=5.0, lam=0.3, varrho=2.0, phi=0.4)
        grid = TimeGrid.uniform(5.0, 12)
        rng = np.random.default_rng(seed)
        u = rng.normal(size=13)
        P = rng.normal(size=13)
        path = rollout(u, params, grid, ExponentialKernel(1.0, 0.7))
        base = evaluate_objective(path, params, grid, P).total
        moved = evaluate_objective(path, params, grid, P + shift).total
        scale = 1.0 + abs(base) + abs(shift) * abs(params.q)
        assert moved - base == pytest.approx(shift * params.q, abs=1e-10 * scale)

    def test_vector_length_checks(self, fig1_params):
        grid = TimeGrid.uniform(10, 8)
        path = rollout(np.zeros(9), fig1_params, grid, ZeroKernel())
        with pytest.raises(InputError):
            evaluate_objective(path, fig1_params, grid, np.zeros(8))

