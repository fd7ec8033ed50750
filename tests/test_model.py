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
    OUSignal,
    ScenarioParams,
    StrategyPath,
    TabulatedKernel,
    TimeGrid,
    ZeroKernel,
    evaluate_objective,
    integrated_increments,
    rollout,
)
from exec_solver.model import inventory_path, toeplitz_view


class TestToeplitz:
    def test_matches_the_entrywise_definition(self, rng):
        # square and rectangular, down to a single row or column
        for rows in range(1, 7):
            for cols in range(1, 7):
                col, row = rng.normal(size=rows), rng.normal(size=cols)
                want = np.array([[row[j - k] if j >= k else col[k - j] for j in range(cols)]
                                 for k in range(rows)])
                view = toeplitz_view(col, row)
                assert view.shape == (rows, cols)
                assert np.array_equal(view, want)
                assert not view.flags.writeable


class TestScenarioParams:
    def test_rejects_nonpositive_lam(self):
        with pytest.raises(InputError):
            ScenarioParams(q=1, T=1, lam=0.0)
        with pytest.raises(InputError):
            ScenarioParams(q=1, T=1, lam=-0.5)

    def test_rejects_bad_horizon_and_penalties(self):
        for T in (0, -1):
            with pytest.raises(InputError, match=f"horizon T must be > 0, got {T}"):
                ScenarioParams(q=1, T=T, lam=1)
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

    def test_h0_list_is_a_tabulated_vector(self):
        p = ScenarioParams(q=1, T=1, lam=1, h0=[0.0, 0.1, 0.2])
        assert np.array_equal(p.h0_values(TimeGrid.uniform(1.0, 2)), [0.0, 0.1, 0.2])
        with pytest.raises(InputError, match="grid needs 4"):
            p.h0_values(TimeGrid.uniform(1.0, 3))

    def test_rejects_non_numeric_h0(self):
        with pytest.raises(InputError, match="h0"):
            ScenarioParams(q=1, T=1, lam=1, h0="x")

    def test_rejects_two_dimensional_h0(self):
        with pytest.raises(InputError, match="1-d"):
            ScenarioParams(q=1, T=1, lam=1, h0=np.zeros((3, 3)))

    def test_vector_h0_hashes_and_compares(self):
        # scenarios compare by identity, so a vector h0 needs no elementwise truth value
        a = ScenarioParams(q=1, T=1, lam=1, h0=[0.0, 0.1, 0.2])
        b = ScenarioParams(q=1, T=1, lam=1, h0=[0.0, 0.1, 0.2])
        assert len({a, b}) == 2
        assert a == a and a != b


@pytest.mark.parametrize("build, field", [
    (lambda: ScenarioParams(q="x", T=1, lam=1), "q"),
    (lambda: OUSignal(I0="x", gamma=0.3, sigma=0), "I0"),
    (lambda: FractionalKernel(c=None, alpha=0.6), "c"),
    (lambda: TimeGrid(n=4, T="1"), "T"),
], ids=["ScenarioParams", "OUSignal", "FractionalKernel", "TimeGrid"])
def test_non_number_field_names_the_field(build, field):
    with pytest.raises(InputError, match=f"needs a finite {field}, got"):
        build()


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
        for shape in [(24,), (3, 24)]:  # one path and a batch
            u = rng.normal(size=shape)
            path = rollout(u, fig1_params, grid, ZeroKernel())
            assert path.Q.shape == shape and path.Q.flags.c_contiguous
            assert np.all(path.Q[..., 0] == fig1_params.q)
            for i in range(23):
                assert np.all(path.Q[..., i + 1] == path.Q[..., i] - u[..., i] * grid.dt)

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



PARTS = ("revenue", "temporary_cost", "transient_cost", "running_penalty",
         "terminal_penalty", "total")


class TestBatch:
    @pytest.mark.parametrize("n", [2, 3, 16, 200])
    def test_batch_matches_single_paths(self, n, rng):
        # the batch takes the matrix-product distortion, one path the convolution
        grid = TimeGrid.uniform(5.0, n)
        params = ScenarioParams(q=2, T=5, lam=1, varrho=3, phi=0.3, h0=rng.normal(size=n + 1))
        table = TabulatedKernel.from_grid_values(grid, np.exp(-0.4 * grid.t))
        for kernel in (ExponentialKernel(1.0, 0.5), FractionalKernel(1.0, 0.7),
                       BoundedPowerLawKernel(0.3, 1.5), table):
            u = rng.normal(size=(4, n + 1))
            I = rng.normal(size=(4, n + 1))
            P = rng.normal(size=(4, n + 1))
            batch = rollout(u, params, grid, kernel, signal_values=I)
            bd = evaluate_objective(batch, params, grid, P)
            LG = integrated_increments(kernel, params, grid).LG
            for p in range(4):
                single = rollout(u[p], params, grid, kernel, signal_values=I[p])
                assert np.array_equal(batch.Q[p], single.Q)
                assert np.array_equal(batch.I[p], single.I)
                z_scale = np.abs(params.h0) + np.abs(LG) @ np.abs(u[p])
                assert np.all(np.abs(batch.Z[p] - single.Z) <= 1e-13 * z_scale)
                want = evaluate_objective(single, params, grid, P[p])
                # every part evaluated on magnitudes bounds its rounding
                scale = evaluate_objective(
                    StrategyPath(u=np.abs(u[p]), Q=np.abs(single.Q), Z=z_scale),
                    params, grid, np.abs(P[p]))
                for name in PARTS[:-1]:
                    got, ref = getattr(bd, name)[p], getattr(want, name)
                    assert abs(got - ref) <= 1e-13 * getattr(scale, name), (kernel, name)
                total_scale = sum(getattr(scale, name) for name in PARTS[:-1])
                assert abs(bd.total[p] - want.total) <= 1e-13 * total_scale

    @pytest.mark.parametrize("n", [2, 3, 200])
    def test_in_place_rollout_matches_the_allocating_expressions(self, n, rng):
        # inventory accumulated in place and h0 added into the distortion
        # product round exactly like the expressions that allocate
        grid = TimeGrid.uniform(7.0, n)
        params = ScenarioParams(q=3, T=7, lam=1, varrho=2, h0=rng.normal(size=n + 1))
        kernel = FractionalKernel(1.0, 0.7)
        LG = integrated_increments(kernel, params, grid).LG
        for u in (rng.normal(size=n + 1), rng.normal(size=(5, n + 1))):
            steps = np.empty(u.shape)
            steps[..., 0] = params.q
            steps[..., 1:] = u[..., :-1] * grid.dt
            want_q = np.subtract.accumulate(steps, axis=-1)
            got_q = inventory_path(u, params.q, grid.dt)
            assert got_q.tobytes() == want_q.tobytes()
            recurrence = [np.full(u.shape[:-1], params.q)]
            for i in range(n):
                recurrence.append(recurrence[-1] - u[..., i] * grid.dt)
            assert got_q.tobytes() == np.stack(recurrence, axis=-1).tobytes()
            if u.ndim == 2:
                want_z = params.h0 + u @ LG.T
                got_z = rollout(u, params, grid, kernel).Z
                assert got_z.tobytes() == want_z.tobytes()

    def test_part_types(self, fig1_params, exp_kernel, rng):
        grid = TimeGrid.uniform(10, 8)
        single = evaluate_objective(rollout(rng.normal(size=9), fig1_params, grid, exp_kernel),
                                    fig1_params, grid, np.zeros(9))
        batch = evaluate_objective(rollout(rng.normal(size=(3, 9)), fig1_params, grid,
                                           exp_kernel), fig1_params, grid, np.zeros((3, 9)))
        for name in PARTS:
            assert type(getattr(single, name)) is float
            assert getattr(batch, name).shape == (3,)

    def test_batch_shape_checks(self, fig1_params):
        grid = TimeGrid.uniform(10, 8)
        with pytest.raises(InputError, match="expected"):
            rollout(np.zeros((3, 8)), fig1_params, grid, ZeroKernel())
        with pytest.raises(InputError, match="signal_values"):
            rollout(np.zeros((3, 9)), fig1_params, grid, ZeroKernel(),
                    signal_values=np.zeros((2, 9)))
        with pytest.raises(InputError, match="expected"):
            rollout(np.zeros((2, 3, 9)), fig1_params, grid, ZeroKernel())
        path = rollout(np.zeros((3, 9)), fig1_params, grid, ZeroKernel())
        with pytest.raises(InputError, match="price_path"):
            evaluate_objective(path, fig1_params, grid, np.zeros(9))
