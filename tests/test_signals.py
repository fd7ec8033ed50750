import math
import warnings

import numpy as np
import pytest

from exec_solver import (
    InputError,
    OUSignal,
    TabulatedSignal,
    TimeGrid,
    UnsupportedSignalError,
    ZeroSignal,
    forecast_matrix,
    price_path,
    simulate_signal,
)
import exec_solver.signals as signals_mod
from exec_solver.signals import ou_forecast_factors


class TestSimulation:
    def test_deterministic_decay(self):
        # sigma = 0: exact one-step decay I_1 = I_0 exp(-gamma dt)
        grid = TimeGrid.uniform(10.0, 10)  # dt = 1
        path = simulate_signal(OUSignal(I0=2.0, gamma=0.3, sigma=0.0), grid, seed=5)
        assert path[1] == pytest.approx(2.0 * math.exp(-0.3), rel=1e-14)
        assert path[1] == pytest.approx(1.4816364413634358, rel=1e-12)
        expected = 2.0 * np.exp(-0.3 * grid.t)
        assert np.allclose(path, expected, rtol=1e-12, atol=0)

    def test_zero_start_stays_zero(self):
        grid = TimeGrid.uniform(4.0, 8)
        path = simulate_signal(OUSignal(I0=0.0, gamma=0.3, sigma=0.0), grid, seed=1)
        assert np.all(path == 0.0)

    def test_same_seed_bit_identical(self):
        grid = TimeGrid.uniform(4.0, 16)
        model = OUSignal(I0=1.0, gamma=0.5, sigma=0.8)
        a = simulate_signal(model, grid, seed=99)
        b = simulate_signal(model, grid, seed=99)
        assert np.array_equal(a, b)
        c = simulate_signal(model, grid, seed=100)
        assert not np.array_equal(a, c)

    def test_batch_first_path_matches_single(self):
        # counter-based draws: stream position is the path index, so the
        # first batch row coincides with the single-path simulation
        grid = TimeGrid.uniform(4.0, 8)
        model = OUSignal(I0=1.0, gamma=0.5, sigma=0.8)
        single = simulate_signal(model, grid, seed=3)
        batch = simulate_signal(model, grid, seed=3, n_paths=5)
        assert batch.shape == (5, 9)
        assert np.array_equal(batch[0], single)

    def test_deterministic_path_draws_no_normals(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a path with sigma = 0 drew normals")

        monkeypatch.setattr(signals_mod, "_step_normals", forbidden)
        grid = TimeGrid.uniform(4.0, 8)
        model = OUSignal(I0=2.0, gamma=0.3, sigma=0.0)
        phase, _ = signals_mod._ou_step_coeffs(model, grid.dt)
        want = [2.0]
        for _ in range(8):
            want.append(want[-1] * phase)
        assert np.array_equal(simulate_signal(model, grid, seed=3, n_paths=4), np.tile(want, (4, 1)))

    @pytest.mark.parametrize("gamma", [0.3, 1e-13, 0.0, 5.0])
    @pytest.mark.parametrize("n", [2, 200, 1000])
    @pytest.mark.parametrize("n_paths", [None, 3])
    def test_deterministic_path_matches_recurrence(self, gamma, n, n_paths):
        # the explicit one-step recurrence, bit for bit
        grid = TimeGrid.uniform(4.0, n)
        model = OUSignal(I0=2.0, gamma=gamma, sigma=0.0)
        phase, _ = signals_mod._ou_step_coeffs(model, grid.dt)
        want = np.empty(n + 1)
        want[0] = 2.0
        for step in range(n):
            want[step + 1] = want[step] * phase
        got = simulate_signal(model, grid, seed=3, n_paths=n_paths)
        assert np.array_equal(got, want if n_paths is None else np.tile(want, (n_paths, 1)))

    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    def test_noisy_path_follows_step_normals(self, gamma):
        # the explicit recurrence over the (seed, step) draws, bit for bit
        grid = TimeGrid.uniform(4.0, 8)
        model = OUSignal(I0=1.0, gamma=gamma, sigma=0.8)
        phase, scale = signals_mod._ou_step_coeffs(model, grid.dt)
        draw = signals_mod._step_normals(3)
        want = np.empty((5, 9))
        want[:, 0] = 1.0
        for step in range(8):
            want[:, step + 1] = want[:, step] * phase + scale * draw(step, 5)
        assert np.array_equal(simulate_signal(model, grid, seed=3, n_paths=5), want)

    @pytest.mark.parametrize("seed", [3, 2**64 - 1])
    def test_step_normals_match_fresh_generators(self, seed):
        # re-keying one generator draws what a fresh Philox keyed by
        # (seed, step) draws, in any step order and for any count
        draw = signals_mod._step_normals(seed)
        for step in [*range(50), 7, 0, 2**40]:
            for count in (1, 2000):
                fresh = np.random.Generator(np.random.Philox(
                    key=np.array([seed, step], dtype=np.uint64)))
                assert np.array_equal(draw(step, count), fresh.standard_normal(count))

    def test_monte_carlo_mean_matches_decay(self):
        grid = TimeGrid.uniform(4.0, 16)
        model = OUSignal(I0=2.0, gamma=0.3, sigma=0.5)
        paths = simulate_signal(model, grid, seed=11, n_paths=100_000)
        mean = paths.mean(axis=0)
        sem = paths.std(axis=0, ddof=1) / np.sqrt(paths.shape[0])
        expected = 2.0 * np.exp(-0.3 * grid.t)
        assert np.all(np.abs(mean - expected) <= 4.0 * sem + 1e-12)

    def test_variance_matches_exact_transition(self):
        grid = TimeGrid.uniform(4.0, 4)
        model = OUSignal(I0=0.0, gamma=0.7, sigma=0.9)
        paths = simulate_signal(model, grid, seed=4, n_paths=100_000)
        # stationary-step variance sigma^2 (1 - exp(-2 gamma t)) / (2 gamma)
        var_T = 0.9**2 * (1 - math.exp(-2 * 0.7 * 4.0)) / (2 * 0.7)
        sample = paths[:, -1].var(ddof=1)
        assert sample == pytest.approx(var_T, rel=0.03)

    def test_gamma_zero_limit_is_random_walk(self):
        grid = TimeGrid.uniform(4.0, 8)
        walk = simulate_signal(OUSignal(I0=1.0, gamma=0.0, sigma=0.5), grid, seed=2)
        tiny = simulate_signal(OUSignal(I0=1.0, gamma=1e-13, sigma=0.5), grid, seed=2)
        assert np.allclose(walk, tiny, rtol=0, atol=1e-10)

    def test_zero_and_tabulated_models(self):
        grid = TimeGrid.uniform(4.0, 4)
        assert np.all(simulate_signal(ZeroSignal(), grid, seed=0) == 0.0)
        vals = np.arange(5.0)
        out = simulate_signal(TabulatedSignal(vals), grid, seed=0, n_paths=3)
        assert np.array_equal(out, np.tile(vals, (3, 1)))

    def test_seed_validation(self):
        grid = TimeGrid.uniform(4.0, 4)
        with pytest.raises(InputError):
            simulate_signal(ZeroSignal(), grid, seed=-1)

    @pytest.mark.parametrize("n_paths", [-1, 0, 2.5, 3.0, True, np.float64(3.0), "3"], ids=repr)
    def test_path_count_validation(self, n_paths):
        # only an integer >= 1 counts paths: 2.5 used to simulate 2 of them
        grid = TimeGrid.uniform(4.0, 4)
        for model in (ZeroSignal(), OUSignal(I0=1.0, gamma=0.3, sigma=0.5)):
            with pytest.raises(InputError, match="n_paths must be an integer >= 1"):
                simulate_signal(model, grid, seed=0, n_paths=n_paths)
        assert simulate_signal(ZeroSignal(), grid, n_paths=np.int64(2)).shape == (2, 5)

    def test_model_validation(self):
        with pytest.raises(InputError):
            OUSignal(I0=1.0, gamma=-0.1, sigma=0.5)
        with pytest.raises(InputError):
            OUSignal(I0=1.0, gamma=0.1, sigma=-0.5)


class TestForecastMatrix:
    def test_known_value_at_origin(self):
        # I_0 = 2, gamma = 0.3, dt = 1, n = 10: N[0,0] = 2 (e^-3 - 1) / 0.3
        grid = TimeGrid.uniform(10.0, 10)
        model = OUSignal(I0=2.0, gamma=0.3, sigma=0.0)
        path = simulate_signal(model, grid, seed=0)
        N = forecast_matrix(model, path, grid)
        assert N[0, 0] == pytest.approx(2.0 * (math.exp(-3.0) - 1.0) / 0.3, rel=1e-13)
        assert N[0, 0] == pytest.approx(-6.3347528775475735, rel=1e-12)

    def test_support_and_terminal_entries(self):
        grid = TimeGrid.uniform(10.0, 10)
        model = OUSignal(I0=2.0, gamma=0.3, sigma=0.5)
        path = simulate_signal(model, grid, seed=8)
        N = forecast_matrix(model, path, grid)
        for k in range(11):
            for j in range(k + 1, 11):
                assert N[k, j] == 0.0
        # last row forecasts P_T - P_T, identically zero for every column
        assert np.all(N[10, :] == 0.0)
        # the nonzero tail lives on the diagonal: forecasts of P_t - P_T at t
        j = 4
        expected = path[j] * (math.exp(-0.3 * (10 - j)) - 1.0) / 0.3
        assert N[j, j] == pytest.approx(expected, rel=1e-13)
        assert N[j, j] != 0.0

    @pytest.mark.parametrize("n", [2, 3, 200])
    def test_entries_are_scale_times_decay_times_signal_bit_for_bit(self, n, rng):
        # N[k, j] = s_k * e_{k-j} * I_j, multiplied left to right, with
        # e_{k-j} = 0 above the diagonal: the bits, signed zeros included,
        # of a column-major array
        grid = TimeGrid.uniform(10.0, n)
        model = OUSignal(I0=1.0, gamma=0.3, sigma=0.5)
        path = rng.normal(size=n + 1)
        decay, scale = ou_forecast_factors(model, grid)
        want = np.empty((n + 1, n + 1), order="F")
        for k in range(n + 1):
            for j in range(n + 1):
                want[k, j] = scale[k] * (decay[k - j] if k >= j else 0.0) * path[j]
        bufsize = np.getbufsize()
        N = forecast_matrix(model, path, grid)
        assert np.getbufsize() == bufsize  # the scalings' buffer size is restored
        assert N.flags.f_contiguous
        assert N.tobytes(order="F") == want.tobytes(order="F")

    def test_zero_signal_all_zero(self):
        grid = TimeGrid.uniform(10.0, 10)
        N = forecast_matrix(ZeroSignal(), np.zeros(11), grid)
        assert np.all(N == 0.0)

    def test_linearity_in_path(self, rng):
        grid = TimeGrid.uniform(5.0, 12)
        model = OUSignal(I0=1.0, gamma=0.4, sigma=0.5)
        path = rng.normal(size=13)
        base = forecast_matrix(model, path, grid)
        assert np.array_equal(forecast_matrix(model, 2.0 * path, grid), 2.0 * base)
        triple = forecast_matrix(model, 3.0 * path, grid)
        assert np.allclose(triple, 3.0 * base, rtol=1e-15, atol=0)

    def test_sign_opposite_to_signal(self, rng):
        # before the horizon the forecast weight is strictly negative
        grid = TimeGrid.uniform(5.0, 10)
        model = OUSignal(I0=1.0, gamma=0.4, sigma=0.5)
        path = rng.normal(size=11)
        path[np.abs(path) < 0.1] = 0.5  # keep away from zero
        N = forecast_matrix(model, path, grid)
        for j in range(10):
            for k in range(j, 10):
                assert np.sign(N[k, j]) == -np.sign(path[j])

    def test_gamma_zero_limit_formula(self):
        grid = TimeGrid.uniform(5.0, 10)
        model = OUSignal(I0=2.0, gamma=0.0, sigma=0.0)
        path = simulate_signal(model, grid, seed=0)
        N = forecast_matrix(model, path, grid)
        for j in range(11):
            for k in range(j, 11):
                assert N[k, j] == pytest.approx(path[j] * (grid.t[k] - 5.0), rel=1e-13)

    def test_forecast_consistent_with_discrete_price(self):
        # the closed-form forecast approximates the exact conditional
        # expectation of the discrete price increment to O(gamma dt)
        gamma, I0 = 0.3, 2.0
        grid = TimeGrid.uniform(10.0, 256)
        model = OUSignal(I0=I0, gamma=gamma, sigma=0.0)
        path = simulate_signal(model, grid, seed=0)
        N = forecast_matrix(model, path, grid)
        P = price_path(path, grid)
        discrete = P[0] - P[-1]  # deterministic at sigma = 0
        assert N[0, 0] == pytest.approx(discrete, rel=gamma * grid.dt)

    def test_monte_carlo_cross_check(self):
        # stochastic version of the same statement, on a grid fine enough
        # that the quadrature bias sits inside the Monte Carlo band
        gamma = 0.3
        grid = TimeGrid.uniform(10.0, 256)
        model = OUSignal(I0=2.0, gamma=gamma, sigma=0.5)
        paths = simulate_signal(model, grid, seed=21, n_paths=50_000)
        P = price_path(paths, grid)
        diffs = P[:, 0] - P[:, -1]
        sem = diffs.std(ddof=1) / np.sqrt(diffs.shape[0])
        N00 = forecast_matrix(model, paths[0] * 0 + 2.0, grid)[0, 0]
        bias_bound = gamma * grid.dt * abs(N00)
        assert abs(diffs.mean() - N00) <= 3.0 * sem + bias_bound

    def test_tabulated_needs_user_forecast(self):
        grid = TimeGrid.uniform(4.0, 4)
        sig = TabulatedSignal(np.ones(5))
        with pytest.raises(UnsupportedSignalError):
            forecast_matrix(sig, sig.values, grid)
        given = np.arange(25.0).reshape(5, 5)
        sig = TabulatedSignal(np.ones(5), forecast=given)
        assert np.array_equal(forecast_matrix(sig, sig.values, grid), np.tril(given))

    @pytest.mark.parametrize("gamma", [1e-6, 1e-10, 2e-12])
    def test_small_gamma_matches_series(self, gamma, rng):
        # with a = t_n - t_j and b = t_k - t_j the exact entry is
        # I_j (e^{-gamma a} - e^{-gamma b}) / gamma
        #   = I_j (b - a) (1 - gamma (a + b) / 2 + gamma^2 (a^2 + a b + b^2) / 6 - ...),
        # so a difference of exponentials loses digits as gamma -> 0
        grid = TimeGrid.uniform(10.0, 200)
        path = rng.normal(size=201)
        N = forecast_matrix(OUSignal(I0=1.0, gamma=gamma, sigma=0.5), path, grid)
        t = grid.t
        a = (t[-1] - t)[None, :]
        b = t[:, None] - t[None, :]
        series = (t[:, None] - t[-1]) * (1.0 - gamma * (a + b) / 2.0
                                         + gamma**2 * (a * a + a * b + b * b) / 6.0)
        expected = np.where(b >= 0.0, series * path[None, :], 0.0)
        np.testing.assert_allclose(N, expected, rtol=1e-12, atol=0.0)

    def test_large_gamma_raises_no_warning(self, rng):
        # gamma T = 1000: exp(-gamma (k - j) dt) would overflow above the diagonal
        grid = TimeGrid.uniform(10.0, 200)
        path = rng.normal(size=201)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            N = forecast_matrix(OUSignal(I0=1.0, gamma=100.0, sigma=0.5), path, grid)
        assert np.all(np.isfinite(N))
        assert N[0, 0] == pytest.approx(-path[0] / 100.0, rel=1e-13)

    def test_path_length_checked(self):
        grid = TimeGrid.uniform(4.0, 4)
        with pytest.raises(InputError):
            forecast_matrix(OUSignal(1, 0.3, 0.5), np.zeros(4), grid)


class TestPricePath:
    def test_left_endpoint_accumulation(self):
        grid = TimeGrid.uniform(4.0, 4)  # dt = 1
        I = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        P = price_path(I, grid)
        assert np.array_equal(P, np.array([0.0, 1.0, 3.0, 6.0, 10.0]))

    @pytest.mark.parametrize("n", [2, 3, 200])
    def test_matches_the_concatenated_cumsum_bit_for_bit(self, n, rng):
        # written into one preallocated output, with the rounding of
        # [0, dt * cumsum(I[:-1])]
        grid = TimeGrid.uniform(7.0, n)
        for values in (rng.normal(size=n + 1), rng.normal(size=(5, n + 1))):
            acc = np.cumsum(values[..., :-1], axis=-1) * grid.dt
            want = np.concatenate([np.zeros(values.shape[:-1] + (1,)), acc], axis=-1)
            got = price_path(values, grid)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_batch_matches_single(self, rng):
        grid = TimeGrid.uniform(4.0, 8)
        batch = rng.normal(size=(6, 9))
        P = price_path(batch, grid)
        for row in range(6):
            assert np.array_equal(P[row], price_path(batch[row], grid))
